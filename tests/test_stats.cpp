#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::dsp {
namespace {

TEST(Stats, MeanVarianceStddev) {
    const RealSignal v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_DOUBLE_EQ(variance(v), 4.0);
    EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, SingleElement) {
    const RealSignal v = {3.0};
    EXPECT_DOUBLE_EQ(mean(v), 3.0);
    EXPECT_DOUBLE_EQ(variance(v), 0.0);
    EXPECT_DOUBLE_EQ(median(v), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 3.0);
}

TEST(Stats, MedianOddAndEven) {
    EXPECT_DOUBLE_EQ(median(RealSignal{3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median(RealSignal{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, PercentileInterpolatesLinearly) {
    const RealSignal v = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
}

TEST(Stats, PercentileRejectsOutOfRange) {
    const RealSignal v = {1.0};
    EXPECT_THROW(percentile(v, -1.0), blinkradar::ContractViolation);
    EXPECT_THROW(percentile(v, 101.0), blinkradar::ContractViolation);
}

TEST(Stats, ScatterVarianceIsSumOfComponentVariances) {
    Rng rng(1);
    ComplexSignal z(5000);
    RealSignal re(5000), im(5000);
    for (std::size_t i = 0; i < z.size(); ++i) {
        re[i] = rng.normal(1, 2);
        im[i] = rng.normal(-3, 0.5);
        z[i] = Complex(re[i], im[i]);
    }
    EXPECT_NEAR(scatter_variance(z), variance(re) + variance(im), 1e-9);
}

TEST(Stats, ScatterVarianceZeroForConstantCloud) {
    const ComplexSignal z(10, Complex(2, -7));
    EXPECT_DOUBLE_EQ(scatter_variance(z), 0.0);
}

TEST(Stats, ComplexMean) {
    const ComplexSignal z = {Complex(1, 2), Complex(3, 4)};
    const Complex m = complex_mean(z);
    EXPECT_DOUBLE_EQ(m.real(), 2.0);
    EXPECT_DOUBLE_EQ(m.imag(), 3.0);
}

// CDF(x): the fraction of samples <= x, read off the sorted samples.
double cdf_at(const EmpiricalCdf& cdf, double x) {
    const std::vector<double>& s = cdf.sorted_samples();
    const auto it = std::upper_bound(s.begin(), s.end(), x);
    return static_cast<double>(it - s.begin()) /
           static_cast<double>(s.size());
}

TEST(EmpiricalCdf, EvaluatesStepFunction) {
    const RealSignal samples = {1.0, 2.0, 3.0, 4.0};
    const EmpiricalCdf cdf(samples);
    EXPECT_DOUBLE_EQ(cdf_at(cdf, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf_at(cdf, 1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf_at(cdf, 2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf_at(cdf, 10.0), 1.0);
}

TEST(EmpiricalCdf, QuantilesPickSortedSamples) {
    const RealSignal samples = {5.0, 1.0, 3.0, 2.0, 4.0};
    const EmpiricalCdf cdf(samples);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
    EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
}

TEST(EmpiricalCdf, CdfAndQuantileAreConsistent) {
    Rng rng(4);
    RealSignal samples(500);
    for (auto& s : samples) s = rng.normal(0, 1);
    const EmpiricalCdf cdf(samples);
    for (const double q : {0.1, 0.25, 0.5, 0.9}) {
        EXPECT_GE(cdf_at(cdf, cdf.quantile(q)), q - 1e-12);
    }
}

TEST(EmpiricalCdf, RejectsBadQuantile) {
    const EmpiricalCdf cdf(RealSignal{1.0});
    EXPECT_THROW(cdf.quantile(0.0), blinkradar::ContractViolation);
    EXPECT_THROW(cdf.quantile(1.1), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::dsp
