#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"

namespace blinkradar::dsp {
namespace {

constexpr double kFs = 1000.0;

RealSignal tone(double freq_hz, std::size_t n) {
    RealSignal x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::sin(constants::kTwoPi * freq_hz * i / kFs);
    return x;
}

// |H(f)|: the DTFT of the taps evaluated directly at `freq_hz`.
double magnitude_response(const FirFilter& f, double freq_hz) {
    const double omega = constants::kTwoPi * freq_hz / kFs;
    Complex h(0.0, 0.0);
    for (std::size_t k = 0; k < f.taps().size(); ++k) {
        h += f.taps()[k] * Complex(std::cos(omega * static_cast<double>(k)),
                                   -std::sin(omega * static_cast<double>(k)));
    }
    return std::abs(h);
}

double rms_tail(const RealSignal& x, std::size_t skip) {
    double acc = 0;
    for (std::size_t i = skip; i < x.size(); ++i) acc += x[i] * x[i];
    return std::sqrt(acc / static_cast<double>(x.size() - skip));
}

TEST(FirDesign, UnityDcGain) {
    const auto f = FirFilter::low_pass(26, 100.0, kFs);
    EXPECT_NEAR(magnitude_response(f, 0.0), 1.0, 1e-12);
}

TEST(FirDesign, TapsCountIsOrderPlusOne) {
    const auto f = FirFilter::low_pass(26, 100.0, kFs);
    EXPECT_EQ(f.taps().size(), 27u);
    EXPECT_EQ(f.order(), 26u);
}

TEST(FirDesign, TapsAreSymmetricLinearPhase) {
    const auto f = FirFilter::low_pass(26, 120.0, kFs);
    const auto& t = f.taps();
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_NEAR(t[i], t[t.size() - 1 - i], 1e-14);
}

class LowPassCutoffs : public ::testing::TestWithParam<double> {};

TEST_P(LowPassCutoffs, PassesBelowAttenuatesAbove) {
    const double cutoff = GetParam();
    const auto f = FirFilter::low_pass(48, cutoff, kFs);
    // Passband: half the cutoff. Stopband: twice the cutoff.
    EXPECT_GT(magnitude_response(f, cutoff * 0.4), 0.9);
    EXPECT_LT(magnitude_response(f, cutoff * 2.5), 0.1);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LowPassCutoffs,
                         ::testing::Values(50.0, 100.0, 150.0, 200.0));

TEST(FirFilter, LowPassSuppressesHighTone) {
    const auto f = FirFilter::low_pass(48, 100.0, kFs);
    const RealSignal low = f.filter(tone(30.0, 800));
    const RealSignal high = f.filter(tone(400.0, 800));
    EXPECT_GT(rms_tail(low, 100), 0.6);   // ~0.707 for a passed sine
    EXPECT_LT(rms_tail(high, 100), 0.02);
}

TEST(FirFilter, GroupDelayIsHalfOrder) {
    const auto f = FirFilter::low_pass(26, 100.0, kFs);
    EXPECT_DOUBLE_EQ(f.group_delay_samples(), 13.0);
}

TEST(FirFilter, FiltFiltHasNoDelay) {
    const auto f = FirFilter::low_pass(26, 100.0, kFs);
    // Slow ramp: zero-phase filtering should track it closely mid-signal.
    RealSignal ramp(400);
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<double>(i) * 0.01;
    const RealSignal out = f.filtfilt(ramp);
    for (std::size_t i = 100; i < 300; ++i)
        EXPECT_NEAR(out[i], ramp[i], 0.005);
}

TEST(FirFilter, ComplexFilteringMatchesPerComponent) {
    const auto f = FirFilter::low_pass(26, 100.0, kFs);
    const RealSignal re = tone(50.0, 200);
    const RealSignal im = tone(80.0, 200);
    ComplexSignal z(200);
    for (std::size_t i = 0; i < 200; ++i) z[i] = Complex(re[i], im[i]);
    const ComplexSignal zf = f.filter(z);
    const RealSignal rf = f.filter(re);
    const RealSignal imf = f.filter(im);
    for (std::size_t i = 0; i < 200; ++i) {
        EXPECT_NEAR(zf[i].real(), rf[i], 1e-12);
        EXPECT_NEAR(zf[i].imag(), imf[i], 1e-12);
    }
}

TEST(FirFilter, OutputLengthEqualsInputLength) {
    const auto f = FirFilter::low_pass(26, 100.0, kFs);
    EXPECT_EQ(f.filter(tone(50.0, 123)).size(), 123u);
}

TEST(FirDesign, InvalidParametersThrow) {
    EXPECT_THROW(FirFilter::low_pass(1, 100.0, kFs),
                 blinkradar::ContractViolation);
    EXPECT_THROW(FirFilter::low_pass(26, 600.0, kFs),
                 blinkradar::ContractViolation);  // beyond Nyquist
    EXPECT_THROW(FirFilter(RealSignal{}), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::dsp
