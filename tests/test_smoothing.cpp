#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "dsp/smoothing.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::dsp {
namespace {

// Smooths a real signal through the complex moving_average_into: I and Q
// are smoothed independently, so a zero Q plane leaves I exactly what a
// real-valued smoother gives.
RealSignal moving_average(const RealSignal& x, std::size_t window) {
    const ComplexSignal z(x.begin(), x.end());
    ComplexSignal out, prefix;
    moving_average_into(z, window, out, prefix);
    RealSignal y(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) y[i] = out[i].real();
    return y;
}

TEST(MovingAverage, FlatSignalIsUnchanged) {
    const RealSignal x(50, 3.5);
    const RealSignal y = moving_average(x, 7);
    for (const double v : y) EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(MovingAverage, ReducesNoiseVariance) {
    Rng rng(1);
    RealSignal x(5000);
    for (auto& v : x) v = rng.normal(0, 1);
    const RealSignal y = moving_average(x, 9);
    // A 9-point average divides white-noise variance by ~9.
    EXPECT_LT(variance(y), variance(x) / 5.0);
}

TEST(MovingAverage, PreservesMeanOfLongSignal) {
    Rng rng(2);
    RealSignal x(2000);
    for (auto& v : x) v = rng.normal(2.0, 1.0);
    const RealSignal y = moving_average(x, 15);
    EXPECT_NEAR(mean(y), mean(x), 0.02);
}

TEST(MovingAverage, EdgesUseShrunkWindows) {
    const RealSignal x = {10.0, 0.0, 0.0, 0.0, 0.0};
    const RealSignal y = moving_average(x, 3);
    // First output averages x[0..1] only.
    EXPECT_DOUBLE_EQ(y[0], 5.0);
    EXPECT_DOUBLE_EQ(y[1], 10.0 / 3.0);
}

TEST(MovingAverage, WindowOneIsIdentity) {
    const RealSignal x = {1.0, -2.0, 3.0};
    const RealSignal y = moving_average(x, 1);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(MovingAverage, ComplexVariantSmoothsBothComponents) {
    ComplexSignal z(40);
    for (std::size_t i = 0; i < z.size(); ++i)
        z[i] = Complex(i % 2 ? 1.0 : -1.0, i % 2 ? -1.0 : 1.0);
    ComplexSignal s, prefix;
    moving_average_into(z, 8, s, prefix);
    for (std::size_t i = 10; i < 30; ++i) {
        EXPECT_LT(std::abs(s[i].real()), 0.2);
        EXPECT_LT(std::abs(s[i].imag()), 0.2);
    }
}

}  // namespace
}  // namespace blinkradar::dsp
