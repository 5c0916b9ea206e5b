#include <gtest/gtest.h>

#include <numeric>

#include "dsp/window.hpp"

namespace blinkradar::dsp {
namespace {

// Coherent gain: the mean window value, i.e. the window's DC amplitude
// response normalised by its length.
double coherent_gain(const RealSignal& w) {
    return std::accumulate(w.begin(), w.end(), 0.0) /
           static_cast<double>(w.size());
}

TEST(Window, HammingIsSymmetric) {
    const RealSignal w = hamming_window(33);
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
}

TEST(Window, HammingPeaksAtCenterWithValueOne) {
    const RealSignal w = hamming_window(31);
    const double centre = w[15];
    EXPECT_NEAR(centre, 1.0, 1e-9);
    for (const double v : w) EXPECT_LE(v, centre + 1e-12);
}

TEST(Window, HammingValuesAreNonNegative) {
    const RealSignal w = hamming_window(64);
    for (const double v : w) EXPECT_GE(v, -1e-12);
}

TEST(Window, HammingEndpointsAreClassic008) {
    const RealSignal w = hamming_window(27);
    EXPECT_NEAR(w.front(), 0.08, 1e-12);
    EXPECT_NEAR(w.back(), 0.08, 1e-12);
}

TEST(Window, SingleSampleWindowIsOne) {
    const RealSignal w = hamming_window(1);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(Window, CoherentGainOfHammingNearPoint54) {
    const RealSignal w = hamming_window(1001);
    EXPECT_NEAR(coherent_gain(w), 0.54, 0.01);
}

}  // namespace
}  // namespace blinkradar::dsp
