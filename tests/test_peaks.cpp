#include <gtest/gtest.h>

#include "dsp/dsp_types.hpp"
#include "dsp/peaks.hpp"

namespace blinkradar::dsp {
namespace {

TEST(Peaks, FindsSimpleMaxima) {
    const RealSignal x = {0, 1, 0, 2, 0, 3, 0};
    const auto maxima = find_local_maxima(x);
    ASSERT_EQ(maxima.size(), 3u);
    EXPECT_EQ(maxima[0], 1u);
    EXPECT_EQ(maxima[1], 3u);
    EXPECT_EQ(maxima[2], 5u);
}

TEST(Peaks, EndpointsAreNeverExtrema) {
    const RealSignal x = {5, 1, 5};
    EXPECT_TRUE(find_local_maxima(x).empty());
}

TEST(Peaks, TooShortSignalsYieldNothing) {
    EXPECT_TRUE(find_local_maxima(RealSignal{1, 2}).empty());
    EXPECT_TRUE(find_local_maxima(RealSignal{}).empty());
}

TEST(Peaks, PlateausReportOnce) {
    const RealSignal x = {0, 2, 2, 2, 0};
    const auto maxima = find_local_maxima(x);
    ASSERT_EQ(maxima.size(), 1u);
    EXPECT_EQ(maxima[0], 1u);
}

TEST(Peaks, MinSeparationKeepsLargest) {
    const RealSignal x = {0, 5, 0, 3, 0, 0, 0, 4, 0};
    const auto maxima = find_local_maxima(x, 4);
    // The 3 at index 3 is within 4 samples of the larger 5 at index 1.
    ASSERT_EQ(maxima.size(), 2u);
    EXPECT_EQ(maxima[0], 1u);
    EXPECT_EQ(maxima[1], 7u);
}

}  // namespace
}  // namespace blinkradar::dsp
