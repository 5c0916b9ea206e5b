#include <gtest/gtest.h>

#include "dsp/dsp_types.hpp"
#include "dsp/resample.hpp"

namespace blinkradar::dsp {
namespace {

TEST(InterpAt, InterpolatesAndClamps) {
    const RealSignal x = {0.0, 10.0, 20.0};
    EXPECT_DOUBLE_EQ(interp_at(x, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(interp_at(x, 1.25), 12.5);
    EXPECT_DOUBLE_EQ(interp_at(x, -3.0), 0.0);   // clamp low
    EXPECT_DOUBLE_EQ(interp_at(x, 99.0), 20.0);  // clamp high
}

}  // namespace
}  // namespace blinkradar::dsp
