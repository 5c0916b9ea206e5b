#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "dsp/background.hpp"

namespace blinkradar::dsp {
namespace {

TEST(LoopbackFilter, StaticSceneIsRemovedFromFirstFrame) {
    LoopbackFilter bg(4, 0.01);
    const ComplexSignal frame = {Complex(1, 2), Complex(-3, 0), Complex(0, 5),
                                 Complex(7, -1)};
    // First frame primes the background: output is exactly zero.
    const ComplexSignal out1 = bg.process(frame);
    for (const auto& v : out1) EXPECT_NEAR(std::abs(v), 0.0, 1e-15);
    // And stays zero for a static scene.
    for (int i = 0; i < 50; ++i) {
        const ComplexSignal out = bg.process(frame);
        for (const auto& v : out) EXPECT_NEAR(std::abs(v), 0.0, 1e-12);
    }
}

TEST(LoopbackFilter, DynamicComponentSurvives) {
    LoopbackFilter bg(1, 0.001);
    const Complex statics(5, -2);
    const Complex primed = statics + Complex(0.5, 0.0);  // first sample
    double max_out = 0.0;
    for (int i = 0; i < 300; ++i) {
        const double ph = constants::kTwoPi * i / 40.0;
        const Complex dyn(0.5 * std::cos(ph), 0.5 * std::sin(ph));
        const ComplexSignal out = bg.process(ComplexSignal{statics + dyn});
        if (i > 50) {
            // The slow filter stays near its primed value (the first
            // frame), so the rotating component survives: over a rotation
            // |out| sweeps up to the circle's diameter.
            const Complex estimate(bg.bg_i()[0], bg.bg_q()[0]);
            EXPECT_NEAR(std::abs(estimate - primed), 0.0, 0.15);
            max_out = std::max(max_out, std::abs(out[0]));
        }
    }
    EXPECT_GT(max_out, 0.8);
}

TEST(LoopbackFilter, TracksSlowBackgroundChange) {
    LoopbackFilter bg(1, 0.05);
    // Step the static level; the filter should re-converge.
    for (int i = 0; i < 100; ++i) bg.process(ComplexSignal{Complex(1, 0)});
    ComplexSignal out;
    for (int i = 0; i < 200; ++i) out = bg.process(ComplexSignal{Complex(4, 0)});
    EXPECT_NEAR(std::abs(out[0]), 0.0, 0.01);
}

TEST(LoopbackFilter, ResetReprimesOnNextFrame) {
    LoopbackFilter bg(1, 0.01);
    for (int i = 0; i < 10; ++i) bg.process(ComplexSignal{Complex(1, 1)});
    bg.reset();
    const ComplexSignal out = bg.process(ComplexSignal{Complex(9, -9)});
    EXPECT_NEAR(std::abs(out[0]), 0.0, 1e-12);
}

TEST(LoopbackFilter, RejectsWrongFrameSize) {
    LoopbackFilter bg(4, 0.01);
    EXPECT_THROW(bg.process(ComplexSignal(3)), blinkradar::ContractViolation);
}

TEST(LoopbackFilter, RejectsInvalidAlpha) {
    EXPECT_THROW(LoopbackFilter(4, 0.0), blinkradar::ContractViolation);
    EXPECT_THROW(LoopbackFilter(4, 1.0), blinkradar::ContractViolation);
    EXPECT_THROW(LoopbackFilter(0, 0.5), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::dsp
