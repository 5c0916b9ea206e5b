#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "core/movement_detector.hpp"
#include "dsp/frame_kernels.hpp"

namespace blinkradar::core {
namespace {

constexpr double kFps = 25.0;

dsp::IqPlanes noise_frame(std::size_t n, double sigma, Rng& rng) {
    dsp::IqPlanes f;
    f.resize(n);
    for (std::size_t b = 0; b < n; ++b) {
        f.i[b] = rng.normal(0, sigma);
        f.q[b] = rng.normal(0, sigma);
    }
    return f;
}

/// A frame whose every bin holds `v`.
dsp::IqPlanes constant_frame(std::size_t n, dsp::Complex v) {
    dsp::IqPlanes f;
    f.i.assign(n, v.real());
    f.q.assign(n, v.imag());
    return f;
}

/// Add `v` to every bin.
void shift(dsp::IqPlanes& f, dsp::Complex v) {
    for (double& x : f.i) x += v.real();
    for (double& x : f.q) x += v.imag();
}

/// Feed one frame the way the pipeline does.
bool push(MovementDetector& md, const dsp::IqPlanes& frame) {
    return md.push_soa(frame, dsp::active_kernels());
}

TEST(MovementDetector, QuietStreamNeverTriggers) {
    Rng rng(1);
    MovementDetector md(PipelineConfig{}, kFps);
    for (int i = 0; i < 500; ++i)
        EXPECT_FALSE(push(md, noise_frame(151, 0.01, rng)));
}

TEST(MovementDetector, LargeJumpTriggers) {
    Rng rng(2);
    MovementDetector md(PipelineConfig{}, kFps);
    for (int i = 0; i < 200; ++i) push(md, noise_frame(151, 0.01, rng));
    // A posture shift: every bin jumps by an amplitude far above noise.
    dsp::IqPlanes shifted = noise_frame(151, 0.01, rng);
    shift(shifted, dsp::Complex(1.0, -1.0));
    EXPECT_TRUE(push(md, shifted));
}

TEST(MovementDetector, NoJudgementBeforeBaselineEstablished) {
    Rng rng(3);
    MovementDetector md(PipelineConfig{}, kFps);
    // Even a big change in the first frames must not trigger: the median
    // window is not primed yet.
    const dsp::IqPlanes big = constant_frame(151, dsp::Complex(10, 10));
    EXPECT_FALSE(push(md, noise_frame(151, 0.01, rng)));
    EXPECT_FALSE(push(md, big));
}

TEST(MovementDetector, TriggeredFramesDontPoisonTheMedian) {
    Rng rng(4);
    MovementDetector md(PipelineConfig{}, kFps);
    for (int i = 0; i < 200; ++i) push(md, noise_frame(151, 0.01, rng));
    // Sustained large movement keeps triggering frame after frame (the
    // huge diffs are excluded from the median history).
    int triggers = 0;
    for (int i = 0; i < 10; ++i) {
        dsp::IqPlanes f = noise_frame(151, 0.01, rng);
        const double amp = i % 2 == 0 ? 2.0 : -2.0;  // keep frames changing
        shift(f, dsp::Complex(amp, amp));
        if (push(md, f)) ++triggers;
    }
    EXPECT_GE(triggers, 8);
}

TEST(MovementDetector, ResetForgetsBaseline) {
    Rng rng(5);
    MovementDetector md(PipelineConfig{}, kFps);
    for (int i = 0; i < 200; ++i) push(md, noise_frame(151, 0.01, rng));
    md.reset();
    const dsp::IqPlanes big = constant_frame(151, dsp::Complex(5, 5));
    EXPECT_FALSE(push(md, big));  // no baseline: no judgement
}

TEST(MovementDetector, LastDifferenceExposed) {
    Rng rng(6);
    MovementDetector md(PipelineConfig{}, kFps);
    push(md, constant_frame(10, dsp::Complex(0, 0)));
    push(md, constant_frame(10, dsp::Complex(1, 0)));
    EXPECT_NEAR(md.last_difference(), 10.0, 1e-12);
}

TEST(MovementDetector, SensitivityScalesWithConfig) {
    // The same disturbance triggers at factor 10 but not at factor 1e6.
    Rng rng1(7), rng2(7);
    PipelineConfig lo, hi;
    lo.movement_threshold_factor = 10.0;
    hi.movement_threshold_factor = 1e6;
    MovementDetector mlo(lo, kFps), mhi(hi, kFps);
    for (int i = 0; i < 200; ++i) {
        push(mlo, noise_frame(151, 0.01, rng1));
        push(mhi, noise_frame(151, 0.01, rng2));
    }
    dsp::IqPlanes f1 = noise_frame(151, 0.01, rng1);
    dsp::IqPlanes f2 = f1;
    shift(f1, dsp::Complex(0.3, 0.3));
    shift(f2, dsp::Complex(0.3, 0.3));
    EXPECT_TRUE(push(mlo, f1));
    EXPECT_FALSE(push(mhi, f2));
}

TEST(MovementDetector, RejectsEmptyFrameAndBadConfig) {
    MovementDetector md(PipelineConfig{}, kFps);
    EXPECT_THROW(push(md, dsp::IqPlanes{}),
                 blinkradar::ContractViolation);
    PipelineConfig bad;
    bad.movement_threshold_factor = 0.5;
    EXPECT_THROW(MovementDetector(bad, kFps), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::core
