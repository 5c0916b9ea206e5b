// Adversarial-input and robustness-experiment coverage: the guarded
// pipeline must survive arbitrary sensor garbage (no crash, no non-finite
// outputs), recover once faults stop, and be bit-identical to the
// unguarded pipeline on clean streams.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "eval/robustness.hpp"
#include "physio/driver_profile.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"

namespace blinkradar {
namespace {

sim::ScenarioConfig reference_scenario(std::uint64_t seed,
                                       Seconds duration = 60.0) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

TEST(Robustness, ZeroFaultGuardedPipelineIsBitIdenticalToUnguarded) {
    const sim::SimulatedSession s =
        sim::simulate_session(reference_scenario(5, 60.0));

    core::PipelineConfig guarded_cfg;   // guard on (default)
    core::PipelineConfig unguarded_cfg;
    unguarded_cfg.guard.enabled = false;

    core::BlinkRadarPipeline guarded(s.radar, guarded_cfg);
    core::BlinkRadarPipeline unguarded(s.radar, unguarded_cfg);
    for (const radar::RadarFrame& f : s.frames) {
        const core::FrameResult a = guarded.process(f);
        const core::FrameResult b = unguarded.process(f);
        // Bitwise-equal detection output, frame by frame.
        EXPECT_EQ(a.waveform_value, b.waveform_value);
        EXPECT_EQ(a.blink.has_value(), b.blink.has_value());
        EXPECT_EQ(a.cold_start, b.cold_start);
        EXPECT_EQ(a.quality, core::FrameVerdict::kClean);
        EXPECT_EQ(a.health, core::HealthState::kOk);
    }
    ASSERT_EQ(guarded.blinks().size(), unguarded.blinks().size());
    for (std::size_t i = 0; i < guarded.blinks().size(); ++i) {
        EXPECT_EQ(guarded.blinks()[i].peak_s, unguarded.blinks()[i].peak_s);
        EXPECT_EQ(guarded.blinks()[i].magnitude,
                  unguarded.blinks()[i].magnitude);
    }
    EXPECT_EQ(guarded.guard_stats().frames_quarantined, 0u);
    EXPECT_EQ(guarded.guard_stats().frames_bridged, 0u);
}

TEST(Robustness, BinCountMismatchIsACheckedErrorWhenUnguarded) {
    const sim::SimulatedSession s =
        sim::simulate_session(reference_scenario(6, 5.0));
    core::PipelineConfig cfg;
    cfg.guard.enabled = false;
    core::BlinkRadarPipeline pipe(s.radar, cfg);
    radar::RadarFrame bad = s.frames.front();
    bad.bins.resize(bad.bins.size() / 2);
    EXPECT_THROW(pipe.process(bad), ContractViolation);
}

TEST(Robustness, BinCountMismatchIsQuarantinedWhenGuarded) {
    const sim::SimulatedSession s =
        sim::simulate_session(reference_scenario(6, 5.0));
    core::BlinkRadarPipeline pipe(s.radar);
    radar::RadarFrame bad = s.frames.front();
    bad.bins.resize(bad.bins.size() / 2);
    const core::FrameResult r = pipe.process(bad);
    EXPECT_EQ(r.quality, core::FrameVerdict::kQuarantined);
    EXPECT_EQ(pipe.guard_stats().frames_quarantined, 1u);
}

// Property-style adversarial test: randomized corrupt frames (NaN/Inf,
// truncated, duplicated/out-of-order timestamps, dropped stretches) must
// never crash the guarded pipeline or leak a non-finite waveform value,
// and detection must come back once the faults stop.
TEST(Robustness, RandomizedCorruptFramesNeverCrashAndRecover) {
    const sim::ScenarioConfig sc = reference_scenario(7, 120.0);
    const sim::SimulatedSession s = sim::simulate_session(sc);
    core::BlinkRadarPipeline pipe(s.radar);
    Rng rng(1234);

    const Seconds faults_until = 60.0;
    std::size_t fed = 0;
    for (const radar::RadarFrame& f : s.frames) {
        radar::RadarFrame frame = f;
        if (f.timestamp_s < faults_until) {
            const double roll = rng.uniform(0.0, 1.0);
            if (roll < 0.10) continue;  // dropped
            if (roll < 0.20) {          // corrupt samples
                const int n = rng.uniform_int(1, 40);
                for (int k = 0; k < n; ++k) {
                    const auto bin = static_cast<std::size_t>(
                        rng.uniform_int(0,
                                        static_cast<int>(frame.bins.size()) -
                                            1));
                    frame.bins[bin] = dsp::Complex(
                        rng.bernoulli(0.5)
                            ? std::numeric_limits<double>::quiet_NaN()
                            : -std::numeric_limits<double>::infinity(),
                        0.0);
                }
            } else if (roll < 0.28) {   // truncated
                frame.bins.resize(static_cast<std::size_t>(
                    rng.uniform_int(1,
                                    static_cast<int>(frame.bins.size()))));
            } else if (roll < 0.36) {   // out-of-order / duplicate ts
                frame.timestamp_s -= rng.uniform(0.0, 0.5);
            } else if (roll < 0.44) {   // jitter
                frame.timestamp_s += rng.normal(0.0, 0.01);
            }
        }
        const core::FrameResult r = pipe.process(frame);
        ++fed;
        ASSERT_TRUE(std::isfinite(r.waveform_value))
            << "non-finite waveform at t=" << frame.timestamp_s;
    }
    ASSERT_GT(fed, 0u);

    // The storm touched the guard (some frames quarantined or repaired).
    EXPECT_GT(pipe.guard_stats().frames_quarantined +
                  pipe.guard_stats().samples_repaired,
              0u);
    // After a fault-free minute the pipeline is healthy and detecting.
    EXPECT_EQ(pipe.health(), core::HealthState::kOk);
    std::size_t late_blinks = 0;
    for (const core::DetectedBlink& b : pipe.blinks())
        late_blinks += b.peak_s > faults_until ? 1 : 0;
    EXPECT_GT(late_blinks, 0u);
}

TEST(Robustness, RobustSessionUnderDropPlusJitterCompletes) {
    // The acceptance schedule: 5% drops + timestamp jitter still
    // completes with finite outputs and reports degraded health.
    const eval::RobustnessSession session = eval::run_robust_session(
        reference_scenario(8, 60.0), eval::FaultKind::kDropPlusJitter, 0.05);
    EXPECT_TRUE(session.completed) << session.error;
    EXPECT_TRUE(session.finite_outputs);
    EXPECT_GT(session.frames_processed, 1000u);
    EXPECT_GT(session.degraded_frames + session.lost_frames, 0u);
    EXPECT_GT(session.health_transitions, 0u);
    EXPECT_GT(session.match.matched, 0u);
}

TEST(Robustness, SweepPointIsDeterministic) {
    std::vector<sim::ScenarioConfig> scenarios;
    for (std::uint64_t s = 0; s < 3; ++s)
        scenarios.push_back(reference_scenario(40 + s, 30.0));
    const eval::RobustnessPoint a = eval::run_robustness_point(
        scenarios, eval::FaultKind::kDrop, 0.05);
    const eval::RobustnessPoint b = eval::run_robustness_point(
        scenarios, eval::FaultKind::kDrop, 0.05);
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.frames_quarantined, b.frames_quarantined);
    EXPECT_EQ(a.frames_bridged, b.frames_bridged);
    EXPECT_EQ(a.mean_recovery_s, b.mean_recovery_s);
}

TEST(Robustness, FaultConfigMappingCoversEveryKind) {
    const radar::RadarConfig radar;
    using eval::FaultKind;
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kDrop, FaultKind::kDuplicate,
          FaultKind::kJitter, FaultKind::kSaturation, FaultKind::kDeadBins,
          FaultKind::kGainDrift, FaultKind::kInterference,
          FaultKind::kNanCorruption, FaultKind::kTruncate,
          FaultKind::kDropPlusJitter}) {
        const radar::FaultInjectorConfig config =
            eval::make_fault_config(kind, 0.1, radar);
        if (kind == eval::FaultKind::kNone)
            EXPECT_FALSE(config.any_active());
        else
            EXPECT_TRUE(config.any_active()) << eval::to_string(kind);
    }
}

TEST(Robustness, JsonWriterProducesParseableOutput) {
    std::vector<sim::ScenarioConfig> scenarios{reference_scenario(9, 20.0)};
    std::vector<eval::RobustnessPoint> points;
    points.push_back(eval::run_robustness_point(
        scenarios, eval::FaultKind::kDrop, 0.05));
    const std::string path = ::testing::TempDir() + "robustness_test.json";
    eval::write_robustness_json(path, points, scenarios.size());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string json = buffer.str();
    EXPECT_NE(json.find("\"schema\": \"blinkradar-robustness-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"fault\": \"frame_drop\""), std::string::npos);
    EXPECT_NE(json.find("\"recall\""), std::string::npos);
}

}  // namespace
}  // namespace blinkradar
