#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "eval/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "obs/trace.hpp"
#include "physio/driver_profile.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"

namespace blinkradar::core {
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

TEST(Pipeline, ColdStartLastsFiftyChirps) {
    const sim::SimulatedSession s = simulate_session(reference_scenario(1, 10.0));
    BlinkRadarPipeline pipe(s.radar);
    std::size_t cold_frames = 0;
    for (const auto& f : s.frames) {
        const FrameResult r = pipe.process(f);
        if (r.cold_start)
            ++cold_frames;
        else
            break;
    }
    // Paper: 50 chirps (2 s) one-time cold start.
    EXPECT_GE(cold_frames, 49u);
    EXPECT_LE(cold_frames, 60u);
}

TEST(Pipeline, SelectsTheFaceEyeRegionBin) {
    const sim::SimulatedSession s = simulate_session(reference_scenario(2, 30.0));
    BlinkRadarPipeline pipe(s.radar);
    for (const auto& f : s.frames) pipe.process(f);
    ASSERT_TRUE(pipe.selected_bin().has_value());
    const double range = static_cast<double>(*pipe.selected_bin()) *
                         s.radar.bin_spacing_m;
    // Eye at 0.40 m, face composite at 0.44 m: the carrier bin must be in
    // that neighbourhood, not at the chest (0.62) or clutter.
    EXPECT_GE(range, 0.30);
    EXPECT_LE(range, 0.52);
}

TEST(Pipeline, DetectsMostBlinksAtReferenceConditions) {
    // Averaged over a few seeds to damp single-session variance.
    double accuracy = 0.0, precision = 0.0;
    constexpr int kSessions = 3;
    for (int i = 0; i < kSessions; ++i) {
        const sim::SimulatedSession s =
            simulate_session(reference_scenario(3 + 100 * i, 120.0));
        const BatchResult result = detect_blinks(s.frames, s.radar);
        const eval::MatchResult m =
            eval::match_blinks(s.truth.blinks, result.blinks);
        accuracy += m.accuracy();
        precision += m.precision();
    }
    EXPECT_GT(accuracy / kSessions, 0.8);
    EXPECT_GT(precision / kSessions, 0.5);
}

TEST(Pipeline, StreamingEqualsBatch) {
    const sim::SimulatedSession s = simulate_session(reference_scenario(4, 40.0));
    BlinkRadarPipeline streaming(s.radar);
    for (const auto& f : s.frames) streaming.process(f);
    const BatchResult batch = detect_blinks(s.frames, s.radar);
    ASSERT_EQ(streaming.blinks().size(), batch.blinks.size());
    for (std::size_t i = 0; i < batch.blinks.size(); ++i)
        EXPECT_DOUBLE_EQ(streaming.blinks()[i].peak_s,
                         batch.blinks[i].peak_s);
}

TEST(Pipeline, RestartsOnInjectedPostureShift) {
    sim::ScenarioConfig sc = reference_scenario(5, 60.0);
    sc.head_motion.shift_rate_per_min = 3.0;   // frequent...
    sc.head_motion.shift_amplitude_m = 0.08;   // ...and unambiguously large
    const sim::SimulatedSession s = simulate_session(sc);
    ASSERT_FALSE(s.truth.posture_shifts.empty());
    const BatchResult result = detect_blinks(s.frames, s.radar);
    EXPECT_GE(result.restarts, 1u);
}

TEST(Pipeline, NoRestartsWhenDriverIsStill) {
    sim::ScenarioConfig sc = reference_scenario(6, 60.0);
    sc.environment = sim::Environment::kLaboratory;
    sc.include_body_events = false;
    sc.head_motion.shift_rate_per_min = 0.0;
    const sim::SimulatedSession s = simulate_session(sc);
    const BatchResult result = detect_blinks(s.frames, s.radar);
    EXPECT_EQ(result.restarts, 0u);
}

TEST(Pipeline, RecoversAfterRestart) {
    sim::ScenarioConfig sc = reference_scenario(7, 90.0);
    sc.head_motion.shift_rate_per_min = 1.0;
    sc.head_motion.shift_amplitude_m = 0.08;
    const sim::SimulatedSession s = simulate_session(sc);
    BlinkRadarPipeline pipe(s.radar);
    Seconds last_restart = -1.0;
    Seconds last_blink = -1.0;
    for (const auto& f : s.frames) {
        const FrameResult r = pipe.process(f);
        if (r.restarted) last_restart = f.timestamp_s;
        if (r.blink) last_blink = f.timestamp_s;
    }
    ASSERT_GT(last_restart, 0.0);  // at least one restart happened
    // Blinks are detected again after the final restart.
    EXPECT_GT(last_blink, last_restart);
}

TEST(Pipeline, EmptySceneStaysInColdStart) {
    // No driver: only static clutter and noise. The pipeline must never
    // claim a selection or emit blinks.
    radar::RadarConfig cfg;
    std::vector<radar::DynamicPath> paths;
    paths.push_back(radar::DynamicPath{
        "seat", [](Seconds) { return 0.8; }, [](Seconds) { return 3.0; }});
    radar::FrameSimulator sim(cfg, paths, Rng(1));
    BlinkRadarPipeline pipe(cfg);
    for (int i = 0; i < 500; ++i) {
        const FrameResult r = pipe.process(sim.next());
        EXPECT_TRUE(r.cold_start);
    }
    EXPECT_FALSE(pipe.selected_bin().has_value());
    EXPECT_TRUE(pipe.blinks().empty());
}

TEST(Pipeline, DroppedFramesDegradeGracefully) {
    // Feed only every third frame (simulates frame drops): the pipeline
    // must not crash and should still find some blinks.
    const sim::SimulatedSession s = simulate_session(reference_scenario(8, 120.0));
    BlinkRadarPipeline pipe(s.radar);
    for (std::size_t i = 0; i < s.frames.size(); i += 3)
        pipe.process(s.frames[i]);
    SUCCEED();
}

TEST(Pipeline, WaveformModesProduceDifferentDetectors) {
    const sim::SimulatedSession s = simulate_session(reference_scenario(9, 60.0));
    PipelineConfig amp_cfg;
    amp_cfg.waveform_mode = WaveformMode::kAmplitude;
    PipelineConfig arc_cfg;  // default
    const BatchResult amp = detect_blinks(s.frames, s.radar, amp_cfg);
    const BatchResult arc = detect_blinks(s.frames, s.radar, arc_cfg);
    const auto m_amp = eval::match_blinks(s.truth.blinks, amp.blinks);
    const auto m_arc = eval::match_blinks(s.truth.blinks, arc.blinks);
    // The paper's core claim: the I/Q arc method beats 1-D amplitude.
    EXPECT_GT(m_arc.accuracy(), m_amp.accuracy());
}

TEST(Pipeline, RejectsWrongBinCount) {
    // With the frame guard disabled a bin-count mismatch is a checked
    // error; with the guard on (default) it is quarantined, not thrown.
    radar::RadarConfig cfg;
    radar::RadarFrame bad;
    bad.bins.assign(10, dsp::Complex(0, 0));

    PipelineConfig unguarded;
    unguarded.guard.enabled = false;
    BlinkRadarPipeline strict(cfg, unguarded);
    EXPECT_THROW(strict.process(bad), blinkradar::ContractViolation);

    BlinkRadarPipeline guarded(cfg);
    EXPECT_EQ(guarded.process(bad).quality, FrameVerdict::kQuarantined);
    EXPECT_EQ(guarded.guard_stats().frames_quarantined, 1u);
}

TEST(Pipeline, RejectsBadConfig) {
    radar::RadarConfig cfg;
    PipelineConfig pc;
    pc.cold_start_frames = 2;
    EXPECT_THROW(BlinkRadarPipeline(cfg, pc), blinkradar::ContractViolation);
}

TEST(Pipeline, MetricsInstrumentationIsObservationOnly) {
    // The observability layer must never change detection: run the same
    // impaired stream (so guard repair/bridge/quarantine paths all fire)
    // with and without a registry and demand bit-identical results.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(12, 60.0));
    radar::FaultInjectorConfig fc;
    fc.drop_rate = 0.02;
    fc.nan_rate = 0.02;
    fc.saturation_rate = 0.01;
    radar::FaultInjector injector(fc, 99);
    const radar::FrameSeries impaired = injector.apply(s.frames);

    BlinkRadarPipeline plain(s.radar);
    obs::MetricsRegistry registry;
    BlinkRadarPipeline instrumented(s.radar, PipelineConfig{}, &registry);
    for (const auto& f : impaired) {
        const FrameResult a = plain.process(f);
        const FrameResult b = instrumented.process(f);
        ASSERT_EQ(a.waveform_value, b.waveform_value) << "t=" << f.timestamp_s;
        ASSERT_EQ(a.quality, b.quality);
        ASSERT_EQ(a.health, b.health);
        ASSERT_EQ(a.blink.has_value(), b.blink.has_value());
    }
    ASSERT_EQ(plain.blinks().size(), instrumented.blinks().size());
    for (std::size_t i = 0; i < plain.blinks().size(); ++i)
        EXPECT_EQ(plain.blinks()[i].peak_s, instrumented.blinks()[i].peak_s);

    // And the registry saw the run: counters are exact per frame, stage
    // latency histograms are duty-cycled 1-in-kStageSampleFrames
    // (deterministic in the frame index), guard counters mirror
    // GuardStats.
    EXPECT_EQ(registry.counter("pipeline.frames").value(), impaired.size());
    EXPECT_EQ(registry.counter("pipeline.blinks").value(),
              instrumented.blinks().size());
    const std::size_t sampled =
        (impaired.size() + BlinkRadarPipeline::kStageSampleFrames - 1) /
        BlinkRadarPipeline::kStageSampleFrames;
    EXPECT_EQ(registry.histogram("stage.frame_total").count(), sampled);
    EXPECT_GT(registry.histogram("stage.preprocess").count(), 0u);
    EXPECT_EQ(registry.counter("guard.frames_quarantined").value(),
              instrumented.guard_stats().frames_quarantined);
    EXPECT_EQ(registry.counter("guard.samples_repaired").value(),
              instrumented.guard_stats().samples_repaired);
}

/// Number of entries in a span record's "stage_ns" list.
std::size_t span_stage_count(const std::string& record) {
    const std::string key = "\"stage_ns\":[";
    const std::size_t open = record.find(key);
    if (open == std::string::npos) return 0;
    const std::size_t first = open + key.size();
    const std::size_t close = record.find(']', first);
    if (close == first) return 0;
    std::size_t n = 1;
    for (std::size_t i = first; i < close; ++i) n += record[i] == ',';
    return n;
}

TEST(Pipeline, SpanPerFrameCarriesEveryStage) {
    // Span stride 1 (what BLINKRADAR_TRACE means): every frame is
    // minted, and each frame's record lists all eight stages.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(13, 10.0));
    const std::string path = ::testing::TempDir() + "br_span_test.jsonl";
    obs::MetricsRegistry registry;
    {
        obs::TraceSink sink(path);
        obs::telemetry::SpanCollector spans(&sink);
        BlinkRadarPipeline pipe(s.radar, PipelineConfig{}, &registry,
                                nullptr, &spans);
        for (std::size_t i = 0; i < s.frames.size(); ++i) {
            radar::RadarFrame f = s.frames[i];
            f.span_id = spans.mint(13, i);
            pipe.process(f);
        }
        EXPECT_EQ(spans.completed(), s.frames.size());
        EXPECT_EQ(spans.abandoned(), 0u);
    }
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find("\"seq\":" + std::to_string(lines) + ","),
                  std::string::npos)
            << line;
        EXPECT_EQ(span_stage_count(line), kNumPipelineStages - 1) << line;
        ++lines;
    }
    EXPECT_EQ(lines, s.frames.size());
    std::remove(path.c_str());
}

TEST(Pipeline, UninstrumentedSpanListsNoStages) {
    // Without a registry nothing is timed: the span must not claim
    // stage-end times (they would all read the pump stamp).
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(13, 4.0));
    obs::telemetry::SpanCollector spans;
    BlinkRadarPipeline pipe(s.radar, PipelineConfig{}, nullptr, nullptr,
                            &spans);
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
        radar::RadarFrame f = s.frames[i];
        f.span_id = spans.mint(13, i);
        pipe.process(f);
        ASSERT_NE(spans.last_record().find("\"stage_ns\":[]"),
                  std::string::npos)
            << spans.last_record();
    }
    EXPECT_EQ(spans.completed(), s.frames.size());
}

TEST(PhaseWaveform, AmplitudeRampDoesNotRescaleAccumulatedPhase) {
    // Regression: the old implementation returned cumulative_phase *
    // running_amp_mean, so a slow amplitude ramp *after* real phase
    // accumulation rescaled the whole history, stepping the baseline and
    // faking LEVD extrema. Accumulate ~30 rad of phase at amplitude 1,
    // then hold the phase constant while the amplitude triples: the
    // waveform must stay flat and LEVD must stay silent.
    PhaseWaveform wave;
    Levd levd(PipelineConfig{}, 25.0);
    Rng rng(77);
    double phase = 0.0;
    std::size_t frame = 0;
    auto push = [&](double amp, double jitter_sigma) {
        const double jittered = phase + rng.normal(0.0, jitter_sigma);
        const double d = wave.push(dsp::Complex(amp * std::cos(jittered),
                                                amp * std::sin(jittered)));
        const auto blink = levd.push(static_cast<double>(frame++) / 25.0, d);
        return std::make_pair(d, blink.has_value());
    };
    // Accumulate ~30 rad at unit amplitude with realistic phase noise so
    // LEVD's sigma estimate is positive and its threshold armed.
    for (int i = 0; i < 150; ++i) {
        phase += 0.2;
        push(1.0, 1e-3);
    }
    const double settled = push(1.0, 0.0).first;
    // Amplitude swells 1 -> 3 -> 1 over 20 s with the phase pinned.
    double final_value = settled;
    for (int i = 0; i < 500; ++i) {
        const double amp =
            1.0 + 2.0 * std::sin(3.14159265358979 * i / 500.0);
        const auto [d, blinked] = push(amp, 0.0);
        final_value = d;
        EXPECT_FALSE(blinked) << "frame " << frame;
    }
    // Old behaviour: the waveform was cumulative_phase * amp_mean, so the
    // swell produced a ~60-unit bump out of pure amplitude drift. Fixed:
    // no phase progression means no waveform movement at all.
    EXPECT_NEAR(final_value, settled, 1e-9);
}

TEST(PhaseWaveform, ZeroAmplitudeFirstSampleDoesNotFreezeScale) {
    PhaseWaveform wave;
    EXPECT_EQ(wave.push(dsp::Complex(0.0, 0.0)), 0.0);
    // The running amplitude mean must seed from the first measurable
    // sample, not stay poisoned by the zero (which would scale every
    // subsequent increment by ~0).
    double value = 0.0;
    double phase = 0.0;
    for (int i = 0; i < 10; ++i) {
        phase += 0.3;
        value = wave.push(dsp::Complex(std::cos(phase), std::sin(phase)));
    }
    // 9 increments of 0.3 rad at amplitude ~1 (the first sample after
    // zero only sets the reference).
    EXPECT_NEAR(value, 9 * 0.3, 0.1);
}

}  // namespace
}  // namespace blinkradar::core
