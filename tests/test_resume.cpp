// The snapshot/restore contract of the full pipeline: run N frames,
// snapshot, run M more; restore the snapshot into a FRESH pipeline and
// replay the same M frames — every FrameResult must be byte-identical,
// across split points, fault streams, guard on/off, and metrics on/off.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>
#include <vector>

#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "physio/driver_profile.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {
namespace {

sim::ScenarioConfig reference_scenario(std::uint64_t seed,
                                       Seconds duration = 30.0) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

void expect_bitwise_eq(double a, double b, const char* what,
                       std::size_t frame) {
    std::uint64_t ab = 0, bb = 0;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << what << " diverged at replay frame " << frame
                      << ": " << a << " vs " << b;
}

void expect_identical(const FrameResult& a, const FrameResult& b,
                      std::size_t frame) {
    ASSERT_EQ(a.blink.has_value(), b.blink.has_value())
        << "blink presence diverged at replay frame " << frame;
    if (a.blink) {
        expect_bitwise_eq(a.blink->peak_s, b.blink->peak_s, "blink.peak_s",
                          frame);
        expect_bitwise_eq(a.blink->duration_s, b.blink->duration_s,
                          "blink.duration_s", frame);
        expect_bitwise_eq(a.blink->magnitude, b.blink->magnitude,
                          "blink.magnitude", frame);
        expect_bitwise_eq(a.blink->strength, b.blink->strength,
                          "blink.strength", frame);
    }
    EXPECT_EQ(a.restarted, b.restarted) << "at replay frame " << frame;
    EXPECT_EQ(a.cold_start, b.cold_start) << "at replay frame " << frame;
    expect_bitwise_eq(a.waveform_value, b.waveform_value, "waveform_value",
                      frame);
    EXPECT_EQ(a.health, b.health) << "at replay frame " << frame;
    EXPECT_EQ(a.quality, b.quality) << "at replay frame " << frame;
    EXPECT_EQ(a.repaired_samples, b.repaired_samples)
        << "at replay frame " << frame;
    EXPECT_EQ(a.bridged_frames, b.bridged_frames)
        << "at replay frame " << frame;
}

std::vector<std::uint8_t> snapshot_of(const BlinkRadarPipeline& pipe) {
    state::StateWriter writer;
    pipe.save_state(writer);
    return writer.finish();
}

void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t bytes) {
    for (std::size_t k = 0; k < bytes; ++k)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
}

/// Re-emit a snapshot's leading PIPE v3 section as PIPE v2, which also
/// carried the history of the removed motion stages after the window
/// timestamps: `n_wave` (t, d, theta) triples, the unwrapped angle, its
/// valid flag and the previous raw angle. CRCs are re-sealed, so only
/// the version and the spliced block differ.
std::vector<std::uint8_t> as_pipe_v2(const std::vector<std::uint8_t>& v3,
                                     std::size_t n_wave) {
    // Container header (8 bytes), then PIPE's section header: tag u32,
    // version u16, reserved u16, payload_len u32.
    constexpr std::size_t kVersionAt = 12, kLenAt = 16, kPayloadAt = 20;
    state::StateReader reader(v3);
    EXPECT_EQ(reader.open_section(state::make_tag("PIPE")), 3);
    reader.read_size();  // n_bins
    reader.read_f64();   // frame rate
    reader.read_u8();    // waveform mode
    reader.read_u8();    // frame-path byte
    std::vector<double> re, im;
    for (std::size_t i = reader.read_size(); i > 0; --i)
        reader.read_complex_planes_into(re, im);
    for (std::size_t i = reader.read_size(); i > 0; --i) reader.read_f64();
    std::uint32_t payload_len = 0;
    for (std::size_t k = 0; k < 4; ++k)
        payload_len |= static_cast<std::uint32_t>(v3[kLenAt + k]) << (8 * k);
    const std::size_t splice =
        kPayloadAt + payload_len - reader.section_remaining();

    std::vector<std::uint8_t> history;
    append_le(history, n_wave, 8);
    for (std::size_t i = 0; i < 3 * n_wave; ++i)
        append_le(history,
                  std::bit_cast<std::uint64_t>(0.25 * static_cast<double>(i)),
                  8);
    append_le(history, std::bit_cast<std::uint64_t>(-1.75), 8);
    append_le(history, 1, 1);
    append_le(history, std::bit_cast<std::uint64_t>(2.5), 8);

    std::vector<std::uint8_t> out(v3.begin(), v3.begin() + splice);
    out.insert(out.end(), history.begin(), history.end());
    out.insert(out.end(), v3.begin() + splice, v3.end());
    out[kVersionAt] = 2;
    out[kVersionAt + 1] = 0;
    const std::uint64_t new_len = payload_len + history.size();
    for (std::size_t k = 0; k < 4; ++k)
        out[kLenAt + k] = static_cast<std::uint8_t>(new_len >> (8 * k));
    state::seal_section_crcs(out);
    return out;
}

/// The core drill: process frames [0, split), snapshot, keep the
/// original running over [split, end) while a restored twin replays the
/// same tail; every result and the final public state must match.
/// `rewrite` (optional) transforms the snapshot bytes before restore.
void run_resume_drill(
    const radar::FrameSeries& frames, const radar::RadarConfig& radar,
    const PipelineConfig& config, std::size_t split,
    obs::MetricsRegistry* original_metrics,
    obs::MetricsRegistry* restored_metrics,
    const std::function<std::vector<std::uint8_t>(
        const std::vector<std::uint8_t>&)>& rewrite = {}) {
    ASSERT_LT(split, frames.size());
    BlinkRadarPipeline original(radar, config, original_metrics);
    for (std::size_t i = 0; i < split; ++i) original.process(frames[i]);

    std::vector<std::uint8_t> bytes = snapshot_of(original);
    if (rewrite) bytes = rewrite(bytes);
    BlinkRadarPipeline restored(radar, config, restored_metrics);
    {
        state::StateReader reader(bytes);
        restored.restore_state(reader);
    }

    for (std::size_t i = split; i < frames.size(); ++i) {
        const FrameResult a = original.process(frames[i]);
        const FrameResult b = restored.process(frames[i]);
        expect_identical(a, b, i);
    }

    ASSERT_EQ(original.blinks().size(), restored.blinks().size());
    EXPECT_EQ(original.restarts(), restored.restarts());
    EXPECT_EQ(original.selected_bin(), restored.selected_bin());
    EXPECT_EQ(original.health(), restored.health());
    const GuardStats& ga = original.guard_stats();
    const GuardStats& gb = restored.guard_stats();
    EXPECT_EQ(ga.frames_seen, gb.frames_seen);
    EXPECT_EQ(ga.frames_quarantined, gb.frames_quarantined);
    EXPECT_EQ(ga.samples_repaired, gb.samples_repaired);
    EXPECT_EQ(ga.frames_bridged, gb.frames_bridged);
    EXPECT_EQ(ga.warm_restarts, gb.warm_restarts);
}

}  // namespace

TEST(Resume, BitIdenticalAcrossSplitPoints) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(11, 30.0));
    // Splits inside cold start, just after convergence, and deep in
    // steady state (past refits and reselections).
    for (const std::size_t split : {20u, 70u, 300u, 600u}) {
        SCOPED_TRACE("split=" + std::to_string(split));
        run_resume_drill(s.frames, s.radar, {}, split, nullptr, nullptr);
    }
}

TEST(Resume, BitIdenticalUnderSensorFaults) {
    // The guard carries real state (held frame, health machine, fault
    // window) only when the stream is faulty — resume through a fault
    // storm to cover it.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(12, 30.0));
    radar::FaultInjectorConfig faults;
    faults.drop_rate = 0.08;
    faults.nan_rate = 0.04;
    faults.timestamp_jitter_std_s = 0.25 * s.radar.frame_period_s;
    radar::FaultInjector injector(faults, 777);
    const radar::FrameSeries impaired = injector.apply(s.frames);
    for (const std::size_t split : {100u, 400u}) {
        SCOPED_TRACE("split=" + std::to_string(split));
        run_resume_drill(impaired, s.radar, {}, split, nullptr, nullptr);
    }
}

TEST(Resume, BitIdenticalWithGuardDisabled) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(13, 20.0));
    PipelineConfig config;
    config.guard.enabled = false;
    run_resume_drill(s.frames, s.radar, config, 200, nullptr, nullptr);
}

TEST(Resume, MetricsAttachmentDoesNotPerturbRestoredOutputs) {
    // Instrumentation is observation-only and unserialised: a snapshot
    // from an instrumented pipeline must replay identically in an
    // uninstrumented one, and vice versa.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(14, 20.0));
    obs::MetricsRegistry original_metrics;
    run_resume_drill(s.frames, s.radar, {}, 250, &original_metrics, nullptr);
    obs::MetricsRegistry restored_metrics;
    run_resume_drill(s.frames, s.radar, {}, 250, nullptr, &restored_metrics);
}

TEST(Resume, PhaseWaveformModeRoundTrips) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(15, 20.0));
    PipelineConfig config;
    config.waveform_mode = WaveformMode::kPhase;
    run_resume_drill(s.frames, s.radar, config, 200, nullptr, nullptr);
}

TEST(Resume, PipeV2HistoryBlockIsDiscardedOnRestore) {
    // Snapshots written before the motion stages were removed carry
    // their d/theta history; restoring one must resume exactly as the
    // uninterrupted run, in cold start and in steady state.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(19, 20.0));
    ASSERT_DOUBLE_EQ(s.radar.frame_rate_hz(), 25.0);
    const std::size_t cap = 100;  // 4 s of frames
    for (const std::size_t split : {20u, 300u}) {
        SCOPED_TRACE("split=" + std::to_string(split));
        run_resume_drill(s.frames, s.radar, {}, split, nullptr, nullptr,
                         [&](const std::vector<std::uint8_t>& v3) {
                             return as_pipe_v2(v3, cap);
                         });
    }

    BlinkRadarPipeline original(s.radar);
    for (std::size_t i = 0; i < 300; ++i) original.process(s.frames[i]);
    const std::vector<std::uint8_t> over =
        as_pipe_v2(snapshot_of(original), cap + 1);
    BlinkRadarPipeline restored(s.radar);
    state::StateReader reader(over);
    EXPECT_THROW(restored.restore_state(reader), state::SnapshotError);
}

TEST(Resume, SnapshotOfFreshPipelineRestores) {
    // Degenerate but legal: snapshot before any frame was processed.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(16, 10.0));
    BlinkRadarPipeline original(s.radar);
    const std::vector<std::uint8_t> bytes = snapshot_of(original);
    BlinkRadarPipeline restored(s.radar);
    state::StateReader reader(bytes);
    restored.restore_state(reader);
    for (std::size_t i = 0; i < s.frames.size(); ++i)
        expect_identical(original.process(s.frames[i]),
                         restored.process(s.frames[i]), i);
}

TEST(Resume, FingerprintMismatchIsRejected) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(17, 10.0));
    BlinkRadarPipeline original(s.radar);
    for (const auto& f : s.frames) original.process(f);
    const std::vector<std::uint8_t> bytes = snapshot_of(original);

    // Same radar, different waveform semantics: must refuse.
    PipelineConfig amplitude;
    amplitude.waveform_mode = WaveformMode::kAmplitude;
    BlinkRadarPipeline other(s.radar, amplitude);
    state::StateReader reader(bytes);
    EXPECT_THROW(other.restore_state(reader), state::SnapshotError);
}

TEST(Resume, CorruptedSnapshotIsRejectedNotApplied) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(18, 15.0));
    BlinkRadarPipeline original(s.radar);
    for (const auto& f : s.frames) original.process(f);
    std::vector<std::uint8_t> bytes = snapshot_of(original);
    // Corrupt a payload byte deep in the container: the reader's CRC
    // walk must reject it before any component sees a single field.
    bytes[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(state::StateReader reader(bytes), state::SnapshotError);
}

}  // namespace blinkradar::core
