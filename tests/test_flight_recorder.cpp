// Flight recorder: ring bounding, dump/decode round trips, the replay
// contract (a Supervisor-crash dump must reproduce every captured frame
// bit-identically), and the malformed-dump rejection contract (every
// truncation / bit flip throws state::SnapshotError — same discipline
// test_state enforces for the underlying container).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/postmortem.hpp"
#include "core/supervisor.hpp"
#include "obs/flight_recorder.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

using namespace blinkradar;

namespace {

/// Tiny synthetic frame so direct-recorder dumps stay small enough to
/// corruption-sweep byte by byte.
radar::RadarFrame tiny_frame(std::uint64_t i) {
    radar::RadarFrame f;
    f.timestamp_s = 0.04 * static_cast<double>(i);
    f.bins = {dsp::Complex(static_cast<double>(i), 0.5),
              dsp::Complex(-1.0, static_cast<double>(i) * 0.25),
              dsp::Complex(0.125, -2.0), dsp::Complex(3.0, 4.0)};
    return f;
}

obs::FrameTap tiny_tap(std::uint64_t seq) {
    obs::FrameTap tap;
    tap.seq = seq;
    tap.t = 0.04 * static_cast<double>(seq - 1);
    tap.selected_bin = static_cast<std::int64_t>(seq % 4);
    tap.waveform = 0.001 * static_cast<double>(seq);
    return tap;
}

/// A small recorder driven directly (no pipeline), dumped to bytes.
std::vector<std::uint8_t> small_dump_bytes(std::size_t frames,
                                           obs::FlightRecorderConfig cfg) {
    obs::FlightRecorder rec(cfg);
    for (std::uint64_t i = 1; i <= frames; ++i) {
        const std::uint64_t seq = rec.begin_frame(tiny_frame(i));
        if (rec.profiles_due()) {
            const auto& f = tiny_frame(i);
            rec.tap_profiles(f.bins, f.bins);
        }
        rec.end_frame(tiny_tap(seq));
    }
    rec.record_event(obs::RecorderEvent::kBlink, 1.0, 0.96, 2.5);
    return core::make_flight_dump(rec, radar::RadarConfig{},
                                  core::PipelineConfig{}, "unit_test");
}

obs::FlightRecorderConfig small_config() {
    obs::FlightRecorderConfig cfg;
    cfg.raw_ring_frames = 8;
    cfg.tap_ring_frames = 8;
    cfg.event_ring = 4;
    cfg.profile_ring = 2;
    cfg.profile_interval_frames = 4;
    cfg.metrics_ring = 2;
    cfg.metrics_interval_frames = 8;
    cfg.checkpoint_interval_frames = 0;  // driven externally in tests
    return cfg;
}

sim::SimulatedSession short_session(double duration_s = 40.0) {
    sim::ScenarioConfig sc;
    Rng rng(11);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration_s;
    sc.seed = 12;
    return sim::simulate_session(sc);
}

}  // namespace

TEST(FlightRecorder, RingsEvictOldestAndKeepSequenceContiguous) {
    const std::vector<std::uint8_t> bytes = small_dump_bytes(30, small_config());
    state::StateReader reader(bytes);
    const obs::FlightDump dump = obs::decode_flight_dump(reader);

    EXPECT_EQ(dump.reason, "unit_test");
    EXPECT_EQ(dump.seq_at_dump, 30u);
    ASSERT_EQ(dump.raw.size(), 8u);  // ring depth, not frames fed
    EXPECT_EQ(dump.raw.front().seq, 23u);
    EXPECT_EQ(dump.raw.back().seq, 30u);
    for (std::size_t i = 1; i < dump.raw.size(); ++i)
        EXPECT_EQ(dump.raw[i].seq, dump.raw[i - 1].seq + 1);
    ASSERT_EQ(dump.taps.size(), 8u);
    EXPECT_EQ(dump.taps.back().seq, 30u);
    EXPECT_LE(dump.profiles.size(), 2u);
    ASSERT_EQ(dump.events.size(), 1u);
    EXPECT_EQ(static_cast<obs::RecorderEvent>(dump.events[0].type),
              obs::RecorderEvent::kBlink);
    EXPECT_EQ(dump.events[0].b, 2.5);
}

TEST(FlightRecorder, RawFramesRoundTripExactly) {
    const std::vector<std::uint8_t> bytes = small_dump_bytes(5, small_config());
    state::StateReader reader(bytes);
    const obs::FlightDump dump = obs::decode_flight_dump(reader);
    ASSERT_EQ(dump.raw.size(), 5u);
    for (std::uint64_t i = 1; i <= 5; ++i) {
        const radar::RadarFrame expect = tiny_frame(i);
        const obs::FlightDump::RawFrame& got = dump.raw[i - 1];
        EXPECT_EQ(got.seq, i);
        EXPECT_EQ(got.frame.timestamp_s, expect.timestamp_s);
        ASSERT_EQ(got.frame.bins.size(), expect.bins.size());
        for (std::size_t b = 0; b < expect.bins.size(); ++b)
            EXPECT_EQ(got.frame.bins[b], expect.bins[b]);
    }
}

TEST(FlightRecorder, KeepsTheTwoNewestCheckpoints) {
    obs::FlightRecorderConfig cfg = small_config();
    obs::FlightRecorder rec(cfg);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        rec.begin_frame(tiny_frame(i));
        rec.end_frame(tiny_tap(i));
        // External checkpoint after every other frame: 2, 4, 6.
        if (i % 2 == 0) {
            const std::vector<std::uint8_t> state = {
                static_cast<std::uint8_t>(i), 0xAB};
            rec.note_checkpoint(state);
        }
    }
    state::StateWriter writer;
    rec.dump(writer, "ckpt_test");
    const std::vector<std::uint8_t> bytes = writer.finish();
    state::StateReader reader(bytes);
    const obs::FlightDump dump = obs::decode_flight_dump(reader);
    ASSERT_EQ(dump.checkpoints.size(), 2u);
    EXPECT_EQ(dump.checkpoints[0].seq, 4u);  // oldest first
    EXPECT_EQ(dump.checkpoints[1].seq, 6u);
    EXPECT_EQ(dump.checkpoints[0].bytes,
              (std::vector<std::uint8_t>{4, 0xAB}));
    EXPECT_EQ(dump.checkpoints[1].bytes,
              (std::vector<std::uint8_t>{6, 0xAB}));
}

TEST(FlightRecorder, ClearForgetsEverythingButKeepsRecording) {
    obs::FlightRecorder rec(small_config());
    for (std::uint64_t i = 1; i <= 4; ++i) {
        rec.begin_frame(tiny_frame(i));
        rec.end_frame(tiny_tap(i));
    }
    rec.clear();
    EXPECT_EQ(rec.seq(), 0u);
    rec.begin_frame(tiny_frame(1));
    rec.end_frame(tiny_tap(1));
    state::StateWriter writer;
    rec.dump(writer, "after_clear");
    const std::vector<std::uint8_t> bytes = writer.finish();
    state::StateReader reader(bytes);
    const obs::FlightDump dump = obs::decode_flight_dump(reader);
    EXPECT_EQ(dump.raw.size(), 1u);
    EXPECT_EQ(dump.taps.size(), 1u);
    EXPECT_TRUE(dump.checkpoints.empty());
}

TEST(FlightRecorder, ConfigRoundTripsThroughTheDump) {
    radar::RadarConfig radar;
    radar.carrier_hz = 8.1e9;
    radar.noise_sigma = 0.0625;
    core::PipelineConfig pipeline;
    pipeline.update_interval_frames = 123;
    pipeline.guard.max_repair_fraction = 0.375;

    obs::FlightRecorder rec(small_config());
    rec.begin_frame(tiny_frame(1));
    rec.end_frame(tiny_tap(1));
    const std::vector<std::uint8_t> bytes =
        core::make_flight_dump(rec, radar, pipeline, "cfg_round_trip");
    const core::DecodedDump dump = core::decode_dump(bytes);
    EXPECT_EQ(dump.configs.radar.carrier_hz, 8.1e9);
    EXPECT_EQ(dump.configs.radar.noise_sigma, 0.0625);
    EXPECT_EQ(dump.configs.pipeline.update_interval_frames, 123u);
    EXPECT_EQ(dump.configs.pipeline.guard.max_repair_fraction, 0.375);
    EXPECT_EQ(dump.flight.reason, "cfg_round_trip");
}

TEST(FlightRecorder, EventNamesAreStable) {
    EXPECT_STREQ(obs::to_string(obs::RecorderEvent::kHealthTransition),
                 "health_transition");
    EXPECT_STREQ(obs::to_string(obs::RecorderEvent::kBlink), "blink");
    EXPECT_STREQ(obs::to_string(obs::RecorderEvent::kSupervisorWarmRestore),
                 "supervisor_warm_restore");
    EXPECT_STREQ(obs::to_string(obs::RecorderEvent::kDump), "dump");
}

TEST(FlightReplay, ColdBaseReplaysEveryFrameBitIdentically) {
    // Total frames < raw ring, so the ring reaches back to frame 1 and
    // replay re-derives the whole session from a cold pipeline, crossing
    // the self-checkpoint boundaries along the way.
    const sim::SimulatedSession s = short_session();
    ASSERT_LT(s.frames.size(), 1024u);

    obs::FlightRecorderConfig cfg;  // defaults, plus opt-in self-checkpointing
    cfg.raw_ring_frames = 1024;  // ring must reach back to frame 1
    cfg.checkpoint_interval_frames = 512;
    obs::FlightRecorder recorder(cfg);
    core::BlinkRadarPipeline pipeline(s.radar, {}, nullptr, &recorder);
    for (const radar::RadarFrame& f : s.frames) pipeline.process(f);

    const std::vector<std::uint8_t> bytes = core::make_flight_dump(
        recorder, s.radar, core::PipelineConfig{}, "cold_replay");
    const core::ReplayReport report =
        core::replay_flight_dump(core::decode_dump(bytes));
    EXPECT_TRUE(report.ok) << report.note;
    EXPECT_TRUE(report.from_cold);
    EXPECT_EQ(report.frames_replayed, s.frames.size());
    EXPECT_EQ(report.taps_compared, s.frames.size());
    EXPECT_EQ(report.taps_missing, 0u);
    EXPECT_EQ(report.mismatch_count, 0u);
    EXPECT_EQ(report.replay_faults, 0u);
    // 1000 frames at the 512-frame cadence store exactly one checkpoint
    // (512), which sits on the replay path.
    EXPECT_EQ(report.rebases, 1u);
}

TEST(FlightReplay, DefaultConfigReplaysFromColdWithoutCheckpoints) {
    // The default config leaves checkpointing to the owner (the
    // Supervisor feeds its autosnapshots; standalone pipelines opt in),
    // so a bare default-config dump carries no checkpoints and replay
    // runs purely from a cold pipeline at frame 1.
    const sim::SimulatedSession s = short_session(20.0);
    ASSERT_LT(s.frames.size(), 512u);

    obs::FlightRecorder recorder;  // default config
    core::BlinkRadarPipeline pipeline(s.radar, {}, nullptr, &recorder);
    for (const radar::RadarFrame& f : s.frames) pipeline.process(f);

    const std::vector<std::uint8_t> bytes = core::make_flight_dump(
        recorder, s.radar, core::PipelineConfig{}, "default_cold");
    const core::DecodedDump dump = core::decode_dump(bytes);
    EXPECT_TRUE(dump.flight.checkpoints.empty());

    const core::ReplayReport report = core::replay_flight_dump(dump);
    EXPECT_TRUE(report.ok) << report.note;
    EXPECT_TRUE(report.from_cold);
    EXPECT_EQ(report.rebases, 0u);
    EXPECT_EQ(report.frames_replayed, s.frames.size());
    EXPECT_EQ(report.mismatch_count, 0u);
}

TEST(FlightReplay, VerifierCatchesTamperedTaps) {
    // The replay verifier must actually compare: flip one recorded field
    // and the report has to flag exactly that frame.
    const sim::SimulatedSession s = short_session(20.0);
    obs::FlightRecorder recorder;
    core::BlinkRadarPipeline pipeline(s.radar, {}, nullptr, &recorder);
    for (const radar::RadarFrame& f : s.frames) pipeline.process(f);
    core::DecodedDump dump = core::decode_dump(core::make_flight_dump(
        recorder, s.radar, core::PipelineConfig{}, "tamper"));

    const std::size_t victim = dump.flight.taps.size() / 2;
    dump.flight.taps[victim].waveform += 1.0;
    const core::ReplayReport report = core::replay_flight_dump(dump);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.mismatch_count, 1u);
    ASSERT_EQ(report.mismatches.size(), 1u);
    EXPECT_EQ(report.mismatches[0].seq, dump.flight.taps[victim].seq);
    EXPECT_EQ(report.mismatches[0].field, "waveform_value");
}

TEST(FlightReplay, ReportsWhenNoBaseCoversTheRing) {
    // No checkpoints and a ring that lost frame 1: honest failure, not a
    // silently partial verification.
    obs::FlightRecorderConfig cfg = small_config();
    obs::FlightRecorder rec(cfg);
    for (std::uint64_t i = 1; i <= 20; ++i) {
        rec.begin_frame(tiny_frame(i));
        rec.end_frame(tiny_tap(i));
    }
    const core::DecodedDump dump = core::decode_dump(core::make_flight_dump(
        rec, radar::RadarConfig{}, core::PipelineConfig{}, "no_base"));
    const core::ReplayReport report = core::replay_flight_dump(dump);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.note.find("no replay base"), std::string::npos)
        << report.note;
    EXPECT_EQ(report.frames_replayed, 0u);
}

TEST(FlightReplay, ConfigsThePipelineRejectsAreReportedNotThrown) {
    // A dump whose configs fail the pipeline constructor's preconditions
    // (the cold start must span at least 8 frames) has no replay base:
    // the verdict belongs in the report, not in an escaping exception.
    core::PipelineConfig bad;
    bad.cold_start_frames = 4;
    obs::FlightRecorder rec(small_config());
    for (std::uint64_t i = 1; i <= 3; ++i) {
        rec.begin_frame(tiny_frame(i));
        rec.end_frame(tiny_tap(i));
    }
    const core::DecodedDump dump = core::decode_dump(
        core::make_flight_dump(rec, radar::RadarConfig{}, bad, "bad_cfg"));
    core::ReplayReport report;
    ASSERT_NO_THROW(report = core::replay_flight_dump(dump));
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.note.find("replay base rejected"), std::string::npos)
        << report.note;
    EXPECT_EQ(report.frames_replayed, 0u);
}

TEST(FlightReplay, SupervisorCrashDumpReplaysBitIdentically) {
    // The acceptance path: a supervised session with injected crashes
    // auto-dumps at each fault; the dump must replay every captured
    // frame bit-identically across the warm-restore re-bases.
    const sim::SimulatedSession s = short_session();
    const std::string dir = testing::TempDir();

    core::SupervisorConfig config;
    config.snapshot_interval_frames = 200;
    config.snapshot_dir = dir;
    config.snapshot_basename = "br_fr_test";
    core::Supervisor supervisor(s.radar, {}, config);

    std::size_t throws_remaining = 0;
    std::uint64_t next_crash = 300;
    supervisor.set_fault_hook([&](std::uint64_t frame_index) {
        if (throws_remaining == 0 && frame_index == next_crash) {
            next_crash += 300;
            throws_remaining = 2;  // fault the attempt AND its retry
        }
        if (throws_remaining > 0) {
            --throws_remaining;
            throw std::runtime_error("test: injected fault");
        }
    });

    for (const radar::RadarFrame& f : s.frames) supervisor.process(f);
    ASSERT_GE(supervisor.stats().warm_restores, 2u);
    ASSERT_GE(supervisor.stats().dumps, 2u);
    ASSERT_FALSE(supervisor.last_dump_path().empty());

    // Replay both rotated dump slots — one fault-time, one post-restore.
    for (const std::size_t slot : {std::size_t{0}, std::size_t{1}}) {
        const std::string path =
            dir + "/br_fr_test.dump" + std::to_string(slot) + ".brfr";
        const core::DecodedDump dump = core::read_flight_dump_file(path);
        const core::ReplayReport report = core::replay_flight_dump(dump);
        EXPECT_TRUE(report.ok) << path << ": " << report.note;
        EXPECT_EQ(report.mismatch_count, 0u) << path;
        EXPECT_EQ(report.replay_faults, 0u) << path;
        EXPECT_EQ(report.taps_missing, 0u) << path;
        // Everything in the ring is covered: replay walks from the base
        // through the newest captured frame.
        EXPECT_EQ(report.frames_replayed + report.base_seq,
                  dump.flight.raw.back().seq)
            << path;
        std::remove(path.c_str());
    }
    std::remove((dir + "/br_fr_test.slot0.snap").c_str());
    std::remove((dir + "/br_fr_test.slot1.snap").c_str());
}

namespace {

/// A supervised session whose frame `crash_at` faults twice (attempt
/// and retry), so the ladder warm-restores there. Writes the two
/// rotating dumps <TempDir>/<basename>.dump{0,1}.brfr, whose paths it
/// returns in write order: frame_fault, then warm_restore.
std::vector<std::string> crash_once(const sim::SimulatedSession& s,
                                    std::uint64_t crash_at,
                                    const std::string& basename) {
    const std::string dir = testing::TempDir();
    core::SupervisorConfig config;
    config.snapshot_interval_frames = 200;
    config.snapshot_dir = dir;
    config.snapshot_basename = basename;
    core::Supervisor supervisor(s.radar, {}, config);
    std::size_t throws_remaining = 2;
    supervisor.set_fault_hook([&](std::uint64_t frame_index) {
        if (frame_index == crash_at && throws_remaining > 0) {
            --throws_remaining;
            throw std::runtime_error("test: injected fault");
        }
    });
    for (std::uint64_t i = 0; i <= crash_at; ++i)
        supervisor.process(s.frames[i]);
    EXPECT_EQ(supervisor.stats().warm_restores, 1u);
    EXPECT_EQ(supervisor.stats().dumps, 2u);
    std::remove((dir + "/" + basename + ".slot0.snap").c_str());
    std::remove((dir + "/" + basename + ".slot1.snap").c_str());
    return {dir + "/" + basename + ".dump0.brfr",
            dir + "/" + basename + ".dump1.brfr"};
}

}  // namespace

TEST(FlightReplay, WarmRestoreOnACheckpointFrameKeepsTheOlderBase) {
    // Frame 400 crashes right after the autosnapshot at seq 400, so the
    // restore notes the same seq again. That must replace the newest
    // checkpoint, not evict the seq-200 base: otherwise the
    // warm-restore dump holds seq 400 twice and replays nothing.
    const sim::SimulatedSession s = short_session();
    for (const std::string& path : crash_once(s, 400, "br_fr_ckpt_seq")) {
        const core::DecodedDump dump = core::read_flight_dump_file(path);
        ASSERT_EQ(dump.flight.checkpoints.size(), 2u) << path;
        EXPECT_EQ(dump.flight.checkpoints[0].seq, 200u) << path;
        EXPECT_EQ(dump.flight.checkpoints[1].seq, 400u) << path;
        const core::ReplayReport report = core::replay_flight_dump(dump);
        EXPECT_TRUE(report.ok) << path << ": " << report.note;
        EXPECT_EQ(report.mismatch_count, 0u) << path;
        EXPECT_EQ(report.frames_replayed, 200u) << path;
        std::remove(path.c_str());
    }
}

TEST(FlightReplay, DumpEventIsStampedOnTheFrameTimeline) {
    // The frame_fault dump's kDump event lands in the later
    // warm_restore dump, stamped with the crashing frame's timestamp
    // like the fault events around it (not a steady-clock reading).
    const sim::SimulatedSession s = short_session();
    const std::uint64_t crash_at = 300;
    const std::vector<std::string> paths =
        crash_once(s, crash_at, "br_fr_dump_event");
    const core::DecodedDump dump = core::read_flight_dump_file(paths[1]);
    EXPECT_EQ(dump.flight.reason, "warm_restore");
    std::size_t dump_events = 0;
    for (const obs::TapEvent& ev : dump.flight.events) {
        if (ev.type != static_cast<std::uint8_t>(obs::RecorderEvent::kDump))
            continue;
        ++dump_events;
        EXPECT_EQ(ev.t, s.frames[crash_at].timestamp_s);
    }
    EXPECT_EQ(dump_events, 1u);
    for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(FlightDumpFile, WriteReadRoundTripAndMissingFileThrows) {
    const std::string path = testing::TempDir() + "br_fr_file.brfr";
    obs::FlightRecorder rec(small_config());
    rec.begin_frame(tiny_frame(1));
    rec.end_frame(tiny_tap(1));
    core::write_flight_dump_file(path, rec, radar::RadarConfig{},
                                 core::PipelineConfig{}, "file_io");
    const core::DecodedDump dump = core::read_flight_dump_file(path);
    EXPECT_EQ(dump.flight.reason, "file_io");
    EXPECT_EQ(dump.flight.raw.size(), 1u);
    std::remove(path.c_str());
    EXPECT_THROW(core::read_flight_dump_file(path), state::SnapshotError);
}

TEST(FlightDumpCorruption, EveryTruncationIsRejected) {
    const std::vector<std::uint8_t> bytes = small_dump_bytes(4, small_config());
    // Unlike the bare container (where a prefix ending exactly at a
    // section boundary is a valid shorter snapshot), a dump prefix is
    // ALWAYS rejected: mid-section cuts fail the container CRC walk and
    // boundary cuts are missing required dump sections. Every prefix
    // must throw — never parse, never crash.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> cut(
            bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW(core::decode_dump(cut), state::SnapshotError)
            << "prefix of " << len << " bytes decoded";
    }
}

TEST(FlightDumpCorruption, EverySingleByteFlipIsRejected) {
    const std::vector<std::uint8_t> bytes = small_dump_bytes(4, small_config());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (i == 6 || i == 7) continue;  // container reserved flags
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0xFF;
        EXPECT_THROW(core::decode_dump(bad), state::SnapshotError)
            << "byte " << i << " flipped without detection";
    }
}

TEST(FlightDumpCorruption, OutOfRangeEnumBytesAreRejected) {
    // A well-formed, CRC-valid dump whose enum bytes name no enumerator
    // must fail the decode rather than replay as an impossible config.
    obs::FlightRecorder rec(small_config());
    rec.begin_frame(tiny_frame(1));
    rec.end_frame(tiny_tap(1));
    const auto dump_with = [&](void (*corrupt)(core::PipelineConfig&)) {
        core::PipelineConfig pipeline;
        corrupt(pipeline);
        return core::make_flight_dump(rec, radar::RadarConfig{}, pipeline,
                                      "bad_enum");
    };
    EXPECT_THROW(core::decode_dump(dump_with([](core::PipelineConfig& p) {
                     p.fir_window = static_cast<dsp::WindowType>(9);
                 })),
                 state::SnapshotError);
    EXPECT_THROW(core::decode_dump(dump_with([](core::PipelineConfig& p) {
                     p.selection_mode = static_cast<core::BinSelectionMode>(9);
                 })),
                 state::SnapshotError);
    EXPECT_THROW(core::decode_dump(dump_with([](core::PipelineConfig& p) {
                     p.fit_method = static_cast<core::CircleFitMethod>(9);
                 })),
                 state::SnapshotError);
    EXPECT_THROW(core::decode_dump(dump_with([](core::PipelineConfig& p) {
                     p.waveform_mode = static_cast<core::WaveformMode>(9);
                 })),
                 state::SnapshotError);
    // The last enumerator of each is still accepted.
    EXPECT_NO_THROW(core::decode_dump(dump_with([](core::PipelineConfig& p) {
        p.fir_window = dsp::WindowType::kBlackman;
        p.selection_mode = core::BinSelectionMode::kMaxPower;
        p.fit_method = core::CircleFitMethod::kTaubin;
        p.waveform_mode = core::WaveformMode::kPhase;
    })));
}

TEST(FlightDumpCorruption, RetiredMotionStageDumpsAreRejected) {
    // FRCF keeps the slots of the removed motion-artifact veto
    // correlation (f64) and motion-compensation flag (bool) just before
    // movement_threshold_factor. Counted back from the trailing
    // frame-path byte (the last payload byte, before the 4-byte section
    // CRC): 49 guard bytes, then the two movement doubles.
    state::StateWriter writer;
    writer.defer_crcs();
    core::save_flight_configs(writer, radar::RadarConfig{},
                              core::PipelineConfig{});
    const std::vector<std::uint8_t> written = writer.finish();
    const std::size_t path_byte = written.size() - 5;
    const std::size_t movement_at = path_byte - 49 - 16;
    const std::size_t compensation_at = movement_at - 1;
    const std::size_t veto_at = compensation_at - 8;
    const auto f64_at = [&](std::size_t at) {
        std::uint64_t bits = 0;
        for (std::size_t k = 0; k < 8; ++k)
            bits |= static_cast<std::uint64_t>(written[at + k]) << (8 * k);
        return std::bit_cast<double>(bits);
    };
    ASSERT_EQ(f64_at(movement_at),
              core::PipelineConfig{}.movement_threshold_factor);
    // A default FRCF still carries the stages' old "off" values.
    EXPECT_EQ(f64_at(veto_at), 1.5);
    EXPECT_EQ(written[compensation_at], 0);

    const auto load = [](std::vector<std::uint8_t> bytes) {
        state::seal_section_crcs(bytes);
        state::StateReader reader(bytes);
        return core::load_flight_configs(reader);
    };
    const auto with_veto = [&](double veto) {
        std::vector<std::uint8_t> bytes = written;
        const auto bits = std::bit_cast<std::uint64_t>(veto);
        for (std::size_t k = 0; k < 8; ++k)
            bytes[veto_at + k] = static_cast<std::uint8_t>(bits >> (8 * k));
        return bytes;
    };
    const auto expect_rejected = [&](std::vector<std::uint8_t> bytes,
                                     const std::string& stage) {
        try {
            load(std::move(bytes));
            ADD_FAILURE() << "a dump with " << stage << " enabled loaded";
        } catch (const state::SnapshotError& e) {
            EXPECT_NE(std::string(e.what()).find(stage), std::string::npos)
                << e.what();
        }
    };
    EXPECT_NO_THROW(load(written));
    EXPECT_NO_THROW(load(with_veto(1.0)));
    expect_rejected(with_veto(0.5), "motion-artifact veto");
    std::vector<std::uint8_t> compensated = written;
    compensated[compensation_at] = 1;
    expect_rejected(compensated, "motion compensation");
}

TEST(FlightDumpCorruption, FuzzedMutationsNeverEscapeSnapshotError) {
    const std::vector<std::uint8_t> base = small_dump_bytes(6, small_config());
    Rng rng(20260807);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::uint8_t> mutated = base;
        const int mutations = rng.uniform_int(1, 6);
        for (int m = 0; m < mutations && !mutated.empty(); ++m) {
            switch (rng.uniform_int(0, 2)) {
                case 0:
                    mutated[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(mutated.size()) - 1))] ^=
                        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
                    break;
                case 1:
                    mutated.resize(static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(mutated.size()))));
                    break;
                case 2:
                    for (int k = rng.uniform_int(1, 12); k > 0; --k)
                        mutated.push_back(static_cast<std::uint8_t>(
                            rng.uniform_int(0, 255)));
                    break;
            }
        }
        try {
            const core::DecodedDump dump = core::decode_dump(mutated);
            // Decoded: CRCs and structural checks passed, so replay must
            // behave (report a verdict, never crash).
            (void)core::replay_flight_dump(dump);
        } catch (const state::SnapshotError&) {
            // The expected rejection path.
        }
    }
}
