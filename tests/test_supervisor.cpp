// core::Supervisor: the escalation ladder (retry -> warm restore ->
// backoff -> cold restart), double-buffered snapshot slots with
// corruption fallback, the injectable-clock stall watchdog, and the
// determinism of the whole recovery schedule.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/supervisor.hpp"
#include "physio/driver_profile.hpp"
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

void expect_stats_eq(const SupervisorStats& a, const SupervisorStats& b) {
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.frame_faults, b.frame_faults);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.warm_restores, b.warm_restores);
    EXPECT_EQ(a.cold_restarts, b.cold_restarts);
    EXPECT_EQ(a.snapshots, b.snapshots);
    EXPECT_EQ(a.snapshot_failures, b.snapshot_failures);
    EXPECT_EQ(a.restore_failures, b.restore_failures);
    EXPECT_EQ(a.backoff_skipped, b.backoff_skipped);
    EXPECT_EQ(a.stalls, b.stalls);
}

struct FaultWindow {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;  ///< half-open frame-index range that faults
};

Supervisor::FaultHook faulting_frames(const FaultWindow& window) {
    return [window](std::uint64_t frame_index) {
        if (frame_index >= window.begin && frame_index < window.end)
            throw std::runtime_error("test: injected fault");
    };
}

}  // namespace

TEST(Supervisor, CleanRunIsBitIdenticalToBarePipeline) {
    // Checkpointing only serialises — it must never perturb detection.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(21, 20.0));
    BlinkRadarPipeline bare(s.radar);
    SupervisorConfig config;
    config.snapshot_interval_frames = 40;
    config.stall_timeout_s = 0.0;
    Supervisor sup(s.radar, {}, config);
    for (const auto& f : s.frames) {
        const FrameResult a = bare.process(f);
        const FrameResult b = sup.process(f);
        EXPECT_EQ(a.blink.has_value(), b.blink.has_value());
        EXPECT_EQ(a.waveform_value, b.waveform_value);
        EXPECT_EQ(a.cold_start, b.cold_start);
        EXPECT_EQ(a.health, b.health);
    }
    EXPECT_EQ(bare.blinks().size(), sup.pipeline().blinks().size());
    EXPECT_GT(sup.stats().snapshots, 0u);
    EXPECT_EQ(sup.stats().frame_faults, 0u);
    EXPECT_EQ(sup.stats().warm_restores, 0u);
    EXPECT_EQ(sup.stats().cold_restarts, 0u);
}

TEST(Supervisor, TransientFaultIsRetriedInPlace) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(22, 15.0));
    SupervisorConfig config;
    config.snapshot_interval_frames = 50;
    config.stall_timeout_s = 0.0;
    Supervisor sup(s.radar, {}, config);
    // One attempt faults at frame 200; the in-place retry must absorb it.
    std::size_t throws_left = 1;
    sup.set_fault_hook([&](std::uint64_t frame_index) {
        if (frame_index == 200 && throws_left > 0) {
            --throws_left;
            throw std::runtime_error("test: transient fault");
        }
    });
    for (const auto& f : s.frames) sup.process(f);
    EXPECT_EQ(sup.stats().frame_faults, 1u);
    EXPECT_EQ(sup.stats().retries, 1u);
    EXPECT_EQ(sup.stats().warm_restores, 0u);
    EXPECT_EQ(sup.stats().cold_restarts, 0u);
}

TEST(Supervisor, PersistentFaultWarmRestoresFromSnapshot) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(23, 15.0));
    SupervisorConfig config;
    config.snapshot_interval_frames = 50;
    config.stall_timeout_s = 0.0;
    Supervisor sup(s.radar, {}, config);
    // Both the attempt and its retry fault: the ladder must restore from
    // the last checkpoint and finish the frame on the restored pipeline.
    std::size_t throws_left = 2;
    sup.set_fault_hook([&](std::uint64_t frame_index) {
        if (frame_index == 200 && throws_left > 0) {
            --throws_left;
            throw std::runtime_error("test: persistent fault");
        }
    });
    FrameResult at_fault;
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
        const FrameResult r = sup.process(s.frames[i]);
        if (i == 200) at_fault = r;
    }
    EXPECT_EQ(sup.stats().frame_faults, 2u);
    EXPECT_EQ(sup.stats().warm_restores, 1u);
    EXPECT_EQ(sup.stats().cold_restarts, 0u);
    // The frame that faulted was completed after the restore, not dropped.
    EXPECT_NE(at_fault.quality, FrameVerdict::kQuarantined);
    // Detection survived the restore: blinks keep accumulating.
    EXPECT_GT(sup.pipeline().blinks().size(), 0u);
}

TEST(Supervisor, NoSnapshotMeansColdRestart) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(24, 10.0));
    SupervisorConfig config;
    config.snapshot_interval_frames = 0;  // checkpointing disabled
    config.stall_timeout_s = 0.0;
    Supervisor sup(s.radar, {}, config);
    std::size_t throws_left = 2;
    sup.set_fault_hook([&](std::uint64_t frame_index) {
        if (frame_index == 150 && throws_left > 0) {
            --throws_left;
            throw std::runtime_error("test: fault with nothing to restore");
        }
    });
    for (const auto& f : s.frames) sup.process(f);
    EXPECT_EQ(sup.stats().warm_restores, 0u);
    EXPECT_EQ(sup.stats().cold_restarts, 1u);
    EXPECT_FALSE(sup.has_snapshot());
}

TEST(Supervisor, CrashStormClimbsTheFullLadder) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(25, 30.0));
    SupervisorConfig config;
    config.snapshot_interval_frames = 50;
    config.max_warm_restores = 2;
    config.backoff_base_frames = 4;
    config.backoff_cap_frames = 32;
    config.stall_timeout_s = 0.0;
    Supervisor sup(s.radar, {}, config);
    // Every attempt in a 150-frame window faults: retries fail, warm
    // restores fail to stop the storm, backoff windows drain, and the
    // ladder must eventually cold restart — without ever throwing out.
    sup.set_fault_hook(faulting_frames({300, 450}));
    for (const auto& f : s.frames) {
        EXPECT_NO_THROW(sup.process(f));
    }
    const SupervisorStats& st = sup.stats();
    EXPECT_GT(st.frame_faults, 0u);
    EXPECT_EQ(st.warm_restores, 2u);  // the configured ladder budget
    EXPECT_GT(st.backoff_skipped, 0u);
    EXPECT_GE(st.cold_restarts, 1u);
    // After the storm the pipeline reconverges and detects again.
    EXPECT_GT(sup.pipeline().blinks().size(), 0u);
}

TEST(Supervisor, RecoveryScheduleIsDeterministic) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(26, 20.0));
    SupervisorConfig config;
    config.snapshot_interval_frames = 50;
    config.max_warm_restores = 2;
    config.backoff_base_frames = 4;
    config.seed = 99;
    config.stall_timeout_s = 0.0;
    SupervisorStats runs[2];
    for (auto& run : runs) {
        Supervisor sup(s.radar, {}, config);
        sup.set_fault_hook(faulting_frames({200, 320}));
        for (const auto& f : s.frames) sup.process(f);
        run = sup.stats();
    }
    expect_stats_eq(runs[0], runs[1]);
}

TEST(Supervisor, CorruptNewestSlotFallsBackToOlderSlot) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(27, 30.0));
    const std::string dir = testing::TempDir();
    SupervisorConfig config;
    config.snapshot_interval_frames = 100;
    config.snapshot_dir = dir;
    config.snapshot_basename = "slot_fallback_test";
    config.max_warm_restores = 1;
    config.backoff_base_frames = 2;
    config.backoff_cap_frames = 4;
    config.stall_timeout_s = 0.0;
    Supervisor sup(s.radar, {}, config);

    // Clean run long enough to fill both slots (snapshots at 100, 200).
    std::size_t i = 0;
    for (; i < 220; ++i) sup.process(s.frames[i]);
    ASSERT_GE(sup.stats().snapshots, 2u);
    const std::string slot0 = dir + "/slot_fallback_test.slot0.snap";
    const std::string slot1 = dir + "/slot_fallback_test.slot1.snap";
    ASSERT_NO_THROW(state::read_snapshot_file(slot0));
    ASSERT_NO_THROW(state::read_snapshot_file(slot1));

    // A storm long enough to exhaust the warm budget and cold restart
    // (which drops the in-memory checkpoint), then keep faulting: the
    // next warm restore must come from disk. Corrupt the newest slot
    // (slot1, written at frame 200) so only the older slot0 can serve.
    {
        std::fstream f(slot1, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekp(30);
        f.put('\xFF');
    }
    sup.set_fault_hook(faulting_frames({220, 320}));
    for (; i < s.frames.size(); ++i) sup.process(s.frames[i]);

    const SupervisorStats& st = sup.stats();
    EXPECT_GE(st.cold_restarts, 1u);
    EXPECT_GE(st.restore_failures, 1u);  // the corrupted slot1
    EXPECT_GE(st.warm_restores, 2u);     // memory first, then disk
}

TEST(Supervisor, DirectorySlotsFallThroughToColdRestart) {
    // Both slot paths replaced by directories: reading them must fail as
    // a SnapshotError the restore ladder handles, so the storm ends in a
    // cold restart instead of an exception escaping process().
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(27, 30.0));
    const std::string dir = testing::TempDir();
    SupervisorConfig config;
    config.snapshot_interval_frames = 100;
    config.snapshot_dir = dir;
    config.snapshot_basename = "slot_dir_test";
    config.max_warm_restores = 1;
    config.backoff_base_frames = 2;
    config.backoff_cap_frames = 4;
    config.stall_timeout_s = 0.0;
    const std::string slots[2] = {dir + "/slot_dir_test.slot0.snap",
                                  dir + "/slot_dir_test.slot1.snap"};
    for (const std::string& slot : slots) std::filesystem::remove_all(slot);
    Supervisor sup(s.radar, {}, config);

    std::size_t i = 0;
    for (; i < 220; ++i) sup.process(s.frames[i]);
    ASSERT_EQ(sup.stats().snapshot_failures, 0u);
    for (const std::string& slot : slots) {
        ASSERT_TRUE(std::filesystem::remove(slot));
        ASSERT_TRUE(std::filesystem::create_directory(slot));
    }

    sup.set_fault_hook(faulting_frames({220, 320}));
    for (; i < s.frames.size(); ++i)
        ASSERT_NO_THROW(sup.process(s.frames[i])) << "at frame " << i;

    const SupervisorStats& st = sup.stats();
    EXPECT_GE(st.cold_restarts, 1u);
    EXPECT_GE(st.restore_failures, 2u);  // both directory slots
    for (const std::string& slot : slots) std::filesystem::remove(slot);
}

TEST(Supervisor, StallWatchdogUsesInjectedClock) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(28, 10.0));
    SupervisorConfig config;
    config.snapshot_interval_frames = 1000000;  // periodic: effectively off
    config.stall_timeout_s = 5.0;
    Supervisor sup(s.radar, {}, config);
    double fake_now = 0.0;
    sup.set_clock([&] { return fake_now; });
    sup.process(s.frames[0]);
    fake_now = 0.1;
    sup.process(s.frames[1]);
    EXPECT_EQ(sup.stats().stalls, 0u);
    fake_now = 60.0;  // the feed wedged for a minute
    sup.process(s.frames[2]);
    EXPECT_EQ(sup.stats().stalls, 1u);
    // The watchdog forces a prompt checkpoint despite the huge interval.
    EXPECT_EQ(sup.stats().snapshots, 1u);
    fake_now = 60.2;
    sup.process(s.frames[3]);
    EXPECT_EQ(sup.stats().stalls, 1u);  // normal cadence: no new trip
}

TEST(Supervisor, RestoreFromFileResumesBitIdentically) {
    // Cross-process resume: supervisor A checkpoints to disk mid-run; a
    // fresh supervisor B (new pipeline) restores the file and replays
    // the tail — outputs must match an uninterrupted pipeline exactly.
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(29, 20.0));
    const std::string dir = testing::TempDir();
    SupervisorConfig config;
    config.snapshot_interval_frames = 0;  // manual checkpoints only
    config.snapshot_dir = dir;
    config.snapshot_basename = "resume_file_test";
    config.stall_timeout_s = 0.0;

    BlinkRadarPipeline reference(s.radar);
    Supervisor a(s.radar, {}, config);
    const std::size_t split = 250;
    for (std::size_t i = 0; i < split; ++i) {
        reference.process(s.frames[i]);
        a.process(s.frames[i]);
    }
    ASSERT_TRUE(a.snapshot_now());
    const std::string path = dir + "/resume_file_test.slot0.snap";

    Supervisor b(s.radar, {}, config);
    b.restore_from_file(path);
    for (std::size_t i = split; i < s.frames.size(); ++i) {
        const FrameResult want = reference.process(s.frames[i]);
        const FrameResult got = b.process(s.frames[i]);
        EXPECT_EQ(want.blink.has_value(), got.blink.has_value());
        EXPECT_EQ(want.waveform_value, got.waveform_value);
        EXPECT_EQ(want.health, got.health);
    }
    EXPECT_EQ(reference.blinks().size(), b.pipeline().blinks().size());

    // A damaged file is rejected and the supervisor keeps its pipeline.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(25);
        f.put('\x7E');
    }
    EXPECT_THROW(b.restore_from_file(path), state::SnapshotError);
}

}  // namespace blinkradar::core
