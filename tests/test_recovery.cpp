// eval:: crash-drill harness: deterministic crash schedules, recovery
// sessions that actually recover, the no-checkpoint control, and the
// BENCH_recovery.json writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "eval/recovery.hpp"
#include "physio/driver_profile.hpp"

namespace blinkradar::eval {
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

}  // namespace

TEST(Recovery, CrashScheduleIsDeterministicAndWellFormed) {
    const sim::ScenarioConfig sc = reference_scenario(31);
    CrashDrillSpec drill;
    drill.crashes_per_session = 5;
    const std::size_t n_frames = 750;
    const std::vector<std::size_t> a = crash_schedule(sc, n_frames, drill);
    const std::vector<std::size_t> b = crash_schedule(sc, n_frames, drill);
    EXPECT_EQ(a, b);  // replayable
    ASSERT_EQ(a.size(), drill.crashes_per_session);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(a[i], n_frames);
        EXPECT_GE(a[i], n_frames / 8);  // past the cold-start window
        if (i > 0) EXPECT_LT(a[i - 1], a[i]);  // strictly sorted = distinct
    }

    // Different drill seed, different schedule (same scenario).
    CrashDrillSpec other = drill;
    other.seed = drill.seed + 1;
    EXPECT_NE(crash_schedule(sc, n_frames, other), a);
}

TEST(Recovery, SessionRecoversEveryCrashWithCheckpoints) {
    const sim::ScenarioConfig sc = reference_scenario(32);
    CrashDrillSpec drill;
    drill.crashes_per_session = 3;
    const RecoverySession s = run_recovery_session(sc, 50, drill);
    EXPECT_TRUE(s.completed) << s.error;
    EXPECT_EQ(s.crashes_triggered, drill.crashes_per_session);
    EXPECT_EQ(s.recovered_crashes, s.crashes_triggered);
    EXPECT_GT(s.frames_processed, 0u);
    // attempts_per_crash = 2 exhausts the retry and lands on the ladder's
    // warm-restore rung; checkpoints exist, so no cold restarts.
    EXPECT_EQ(s.supervisor.warm_restores, drill.crashes_per_session);
    EXPECT_EQ(s.supervisor.cold_restarts, 0u);
    EXPECT_GT(s.supervisor.snapshots, 0u);
    EXPECT_GE(s.max_downtime_s, 0.0);
    EXPECT_GE(s.total_downtime_s, s.max_downtime_s);
    EXPECT_GT(s.match.detected, 0u);
}

TEST(Recovery, SessionIsDeterministic) {
    const sim::ScenarioConfig sc = reference_scenario(33);
    const CrashDrillSpec drill;
    const RecoverySession a = run_recovery_session(sc, 100, drill);
    const RecoverySession b = run_recovery_session(sc, 100, drill);
    EXPECT_EQ(a.match.detected, b.match.detected);
    EXPECT_EQ(a.match.matched, b.match.matched);
    EXPECT_EQ(a.total_downtime_s, b.total_downtime_s);
    EXPECT_EQ(a.supervisor.warm_restores, b.supervisor.warm_restores);
    EXPECT_EQ(a.supervisor.cold_restarts, b.supervisor.cold_restarts);
    EXPECT_EQ(a.supervisor.backoff_skipped, b.supervisor.backoff_skipped);
}

TEST(Recovery, NoCheckpointControlColdRestarts) {
    const sim::ScenarioConfig sc = reference_scenario(34);
    const CrashDrillSpec drill;
    const RecoverySession s = run_recovery_session(sc, 0, drill);
    EXPECT_TRUE(s.completed) << s.error;
    // With nothing to restore, every exhausted retry is a cold restart.
    EXPECT_EQ(s.supervisor.warm_restores, 0u);
    EXPECT_EQ(s.supervisor.cold_restarts, drill.crashes_per_session);
    EXPECT_EQ(s.supervisor.snapshots, 0u);
}

TEST(Recovery, SweepPointAggregatesBatch) {
    const std::vector<sim::ScenarioConfig> scenarios = {
        reference_scenario(35, 25.0), reference_scenario(36, 25.0)};
    const CrashDrillSpec drill;
    const double baseline_f1 = run_recovery_baseline(scenarios);
    EXPECT_GT(baseline_f1, 0.0);
    const RecoveryPoint p =
        run_recovery_point(scenarios, 100, drill, baseline_f1);
    EXPECT_EQ(p.snapshot_interval_frames, 100u);
    EXPECT_EQ(p.crashes, scenarios.size() * drill.crashes_per_session);
    EXPECT_EQ(p.completed_fraction, 1.0);
    EXPECT_GT(p.f1, 0.0);
    EXPECT_EQ(p.f1_loss, baseline_f1 - p.f1);
    EXPECT_GE(p.max_downtime_s, p.mean_downtime_s);
    EXPECT_GT(p.warm_restores, 0u);
    EXPECT_GT(p.snapshots, 0u);
}

TEST(Recovery, DefaultIntervalsStartWithControl) {
    const std::vector<std::size_t> intervals = default_recovery_intervals();
    ASSERT_GE(intervals.size(), 2u);
    EXPECT_EQ(intervals.front(), 0u);  // the no-checkpoint control
    for (std::size_t i = 2; i < intervals.size(); ++i)
        EXPECT_LT(intervals[i - 1], intervals[i]);
}

TEST(Recovery, WritesRecoveryJson) {
    const std::vector<sim::ScenarioConfig> scenarios = {
        reference_scenario(37, 20.0)};
    const CrashDrillSpec drill;
    const double baseline_f1 = run_recovery_baseline(scenarios);
    const std::vector<std::size_t> intervals = {0, 100};
    std::vector<RecoveryPoint> points;
    for (const std::size_t interval : intervals)
        points.push_back(
            run_recovery_point(scenarios, interval, drill, baseline_f1));
    ASSERT_EQ(points.size(), intervals.size());

    const std::string path =
        testing::TempDir() + "/blinkradar_recovery_test.json";
    write_recovery_json(path, points, baseline_f1, drill, scenarios.size());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    EXPECT_NE(json.find("\"schema\": \"blinkradar-recovery-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"baseline_f1\""), std::string::npos);
    EXPECT_NE(json.find("\"snapshot_interval_frames\": 0"),
              std::string::npos);
    EXPECT_NE(json.find("\"cold_restarts\""), std::string::npos);
    std::remove(path.c_str());
}

}  // namespace blinkradar::eval
