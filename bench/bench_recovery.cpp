// Crash-recovery experiment (reproduction extension).
//
// Sweeps the supervisor's autosnapshot interval under a deterministic
// crash drill: each session is interrupted by injected crashes, the
// escalation ladder recovers (warm restore from the last checkpoint, or
// cold restart when none exists), and the harness reports the blink-F1
// loss versus the crash-free baseline plus the detection downtime per
// crash. Writes BENCH_recovery.json (to argv[1], default the working
// directory). Exits 1 when a session does not complete, a crash is not
// recovered, or a point with a nonzero interval takes no snapshot.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/recovery.hpp"

using namespace blinkradar;

int main(int argc, char** argv) {
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";

    const auto drivers = benchutil::participants(4);
    std::vector<sim::ScenarioConfig> scenarios;
    scenarios.reserve(drivers.size());
    for (std::size_t i = 0; i < drivers.size(); ++i) {
        sim::ScenarioConfig sc =
            benchutil::reference_scenario(drivers[i], 4200 + 71 * i);
        sc.duration_s = 60.0;
        scenarios.push_back(sc);
    }

    const eval::CrashDrillSpec drill;
    const std::vector<std::size_t> intervals =
        eval::default_recovery_intervals();
    const double baseline_f1 = eval::run_recovery_baseline(scenarios);
    std::vector<eval::RecoveryPoint> points;
    points.reserve(intervals.size());
    for (const std::size_t interval : intervals)
        points.push_back(eval::run_recovery_point(scenarios, interval, drill,
                                                  baseline_f1));

    eval::banner(std::cout,
                 "Recovery: checkpoint cadence vs crash-drill cost");
    std::printf("crash-free baseline F1: %.3f (%zu crashes/session, %zu "
                "faulting attempts each)\n",
                baseline_f1, drill.crashes_per_session,
                drill.attempts_per_crash);
    eval::AsciiTable table({"interval (frames)", "f1", "f1 loss",
                            "downtime (s)", "warm", "cold", "snapshots"});
    for (const eval::RecoveryPoint& p : points) {
        table.add_row({p.snapshot_interval_frames == 0
                           ? "none"
                           : std::to_string(p.snapshot_interval_frames),
                       eval::fmt(p.f1, 3), eval::fmt(p.f1_loss, 3),
                       eval::fmt(p.mean_downtime_s, 2),
                       std::to_string(p.warm_restores),
                       std::to_string(p.cold_restarts),
                       std::to_string(p.snapshots)});
    }
    table.print(std::cout);

    // A checkpointed point that never took a snapshot only repeats the
    // no-checkpoint control, so it fails the run like a lost crash does.
    bool all_complete = true;
    bool all_recovered = true;
    bool all_snapshotted = true;
    for (const eval::RecoveryPoint& p : points) {
        all_complete &= p.completed_fraction == 1.0;
        all_recovered &= p.recovered_crashes == p.crashes;
        all_snapshotted &= p.snapshot_interval_frames == 0 || p.snapshots > 0;
    }
    std::printf("every session completed: %s; every crash recovered: %s; "
                "every checkpointed point snapshotted: %s\n",
                all_complete ? "yes" : "NO", all_recovered ? "yes" : "NO",
                all_snapshotted ? "yes" : "NO");

    eval::write_recovery_json(out_path, points, baseline_f1, drill,
                              scenarios.size());
    std::printf("wrote %s (%zu points x %zu scenarios)\n", out_path.c_str(),
                points.size(), scenarios.size());
    return all_complete && all_recovered && all_snapshotted ? 0 : 1;
}
