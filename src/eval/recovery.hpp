// Crash-drill experiment: detection accuracy and recovery time under a
// supervised pipeline with periodic checkpointing.
//
// Closes the loop on the state-snapshot subsystem the way the
// robustness sweep closes it on the FrameGuard: each sweep point runs a
// batch of simulated sessions through core::Supervisor with a
// deterministic crash schedule (all randomness forked from the scenario
// seed, mirroring radar::FaultInjector's discipline), at one
// autosnapshot interval per point. The report compares blink F1 against
// the crash-free baseline and measures detection downtime per crash, so
// BENCH_recovery.json answers the operational question directly: how
// much detection do we lose per crash at a given checkpoint cadence?
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/supervisor.hpp"
#include "eval/metrics.hpp"
#include "sim/scenario.hpp"

namespace blinkradar::eval {

/// Deterministic crash schedule for one session.
struct CrashDrillSpec {
    /// Crashes injected per session (distinct frames, uniformly placed
    /// after the cold-start window).
    std::size_t crashes_per_session = 3;

    /// Consecutive processing attempts that fault at each crash frame.
    /// 1 exercises only the in-place retry; the default 2 exhausts the
    /// retry budget and drives the ladder into a warm restore, which is
    /// what the drill is for; larger values push into backoff and cold
    /// restarts.
    std::size_t attempts_per_crash = 2;

    /// Schedule seed, combined with each scenario's seed (forked) so a
    /// drill replays identically and sessions stay independent.
    std::uint64_t seed = 7;
};

/// One supervised session under one crash schedule.
struct RecoverySession {
    MatchResult match;
    core::SupervisorStats supervisor;
    std::size_t frames_processed = 0;
    std::size_t crashes_triggered = 0;
    /// Detection downtime: per crash, the stream time from the crash
    /// frame to the first frame whose result is live again (not
    /// quarantined, not cold-starting).
    double total_downtime_s = 0.0;
    double max_downtime_s = 0.0;
    std::size_t recovered_crashes = 0;  ///< crashes with measured downtime
    bool completed = false;
    std::string error;
};

/// Frame indices (into the session's frame series) at which the drill
/// faults, derived deterministically from (scenario seed, drill seed).
std::vector<std::size_t> crash_schedule(const sim::ScenarioConfig& scenario,
                                        std::size_t n_frames,
                                        const CrashDrillSpec& drill);

/// Run one scenario under supervision with the drill's crash schedule.
/// `snapshot_interval_frames` = 0 disables checkpointing (every crash
/// then escalates to a cold restart — the "no snapshots" control).
RecoverySession run_recovery_session(
    const sim::ScenarioConfig& scenario,
    std::size_t snapshot_interval_frames, const CrashDrillSpec& drill,
    const core::PipelineConfig& pipeline = {});

/// One sweep point: a batch of sessions at one snapshot interval.
struct RecoveryPoint {
    std::size_t snapshot_interval_frames = 0;
    double precision = 0.0;
    double recall = 0.0;
    double f1 = 0.0;
    /// Crash-free baseline F1 minus this point's F1 (the accuracy cost
    /// of the crashes at this checkpoint cadence).
    double f1_loss = 0.0;
    double mean_downtime_s = 0.0;
    double max_downtime_s = 0.0;
    std::size_t recovered_crashes = 0;
    std::uint64_t crashes = 0;
    std::uint64_t warm_restores = 0;
    std::uint64_t cold_restarts = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t restore_failures = 0;
    std::uint64_t backoff_skipped = 0;
    double completed_fraction = 0.0;
};

/// Run one point over the scenario batch (thread-pool fan-out,
/// bit-identical to the serial loop). `baseline_f1` comes from
/// run_recovery_baseline over the same scenarios.
RecoveryPoint run_recovery_point(std::span<const sim::ScenarioConfig> scenarios,
                                 std::size_t snapshot_interval_frames,
                                 const CrashDrillSpec& drill,
                                 double baseline_f1,
                                 const core::PipelineConfig& pipeline = {});

/// Crash-free F1 over the scenario batch (unsupervised pipeline).
double run_recovery_baseline(std::span<const sim::ScenarioConfig> scenarios,
                             const core::PipelineConfig& pipeline = {});

/// The default interval grid used by bench_recovery: no checkpoints,
/// then 2 s / 10 s / 20 s cadences at the 25 Hz default frame rate.
std::vector<std::size_t> default_recovery_intervals();

/// Serialise the sweep to `path` (stable hand-rolled JSON, schema
/// "blinkradar-recovery-v1").
void write_recovery_json(const std::string& path,
                         std::span<const RecoveryPoint> points,
                         double baseline_f1, const CrashDrillSpec& drill,
                         std::size_t scenarios_per_point);

}  // namespace blinkradar::eval
