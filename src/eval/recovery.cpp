#include "eval/recovery.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"

namespace blinkradar::eval {

std::vector<std::size_t> crash_schedule(const sim::ScenarioConfig& scenario,
                                        std::size_t n_frames,
                                        const CrashDrillSpec& drill) {
    BR_EXPECTS(n_frames >= 8);
    // One independent stream per session, forked so adding draws
    // elsewhere never shifts the schedule (the FaultInjector discipline).
    Rng rng(Rng(scenario.seed * 1000003 + drill.seed * 97 + 29).fork());
    // Crash only after the cold-start window has had a chance to finish:
    // a crash during cold start exercises nothing the cold start itself
    // does not already cover.
    const std::size_t lo = std::min(n_frames - 1, n_frames / 8);
    std::vector<std::size_t> schedule;
    while (schedule.size() < drill.crashes_per_session) {
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            static_cast<int>(lo), static_cast<int>(n_frames - 1)));
        if (std::find(schedule.begin(), schedule.end(), idx) ==
            schedule.end())
            schedule.push_back(idx);
    }
    std::sort(schedule.begin(), schedule.end());
    return schedule;
}

RecoverySession run_recovery_session(const sim::ScenarioConfig& scenario,
                                     std::size_t snapshot_interval_frames,
                                     const CrashDrillSpec& drill,
                                     const core::PipelineConfig& pipeline) {
    const sim::SimulatedSession session = sim::simulate_session(scenario);
    const std::vector<std::size_t> schedule =
        crash_schedule(scenario, session.frames.size(), drill);

    core::SupervisorConfig sup_config;
    sup_config.snapshot_interval_frames = snapshot_interval_frames;
    sup_config.seed = scenario.seed * 31 + drill.seed;
    sup_config.stall_timeout_s = 0.0;  // no wall-clock in a batch replay
    // Batch drills measure recovery policy, not post-mortems: the flight
    // recorder's raw-frame ring is dead weight across thousands of
    // simulated crashes, so leave the black box off here.
    sup_config.flight_recorder = false;
    core::Supervisor supervisor(session.radar, pipeline, sup_config);

    RecoverySession out;
    std::size_t next_crash = 0;
    std::size_t throws_remaining = 0;
    supervisor.set_fault_hook([&](std::uint64_t frame_index) {
        if (throws_remaining == 0 && next_crash < schedule.size() &&
            frame_index == schedule[next_crash]) {
            ++next_crash;
            ++out.crashes_triggered;
            throws_remaining = drill.attempts_per_crash;
        }
        if (throws_remaining > 0) {
            --throws_remaining;
            throw std::runtime_error("crash drill: injected fault");
        }
    });

    bool down = false;
    double down_start_s = 0.0;
    try {
        for (const radar::RadarFrame& frame : session.frames) {
            const std::size_t crashes_before = out.crashes_triggered;
            const core::FrameResult r = supervisor.process(frame);
            ++out.frames_processed;
            if (out.crashes_triggered > crashes_before && !down) {
                down = true;
                down_start_s = frame.timestamp_s;
            }
            const bool live = !r.cold_start &&
                              r.quality != core::FrameVerdict::kQuarantined;
            if (down && live) {
                down = false;
                const double downtime = frame.timestamp_s - down_start_s;
                out.total_downtime_s += downtime;
                out.max_downtime_s = std::max(out.max_downtime_s, downtime);
                ++out.recovered_crashes;
            }
        }
        out.completed = true;
    } catch (const std::exception& e) {
        out.completed = false;
        out.error = e.what();
    }
    out.match =
        match_blinks(session.truth.blinks, supervisor.pipeline().blinks());
    out.supervisor = supervisor.stats();
    return out;
}

double run_recovery_baseline(std::span<const sim::ScenarioConfig> scenarios,
                             const core::PipelineConfig& pipeline) {
    BR_EXPECTS(!scenarios.empty());
    const std::vector<MatchResult> matches =
        ThreadPool::shared().parallel_map(scenarios.size(), [&](std::size_t i) {
            const sim::SimulatedSession session =
                sim::simulate_session(scenarios[i]);
            const core::BatchResult result =
                core::detect_blinks(session.frames, session.radar, pipeline);
            return match_blinks(session.truth.blinks, result.blinks);
        });
    std::size_t true_blinks = 0, detected = 0, matched = 0;
    for (const MatchResult& m : matches) {
        true_blinks += m.true_blinks;
        detected += m.detected;
        matched += m.matched;
    }
    const double recall = true_blinks == 0 ? 1.0
                                           : static_cast<double>(matched) /
                                                 static_cast<double>(true_blinks);
    const double precision = detected == 0 ? 1.0
                                           : static_cast<double>(matched) /
                                                 static_cast<double>(detected);
    return precision + recall == 0.0
               ? 0.0
               : 2.0 * precision * recall / (precision + recall);
}

RecoveryPoint run_recovery_point(std::span<const sim::ScenarioConfig> scenarios,
                                 std::size_t snapshot_interval_frames,
                                 const CrashDrillSpec& drill,
                                 double baseline_f1,
                                 const core::PipelineConfig& pipeline) {
    BR_EXPECTS(!scenarios.empty());
    const std::vector<RecoverySession> sessions =
        ThreadPool::shared().parallel_map(scenarios.size(), [&](std::size_t i) {
            return run_recovery_session(scenarios[i],
                                        snapshot_interval_frames, drill,
                                        pipeline);
        });

    RecoveryPoint point;
    point.snapshot_interval_frames = snapshot_interval_frames;
    std::size_t true_blinks = 0, detected = 0, matched = 0, completed = 0;
    double total_downtime = 0.0;
    for (const RecoverySession& s : sessions) {
        true_blinks += s.match.true_blinks;
        detected += s.match.detected;
        matched += s.match.matched;
        completed += s.completed ? 1 : 0;
        point.crashes += s.crashes_triggered;
        point.recovered_crashes += s.recovered_crashes;
        total_downtime += s.total_downtime_s;
        point.max_downtime_s = std::max(point.max_downtime_s, s.max_downtime_s);
        point.warm_restores += s.supervisor.warm_restores;
        point.cold_restarts += s.supervisor.cold_restarts;
        point.snapshots += s.supervisor.snapshots;
        point.restore_failures += s.supervisor.restore_failures;
        point.backoff_skipped += s.supervisor.backoff_skipped;
    }
    point.recall = true_blinks == 0 ? 1.0
                                    : static_cast<double>(matched) /
                                          static_cast<double>(true_blinks);
    point.precision = detected == 0 ? 1.0
                                    : static_cast<double>(matched) /
                                          static_cast<double>(detected);
    point.f1 = point.precision + point.recall == 0.0
                   ? 0.0
                   : 2.0 * point.precision * point.recall /
                         (point.precision + point.recall);
    point.f1_loss = baseline_f1 - point.f1;
    point.mean_downtime_s =
        point.recovered_crashes == 0
            ? 0.0
            : total_downtime / static_cast<double>(point.recovered_crashes);
    point.completed_fraction =
        static_cast<double>(completed) / static_cast<double>(sessions.size());
    return point;
}

std::vector<std::size_t> default_recovery_intervals() {
    // 0 = no checkpoints (every crash cold-restarts), then 2 s / 10 s /
    // 20 s cadences at the 25 Hz default frame rate.
    return {0, 50, 250, 500};
}

void write_recovery_json(const std::string& path,
                         std::span<const RecoveryPoint> points,
                         double baseline_f1, const CrashDrillSpec& drill,
                         std::size_t scenarios_per_point) {
    std::ofstream os(path);
    BR_EXPECTS(os.good());
    os << "{\n"
       << "  \"schema\": \"blinkradar-recovery-v1\",\n"
       << "  \"scenarios_per_point\": " << scenarios_per_point << ",\n"
       << "  \"crashes_per_session\": " << drill.crashes_per_session << ",\n"
       << "  \"attempts_per_crash\": " << drill.attempts_per_crash << ",\n"
       << "  \"drill_seed\": " << drill.seed << ",\n"
       << "  \"baseline_f1\": " << baseline_f1 << ",\n"
       << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RecoveryPoint& p = points[i];
        os << "    {\"snapshot_interval_frames\": "
           << p.snapshot_interval_frames
           << ", \"precision\": " << p.precision
           << ", \"recall\": " << p.recall
           << ", \"f1\": " << p.f1
           << ", \"f1_loss\": " << p.f1_loss
           << ", \"mean_downtime_s\": " << p.mean_downtime_s
           << ", \"max_downtime_s\": " << p.max_downtime_s
           << ", \"recovered_crashes\": " << p.recovered_crashes
           << ", \"crashes\": " << p.crashes
           << ", \"warm_restores\": " << p.warm_restores
           << ", \"cold_restarts\": " << p.cold_restarts
           << ", \"snapshots\": " << p.snapshots
           << ", \"restore_failures\": " << p.restore_failures
           << ", \"backoff_skipped_frames\": " << p.backoff_skipped
           << ", \"completed_fraction\": " << p.completed_fraction << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    BR_ENSURES(os.good());
}

}  // namespace blinkradar::eval
