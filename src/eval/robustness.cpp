#include "eval/robustness.hpp"

#include <cmath>
#include <exception>
#include <fstream>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace blinkradar::eval {

const char* to_string(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::kNone: return "none";
        case FaultKind::kDrop: return "frame_drop";
        case FaultKind::kDuplicate: return "frame_duplicate";
        case FaultKind::kJitter: return "timestamp_jitter";
        case FaultKind::kSaturation: return "iq_saturation";
        case FaultKind::kDeadBins: return "dead_bins";
        case FaultKind::kGainDrift: return "gain_drift";
        case FaultKind::kInterference: return "interference_burst";
        case FaultKind::kNanCorruption: return "nan_corruption";
        case FaultKind::kTruncate: return "short_frame";
        case FaultKind::kDropPlusJitter: return "drop_plus_jitter";
    }
    return "?";
}

radar::FaultInjectorConfig make_fault_config(
    FaultKind kind, double rate, const radar::RadarConfig& radar) {
    BR_EXPECTS(rate >= 0.0);
    radar::FaultInjectorConfig config;
    switch (kind) {
        case FaultKind::kNone:
            break;
        case FaultKind::kDrop:
            config.drop_rate = rate;
            break;
        case FaultKind::kDuplicate:
            config.duplicate_rate = rate;
            break;
        case FaultKind::kJitter:
            config.timestamp_jitter_std_s = rate * radar.frame_period_s;
            break;
        case FaultKind::kSaturation:
            config.saturation_rate = rate;
            break;
        case FaultKind::kDeadBins:
            config.dead_bin_count = static_cast<std::size_t>(
                std::round(rate * static_cast<double>(radar.n_bins())));
            break;
        case FaultKind::kGainDrift:
            config.gain_drift_amplitude = rate;
            break;
        case FaultKind::kInterference:
            config.interference_rate = rate;
            break;
        case FaultKind::kNanCorruption:
            config.nan_rate = rate;
            break;
        case FaultKind::kTruncate:
            config.truncate_rate = rate;
            break;
        case FaultKind::kDropPlusJitter:
            // The acceptance schedule: rate% drops plus quarter-period
            // timestamp jitter on every surviving frame.
            config.drop_rate = rate;
            config.timestamp_jitter_std_s = 0.25 * radar.frame_period_s;
            break;
    }
    return config;
}

namespace {

bool is_lost(core::HealthState h) {
    return h == core::HealthState::kSignalLost ||
           h == core::HealthState::kRecovering;
}

}  // namespace

RobustnessSession run_robust_session(const sim::ScenarioConfig& scenario,
                                     FaultKind kind, double rate,
                                     const core::PipelineConfig& pipeline) {
    const sim::SimulatedSession session = sim::simulate_session(scenario);
    radar::FaultInjector injector(
        make_fault_config(kind, rate, session.radar),
        scenario.seed * 1000003 + 17);
    const radar::FrameSeries impaired = injector.apply(session.frames);

    RobustnessSession out;
    core::BlinkRadarPipeline pipe(session.radar, pipeline);
    core::HealthState prev = core::HealthState::kOk;
    double episode_start_s = 0.0;
    bool in_episode = false;
    try {
        for (const radar::RadarFrame& frame : impaired) {
            const core::FrameResult r = pipe.process(frame);
            ++out.frames_processed;
            if (!std::isfinite(r.waveform_value)) out.finite_outputs = false;
            if (r.health == core::HealthState::kDegraded)
                ++out.degraded_frames;
            if (is_lost(r.health)) ++out.lost_frames;
            if (r.health != prev) {
                ++out.health_transitions;
                if (!in_episode && is_lost(r.health)) {
                    in_episode = true;
                    episode_start_s = frame.timestamp_s;
                } else if (in_episode && r.health == core::HealthState::kOk) {
                    in_episode = false;
                    ++out.recovery_episodes;
                    out.total_recovery_s +=
                        frame.timestamp_s - episode_start_s;
                }
                prev = r.health;
            }
        }
        out.completed = true;
    } catch (const std::exception& e) {
        out.completed = false;
        out.error = e.what();
    }
    out.match = match_blinks(session.truth.blinks, pipe.blinks());
    out.guard = pipe.guard_stats();
    out.faults = injector.stats();
    return out;
}

RobustnessPoint run_robustness_point(
    std::span<const sim::ScenarioConfig> scenarios, FaultKind kind,
    double rate, const core::PipelineConfig& pipeline) {
    BR_EXPECTS(!scenarios.empty());
    const std::vector<RobustnessSession> sessions =
        ThreadPool::shared().parallel_map(scenarios.size(), [&](std::size_t i) {
            return run_robust_session(scenarios[i], kind, rate, pipeline);
        });

    RobustnessPoint point;
    point.kind = kind;
    point.rate = rate;
    std::size_t true_blinks = 0, detected = 0, matched = 0;
    std::size_t completed = 0, finite = 0;
    for (const RobustnessSession& s : sessions) {
        true_blinks += s.match.true_blinks;
        detected += s.match.detected;
        matched += s.match.matched;
        completed += s.completed ? 1 : 0;
        finite += s.finite_outputs ? 1 : 0;
        point.recovery_episodes += s.recovery_episodes;
        point.mean_recovery_s += s.total_recovery_s;
        point.degraded_frames += s.degraded_frames;
        point.lost_frames += s.lost_frames;
        point.frames_quarantined += s.guard.frames_quarantined;
        point.samples_repaired += s.guard.samples_repaired;
        point.frames_bridged += s.guard.frames_bridged;
        point.signal_lost_events += s.guard.signal_lost_events;
        point.warm_restarts += s.guard.warm_restarts;
    }
    const auto n = static_cast<double>(sessions.size());
    point.recall = true_blinks == 0
                       ? 1.0
                       : static_cast<double>(matched) /
                             static_cast<double>(true_blinks);
    point.precision = detected == 0 ? 1.0
                                    : static_cast<double>(matched) /
                                          static_cast<double>(detected);
    point.f1 = point.precision + point.recall == 0.0
                   ? 0.0
                   : 2.0 * point.precision * point.recall /
                         (point.precision + point.recall);
    point.completed_fraction = static_cast<double>(completed) / n;
    point.finite_fraction = static_cast<double>(finite) / n;
    point.mean_recovery_s =
        point.recovery_episodes == 0
            ? 0.0
            : point.mean_recovery_s /
                  static_cast<double>(point.recovery_episodes);
    return point;
}

std::vector<FaultSweepSpec> default_robustness_sweep() {
    return {
        {FaultKind::kNone, {0.0}},
        {FaultKind::kDrop, {0.02, 0.05, 0.10}},
        {FaultKind::kDuplicate, {0.02, 0.05}},
        {FaultKind::kJitter, {0.10, 0.30}},
        {FaultKind::kSaturation, {0.05, 0.20}},
        {FaultKind::kDeadBins, {0.05, 0.15}},
        {FaultKind::kGainDrift, {0.10, 0.30}},
        {FaultKind::kInterference, {0.01, 0.05}},
        {FaultKind::kNanCorruption, {0.02, 0.10}},
        {FaultKind::kTruncate, {0.02, 0.10}},
        {FaultKind::kDropPlusJitter, {0.05}},
    };
}

std::vector<RobustnessPoint> run_robustness_sweep(
    std::span<const sim::ScenarioConfig> scenarios,
    std::span<const FaultSweepSpec> specs,
    const core::PipelineConfig& pipeline) {
    std::vector<RobustnessPoint> points;
    for (const FaultSweepSpec& spec : specs)
        for (const double rate : spec.rates)
            points.push_back(
                run_robustness_point(scenarios, spec.kind, rate, pipeline));
    return points;
}

void write_robustness_json(const std::string& path,
                           std::span<const RobustnessPoint> points,
                           std::size_t scenarios_per_point) {
    std::ofstream os(path);
    BR_EXPECTS(os.good());
    os << "{\n"
       << "  \"schema\": \"blinkradar-robustness-v1\",\n"
       << "  \"scenarios_per_point\": " << scenarios_per_point << ",\n"
       << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RobustnessPoint& p = points[i];
        os << "    {\"fault\": \"" << to_string(p.kind) << "\""
           << ", \"rate\": " << p.rate
           << ", \"precision\": " << p.precision
           << ", \"recall\": " << p.recall
           << ", \"f1\": " << p.f1
           << ", \"completed_fraction\": " << p.completed_fraction
           << ", \"finite_fraction\": " << p.finite_fraction
           << ", \"mean_recovery_s\": " << p.mean_recovery_s
           << ", \"recovery_episodes\": " << p.recovery_episodes
           << ", \"degraded_frames\": " << p.degraded_frames
           << ", \"lost_frames\": " << p.lost_frames
           << ", \"frames_quarantined\": " << p.frames_quarantined
           << ", \"samples_repaired\": " << p.samples_repaired
           << ", \"frames_bridged\": " << p.frames_bridged
           << ", \"signal_lost_events\": " << p.signal_lost_events
           << ", \"warm_restarts\": " << p.warm_restarts << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    BR_ENSURES(os.good());
}

}  // namespace blinkradar::eval
