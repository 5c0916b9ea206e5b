// Robustness experiment: the detection pipeline under sensor faults.
//
// Closes the loop between the sensor-side FaultInjector and the
// pipeline-side FrameGuard: each sweep point simulates a batch of
// sessions, impairs their frame streams with one fault type at one rate,
// runs the guarded pipeline, and scores blink precision/recall/F1 plus
// the health-machine behaviour (degraded/lost time, time-to-recover).
// The sweep fans out over the shared thread pool with the batch engine's
// determinism contract (every session derives all randomness from its
// scenario seed), and serialises to BENCH_robustness.json.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/metrics.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"

namespace blinkradar::eval {

/// Fault axes the sweep can exercise (one injector knob each, plus the
/// combined drop+jitter schedule from the acceptance scenario).
enum class FaultKind {
    kNone,
    kDrop,
    kDuplicate,
    kJitter,
    kSaturation,
    kDeadBins,
    kGainDrift,
    kInterference,
    kNanCorruption,
    kTruncate,
    kDropPlusJitter,
};
const char* to_string(FaultKind kind) noexcept;

/// Map (kind, rate) onto injector knobs. `rate` is the event probability
/// per frame for drop/duplicate/saturation/interference/NaN/truncate;
/// the timestamp-jitter std in nominal frame periods for kJitter (also
/// the jitter half of kDropPlusJitter, whose drop half uses `rate`
/// directly); the fraction of bins for kDeadBins; and the fractional
/// gain amplitude for kGainDrift.
radar::FaultInjectorConfig make_fault_config(FaultKind kind, double rate,
                                             const radar::RadarConfig& radar);

/// One scenario run under one fault schedule.
struct RobustnessSession {
    MatchResult match;
    core::GuardStats guard;
    radar::FaultStats faults;
    std::size_t frames_processed = 0;
    std::size_t degraded_frames = 0;
    std::size_t lost_frames = 0;       ///< SIGNAL_LOST or RECOVERING
    std::size_t health_transitions = 0;
    std::size_t recovery_episodes = 0; ///< loss -> OK round trips
    double total_recovery_s = 0.0;     ///< summed episode durations
    bool finite_outputs = true;        ///< every waveform_value finite
    bool completed = false;            ///< processed all frames, no throw
    std::string error;                 ///< set when completed == false
};

RobustnessSession run_robust_session(
    const sim::ScenarioConfig& scenario, FaultKind kind, double rate,
    const core::PipelineConfig& pipeline = {});

/// One sweep point aggregated over a batch of scenarios.
struct RobustnessPoint {
    FaultKind kind = FaultKind::kNone;
    double rate = 0.0;
    double precision = 0.0;
    double recall = 0.0;
    double f1 = 0.0;
    double completed_fraction = 0.0;
    double finite_fraction = 0.0;
    double mean_recovery_s = 0.0;      ///< 0 when no episodes occurred
    std::size_t recovery_episodes = 0;
    std::uint64_t degraded_frames = 0;
    std::uint64_t lost_frames = 0;
    std::uint64_t frames_quarantined = 0;
    std::uint64_t samples_repaired = 0;
    std::uint64_t frames_bridged = 0;
    std::uint64_t signal_lost_events = 0;
    std::uint64_t warm_restarts = 0;
};

/// Run one (kind, rate) point over the scenario batch (thread-pool
/// fan-out, bit-identical to the serial loop).
RobustnessPoint run_robustness_point(
    std::span<const sim::ScenarioConfig> scenarios, FaultKind kind,
    double rate, const core::PipelineConfig& pipeline = {});

/// A fault axis and the rates to sweep it over.
struct FaultSweepSpec {
    FaultKind kind = FaultKind::kNone;
    std::vector<double> rates;
};

/// The default sweep grid used by bench_robustness_faults.
std::vector<FaultSweepSpec> default_robustness_sweep();

std::vector<RobustnessPoint> run_robustness_sweep(
    std::span<const sim::ScenarioConfig> scenarios,
    std::span<const FaultSweepSpec> specs,
    const core::PipelineConfig& pipeline = {});

/// Serialise the sweep to `path` (stable hand-rolled JSON).
void write_robustness_json(const std::string& path,
                           std::span<const RobustnessPoint> points,
                           std::size_t scenarios_per_point);

}  // namespace blinkradar::eval
