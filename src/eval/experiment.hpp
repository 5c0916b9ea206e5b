// Experiment runners shared by the benches: run sessions, score them, and
// sweep parameters. These encode the paper's evaluation protocol (train
// on awake+drowsy data per participant, test on simulated drives).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/drowsy.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_config.hpp"
#include "eval/metrics.hpp"
#include "sim/scenario.hpp"

namespace blinkradar::eval {

/// Result of one blink-detection session.
struct SessionScore {
    MatchResult match;
    std::size_t restarts = 0;
    double accuracy = 0.0;
};

/// Simulate a session and run the pipeline over it. `metrics` (optional)
/// instruments the pipeline run (see BlinkRadarPipeline's ctor).
SessionScore run_blink_session(const sim::ScenarioConfig& scenario,
                               const core::PipelineConfig& pipeline = {},
                               obs::MetricsRegistry* metrics = nullptr);

/// Batch engine: score every scenario, fanned out over the shared thread
/// pool. Sessions are independent (each simulates from its own
/// scenario.seed), so results are bit-identical to calling
/// run_blink_session serially in order — for any thread count. Result i
/// corresponds to scenarios[i].
std::vector<SessionScore> run_sessions(
    std::span<const sim::ScenarioConfig> scenarios,
    const core::PipelineConfig& pipeline = {});

/// One drowsy-driving evaluation for a participant: train the per-user
/// rate model on labelled awake/drowsy windows, then classify held-out
/// windows of both kinds. Returns the fraction of windows classified
/// correctly.
struct DrowsyScore {
    double accuracy = 0.0;          ///< correct windows / total windows
    double threshold_rate = 0.0;    ///< learned per-user threshold
    std::size_t windows = 0;
};

/// Options for the drowsy experiment.
struct DrowsyExperimentOptions {
    Seconds train_minutes_per_class = 3.0;  ///< training data per class
    Seconds test_minutes_per_class = 4.0;   ///< held-out data per class
    Seconds window_s = 60.0;                ///< classification window
    /// Only blinks at least this long count towards the window rate.
    /// Drowsy closures exceed 400 ms (paper Section II); with LEVD's
    /// measurement spread the equivalent detected-duration cut is ~0.75 s.
    /// Set to 0 for the raw-rate variant.
    Seconds long_blink_min_s = 0.75;
    /// Minimum detection confidence for a blink to count towards the
    /// rate; threshold-grazing artifacts score ~1, real blinks several.
    double min_strength = 0.0;
};

DrowsyScore run_drowsy_experiment(sim::ScenarioConfig scenario,
                                  const DrowsyExperimentOptions& options = {},
                                  const core::PipelineConfig& pipeline = {});

/// Batch engine for the drowsy protocol: one experiment per scenario,
/// fanned out over the shared thread pool (and each experiment's four
/// train/test recordings fan out in turn). Bit-identical to the serial
/// loop; result i corresponds to scenarios[i].
std::vector<DrowsyScore> run_drowsy_experiments(
    std::span<const sim::ScenarioConfig> scenarios,
    const DrowsyExperimentOptions& options = {},
    const core::PipelineConfig& pipeline = {});

/// Accumulate per-truth-blink hit flags across many sessions (for the
/// Fig. 15a missed-run statistics).
std::vector<bool> accumulate_truth_hits(const sim::ScenarioConfig& scenario,
                                        std::size_t repetitions,
                                        const core::PipelineConfig& pipeline = {});

}  // namespace blinkradar::eval
