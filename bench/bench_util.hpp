// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary reproduces one table or figure from the paper: it
// builds the same workload (participants, road, geometry), runs the full
// pipeline, and prints the rows/series the paper reports, annotated with
// the paper's own numbers for side-by-side comparison.
#pragma once

#include <cstdio>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

namespace blinkradar::benchutil {

/// The paper's participant pool: 12 recruited drivers (Section VI-A).
inline std::vector<physio::DriverProfile> participants(std::size_t n = 12,
                                                       std::uint64_t seed = 2022) {
    Rng rng(seed);
    return physio::sample_participants(n, rng);
}

/// Reference on-road scenario (paper Section VI-A: Volkswagen Sagitar,
/// radar on the front windshield facing the driver at ~0.4 m).
inline sim::ScenarioConfig reference_scenario(const physio::DriverProfile& d,
                                              std::uint64_t seed) {
    sim::ScenarioConfig sc;
    sc.driver = d;
    sc.alertness = physio::Alertness::kAwake;
    sc.environment = sim::Environment::kDriving;
    sc.road = vehicle::RoadType::kSmoothHighway;
    sc.duration_s = 120.0;
    sc.seed = seed;
    return sc;
}

/// Mean blink-detection accuracy over a batch of scenarios (one session
/// each), fanned out over the thread pool by eval::run_sessions.
inline double mean_accuracy(std::span<const sim::ScenarioConfig> scenarios,
                            const core::PipelineConfig& pipeline = {}) {
    const std::vector<eval::SessionScore> scores =
        eval::run_sessions(scenarios, pipeline);
    double sum = 0.0;
    for (const eval::SessionScore& s : scores) sum += s.accuracy;
    return sum / static_cast<double>(scores.size());
}

/// Mean drowsy-experiment accuracy over a batch of scenarios.
inline double mean_drowsy_accuracy(
    std::span<const sim::ScenarioConfig> scenarios,
    const eval::DrowsyExperimentOptions& options = {},
    const core::PipelineConfig& pipeline = {}) {
    const std::vector<eval::DrowsyScore> scores =
        eval::run_drowsy_experiments(scenarios, options, pipeline);
    double sum = 0.0;
    for (const eval::DrowsyScore& s : scores) sum += s.accuracy;
    return sum / static_cast<double>(scores.size());
}

}  // namespace blinkradar::benchutil
