#include "eval/experiment.hpp"

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace blinkradar::eval {

SessionScore run_blink_session(const sim::ScenarioConfig& scenario,
                               const core::PipelineConfig& pipeline,
                               obs::MetricsRegistry* metrics) {
    const sim::SimulatedSession session = sim::simulate_session(scenario);
    const core::BatchResult result =
        core::detect_blinks(session.frames, session.radar, pipeline, metrics);
    SessionScore score;
    score.match = match_blinks(session.truth.blinks, result.blinks);
    score.restarts = result.restarts;
    score.accuracy = score.match.accuracy();
    return score;
}

std::vector<SessionScore> run_sessions(
    std::span<const sim::ScenarioConfig> scenarios,
    const core::PipelineConfig& pipeline) {
    // Deterministic fan-out: task i touches only scenarios[i] (whose seed
    // fully determines the simulated session) and result slot i, so the
    // output cannot depend on thread count or scheduling.
    return ThreadPool::shared().parallel_map(
        scenarios.size(), [&](std::size_t i) {
            return run_blink_session(scenarios[i], pipeline);
        });
}

namespace {

/// Detected blink rates over consecutive windows of a simulated session
/// in the given alertness state.
std::vector<double> session_window_rates(sim::ScenarioConfig scenario,
                                         physio::Alertness state,
                                         Seconds minutes, Seconds window_s,
                                         Seconds long_blink_min_s,
                                         double min_strength,
                                         std::uint64_t seed,
                                         const core::PipelineConfig& pipeline) {
    scenario.alertness = state;
    scenario.duration_s = minutes * 60.0;
    scenario.seed = seed;
    const sim::SimulatedSession session = sim::simulate_session(scenario);
    const core::BatchResult result =
        core::detect_blinks(session.frames, session.radar, pipeline);
    return core::window_blink_rates(result.blinks, scenario.duration_s,
                                    window_s, long_blink_min_s, min_strength);
}

}  // namespace

DrowsyScore run_drowsy_experiment(sim::ScenarioConfig scenario,
                                  const DrowsyExperimentOptions& options,
                                  const core::PipelineConfig& pipeline) {
    BR_EXPECTS(options.train_minutes_per_class >= 1.0);
    BR_EXPECTS(options.test_minutes_per_class >= 1.0);

    // The four recordings (train/test x awake/drowsy) are independent —
    // each simulates from its own derived seed — so they fan out over the
    // pool. parallel_for is nesting-safe, so this also holds inside
    // run_drowsy_experiments' outer fan-out.
    const struct {
        physio::Alertness state;
        Seconds minutes;
        std::uint64_t seed;
    } recordings[] = {
        {physio::Alertness::kAwake, options.train_minutes_per_class,
         scenario.seed * 7919 + 1},
        {physio::Alertness::kDrowsy, options.train_minutes_per_class,
         scenario.seed * 7919 + 2},
        {physio::Alertness::kAwake, options.test_minutes_per_class,
         scenario.seed * 7919 + 3},
        {physio::Alertness::kDrowsy, options.test_minutes_per_class,
         scenario.seed * 7919 + 4},
    };
    const std::vector<std::vector<double>> rates =
        ThreadPool::shared().parallel_map(4, [&](std::size_t i) {
            return session_window_rates(
                scenario, recordings[i].state, recordings[i].minutes,
                options.window_s, options.long_blink_min_s,
                options.min_strength, recordings[i].seed, pipeline);
        });
    const std::vector<double>& train_awake = rates[0];
    const std::vector<double>& train_drowsy = rates[1];
    const std::vector<double>& test_awake = rates[2];
    const std::vector<double>& test_drowsy = rates[3];

    core::DrowsinessDetector detector;
    detector.train(train_awake, train_drowsy);

    std::size_t correct = 0;
    for (const double r : test_awake)
        if (detector.classify(r) == core::DrowsinessLabel::kAwake) ++correct;
    for (const double r : test_drowsy)
        if (detector.classify(r) == core::DrowsinessLabel::kDrowsy) ++correct;

    DrowsyScore score;
    score.windows = test_awake.size() + test_drowsy.size();
    score.accuracy = score.windows == 0
                         ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(score.windows);
    score.threshold_rate = detector.threshold_rate();
    return score;
}

std::vector<DrowsyScore> run_drowsy_experiments(
    std::span<const sim::ScenarioConfig> scenarios,
    const DrowsyExperimentOptions& options,
    const core::PipelineConfig& pipeline) {
    return ThreadPool::shared().parallel_map(
        scenarios.size(), [&](std::size_t i) {
            return run_drowsy_experiment(scenarios[i], options, pipeline);
        });
}

std::vector<bool> accumulate_truth_hits(const sim::ScenarioConfig& scenario,
                                        std::size_t repetitions,
                                        const core::PipelineConfig& pipeline) {
    BR_EXPECTS(repetitions >= 1);
    std::vector<sim::ScenarioConfig> scenarios(repetitions, scenario);
    for (std::size_t r = 0; r < repetitions; ++r)
        scenarios[r].seed = scenario.seed + r;
    const std::vector<SessionScore> scores = run_sessions(scenarios, pipeline);
    std::vector<bool> hits;
    for (const SessionScore& score : scores)
        hits.insert(hits.end(), score.match.truth_hit.begin(),
                    score.match.truth_hit.end());
    return hits;
}

}  // namespace blinkradar::eval
