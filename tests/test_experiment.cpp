#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "eval/experiment.hpp"
#include "physio/driver_profile.hpp"

namespace blinkradar::eval {
namespace {

sim::ScenarioConfig scenario(std::uint64_t seed) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = 60.0;
    sc.seed = seed;
    return sc;
}

TEST(Experiment, BlinkSessionProducesConsistentScore) {
    const SessionScore s = run_blink_session(scenario(1));
    EXPECT_GE(s.accuracy, 0.0);
    EXPECT_LE(s.accuracy, 1.0);
    EXPECT_EQ(s.accuracy, s.match.accuracy());
    EXPECT_EQ(s.match.truth_hit.size(), s.match.true_blinks);
}

TEST(Experiment, SessionsAreReproducible) {
    const SessionScore a = run_blink_session(scenario(2));
    const SessionScore b = run_blink_session(scenario(2));
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.match.detected, b.match.detected);
}

TEST(Experiment, DrowsyExperimentLearnsAndClassifies) {
    eval::DrowsyExperimentOptions opt;
    opt.train_minutes_per_class = 2.0;
    opt.test_minutes_per_class = 2.0;
    const DrowsyScore s = run_drowsy_experiment(scenario(4), opt);
    EXPECT_EQ(s.windows, 4u);  // 2 awake + 2 drowsy test windows
    EXPECT_GE(s.accuracy, 0.0);
    EXPECT_LE(s.accuracy, 1.0);
    EXPECT_GT(s.threshold_rate, 0.0);
}

TEST(Experiment, DrowsyClassifierBeatsChanceAtReferenceConditions) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
        eval::DrowsyExperimentOptions opt;
        opt.train_minutes_per_class = 3.0;
        opt.test_minutes_per_class = 4.0;
        total += run_drowsy_experiment(scenario(10 + i), opt).accuracy;
    }
    EXPECT_GT(total / 3.0, 0.6);
}

TEST(Experiment, RunSessionsMatchesSerialCalls) {
    // The batch engine fans out over the shared thread pool but must be
    // bit-identical to the serial loop (each session seeds only from its
    // own scenario).
    std::vector<sim::ScenarioConfig> scenarios = {scenario(21), scenario(22),
                                                  scenario(23)};
    const auto batch = run_sessions(scenarios);
    ASSERT_EQ(batch.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const SessionScore ref = run_blink_session(scenarios[i]);
        EXPECT_EQ(batch[i].accuracy, ref.accuracy);
        EXPECT_EQ(batch[i].restarts, ref.restarts);
        EXPECT_EQ(batch[i].match.detected, ref.match.detected);
    }
}

TEST(Experiment, RunDrowsyExperimentsMatchesSingleCalls) {
    std::vector<sim::ScenarioConfig> scenarios = {scenario(25), scenario(26)};
    eval::DrowsyExperimentOptions opt;
    opt.train_minutes_per_class = 2.0;
    opt.test_minutes_per_class = 2.0;
    const auto batch = run_drowsy_experiments(scenarios, opt);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const DrowsyScore ref = run_drowsy_experiment(scenarios[i], opt);
        EXPECT_EQ(batch[i].accuracy, ref.accuracy);
        EXPECT_EQ(batch[i].threshold_rate, ref.threshold_rate);
        EXPECT_EQ(batch[i].windows, ref.windows);
    }
}

TEST(Experiment, AccumulateTruthHitsConcatenates) {
    const auto hits = accumulate_truth_hits(scenario(5), 2);
    const SessionScore one = run_blink_session(scenario(5));
    EXPECT_GT(hits.size(), one.match.true_blinks);
}

TEST(Experiment, RejectsZeroRepetitions) {
    EXPECT_THROW(accumulate_truth_hits(scenario(7), 0),
                 blinkradar::ContractViolation);
}

TEST(Experiment, RejectsTooShortTraining) {
    eval::DrowsyExperimentOptions opt;
    opt.train_minutes_per_class = 0.5;
    EXPECT_THROW(run_drowsy_experiment(scenario(8), opt),
                 blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::eval
