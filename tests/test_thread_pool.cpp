#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "eval/experiment.hpp"
#include "physio/driver_profile.hpp"

namespace blinkradar {
namespace {

// Force the process-wide shared pool to several threads before its first
// use, so the eval determinism tests below genuinely exercise
// multi-threaded fan-out even on a single-core CI host. Static
// initialisation runs before main(), i.e. before any test can touch
// ThreadPool::shared().
const bool g_env_forced = [] {
#ifndef _WIN32
    ::setenv("BLINKRADAR_THREADS", "3", /*overwrite=*/0);
#endif
    return true;
}();

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(n, [&](std::size_t i) { counts[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndSingleElementRanges) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    pool.parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelMapPreservesSlotOrder) {
    ThreadPool pool(4);
    const auto out =
        pool.parallel_map(257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ResultsAreBitIdenticalAcrossThreadCounts) {
    // The batch-engine contract: fn(i) derives everything from i, so the
    // result vector must be byte-for-byte the same for any pool size.
    auto work = [](std::size_t i) {
        Rng rng(1000 + i);
        double acc = 0.0;
        for (int k = 0; k < 100; ++k) acc += rng.normal(0.0, 1.0);
        return acc;
    };
    std::vector<double> serial(64);
    for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = work(i);

    for (const std::size_t threads : {1u, 2u, 5u}) {
        ThreadPool pool(threads);
        const auto par = pool.parallel_map(serial.size(), work);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Bit-identical, not just approximately equal.
            EXPECT_EQ(par[i], serial[i]) << "thread count " << threads
                                         << ", index " << i;
        }
    }
}

TEST(ThreadPool, NestedParallelForCompletes) {
    // Outer tasks issue inner parallel_fors on the same (small) pool; the
    // caller-participates design must not deadlock even with every worker
    // busy in the outer range.
    ThreadPool pool(2);
    std::atomic<int> inner_calls{0};
    pool.parallel_for(8, [&](std::size_t) {
        pool.parallel_for(8,
                          [&](std::size_t) { inner_calls.fetch_add(1); });
    });
    EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t i) {
                                       if (i == 37)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool must survive a failed range.
    std::atomic<int> calls{0};
    pool.parallel_for(10, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, SharedPoolHonoursEnvironmentOverride) {
    ASSERT_TRUE(g_env_forced);
    EXPECT_GE(ThreadPool::shared_size(), 1u);
    EXPECT_EQ(ThreadPool::shared().size(), ThreadPool::shared_size());
}

TEST(ThreadPool, ParseThreadCountAcceptsPlainIntegers) {
    EXPECT_EQ(ThreadPool::parse_thread_count("8", 4), 8u);
    EXPECT_EQ(ThreadPool::parse_thread_count("1", 4), 1u);
    EXPECT_EQ(ThreadPool::parse_thread_count("  16 ", 4), 16u);
    EXPECT_EQ(ThreadPool::parse_thread_count("512", 4), 512u);
}

TEST(ThreadPool, ParseThreadCountFallsBackOnGarbage) {
    // Non-numeric, zero, negative, trailing junk, empty, unset, absurdly
    // large: all fall back to the supplied default instead of crashing or
    // spawning a bogus pool.
    EXPECT_EQ(ThreadPool::parse_thread_count(nullptr, 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("   ", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("abc", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("8abc", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("0", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("-3", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("513", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("99999999999999999999", 4), 4u);
    EXPECT_EQ(ThreadPool::parse_thread_count("3.5", 4), 4u);
}

// --- Determinism of the batch experiment engine (the real contract) ---

sim::ScenarioConfig scenario(std::uint64_t seed) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = 30.0;
    sc.seed = seed;
    return sc;
}

TEST(ThreadPoolDeterminism, RunSessionsMatchesSerialLoopBitwise) {
    std::vector<sim::ScenarioConfig> scenarios;
    for (std::uint64_t s = 0; s < 6; ++s) scenarios.push_back(scenario(s));

    const auto batch = eval::run_sessions(scenarios);
    ASSERT_EQ(batch.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const eval::SessionScore ref = eval::run_blink_session(scenarios[i]);
        EXPECT_EQ(batch[i].accuracy, ref.accuracy) << "scenario " << i;
        EXPECT_EQ(batch[i].restarts, ref.restarts) << "scenario " << i;
        EXPECT_EQ(batch[i].match.detected, ref.match.detected);
        EXPECT_EQ(batch[i].match.truth_hit, ref.match.truth_hit);
    }
}

TEST(ThreadPoolDeterminism, DrowsyBatchMatchesPerScenarioCalls) {
    std::vector<sim::ScenarioConfig> scenarios;
    for (std::uint64_t s = 100; s < 103; ++s) {
        sim::ScenarioConfig sc = scenario(s);
        sc.duration_s = 60.0;
        scenarios.push_back(sc);
    }
    eval::DrowsyExperimentOptions opt;
    opt.train_minutes_per_class = 2.0;
    opt.test_minutes_per_class = 2.0;

    const auto batch = eval::run_drowsy_experiments(scenarios, opt);
    ASSERT_EQ(batch.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const eval::DrowsyScore ref =
            eval::run_drowsy_experiment(scenarios[i], opt);
        EXPECT_EQ(batch[i].accuracy, ref.accuracy) << "scenario " << i;
        EXPECT_EQ(batch[i].threshold_rate, ref.threshold_rate);
        EXPECT_EQ(batch[i].windows, ref.windows);
    }
}

TEST(ThreadPoolDeterminism, RunSessionsIsRepeatable) {
    std::vector<sim::ScenarioConfig> scenarios;
    for (std::uint64_t s = 7; s < 11; ++s) scenarios.push_back(scenario(s));
    const auto a = eval::run_sessions(scenarios);
    const auto b = eval::run_sessions(scenarios);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].accuracy, b[i].accuracy);
}

}  // namespace
}  // namespace blinkradar
