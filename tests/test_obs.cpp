#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env_config.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_timer.hpp"
#include "obs/trace.hpp"

namespace blinkradar::obs {
namespace {

std::string read_all(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Counter, AccumulatesIncrements) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, KeepsLastWrittenValue) {
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(LatencyHistogram, RecordsIntoPowerOfTwoBuckets) {
    LatencyHistogram h;
    h.record(100);    // bucket 0 (<= 128)
    h.record(128);    // still bucket 0 (inclusive bound)
    h.record(129);    // bucket 1
    h.record(5'000'000);  // past the last bound: overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[LatencyHistogram::kBuckets], 1u);
    EXPECT_EQ(h.min_ns(), 100u);
    EXPECT_EQ(h.max_ns(), 5'000'000u);
    EXPECT_EQ(h.sum_ns(), 100u + 128u + 129u + 5'000'000u);
}

TEST(LatencyHistogram, EmptyHistogramReportsZeros) {
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min_ns(), 0u);
    EXPECT_EQ(h.max_ns(), 0u);
    EXPECT_EQ(h.mean_ns(), 0.0);
    EXPECT_EQ(h.quantile_ns(0.5), 0.0);
}

TEST(LatencyHistogram, QuantilesAreMonotoneAndBracketed) {
    LatencyHistogram h;
    for (std::uint64_t ns = 100; ns <= 100'000; ns += 100) h.record(ns);
    const double p50 = h.quantile_ns(0.50);
    const double p90 = h.quantile_ns(0.90);
    const double p99 = h.quantile_ns(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Bucketed quantiles are coarse; demand the right ballpark only.
    EXPECT_GT(p50, 20'000.0);
    EXPECT_LT(p50, 70'000.0);
    EXPECT_GT(p99, 60'000.0);
    EXPECT_LE(p99, 131'072.0);  // containing bucket's upper bound
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
    LatencyHistogram a, b, combined;
    for (const std::uint64_t ns : {500u, 900u, 70'000u}) {
        a.record(ns);
        combined.record(ns);
    }
    for (const std::uint64_t ns : {50u, 2'000'000u}) {
        b.record(ns);
        combined.record(ns);
    }
    a.merge_from(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum_ns(), combined.sum_ns());
    EXPECT_EQ(a.min_ns(), combined.min_ns());
    EXPECT_EQ(a.max_ns(), combined.max_ns());
    EXPECT_EQ(a.counts(), combined.counts());
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndStable) {
    MetricsRegistry r;
    Counter& c1 = r.counter("pipeline.frames");
    Counter& c2 = r.counter("pipeline.frames");
    EXPECT_EQ(&c1, &c2);
    c1.inc();
    // Registering other metrics must not invalidate the reference.
    for (int i = 0; i < 100; ++i)
        r.counter("other." + std::to_string(i));
    c1.inc();
    EXPECT_EQ(r.counter("pipeline.frames").value(), 2u);
}

TEST(MetricsRegistry, MergeAddsCountersAndOverwritesGauges) {
    MetricsRegistry a, b;
    a.counter("n").inc(2);
    b.counter("n").inc(3);
    b.counter("only_b").inc(1);
    a.gauge("g").set(1.0);
    b.gauge("g").set(7.0);
    b.histogram("h").record(1'000);
    a.merge_from(b);
    EXPECT_EQ(a.counter("n").value(), 5u);
    EXPECT_EQ(a.counter("only_b").value(), 1u);
    EXPECT_EQ(a.gauge("g").value(), 7.0);
    EXPECT_EQ(a.histogram("h").count(), 1u);
}

MetricsRegistry sample_registry() {
    MetricsRegistry r;
    r.counter("pipeline.frames").inc(250);
    r.counter("pipeline.blinks").inc(3);
    r.gauge("levd.threshold").set(0.0123456789012345);
    r.histogram("stage.preprocess").record(900);
    r.histogram("stage.preprocess").record(4'000);
    return r;
}

TEST(Snapshot, JsonIsDeterministicAndStructured) {
    const std::string j1 = snapshot_to_json(sample_registry());
    const std::string j2 = snapshot_to_json(sample_registry());
    EXPECT_EQ(j1, j2);  // equal registries -> byte-identical snapshots
    EXPECT_NE(j1.find("\"schema\": \"blinkradar-obs-v1\""), std::string::npos);
    EXPECT_NE(j1.find("\"pipeline.frames\": 250"), std::string::npos);
    EXPECT_NE(j1.find("\"levd.threshold\": 0.0123456789012345"),
              std::string::npos);
    EXPECT_NE(j1.find("\"stage.preprocess\": {\"count\": 2"),
              std::string::npos);
}

TEST(Snapshot, EmptyRegistrySerialisesCleanly) {
    const std::string j = snapshot_to_json(MetricsRegistry{});
    EXPECT_NE(j.find("\"counters\": {}"), std::string::npos);
    EXPECT_NE(j.find("\"histograms\": {}"), std::string::npos);
}

TEST(StageTimer, NullHistogramIsInert) {
    { const StageTimer t(nullptr); }
    SUCCEED();
}

#if defined(BLINKRADAR_OBS_TSC)
TEST(StageTimer, UncalibratedTscReadsZeroNeverGarbage) {
    // Before calibrate_clock() runs, the tick ratio is 0 and spans must
    // record as 0 ns — never a raw (huge) tick count leaking into the
    // histogram. Restore the calibration afterwards for later tests.
    const double saved = detail::g_ns_per_tick.load();
    detail::g_ns_per_tick.store(0.0);
    LatencyHistogram h;
    {
        const StageTimer t(&h);
        volatile double sink = 0.0;
        for (int i = 0; i < 20'000; ++i) sink = sink + 1.0;
    }
    detail::g_ns_per_tick.store(saved);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum_ns(), 0u);
}
#else
TEST(StageTimer, SteadyClockFallbackRecordsRealDurations) {
    // Without the TSC path the timer must still measure via
    // steady_clock with a unit tick ratio.
    EXPECT_EQ(detail::ns_per_tick(), 1.0);
    LatencyHistogram h;
    {
        const StageTimer t(&h);
        volatile double sink = 0.0;
        for (int i = 0; i < 20'000; ++i) sink = sink + 1.0;
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.sum_ns(), 0u);
}
#endif

TEST(StageTimer, CalibrationSurvivesAndTimesAfterReset) {
    // calibrate_clock() is idempotent and must leave the timer able to
    // measure a real duration (the steady fallback inside calibration).
    detail::calibrate_clock();
    detail::calibrate_clock();
    LatencyHistogram h;
    {
        const StageTimer t(&h);
        volatile double sink = 0.0;
        for (int i = 0; i < 200'000; ++i) sink = sink + 1.0;
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.sum_ns(), 0u);
}

TEST(StageTimer, RecordsScopeDurationAndMirrorsLastNs) {
    detail::calibrate_clock();
    LatencyHistogram h;
    std::uint64_t last = 0;
    {
        const StageTimer t(&h, &last);
        // Busy-work long enough to be clearly measurable.
        volatile double sink = 0.0;
        for (int i = 0; i < 20'000; ++i) sink = sink + 1.0;
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GT(h.sum_ns(), 0u);
    EXPECT_EQ(last, h.sum_ns());
}

TEST(TraceSink, WritesNewlineTerminatedRecords) {
    const std::string path = ::testing::TempDir() + "br_obs_trace.jsonl";
    {
        TraceSink sink(path);
        sink.write_line("{\"a\": 1}");
        sink.write_line("{\"a\": 2}");
        EXPECT_EQ(sink.lines_written(), 2u);
        EXPECT_EQ(sink.path(), path);
    }
    EXPECT_EQ(read_all(path), "{\"a\": 1}\n{\"a\": 2}\n");
    std::remove(path.c_str());
}

TEST(TraceSink, FromEnvHonoursGatingVariable) {
    // from_env reads the one-time process_config() snapshot, so every
    // env change must be followed by the test-only reload hook.
    unsetenv("BLINKRADAR_TRACE");
    reload_process_config_for_testing();
    EXPECT_EQ(TraceSink::from_env(), nullptr);
    setenv("BLINKRADAR_TRACE", "", 1);
    reload_process_config_for_testing();
    EXPECT_EQ(TraceSink::from_env(), nullptr);
    const std::string path = ::testing::TempDir() + "br_obs_env.jsonl";
    setenv("BLINKRADAR_TRACE", path.c_str(), 1);
    reload_process_config_for_testing();
    const auto sink = TraceSink::from_env();
    ASSERT_NE(sink, nullptr);
    EXPECT_EQ(sink->path(), path);
    unsetenv("BLINKRADAR_TRACE");
    reload_process_config_for_testing();
    std::remove(path.c_str());
}

TEST(TraceSink, ThrowsOnUnopenablePath) {
    EXPECT_THROW(TraceSink("/nonexistent-dir/trace.jsonl"),
                 std::runtime_error);
}

TEST(TraceSink, FlushMakesRecordsVisibleWhileOpen) {
    // The supervisor flushes the trace before writing a crash dump so
    // the last records are on disk even if the process dies right after;
    // flush() must publish without waiting for the destructor.
    const std::string path = ::testing::TempDir() + "br_obs_flush.jsonl";
    TraceSink sink(path);
    sink.write_line("{\"last\": true}");
    sink.flush();
    EXPECT_EQ(read_all(path), "{\"last\": true}\n");
    std::remove(path.c_str());
}

// Regression for the calibrate_clock first-use race: many threads
// racing the first calibration (the fleet constructs sessions
// concurrently) must all leave behind one agreed tick ratio. The old
// check-then-store let two racing callers each measure and publish
// different ratios; with the magic-static guard every call re-stores
// the same measured value, so the ratio is stable across calls no
// matter the interleaving. Part of the TSan suite (see CMakePresets).
#if defined(BLINKRADAR_OBS_TSC)
TEST(ClockCalibration, ConcurrentFirstUseAgreesOnOneRatio) {
    const std::size_t kThreads = 8;
    std::vector<double> seen(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            detail::calibrate_clock();
            seen[t] = detail::g_ns_per_tick.load(std::memory_order_relaxed);
        });
    for (auto& th : threads) th.join();
    // Every thread observed a published ratio...
    for (const double r : seen) EXPECT_GT(r, 0.0);
    // ...and later calls can never move it (idempotent store).
    const double settled = detail::g_ns_per_tick.load(std::memory_order_relaxed);
    detail::calibrate_clock();
    EXPECT_EQ(detail::g_ns_per_tick.load(std::memory_order_relaxed), settled);
}
#endif  // BLINKRADAR_OBS_TSC

}  // namespace
}  // namespace blinkradar::obs
