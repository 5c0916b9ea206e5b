// Fleet telemetry plane: schema pins, aggregation, spans, SLO, export.
//
// The schema test pins the exact bytes of the snapshot rendering —
// "blinkradar-obs-v1" JSON. Downstream consumers (tools/br_top, the
// bench compare gate) parse this format; an accidental field reorder or
// locale-dependent number must fail loudly here, not in a dashboard.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/export.hpp"
#include "obs/telemetry/slo.hpp"
#include "obs/telemetry/span.hpp"

namespace blinkradar {
namespace {

// ---------------------------------------------------------- schema pins

obs::MetricsRegistry make_pinned_registry() {
    obs::MetricsRegistry reg;
    reg.counter("fleet.frames").inc(3);
    reg.gauge("ingest.load").set(0.5);
    obs::LatencyHistogram& h = reg.histogram("fleet.stage.guard");
    h.record(100);
    h.record(1000);
    h.record(5'000'000);  // overflow bucket
    return reg;
}

TEST(TelemetrySchema, JsonSnapshotIsPinnedByteForByte) {
    const obs::MetricsRegistry reg = make_pinned_registry();
    const std::string expected =
        "{\n"
        "  \"schema\": \"blinkradar-obs-v1\",\n"
        "  \"counters\": {\n"
        "    \"fleet.frames\": 3\n"
        "  },\n"
        "  \"gauges\": {\n"
        "    \"ingest.load\": 0.5\n"
        "  },\n"
        "  \"histograms\": {\n"
        "    \"fleet.stage.guard\": {\"count\": 3, \"sum_ns\": 5001100, "
        "\"min_ns\": 100, \"max_ns\": 5000000, \"mean_ns\": "
        "1667033.3333333333, \"p50_ns\": 768, \"p99_ns\": 4975829.12, "
        "\"buckets\": [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
        "1]}\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(snapshot_to_json(reg), expected);
    // The appending form is the same rendering.
    std::string appended = "prefix";
    obs::append_snapshot_json(reg, appended);
    EXPECT_EQ(appended, "prefix" + expected);
}

// ------------------------------------------------------ histogram merge

TEST(AggregationMerge, MergedHistogramIsBitIdenticalToSequential) {
    // Property: recording a value stream into one histogram equals
    // partitioning the stream, recording the parts separately, and
    // merging — exact, not approximate, because the fixed power-of-two
    // buckets make merge a bucket-wise sum.
    Rng rng(0xA66u);
    constexpr std::size_t kParts = 5;
    constexpr std::size_t kValues = 4000;
    obs::LatencyHistogram sequential;
    std::array<obs::LatencyHistogram, kParts> parts;
    for (std::size_t i = 0; i < kValues; ++i) {
        // Span the full bucket range including overflow.
        const std::uint64_t ns = static_cast<std::uint64_t>(
            rng.uniform_int(0, 1 << 23));
        sequential.record(ns);
        parts[i % kParts].record(ns);
    }
    obs::LatencyHistogram merged;
    for (const auto& p : parts) merged.merge_from(p);

    EXPECT_EQ(merged.count(), sequential.count());
    EXPECT_EQ(merged.sum_ns(), sequential.sum_ns());
    EXPECT_EQ(merged.min_ns(), sequential.min_ns());
    EXPECT_EQ(merged.max_ns(), sequential.max_ns());
    EXPECT_EQ(merged.counts(), sequential.counts());
    // And therefore the serialised artifacts agree byte for byte.
    obs::MetricsRegistry a, b;
    a.histogram("h").merge_from(sequential);
    b.histogram("h").merge_from(merged);
    EXPECT_EQ(snapshot_to_json(a), snapshot_to_json(b));
}

// ----------------------------------------------------------- aggregator

/// A fake session registry: per-session-prefixed names the way the
/// fleet engine lays them out.
obs::MetricsRegistry make_session_registry(std::uint64_t id,
                                           std::uint64_t frames,
                                           std::uint64_t frame_total_ns) {
    obs::MetricsRegistry reg;
    const std::string p = "fleet.s" + std::to_string(id) + ".";
    reg.counter(p + "frames").inc(frames);
    reg.gauge(p + "threshold").set(static_cast<double>(id));
    reg.histogram(p + "stage.guard").record(200 * (id + 1));
    reg.histogram(p + "stage.frame_total").record(frame_total_ns);
    return reg;
}

TEST(Aggregation, RollupMatchesSharedRegistryBitForBit) {
    // Rolling up N per-session registries equals recording everything
    // into one shared registry (the collect_metrics=false layout).
    obs::MetricsRegistry shared;
    obs::telemetry::Aggregator agg;
    agg.begin_cycle();
    for (std::uint64_t id = 0; id < 6; ++id) {
        const obs::MetricsRegistry session =
            make_session_registry(id, 10 + id, 1000 * (id + 1));
        shared.counter("fleet.frames").inc(10 + id);
        shared.gauge("fleet.threshold").set(static_cast<double>(id));
        shared.histogram("fleet.stage.guard").record(200 * (id + 1));
        shared.histogram("fleet.stage.frame_total").record(1000 * (id + 1));
        agg.add_session(id, session);
    }
    // Compare the roll-up slice only (no laggard detail, no telemetry
    // bookkeeping gauges).
    const obs::MetricsRegistry& out = agg.output();
    EXPECT_EQ(out.counters().at("fleet.frames").value(),
              shared.counters().at("fleet.frames").value());
    EXPECT_EQ(out.gauges().at("fleet.threshold").value(),
              shared.gauges().at("fleet.threshold").value());
    EXPECT_EQ(out.histograms().at("fleet.stage.guard").counts(),
              shared.histograms().at("fleet.stage.guard").counts());
    EXPECT_EQ(out.histograms().at("fleet.stage.guard").sum_ns(),
              shared.histograms().at("fleet.stage.guard").sum_ns());
}

TEST(Aggregation, LaggardDetailIsBoundedAndRetiredAcrossCycles) {
    // Two fleet sizes: the snapshot's node count must not grow with the
    // fleet (base roll-up + K detail sets only).
    std::vector<std::size_t> nodes;
    for (const std::uint64_t n_sessions : {6u, 96u}) {
        SCOPED_TRACE("sessions=" + std::to_string(n_sessions));
        obs::telemetry::AggregatorConfig cfg;
        cfg.top_k_laggards = 2;
        obs::telemetry::Aggregator agg(cfg);

        // Cycle 1: 3 and 5 have the largest frame_total.
        agg.begin_cycle();
        std::vector<obs::MetricsRegistry> sessions;
        for (std::uint64_t id = 0; id < n_sessions; ++id)
            sessions.push_back(make_session_registry(
                id, 10, id == 3 ? 9'000'000 : id == 5 ? 8'000'000 : 1000));
        for (std::uint64_t id = 0; id < n_sessions; ++id)
            agg.add_session(id, sessions[id]);
        const std::vector<std::uint64_t> laggards = agg.select_laggards();
        ASSERT_EQ(laggards, (std::vector<std::uint64_t>{3, 5}));
        for (const std::uint64_t id : laggards)
            agg.add_laggard_detail(id, sessions[id]);

        const obs::MetricsRegistry& out = agg.output();
        EXPECT_NE(out.counters().find("fleet.s3.frames"),
                  out.counters().end());
        EXPECT_NE(out.counters().find("fleet.s5.frames"),
                  out.counters().end());
        EXPECT_EQ(out.counters().find("fleet.s0.frames"),
                  out.counters().end());
        // The shared-name roll-up is not polluted by per-id names:
        // bounded base cardinality + K detail sets.
        EXPECT_EQ(out.counters().size(), 1u + 2u);  // fleet.frames + 2
        nodes.push_back(out.counters().size() + out.gauges().size() +
                        out.histograms().size());

        // Cycle 2: session 1 becomes the only laggard; 3/5 detail
        // retires.
        agg.begin_cycle();
        sessions[1] = make_session_registry(1, 10, 99'000'000);
        sessions[3] = make_session_registry(3, 10, 1000);
        sessions[5] = make_session_registry(5, 10, 1000);
        for (std::uint64_t id = 0; id < n_sessions; ++id)
            agg.add_session(id, sessions[id]);
        // Session 1 leads; the second slot falls to the tie on 1000 ns,
        // broken toward the lowest id (0). Ascending-order output.
        const std::vector<std::uint64_t> laggards2 = agg.select_laggards();
        ASSERT_EQ(laggards2, (std::vector<std::uint64_t>{0, 1}));
        for (const std::uint64_t id : laggards2)
            agg.add_laggard_detail(id, sessions[id]);
        EXPECT_EQ(out.counters().find("fleet.s3.frames"),
                  out.counters().end());
        EXPECT_EQ(out.counters().find("fleet.s5.frames"),
                  out.counters().end());
        EXPECT_NE(out.counters().find("fleet.s1.frames"),
                  out.counters().end());
    }
    EXPECT_EQ(nodes[0], nodes[1]);
}

TEST(Aggregation, SteadyStateCyclesKeepNodeCountStable) {
    // Same sessions, same laggards -> the output registry's node sets
    // must not churn between cycles (the alloc-free steady state).
    obs::telemetry::Aggregator agg;
    std::vector<obs::MetricsRegistry> sessions;
    for (std::uint64_t id = 0; id < 4; ++id)
        sessions.push_back(make_session_registry(id, 5, 1000 * (id + 1)));
    const auto cycle = [&] {
        agg.begin_cycle();
        for (std::uint64_t id = 0; id < 4; ++id)
            agg.add_session(id, sessions[id]);
        for (const std::uint64_t id : agg.select_laggards())
            agg.add_laggard_detail(id, sessions[id]);
    };
    cycle();
    const std::size_t counters = agg.output().counters().size();
    const std::size_t gauges = agg.output().gauges().size();
    const std::size_t histograms = agg.output().histograms().size();
    const std::string first = snapshot_to_json(agg.output());
    cycle();
    EXPECT_EQ(agg.output().counters().size(), counters);
    EXPECT_EQ(agg.output().gauges().size(), gauges);
    EXPECT_EQ(agg.output().histograms().size(), histograms);
    // Identical inputs -> identical snapshot, except the cycle gauge.
    std::string second = snapshot_to_json(agg.output());
    EXPECT_EQ(agg.cycles(), 2u);
    EXPECT_NE(first, second);  // telemetry.cycles advanced
    const std::size_t pos = second.find("\"telemetry.cycles\": 2");
    ASSERT_NE(pos, std::string::npos);
    second.replace(pos, std::strlen("\"telemetry.cycles\": 2"),
                   "\"telemetry.cycles\": 1");
    EXPECT_EQ(first, second);
}

TEST(Aggregation, RegistryResetAndErasePrefix) {
    obs::MetricsRegistry reg;
    reg.counter("a.one").inc(7);
    reg.counter("ab.two").inc(9);
    reg.gauge("a.g").set(3.0);
    reg.histogram("a.h").record(100);
    obs::Counter& kept = reg.counter("b.kept");
    kept.inc(2);

    reg.reset_values();
    EXPECT_EQ(reg.counters().at("a.one").value(), 0u);
    EXPECT_EQ(reg.gauges().at("a.g").value(), 0.0);
    EXPECT_EQ(reg.histograms().at("a.h").count(), 0u);
    EXPECT_EQ(kept.value(), 0u);  // same node, value zeroed in place

    reg.counter("a.one").inc(1);
    reg.erase_prefix("a.");  // exact prefix: must not take "ab.two"
    EXPECT_EQ(reg.counters().find("a.one"), reg.counters().end());
    EXPECT_EQ(reg.gauges().find("a.g"), reg.gauges().end());
    EXPECT_EQ(reg.histograms().find("a.h"), reg.histograms().end());
    EXPECT_NE(reg.counters().find("ab.two"), reg.counters().end());
    EXPECT_NE(reg.counters().find("b.kept"), reg.counters().end());
}

// ----------------------------------------------------------------- spans

TEST(TelemetrySpan, LifecycleEmitsMonotoneRecordWithAllHops) {
    obs::telemetry::SpanCollector spans;
    const std::uint64_t id = spans.mint(7, 42);
    ASSERT_NE(id, 0u);
    spans.hop(id, obs::telemetry::SpanHop::kEnqueue);
    spans.hop(id, obs::telemetry::SpanHop::kAdmit);
    spans.hop(id, obs::telemetry::SpanHop::kPump);
    const std::uint64_t stage_ns[8] = {100, 0, 50, 25, 0, 10, 5, 1};
    spans.complete(id, stage_ns, 8);
    EXPECT_EQ(spans.minted(), 1u);
    EXPECT_EQ(spans.completed(), 1u);
    EXPECT_EQ(spans.abandoned(), 0u);

    const std::string rec = spans.last_record();
    EXPECT_NE(rec.find("\"span\":" + std::to_string(id)), std::string::npos);
    EXPECT_NE(rec.find("\"stream\":7"), std::string::npos);
    EXPECT_NE(rec.find("\"seq\":42"), std::string::npos);
    // Timestamp chain is monotone by construction.
    std::uint64_t prev = 0;
    for (const char* key : {"\"decode_ns\":", "\"enqueue_ns\":",
                            "\"admit_ns\":", "\"pump_ns\":",
                            "\"result_ns\":"}) {
        const std::size_t pos = rec.find(key);
        ASSERT_NE(pos, std::string::npos) << key << " in " << rec;
        const std::uint64_t v = std::strtoull(
            rec.c_str() + pos + std::strlen(key), nullptr, 10);
        EXPECT_GE(v, prev) << key;
        prev = pos == rec.find("\"decode_ns\":") ? v : std::max(prev, v);
    }
}

TEST(TelemetrySpan, UnsampledStaleAndOverwrittenSpansAreIgnored) {
    obs::telemetry::SpanCollector spans;
    spans.hop(0, obs::telemetry::SpanHop::kAdmit);      // unsampled
    spans.complete(0, nullptr, 0);                      // unsampled
    EXPECT_EQ(spans.completed(), 0u);

    const std::uint64_t first = spans.mint(1, 1);
    // Overrun the ring: the first span's slot is reclaimed.
    for (std::size_t i = 0; i < obs::telemetry::SpanCollector::kSlots; ++i)
        spans.mint(1, 2 + i);
    EXPECT_GE(spans.abandoned(), 1u);
    spans.hop(first, obs::telemetry::SpanHop::kPump);  // stale: ignored
    spans.complete(first, nullptr, 0);                 // stale: ignored
    EXPECT_EQ(spans.completed(), 0u);
}

TEST(TelemetryConcurrency, SpanOpsRaceFreeAcrossThreads) {
    // TSan drill: minting, hopping and completing from several threads
    // must serialise on the collector's internal mutex.
    obs::telemetry::SpanCollector spans;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&spans, t] {
            for (int i = 0; i < 500; ++i) {
                const std::uint64_t id = spans.mint(
                    static_cast<std::uint64_t>(t),
                    static_cast<std::uint64_t>(i));
                spans.hop(id, obs::telemetry::SpanHop::kEnqueue);
                spans.hop(id, obs::telemetry::SpanHop::kPump);
                const std::uint64_t stage_ns[2] = {10, 20};
                spans.complete(id, stage_ns, 2);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(spans.minted(), 2000u);
    EXPECT_EQ(spans.completed() + spans.abandoned() +
                  (spans.minted() - spans.completed() - spans.abandoned()),
              2000u);
    EXPECT_GT(spans.completed(), 0u);
}

// ------------------------------------------------------------------- SLO

TEST(TelemetrySlo, BurnRateFlipsUnderBreachAndRecovers) {
    obs::MetricsRegistry reg;
    obs::telemetry::SloConfig cfg;
    cfg.short_window_ticks = 4;
    cfg.long_window_ticks = 16;
    cfg.error_budget = 0.1;
    obs::telemetry::SloTracker slo(cfg, &reg);

    // Healthy: frames delivered within one tick (age 0/1 -> <= 40 ms).
    for (int t = 0; t < 4; ++t) {
        for (int i = 0; i < 10; ++i) slo.record_frame(t % 2);
        slo.tick();
    }
    EXPECT_FALSE(slo.burning());
    EXPECT_EQ(slo.bad(), 0u);

    // Overload: frames aged 5 ticks (200 ms) breach the objective.
    for (int t = 0; t < 3; ++t) {
        for (int i = 0; i < 10; ++i) slo.record_frame(5);
        slo.tick();
    }
    EXPECT_TRUE(slo.burning());
    EXPECT_GT(slo.short_burn(), 1.0);
    EXPECT_GT(slo.bad(), 0u);
    EXPECT_GT(reg.gauges().at("ingest.slo.burn_short").value(), 1.0);
    EXPECT_EQ(reg.gauges().at("ingest.slo.burning").value(), 1.0);

    // Recovery: the short window slides clean after 4 healthy ticks.
    for (int t = 0; t < 4; ++t) {
        for (int i = 0; i < 10; ++i) slo.record_frame(0);
        slo.tick();
    }
    EXPECT_FALSE(slo.burning());
    EXPECT_EQ(reg.gauges().at("ingest.slo.burning").value(), 0.0);
    // The long window still remembers the incident.
    EXPECT_GT(slo.long_burn(), 0.0);
    // Counters are cumulative and exported.
    EXPECT_EQ(reg.counters().at("ingest.slo.good").value(), slo.good());
    EXPECT_EQ(reg.counters().at("ingest.slo.bad").value(), slo.bad());
}

TEST(TelemetrySlo, LatencyMappingIsDeterministicAtTheBoundary) {
    obs::telemetry::SloTracker slo;  // 40 ms SLO, 40 ms ticks
    slo.record_frame(0);  // 0 ms: good
    slo.record_frame(1);  // exactly 40 ms: still within the objective
    EXPECT_EQ(slo.good(), 2u);
    EXPECT_EQ(slo.bad(), 0u);
    slo.record_frame(2);  // 80 ms: breach
    EXPECT_EQ(slo.bad(), 1u);
}

// ---------------------------------------------------------------- export

TEST(TelemetryExport, PublisherWritesAtomicallyAndDoubleBuffers) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "br_telemetry_export_test";
    fs::create_directories(dir);
    obs::telemetry::SnapshotPublisherConfig cfg;
    cfg.json_path = (dir / "snapshot.json").string();
    obs::telemetry::SnapshotPublisher pub(cfg);

    obs::MetricsRegistry reg;
    reg.counter("c").inc(1);
    ASSERT_TRUE(pub.publish(reg));
    EXPECT_EQ(pub.publishes(), 1u);
    EXPECT_EQ(pub.failures(), 0u);
    const std::string first = pub.last_json();
    EXPECT_EQ(first, snapshot_to_json(reg));

    // The published file matches the in-memory front buffer, and no
    // temp file is left behind.
    std::ifstream in(cfg.json_path, std::ios::binary);
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str(), first);
    EXPECT_FALSE(fs::exists(cfg.json_path + ".tmp"));

    // Second publish flips the buffers; the front moves on.
    reg.counter("c").inc(41);
    ASSERT_TRUE(pub.publish(reg));
    EXPECT_NE(pub.last_json(), first);
    EXPECT_NE(pub.last_json().find("\"c\": 42"), std::string::npos);

    fs::remove_all(dir);
}

TEST(TelemetryExport, UnwritablePathCountsAsFailureButBuffersAdvance) {
    obs::telemetry::SnapshotPublisherConfig cfg;
    cfg.json_path = "/nonexistent-dir-for-br-telemetry/out.json";
    obs::telemetry::SnapshotPublisher pub(cfg);
    obs::MetricsRegistry reg;
    reg.counter("c").inc(5);
    EXPECT_FALSE(pub.publish(reg));
    EXPECT_EQ(pub.failures(), 1u);
    EXPECT_EQ(pub.last_json(), snapshot_to_json(reg));
}

}  // namespace
}  // namespace blinkradar
