// Hierarchical metric aggregation: per-session registries roll up into
// one bounded-cardinality fleet registry.
//
// The fleet engine gives every session a private MetricsRegistry whose
// names carry a per-session prefix ("fleet.s<id>."). At 2.8k sessions
// that is thousands of artifacts per snapshot — unreadable and
// unexportable. The Aggregator strips the per-session prefix and folds
// every session's series into one fleet-level set ("fleet.stage.guard"
// etc.): counters and histograms accumulate (the fixed power-of-two
// buckets make histogram merge exact, so the roll-up is commutative and
// bit-identical to a single shared registry), gauges take the last
// writer in ascending-id order.
//
// Per-session detail survives only for the top-K "laggard" sessions —
// ranked by total frame_total time — so the snapshot answers "which
// sessions are slow" without carrying every session. Output cardinality
// is bounded: base roll-up names + K x per-session names, regardless of
// fleet size.
//
// Cycle protocol (the caller holds whatever lock protects the session
// table; this layer knows nothing about fleets):
//
//   agg.begin_cycle();
//   for each session:          agg.add_session(id, registry);   // pass 1
//   for id : agg.select_laggards():
//                              agg.add_laggard_detail(id, registry);
//   agg.add_flat(frontend_registry);                            // etc.
//   publish(agg.output());
//
// Alloc-free steady state: the output registry is reset in place
// (reset_values), roll-up keys are built in reused scratch strings, and
// map nodes persist across cycles — only a *change* in the laggard set
// erases/inserts nodes, off the per-frame hot path by construction.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace blinkradar::obs::telemetry {

struct AggregatorConfig {
    /// Sessions whose full per-session detail is kept each cycle.
    std::size_t top_k_laggards = 4;
};

class Aggregator {
public:
    explicit Aggregator(AggregatorConfig config = {});

    /// Start a cycle: retire last cycle's laggard detail, zero the
    /// output in place.
    void begin_cycle();

    /// Pass 1: fold one session's registry into the roll-up and score
    /// it for laggard ranking (sum of frame_total nanoseconds).
    void add_session(std::uint64_t id, const MetricsRegistry& session);

    /// Rank sessions seen this cycle; returns the top-K ids in
    /// ascending order (ties break toward the lower id).
    const std::vector<std::uint64_t>& select_laggards();

    /// Pass 2: copy one laggard's per-session series ("fleet.s<id>.*")
    /// into the output unmodified. Series without the per-session
    /// prefix are skipped (they were already rolled up in pass 1).
    void add_laggard_detail(std::uint64_t id, const MetricsRegistry& session);

    /// Fold an already-flat registry (e.g. the ingest front-end's) into
    /// the output verbatim.
    void add_flat(const MetricsRegistry& registry);

    MetricsRegistry& output() noexcept { return out_; }
    const MetricsRegistry& output() const noexcept { return out_; }
    const std::vector<std::uint64_t>& laggards() const noexcept {
        return laggards_;
    }
    std::uint64_t cycles() const noexcept { return cycles_; }

private:
    void session_prefix_into(std::uint64_t id, std::string& out) const;

    AggregatorConfig config_;
    MetricsRegistry out_;
    /// (id, score) per session seen this cycle.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> scores_;
    std::vector<std::uint64_t> laggards_;
    std::string spfx_;  ///< scratch: "fleet.s<id>."
    std::string key_;   ///< scratch: rolled-up output name
    std::uint64_t cycles_ = 0;
};

}  // namespace blinkradar::obs::telemetry
