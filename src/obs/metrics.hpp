// Lightweight pipeline observability: named counters, gauges, and
// fixed-bucket latency histograms behind a MetricsRegistry.
//
// Design contract (mirrors the frame path's zero-allocation rule):
//   - registration happens at construction time (MetricsRegistry::counter
//     / gauge / histogram allocate once and return stable references);
//   - the hot path only increments plain integers / stores doubles — no
//     allocation, no locking, no string handling;
//   - a registry belongs to one pipeline / one thread. Parallel batch
//     engines give every session its own registry and merge_from() the
//     results afterwards (deterministic in merge order).
//
// snapshot_to_json serialises a registry with sorted metric names and a
// fixed field order, so two registries holding the same values produce
// byte-identical snapshots.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>

namespace blinkradar::obs {

/// Monotonically increasing event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_ += n; }
    std::uint64_t value() const noexcept { return value_; }
    void reset() noexcept { value_ = 0; }

private:
    std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (threshold, fault rate, ...).
class Gauge {
public:
    void set(double v) noexcept { value_ = v; }
    double value() const noexcept { return value_; }
    void reset() noexcept { value_ = 0.0; }

private:
    double value_ = 0.0;
};

/// Fixed-bucket latency histogram over nanosecond durations.
///
/// Bucket upper bounds are powers of two from 128 ns to 4 ms plus an
/// overflow bucket — wide enough for a sub-microsecond DSP stage and a
/// multi-millisecond cold-start fit alike. record() is a bounds scan
/// plus three integer updates; no allocation ever.
class LatencyHistogram {
public:
    static constexpr std::size_t kBuckets = 16;

    /// Upper bound (inclusive) of bucket i in nanoseconds.
    static constexpr std::array<std::uint64_t, kBuckets> kBucketBoundsNs = {
        128,       256,       512,        1'024,     2'048,    4'096,
        8'192,     16'384,    32'768,     65'536,    131'072,  262'144,
        524'288,   1'048'576, 2'097'152,  4'194'304,
    };

    void record(std::uint64_t ns) noexcept {
        // Power-of-two bounds make the bucket a bit-scan, not a linear
        // search: bucket b covers (2^(6+b), 2^(7+b)] for b >= 1.
        std::size_t b =
            ns <= kBucketBoundsNs[0]
                ? 0
                : static_cast<std::size_t>(std::bit_width(ns - 1)) - 7;
        if (b > kBuckets) b = kBuckets;  // overflow bucket
        ++counts_[b];
        ++count_;
        sum_ns_ += ns;
        if (ns < min_ns_) min_ns_ = ns;
        if (ns > max_ns_) max_ns_ = ns;
    }

    std::uint64_t count() const noexcept { return count_; }
    std::uint64_t sum_ns() const noexcept { return sum_ns_; }
    std::uint64_t min_ns() const noexcept { return count_ ? min_ns_ : 0; }
    std::uint64_t max_ns() const noexcept { return max_ns_; }
    double mean_ns() const noexcept {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_ns_) /
                                 static_cast<double>(count_);
    }

    /// Bucket occupancy; index kBuckets is the overflow bucket.
    const std::array<std::uint64_t, kBuckets + 1>& counts() const noexcept {
        return counts_;
    }

    /// Approximate quantile (q in [0,1]) by linear interpolation inside
    /// the containing bucket. Exact enough for p50/p99 dashboards.
    double quantile_ns(double q) const noexcept;

    void merge_from(const LatencyHistogram& other) noexcept;

    void reset() noexcept {
        counts_.fill(0);
        count_ = 0;
        sum_ns_ = 0;
        min_ns_ = UINT64_MAX;
        max_ns_ = 0;
    }

private:
    std::array<std::uint64_t, kBuckets + 1> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ns_ = 0;
    std::uint64_t min_ns_ = UINT64_MAX;
    std::uint64_t max_ns_ = 0;
};

/// Owns named metrics. Registration is idempotent: asking for an
/// existing name returns the same metric, so merge targets and repeated
/// construction paths need no bookkeeping. References stay valid for the
/// registry's lifetime (node-based storage).
class MetricsRegistry {
public:
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    LatencyHistogram& histogram(const std::string& name) {
        return histograms_[name];
    }

    /// Fold another registry into this one: counters and histograms
    /// accumulate, gauges take the source's value (last writer wins).
    /// Missing metrics are created. Merge in a fixed order (e.g. session
    /// index) for deterministic gauge results.
    void merge_from(const MetricsRegistry& other);

    /// Zero every metric in place without touching the name set. Node
    /// storage is untouched, so outstanding references stay valid and no
    /// allocation happens — this is how a reused aggregation target stays
    /// alloc-free across cycles.
    void reset_values() noexcept;

    /// Drop every metric whose name starts with `prefix`. Used by the
    /// aggregator between cycles to retire last cycle's per-laggard
    /// detail keys, keeping instantaneous cardinality bounded.
    void erase_prefix(const std::string& prefix);

    const std::map<std::string, Counter>& counters() const noexcept {
        return counters_;
    }
    const std::map<std::string, Gauge>& gauges() const noexcept {
        return gauges_;
    }
    const std::map<std::string, LatencyHistogram>& histograms()
        const noexcept {
        return histograms_;
    }

private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, LatencyHistogram> histograms_;
};

/// Deterministic JSON snapshot: metric names sorted, fixed field order,
/// schema "blinkradar-obs-v1".
std::string snapshot_to_json(const MetricsRegistry& registry);

/// Same rendering appended into a caller-owned buffer, so a cyclic
/// publisher can reuse capacity instead of allocating per snapshot.
void append_snapshot_json(const MetricsRegistry& registry, std::string& out);

}  // namespace blinkradar::obs
