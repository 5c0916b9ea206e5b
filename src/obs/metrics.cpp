#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>

#include "common/contracts.hpp"
#include "obs/stage_timer.hpp"

namespace blinkradar::obs {

namespace detail {

#if defined(BLINKRADAR_OBS_TSC)
namespace {
double measure_ns_per_tick() noexcept {
    // Spin for ~200 us against steady_clock; long enough that the two
    // clock reads bracketing the spin contribute <0.1 % error.
    const std::uint64_t ns0 = steady_ns();
    const std::uint64_t t0 = now_ticks();
    std::uint64_t ns1 = ns0;
    while (ns1 - ns0 < 200'000) ns1 = steady_ns();
    const std::uint64_t t1 = now_ticks();
    if (t1 <= t0) return 1.0;  // non-monotonic TSC: degrade gracefully
    return static_cast<double>(ns1 - ns0) / static_cast<double>(t1 - t0);
}
}  // namespace

void calibrate_clock() noexcept {
    // Magic static: concurrent first-time constructions serialize on the
    // one-time measurement (C++11 initialization guard), so every
    // session observes the *same* tick ratio — the old check-then-store
    // let two racing constructors each measure and publish different
    // ratios, skewing whichever histograms recorded between the stores.
    // The store itself is idempotent (always the same value), so the
    // relaxed atomic stays a plain load on the hot path.
    static const double ratio = measure_ns_per_tick();
    g_ns_per_tick.store(ratio, std::memory_order_relaxed);
}
#else
void calibrate_clock() noexcept {}
#endif

}  // namespace detail

double LatencyHistogram::quantile_ns(double q) const noexcept {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b <= kBuckets; ++b) {
        if (counts_[b] == 0) continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts_[b];
        if (static_cast<double>(cumulative) < target) continue;
        const double lo =
            b == 0 ? 0.0 : static_cast<double>(kBucketBoundsNs[b - 1]);
        const double hi = b < kBuckets
                              ? static_cast<double>(kBucketBoundsNs[b])
                              : static_cast<double>(max_ns_);
        const double frac =
            (target - before) / static_cast<double>(counts_[b]);
        return lo + std::clamp(frac, 0.0, 1.0) * (std::max(hi, lo) - lo);
    }
    return static_cast<double>(max_ns_);
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) noexcept {
    for (std::size_t b = 0; b <= kBuckets; ++b)
        counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    if (other.count_ > 0) {
        min_ns_ = std::min(min_ns_, other.min_ns_);
        max_ns_ = std::max(max_ns_, other.max_ns_);
    }
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    for (const auto& [name, c] : other.counters_)
        counters_[name].inc(c.value());
    for (const auto& [name, g] : other.gauges_)
        gauges_[name].set(g.value());
    for (const auto& [name, h] : other.histograms_)
        histograms_[name].merge_from(h);
}

void MetricsRegistry::reset_values() noexcept {
    for (auto& [name, c] : counters_) c.reset();
    for (auto& [name, g] : gauges_) g.reset();
    for (auto& [name, h] : histograms_) h.reset();
}

namespace {

template <typename Map>
void erase_prefix_from(Map& map, const std::string& prefix) {
    auto it = map.lower_bound(prefix);
    while (it != map.end() && it->first.compare(0, prefix.size(), prefix) == 0)
        it = map.erase(it);
}

}  // namespace

void MetricsRegistry::erase_prefix(const std::string& prefix) {
    if (prefix.empty()) return;
    erase_prefix_from(counters_, prefix);
    erase_prefix_from(gauges_, prefix);
    erase_prefix_from(histograms_, prefix);
}

namespace {

/// Shortest round-trip decimal for a double (locale-independent).
std::string format_double(double v) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    BR_ASSERT(ec == std::errc());
    return std::string(buf, end);
}

}  // namespace

std::string snapshot_to_json(const MetricsRegistry& registry) {
    std::string out;
    out.reserve(1024);
    append_snapshot_json(registry, out);
    return out;
}

void append_snapshot_json(const MetricsRegistry& registry, std::string& out) {
    // std::map iteration is name-sorted, and every numeric field is
    // formatted locale-independently, so equal registries serialise to
    // byte-identical snapshots.
    out += "{\n  \"schema\": \"blinkradar-obs-v1\",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : registry.counters()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": " + std::to_string(c.value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : registry.gauges()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": " + format_double(g.value());
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : registry.histograms()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + name + "\": {\"count\": " +
               std::to_string(h.count()) +
               ", \"sum_ns\": " + std::to_string(h.sum_ns()) +
               ", \"min_ns\": " + std::to_string(h.min_ns()) +
               ", \"max_ns\": " + std::to_string(h.max_ns()) +
               ", \"mean_ns\": " + format_double(h.mean_ns()) +
               ", \"p50_ns\": " + format_double(h.quantile_ns(0.5)) +
               ", \"p99_ns\": " + format_double(h.quantile_ns(0.99)) +
               ", \"buckets\": [";
        const auto& counts = h.counts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
            if (b != 0) out += ", ";
            out += std::to_string(counts[b]);
        }
        out += "]}";
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
}

}  // namespace blinkradar::obs
