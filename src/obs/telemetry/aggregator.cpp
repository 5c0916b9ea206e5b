#include "obs/telemetry/aggregator.hpp"

#include <algorithm>
#include <charconv>

#include "common/contracts.hpp"
#include "obs/telemetry/names.hpp"

namespace blinkradar::obs::telemetry {

Aggregator::Aggregator(AggregatorConfig config) : config_(std::move(config)) {
    spfx_.reserve(32);
    key_.reserve(64);
}

void Aggregator::session_prefix_into(std::uint64_t id,
                                     std::string& out) const {
    out.assign(kFleetPrefix);
    out += 's';
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), id);
    BR_ASSERT(ec == std::errc());
    out.append(buf, end);
    out += '.';
}

void Aggregator::begin_cycle() {
    ++cycles_;
    scores_.clear();
    // Retire last cycle's laggard detail by exact per-id prefix —
    // erase_prefix("fleet.s") would take "fleet.stage.*" with it.
    for (const std::uint64_t id : laggards_) {
        session_prefix_into(id, spfx_);
        out_.erase_prefix(spfx_);
    }
    laggards_.clear();
    out_.reset_values();
}

void Aggregator::add_session(std::uint64_t id,
                             const MetricsRegistry& session) {
    session_prefix_into(id, spfx_);
    // Per-session names lose their "fleet.s<id>." prefix; names without
    // it (a registry recorded under another prefix) fold through
    // unchanged, as merge_from would fold them.
    const auto rolled = [&](const std::string& name) -> const std::string& {
        if (name.size() > spfx_.size() &&
            name.compare(0, spfx_.size(), spfx_) == 0) {
            key_.assign(kFleetPrefix);
            key_.append(name, spfx_.size(), std::string::npos);
            return key_;
        }
        return name;
    };
    std::uint64_t score = 0;
    for (const auto& [name, c] : session.counters())
        out_.counter(rolled(name)).inc(c.value());
    for (const auto& [name, g] : session.gauges())
        out_.gauge(rolled(name)).set(g.value());
    for (const auto& [name, h] : session.histograms()) {
        const std::string& out_name = rolled(name);
        out_.histogram(out_name).merge_from(h);
        if (out_name.ends_with("stage.frame_total")) score = h.sum_ns();
    }
    scores_.emplace_back(id, score);
}

const std::vector<std::uint64_t>& Aggregator::select_laggards() {
    laggards_.clear();
    const std::size_t k = std::min(config_.top_k_laggards, scores_.size());
    if (k > 0) {
        std::partial_sort(scores_.begin(),
                          scores_.begin() + static_cast<std::ptrdiff_t>(k),
                          scores_.end(), [](const auto& a, const auto& b) {
                              if (a.second != b.second)
                                  return a.second > b.second;
                              return a.first < b.first;
                          });
        for (std::size_t i = 0; i < k; ++i)
            laggards_.push_back(scores_[i].first);
        std::sort(laggards_.begin(), laggards_.end());
    }
    out_.gauge("telemetry.sessions")
        .set(static_cast<double>(scores_.size()));
    out_.gauge("telemetry.laggards").set(static_cast<double>(k));
    out_.gauge("telemetry.cycles").set(static_cast<double>(cycles_));
    return laggards_;
}

void Aggregator::add_laggard_detail(std::uint64_t id,
                                    const MetricsRegistry& session) {
    session_prefix_into(id, spfx_);
    const auto mine = [&](const std::string& name) {
        return name.size() > spfx_.size() &&
               name.compare(0, spfx_.size(), spfx_) == 0;
    };
    for (const auto& [name, c] : session.counters())
        if (mine(name)) out_.counter(name).inc(c.value());
    for (const auto& [name, g] : session.gauges())
        if (mine(name)) out_.gauge(name).set(g.value());
    for (const auto& [name, h] : session.histograms())
        if (mine(name)) out_.histogram(name).merge_from(h);
}

void Aggregator::add_flat(const MetricsRegistry& registry) {
    out_.merge_from(registry);
}

}  // namespace blinkradar::obs::telemetry
