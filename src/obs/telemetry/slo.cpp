#include "obs/telemetry/slo.hpp"

#include <algorithm>
#include <string>

#include "obs/telemetry/names.hpp"

namespace blinkradar::obs::telemetry {

SloTracker::SloTracker(SloConfig config, MetricsRegistry* registry)
    : config_(config),
      short_w_(std::max<std::size_t>(config_.short_window_ticks, 1)),
      long_w_(std::max<std::size_t>(config_.long_window_ticks, 1)) {
    if (config_.error_budget <= 0.0) config_.error_budget = 0.01;
    if (config_.tick_ns == 0) config_.tick_ns = 1;
    if (registry != nullptr) {
        const std::string p = std::string(kIngestPrefix) + "slo.";
        good_c_ = &registry->counter(p + "good");
        bad_c_ = &registry->counter(p + "bad");
        short_g_ = &registry->gauge(p + "burn_short");
        long_g_ = &registry->gauge(p + "burn_long");
        burning_g_ = &registry->gauge(p + "burning");
        latency_h_ = &registry->histogram(p + "enqueue_to_result_ns");
    }
}

void SloTracker::record_frame(std::uint64_t age_ticks) {
    const std::uint64_t latency_ns = age_ticks * config_.tick_ns;
    if (latency_ns > config_.slo_ns) {
        ++cur_bad_;
        ++bad_total_;
        if (bad_c_ != nullptr) bad_c_->inc();
    } else {
        ++cur_good_;
        ++good_total_;
        if (good_c_ != nullptr) good_c_->inc();
    }
    if (latency_h_ != nullptr) latency_h_->record(latency_ns);
}

void SloTracker::tick() {
    short_w_.push(cur_good_, cur_bad_);
    long_w_.push(cur_good_, cur_bad_);
    cur_good_ = 0;
    cur_bad_ = 0;
    short_burn_ = short_w_.bad_fraction() / config_.error_budget;
    long_burn_ = long_w_.bad_fraction() / config_.error_budget;
    if (short_g_ != nullptr) short_g_->set(short_burn_);
    if (long_g_ != nullptr) long_g_->set(long_burn_);
    if (burning_g_ != nullptr) burning_g_->set(burning() ? 1.0 : 0.0);
}

}  // namespace blinkradar::obs::telemetry
