// SLO burn-rate tracking for the 40 ms enqueue->result objective.
//
// Wall-clock latency cannot carry an SLO verdict in this codebase —
// every load-shedding decision must replay bit-identically. So the
// tracker consumes the ingest layer's *deterministic* latency proxy:
// the number of ticks a frame waited in its bounded queue before
// delivery. One tick is one pump of the 25 fps cadence (40 ms nominal),
// so latency_ns = age_ticks * tick_ns, and a frame breaches the 40 ms
// SLO exactly when it waited more than one full tick. Good/bad tallies,
// the latency histogram, and both burn rates are therefore identical at
// any shard/thread count — the overload drill asserts it.
//
// Burn rate follows the standard multi-window formulation: over a
// short window (fast detection) and a long window (sustained breach),
// burn = bad_fraction / error_budget. burn > 1 means the error budget
// is being spent faster than provisioned; the short window flips
// during an overload shed and recovers once the backlog drains.
//
// Hot path: record_frame is integer arithmetic plus counter bumps (no
// allocation, no locking — the tracker belongs to the one thread
// driving the front-end). tick() slides the windows and refreshes the
// exported gauges.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace blinkradar::obs::telemetry {

struct SloConfig {
    std::uint64_t slo_ns = 40'000'000;   ///< the 40 ms objective
    std::uint64_t tick_ns = 40'000'000;  ///< nominal duration of one tick
    std::size_t short_window_ticks = 8;
    std::size_t long_window_ticks = 64;
    double error_budget = 0.01;  ///< tolerated bad-frame fraction
};

class SloTracker {
public:
    /// `registry` is optional and not owned; pass nullptr to track
    /// without exporting. Metric names under "ingest.slo.": good / bad
    /// (counters), burn_short / burn_long / burning (gauges),
    /// enqueue_to_result_ns (histogram).
    explicit SloTracker(SloConfig config = {},
                        MetricsRegistry* registry = nullptr);

    /// One delivered frame that waited `age_ticks` ticks.
    void record_frame(std::uint64_t age_ticks);

    /// End of tick: slide both windows, refresh burn rates and gauges.
    void tick();

    std::uint64_t good() const noexcept { return good_total_; }
    std::uint64_t bad() const noexcept { return bad_total_; }
    double short_burn() const noexcept { return short_burn_; }
    double long_burn() const noexcept { return long_burn_; }
    /// Error budget burning faster than provisioned (short window).
    bool burning() const noexcept { return short_burn_ > 1.0; }

private:
    struct Window {
        explicit Window(std::size_t n) : good(n, 0), bad(n, 0) {}
        void push(std::uint64_t g, std::uint64_t b) {
            good_sum = good_sum - good[head] + g;
            bad_sum = bad_sum - bad[head] + b;
            good[head] = g;
            bad[head] = b;
            head = (head + 1) % good.size();
        }
        double bad_fraction() const noexcept {
            const std::uint64_t total = good_sum + bad_sum;
            return total == 0 ? 0.0
                              : static_cast<double>(bad_sum) /
                                    static_cast<double>(total);
        }
        std::vector<std::uint64_t> good, bad;
        std::uint64_t good_sum = 0, bad_sum = 0;
        std::size_t head = 0;
    };

    SloConfig config_;
    Window short_w_;
    Window long_w_;
    std::uint64_t cur_good_ = 0, cur_bad_ = 0;
    std::uint64_t good_total_ = 0, bad_total_ = 0;
    double short_burn_ = 0.0, long_burn_ = 0.0;
    Counter* good_c_ = nullptr;
    Counter* bad_c_ = nullptr;
    Gauge* short_g_ = nullptr;
    Gauge* long_g_ = nullptr;
    Gauge* burning_g_ = nullptr;
    LatencyHistogram* latency_h_ = nullptr;
};

}  // namespace blinkradar::obs::telemetry
