#include "core/drowsy.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::core {

void DrowsinessDetector::train(std::span<const double> awake_rates,
                               std::span<const double> drowsy_rates) {
    BR_EXPECTS(!awake_rates.empty());
    BR_EXPECTS(!drowsy_rates.empty());
    awake_mean_ = dsp::mean(awake_rates);
    drowsy_mean_ = dsp::mean(drowsy_rates);

    // Spread-weighted midpoint: if one class is noisier, push the
    // threshold away from it. Falls back to the plain midpoint when the
    // spreads are degenerate (single training window per class) or the
    // training data is inverted (detection noise can swamp a small gap —
    // the classifier then degrades gracefully rather than refusing).
    const double sa = awake_rates.size() >= 2 ? dsp::stddev(awake_rates) : 0.0;
    const double sd =
        drowsy_rates.size() >= 2 ? dsp::stddev(drowsy_rates) : 0.0;
    if (drowsy_mean_ > awake_mean_ && sa + sd > 1e-9) {
        threshold_ = (awake_mean_ * sd + drowsy_mean_ * sa) / (sa + sd);
    } else {
        threshold_ = (awake_mean_ + drowsy_mean_) / 2.0;
    }
    trained_ = true;
}

DrowsinessLabel DrowsinessDetector::classify(double blink_rate_per_min) const {
    BR_EXPECTS(trained_);
    return blink_rate_per_min > threshold_ ? DrowsinessLabel::kDrowsy
                                           : DrowsinessLabel::kAwake;
}

std::vector<double> window_blink_rates(std::span<const DetectedBlink> blinks,
                                       Seconds duration_s, Seconds window_s,
                                       Seconds min_duration_s,
                                       double min_strength) {
    BR_EXPECTS(duration_s > 0.0);
    BR_EXPECTS(window_s > 0.0);
    BR_EXPECTS(min_duration_s >= 0.0);
    BR_EXPECTS(min_strength >= 0.0);
    std::vector<double> rates;
    for (Seconds start = 0.0; start + window_s / 2.0 <= duration_s;
         start += window_s) {
        const Seconds end = std::min(start + window_s, duration_s);
        std::size_t count = 0;
        for (const DetectedBlink& b : blinks)
            if (b.peak_s >= start && b.peak_s < end &&
                b.duration_s >= min_duration_s &&
                b.strength >= min_strength)
                ++count;
        const double minutes = (end - start) / 60.0;
        rates.push_back(static_cast<double>(count) / minutes);
    }
    return rates;
}

}  // namespace blinkradar::core
