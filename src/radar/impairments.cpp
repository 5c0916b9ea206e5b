#include "radar/impairments.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "radar/simulator.hpp"

namespace blinkradar::radar {

bool FaultInjectorConfig::any_active() const noexcept {
    return drop_rate > 0.0 || duplicate_rate > 0.0 ||
           timestamp_jitter_std_s > 0.0 || saturation_rate > 0.0 ||
           dead_bin_count > 0 || stuck_bin_count > 0 ||
           gain_drift_amplitude > 0.0 || interference_rate > 0.0 ||
           nan_rate > 0.0 || truncate_rate > 0.0;
}

void FaultInjectorConfig::validate() const {
    const auto is_rate = [](double r) { return r >= 0.0 && r <= 1.0; };
    BR_EXPECTS(is_rate(drop_rate));
    BR_EXPECTS(is_rate(duplicate_rate));
    BR_EXPECTS(is_rate(saturation_rate));
    BR_EXPECTS(is_rate(interference_rate));
    BR_EXPECTS(is_rate(nan_rate));
    BR_EXPECTS(is_rate(truncate_rate));
    BR_EXPECTS(timestamp_jitter_std_s >= 0.0);
    BR_EXPECTS(saturation_level > 0.0);
    BR_EXPECTS(gain_drift_amplitude >= 0.0 && gain_drift_amplitude < 1.0);
    BR_EXPECTS(gain_drift_period_s > 0.0);
    BR_EXPECTS(interference_sigma >= 0.0);
    BR_EXPECTS(interference_duration_s > 0.0);
}

FaultInjector::FaultInjector(FaultInjectorConfig config, std::uint64_t seed)
    : config_(config),
      // The fork order is part of the determinism contract: never reorder.
      drop_rng_(Rng(seed).fork()),
      dup_rng_(Rng(seed + 1).fork()),
      jitter_rng_(Rng(seed + 2).fork()),
      sat_rng_(Rng(seed + 3).fork()),
      bins_rng_(Rng(seed + 4).fork()),
      drift_rng_(Rng(seed + 5).fork()),
      interference_rng_(Rng(seed + 6).fork()),
      nan_rng_(Rng(seed + 7).fork()),
      trunc_rng_(Rng(seed + 8).fork()) {
    config_.validate();
    drift_phase_ = drift_rng_.uniform(0.0, constants::kTwoPi);
}

void FaultInjector::choose_bins(const RadarFrame& first) {
    bins_chosen_ = true;
    const std::size_t n = first.bins.size();
    if (n == 0) return;
    const std::size_t want =
        std::min(config_.dead_bin_count + config_.stuck_bin_count, n);
    std::vector<std::size_t> picked;
    picked.reserve(want);
    while (picked.size() < want) {
        const auto bin = static_cast<std::size_t>(
            bins_rng_.uniform_int(0, static_cast<int>(n) - 1));
        if (std::find(picked.begin(), picked.end(), bin) == picked.end())
            picked.push_back(bin);
    }
    const std::size_t n_dead = std::min(config_.dead_bin_count, picked.size());
    dead_bins_.assign(picked.begin(), picked.begin() + n_dead);
    stuck_bins_.assign(picked.begin() + n_dead, picked.end());
    stuck_values_.reserve(stuck_bins_.size());
    for (const std::size_t bin : stuck_bins_)
        stuck_values_.push_back(first.bins[bin]);
}

void FaultInjector::apply(const RadarFrame& clean, FrameSeries& out) {
    ++stats_.frames_in;
    if (!bins_chosen_) choose_bins(clean);

    // Draw every per-frame decision up front, one fixed draw per active
    // fault stream, so each schedule depends only on its own config and
    // the input frame index (the header's independence guarantee).
    const bool drop =
        config_.drop_rate > 0.0 && drop_rng_.bernoulli(config_.drop_rate);
    const bool duplicate = config_.duplicate_rate > 0.0 &&
                           dup_rng_.bernoulli(config_.duplicate_rate);
    const double jitter_s =
        config_.timestamp_jitter_std_s > 0.0
            ? jitter_rng_.normal(0.0, config_.timestamp_jitter_std_s)
            : 0.0;
    const bool saturate = config_.saturation_rate > 0.0 &&
                          sat_rng_.bernoulli(config_.saturation_rate);
    const bool burst_start = config_.interference_rate > 0.0 &&
                             interference_rng_.bernoulli(
                                 config_.interference_rate);
    const bool nan_hit =
        config_.nan_rate > 0.0 && nan_rng_.bernoulli(config_.nan_rate);
    const bool trunc_hit = config_.truncate_rate > 0.0 &&
                           trunc_rng_.bernoulli(config_.truncate_rate);

    if (drop) {
        ++stats_.dropped;
        return;
    }
    RadarFrame& frame = out.emplace_back(clean);
    impair_in_place(frame, jitter_s, saturate, nan_hit, trunc_hit,
                    burst_start);
    ++stats_.frames_out;
    if (duplicate) {
        out.push_back(frame);  // same timestamp: a true sensor duplicate
        ++stats_.duplicated;
        ++stats_.frames_out;
    }
}

void FaultInjector::impair_in_place(RadarFrame& frame, double jitter_s,
                                    bool saturate, bool nan_hit,
                                    bool trunc_hit, bool burst_start) {
    const Seconds t = frame.timestamp_s;

    if (config_.gain_drift_amplitude > 0.0) {
        const double gain =
            1.0 + config_.gain_drift_amplitude *
                      std::sin(constants::kTwoPi * t /
                                   config_.gain_drift_period_s +
                               drift_phase_);
        for (dsp::Complex& s : frame.bins) s *= gain;
    }

    for (const std::size_t bin : dead_bins_)
        if (bin < frame.bins.size()) frame.bins[bin] = dsp::Complex(0.0, 0.0);
    for (std::size_t k = 0; k < stuck_bins_.size(); ++k)
        if (stuck_bins_[k] < frame.bins.size())
            frame.bins[stuck_bins_[k]] = stuck_values_[k];

    if (burst_start) {
        if (t >= interference_until_) ++stats_.interference_bursts;
        interference_until_ =
            std::max(interference_until_, t + config_.interference_duration_s);
    }
    if (config_.interference_rate > 0.0 && t < interference_until_) {
        for (dsp::Complex& s : frame.bins)
            s += dsp::Complex(
                interference_rng_.normal(0.0, config_.interference_sigma),
                interference_rng_.normal(0.0, config_.interference_sigma));
        ++stats_.interference_frames;
    }

    if (saturate) {
        const double rail = config_.saturation_level;
        for (dsp::Complex& s : frame.bins)
            s = dsp::Complex(std::clamp(s.real(), -rail, rail),
                             std::clamp(s.imag(), -rail, rail));
        ++stats_.saturated;
    }

    if (nan_hit && !frame.bins.empty()) {
        const int corrupt = nan_rng_.uniform_int(1, 3);
        for (int k = 0; k < corrupt; ++k) {
            const auto bin = static_cast<std::size_t>(nan_rng_.uniform_int(
                0, static_cast<int>(frame.bins.size()) - 1));
            const double garbage =
                nan_rng_.bernoulli(0.5)
                    ? std::numeric_limits<double>::quiet_NaN()
                    : std::numeric_limits<double>::infinity();
            frame.bins[bin] = nan_rng_.bernoulli(0.5)
                                  ? dsp::Complex(garbage, frame.bins[bin].imag())
                                  : dsp::Complex(frame.bins[bin].real(), garbage);
        }
        ++stats_.nan_corrupted;
    }

    if (trunc_hit && frame.bins.size() > 1) {
        const double keep = trunc_rng_.uniform(0.1, 0.9);
        const auto n = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   keep * static_cast<double>(frame.bins.size())));
        frame.bins.resize(n);
        ++stats_.truncated;
    }

    frame.timestamp_s = t + jitter_s;
}

FrameSeries FaultInjector::apply(const FrameSeries& clean) {
    FrameSeries out;
    out.reserve(clean.size());
    for (const RadarFrame& frame : clean) apply(frame, out);
    return out;
}

}  // namespace blinkradar::radar
