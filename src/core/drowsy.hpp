// Drowsy-driving detection (paper Section IV-F).
//
// Drowsiness shows up as an elevated blink rate. The paper builds a
// per-user model from labelled awake/drowsy training windows and then
// classifies 1-minute windows of the live blink stream. This module
// implements that model plus the windowed-rate computation.
#pragma once

#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/levd.hpp"

namespace blinkradar::core {

/// Classifier output.
enum class DrowsinessLabel { kAwake, kDrowsy };

/// Per-user blink-rate classifier.
///
/// Training computes the mean awake and mean drowsy rates and places the
/// decision threshold where the two class likelihoods cross under equal
/// in-class variances (the midpoint weighted by class spreads).
class DrowsinessDetector {
public:
    /// Train from labelled window rates (blinks per minute). Both spans
    /// must be non-empty. Physiologically the drowsy mean exceeds the
    /// awake mean; if detection noise inverts the training data the
    /// classifier still trains (plain midpoint) and degrades gracefully.
    void train(std::span<const double> awake_rates,
               std::span<const double> drowsy_rates);

    bool trained() const noexcept { return trained_; }

    /// Classify a 1-minute window rate.
    DrowsinessLabel classify(double blink_rate_per_min) const;

    /// The learned decision threshold (blinks per minute).
    double threshold_rate() const noexcept { return threshold_; }

    double awake_mean() const noexcept { return awake_mean_; }
    double drowsy_mean() const noexcept { return drowsy_mean_; }

private:
    bool trained_ = false;
    double awake_mean_ = 0.0;
    double drowsy_mean_ = 0.0;
    double threshold_ = 0.0;
};

/// Split a blink stream into consecutive windows of `window_s` and return
/// each window's blink rate in blinks/minute. Windows are counted over
/// [0, duration_s); a trailing partial window shorter than half the
/// window length is dropped. Only blinks with measured duration >=
/// `min_duration_s` are counted (0 counts everything).
///
/// Counting only *long* blinks implements the paper's physiological
/// observation directly: drowsy closures exceed 400 ms while alert blinks
/// stay under it, so the long-blink rate separates the states far more
/// robustly than the raw rate when detection noise is present. (LEVD
/// measures durations between the surrounding extrema, which adds
/// ~0.3 s of spread — hence the 0.75 s default rather than 0.4 s.)
/// `min_strength` additionally requires each counted blink's detection
/// confidence (magnitude over threshold) to reach the given value.
std::vector<double> window_blink_rates(std::span<const DetectedBlink> blinks,
                                       Seconds duration_s,
                                       Seconds window_s = 60.0,
                                       Seconds min_duration_s = 0.0,
                                       double min_strength = 0.0);

}  // namespace blinkradar::core
