// All tunables of the BlinkRadar detection pipeline in one place.
//
// Defaults implement the paper's published choices (order-26 Hamming FIR,
// 5 sigma LEVD threshold, 50-chirp / 2 s cold start, Pratt arc fitting);
// the enum knobs select the ablation baselines evaluated in
// bench_ablation_detectors. Design constants that no caller tunes stay
// next to the code that uses them: the bin-selection fit cap is
// core::kTopCandidates (core/bin_selection.hpp).
#pragma once

#include <cstddef>
#include <string>

#include "common/units.hpp"

namespace blinkradar::core {

/// How the range bin carrying the blink signal is chosen.
enum class BinSelectionMode {
    /// The paper's method: rank bins by 2-D I/Q scatter variance (driven
    /// by the embedded respiration/BCG interference), then prefer bins
    /// whose trajectory is a clean thin arc.
    kArcVariance,
    /// Naive baseline: the strongest bin by mean power after background
    /// subtraction (the paper argues this fails because eye reflections
    /// are weaker than seats/steering-wheel returns).
    kMaxPower,
};

/// Which circle-fit algorithm estimates the viewing position.
enum class CircleFitMethod { kPratt, kKasa, kTaubin };

/// Which scalar waveform feeds the LEVD detector.
enum class WaveformMode {
    /// The paper's method: distance from the fitted viewing position,
    /// d(t) = |IQ(t) - centre| — insensitive to the phase rotations that
    /// head motion causes, sensitive to the amplitude change blinks cause.
    kArcDistance,
    /// Amplitude-only baseline: d(t) = |IQ(t)| (1-D amplitude).
    kAmplitude,
    /// Phase-only baseline: d(t) = unwrapped arg(IQ(t)) scaled by the
    /// running amplitude.
    kPhase,
};

/// Front-end frame validation and graceful degradation. The guard sits
/// between the sensor and the detection chain: it quarantines structurally
/// broken frames (wrong bin count, non-finite samples or timestamps,
/// out-of-order/duplicate timestamps), bridges short frame-drop gaps by
/// sample-hold using the real timestamps, and drives the
/// OK -> DEGRADED -> SIGNAL_LOST -> recovering health state machine.
/// With a clean input stream it is a pure pass-through: the pipeline's
/// output is bit-identical to running with the guard disabled.
struct FrameGuardConfig {
    bool enabled = true;
    /// A timestamp advance beyond this many nominal frame periods is a
    /// gap (dropped frames); shorter irregularities pass through.
    double gap_tolerance_periods = 1.6;
    /// Longest gap bridged by sample-hold; anything longer is treated as
    /// signal loss and recovered from via a warm restart.
    Seconds max_bridge_gap_s = 0.6;
    /// Largest fraction of a frame's samples repairable (non-finite ->
    /// sample-hold) before the whole frame is quarantined instead.
    double max_repair_fraction = 0.25;
    /// Rolling window for the fault-rate estimate behind DEGRADED.
    Seconds health_window_s = 4.0;
    /// Fault fraction (quarantined/repaired/bridged frames over the
    /// window) at which health degrades; recovers below half this rate.
    double degraded_fault_rate = 0.03;
    /// Consecutive quarantined frames before health drops to SIGNAL_LOST.
    std::size_t lost_after_quarantines = 12;
};

/// Pipeline configuration; defaults follow the paper.
struct PipelineConfig {
    /// Prefix for every metric this pipeline registers (e.g. "fleet.s3."),
    /// so two instrumented pipelines can share one MetricsRegistry.
    /// Observation-only: not serialized, no effect on results.
    std::string metrics_prefix{};

    // --- Noise reduction (Section IV-B1) ---
    std::size_t fir_order = 26;  ///< paper: order 26, Hamming window
    /// Fast-time FIR cutoff as a fraction of the fast-time sampling rate.
    double fir_cutoff_norm = 0.10;
    /// Fast-time smoothing window, in range bins. (The paper smooths over
    /// 50 samples at its much finer fast-time sampling; this is the same
    /// physical extent at the frame simulator's 1 cm bin spacing.)
    std::size_t smooth_window_bins = 5;

    // --- Background subtraction (Section IV-B2) ---
    /// Loopback-filter adaptation rate. Deliberately very slow (~80 s time
    /// constant at 25 fps): static clutter is captured instantly by the
    /// first-frame priming, and a slow filter avoids chasing the breathing
    /// driver (which would wobble the arc centre the detector relies on).
    /// Restarts re-prime it after posture changes.
    double background_alpha = 0.0005;

    // --- Bin selection (Section IV-D) ---
    BinSelectionMode selection_mode = BinSelectionMode::kArcVariance;
    Meters selection_min_range_m = 0.10;  ///< exclude direct leakage
    Meters selection_max_range_m = 1.00;  ///< exclude far clutter
    double min_variance_factor = 5.0;     ///< significance over median bin
    /// Slow-time frames per selection pass (the most recent ones).
    std::size_t selection_window_frames = 100;

    // --- Viewing position (Section IV-E) ---
    CircleFitMethod fit_method = CircleFitMethod::kPratt;
    std::size_t cold_start_frames = 50;      ///< paper: 50 chirps = 2 s
    /// Samples per arc fit once enough history exists. Longer windows see
    /// more of the respiration/BCG arc and estimate the centre far more
    /// accurately; the cold start still emits after 50 chirps.
    std::size_t fit_window_frames = 250;
    std::size_t update_interval_frames = 25; ///< refit cadence (1 s)
    std::size_t reselect_interval_frames = 100; ///< bin re-scoring cadence
    /// Exponential blending factor for viewing-position updates: the new
    /// centre is blended into the running one so refits never step the
    /// distance waveform (steps would masquerade as extrema to LEVD).
    double viewing_blend = 0.25;
    /// Hysteresis for bin switching: a challenger must beat the current
    /// bin's arc score by this factor before the pipeline hops bins.
    double reselect_hysteresis = 2.0;

    // --- LEVD blink detection (Section IV-E) ---
    WaveformMode waveform_mode = WaveformMode::kArcDistance;
    double threshold_sigma = 5.5;   ///< multiple of the no-blink sigma (paper: 5x)
    Seconds min_blink_s = 0.06;     ///< reject sub-physiological bumps
    Seconds max_blink_s = 1.5;      ///< reject slow posture artefacts
    /// Maximum min->max rise time: the eyelid closes within ~1/3 of the
    /// blink, so even a slow drowsy blink rises in well under 0.6 s;
    /// respiration-driven baseline bumps rise over 1-2 s and are rejected.
    Seconds max_rise_s = 0.6;
    Seconds refractory_s = 0.35;    ///< one event per bump
    Seconds noise_window_s = 4.0;   ///< robust noise estimation window

    // --- Restart on large body movement (Section IV-E) ---
    double movement_threshold_factor = 120.0; ///< x rolling median frame diff
    Seconds movement_median_window_s = 4.0;

    // --- Frame guard / graceful degradation (reproduction extension) ---
    FrameGuardConfig guard;
};

}  // namespace blinkradar::core
