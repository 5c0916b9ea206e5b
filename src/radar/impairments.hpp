// Deterministic sensor-fault injection (impairment modeling).
//
// Real windshield deployments never deliver the simulator's perfect
// 40 ms cadence: frames drop on the host bus, timestamps jitter, the ADC
// saturates under sun glare, range bins die, the front-end gain drifts
// with temperature, and co-channel radios raise wideband bursts. The
// FaultInjector wraps any frame source (a FrameSimulator or a recorded
// FrameSeries) and applies each of these impairments at an independently
// configurable rate.
//
// Determinism contract: every fault type owns a forked RNG stream, and
// each stream draws a fixed number of values per *input* frame regardless
// of what the other faults decided. Consequently (a) the same config and
// seed reproduce the exact same fault schedule, and (b) changing one
// fault's rate never perturbs when any *other* fault fires — e.g. the
// jittered timestamps of the frames that survive a frame-drop schedule
// are the same values those frames carry with dropping disabled.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"
#include "radar/frame.hpp"

namespace blinkradar::radar {

class FrameSimulator;

/// Per-fault rates; everything defaults to off (bitwise pass-through).
struct FaultInjectorConfig {
    /// Probability a frame is lost entirely (host bus / DMA overrun).
    double drop_rate = 0.0;
    /// Probability a frame is delivered twice with the same timestamp.
    double duplicate_rate = 0.0;
    /// Gaussian std of the timestamp error added per frame [s].
    Seconds timestamp_jitter_std_s = 0.0;
    /// Probability a frame's I/Q components clip at the ADC rail.
    double saturation_rate = 0.0;
    /// The rail: components are clamped to +-saturation_level.
    double saturation_level = 0.02;
    /// Range bins that permanently read (0, 0) (dead LNA taps). The bins
    /// are chosen once, uniformly, from the bins stream.
    std::size_t dead_bin_count = 0;
    /// Range bins frozen at their first-frame value (stuck ADC words).
    std::size_t stuck_bin_count = 0;
    /// Peak fractional excursion of a slow sinusoidal gain drift
    /// (thermal); 0.1 means the gain wanders between 0.9x and 1.1x.
    double gain_drift_amplitude = 0.0;
    Seconds gain_drift_period_s = 60.0;
    /// Probability per frame that a wideband interference burst starts.
    double interference_rate = 0.0;
    /// Extra per-bin complex-noise std during a burst.
    double interference_sigma = 0.05;
    Seconds interference_duration_s = 0.5;
    /// Probability a frame has a few samples corrupted to NaN/Inf
    /// (bit flips on the transport).
    double nan_rate = 0.0;
    /// Probability a frame arrives short (partial DMA transfer).
    double truncate_rate = 0.0;

    /// True when any impairment can fire.
    bool any_active() const noexcept;
    /// Throws ContractViolation on rates outside [0, 1] etc.
    void validate() const;
};

/// What the injector actually did (per-fault event counters).
struct FaultStats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t saturated = 0;
    std::uint64_t nan_corrupted = 0;
    std::uint64_t truncated = 0;
    std::uint64_t interference_frames = 0;
    std::uint64_t interference_bursts = 0;
};

/// Streaming, seed-deterministic fault injector over radar frames.
class FaultInjector {
public:
    FaultInjector(FaultInjectorConfig config, std::uint64_t seed);

    /// Impair one clean frame: appends 0 (dropped), 1, or 2 (duplicated)
    /// frames to `out`.
    void apply(const RadarFrame& clean, FrameSeries& out);

    /// Impair a whole recorded series.
    FrameSeries apply(const FrameSeries& clean);

    const FaultStats& stats() const noexcept { return stats_; }
    const FaultInjectorConfig& config() const noexcept { return config_; }

    /// The bins chosen as dead/stuck (fixed after the first frame).
    const std::vector<std::size_t>& dead_bins() const noexcept {
        return dead_bins_;
    }
    const std::vector<std::size_t>& stuck_bins() const noexcept {
        return stuck_bins_;
    }

private:
    void choose_bins(const RadarFrame& first);
    void impair_in_place(RadarFrame& frame, double jitter_s, bool saturate,
                         bool nan_hit, bool trunc_hit, bool burst_start);

    FaultInjectorConfig config_;
    // One stream per fault type, forked from the master seed in a fixed
    // order (see the determinism contract in the header comment).
    Rng drop_rng_;
    Rng dup_rng_;
    Rng jitter_rng_;
    Rng sat_rng_;
    Rng bins_rng_;
    Rng drift_rng_;
    Rng interference_rng_;
    Rng nan_rng_;
    Rng trunc_rng_;

    double drift_phase_ = 0.0;
    bool bins_chosen_ = false;
    std::vector<std::size_t> dead_bins_;
    std::vector<std::size_t> stuck_bins_;
    dsp::ComplexSignal stuck_values_;  ///< first-frame values of stuck bins
    Seconds interference_until_ = -1.0;
    FaultStats stats_;
};

}  // namespace blinkradar::radar
