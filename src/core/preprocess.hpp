// RF signal preprocessing (paper Section IV-B1).
//
// A cascading filter — low-pass FIR (order 26, Hamming window) followed by
// a smoothing (moving-average) filter — applied along the fast-time axis
// of each frame to raise SNR before any feature extraction. The Gaussian
// range point-spread function of the pulse spans several bins, so
// low-passing fast time suppresses per-bin thermal noise without eroding
// the range structure.
#pragma once

#include "core/pipeline_config.hpp"
#include "dsp/fir.hpp"
#include "obs/kernel_timers.hpp"
#include "radar/frame.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

/// Per-frame noise-reduction stage. Logically stateless (the output
/// depends only on the input frame), but it reuses internal scratch
/// buffers across calls so a warmed-up instance performs zero heap
/// allocations per frame — therefore one instance must not be shared
/// between threads (each pipeline owns its own).
class Preprocessor {
public:
    explicit Preprocessor(const PipelineConfig& config);

    /// Apply the cascading filter to one frame (returns a new frame; the
    /// FIR group delay is compensated so range bins stay calibrated).
    radar::RadarFrame apply(const radar::RadarFrame& frame) const;

    /// Allocation-free variant: writes into `out`, reusing its capacity.
    /// `out` must not be the input frame.
    void apply_into(const radar::RadarFrame& frame,
                    radar::RadarFrame& out) const;

    /// Structure-of-arrays variant for the vector frame path: same cascade
    /// (FIR -> group-delay alignment -> smoothing) on I/Q planes through
    /// the active SIMD kernels; component-wise bit-identical to
    /// apply_into(). `timers` (optional) receives per-kernel latencies.
    void apply_soa(const radar::RadarFrame& frame, dsp::IqPlanes& out,
                   const obs::KernelTimers* timers = nullptr) const;

    const dsp::FirFilter& fir() const noexcept { return fir_; }
    std::size_t smooth_window() const noexcept { return smooth_window_; }

    /// Snapshot hooks (section "PREP"). The stage is logically stateless
    /// (the scratch buffers carry no cross-frame information), so the
    /// section is empty in v1 — it exists so every pipeline stage speaks
    /// the same save/restore protocol and the format has a place to put
    /// preprocessor state if a future version becomes stateful.
    void save_state(state::StateWriter& writer) const;
    void restore_state(state::StateReader& reader);

private:
    dsp::FirFilter fir_;
    std::size_t smooth_window_;

    // Scratch reused across frames (see class comment re: thread safety).
    mutable dsp::ComplexSignal filtered_;
    mutable dsp::ComplexSignal aligned_;
    mutable dsp::ComplexSignal prefix_;
    mutable dsp::IqPlanes in_planes_;
    mutable dsp::IqPlanes filtered_planes_;
    mutable dsp::IqPlanes aligned_planes_;
    mutable dsp::IqPlanes prefix_planes_;
};

}  // namespace blinkradar::core
