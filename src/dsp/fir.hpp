// Windowed-sinc FIR filter design and application.
//
// The paper's noise-reduction stage uses a low-pass FIR of order 26 with a
// Hamming window, cascaded with a 50-point smoothing filter (see
// core/preprocess.hpp). The receiver and the vibration model design their
// low-pass filters with the same designer.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

/// A linear-phase FIR filter described by its tap coefficients.
class FirFilter {
public:
    /// Construct directly from taps (must be non-empty).
    explicit FirFilter(RealSignal taps);

    /// Design a Hamming-windowed low-pass filter.
    /// \param order       filter order (taps = order + 1); must be >= 2.
    /// \param cutoff_hz   -6 dB cutoff frequency.
    /// \param sample_rate_hz sampling rate; cutoff must be < Nyquist.
    static FirFilter low_pass(std::size_t order, double cutoff_hz,
                              double sample_rate_hz);

    /// Causal filtering; output has the same length as the input (the
    /// first `order` samples contain the start-up transient).
    RealSignal filter(std::span<const double> input) const;

    /// Same, element-wise on a complex signal (taps are real).
    ComplexSignal filter(std::span<const Complex> input) const;

    /// Allocation-free variants for the per-frame hot path: `out` is
    /// resized to the input length (reusing its capacity) and must not
    /// alias the input. Results are bit-identical to filter().
    void filter_into(std::span<const double> input, RealSignal& out) const;
    void filter_into(std::span<const Complex> input, ComplexSignal& out) const;

    /// Structure-of-arrays variant for the vector frame path: filters both
    /// I/Q planes in one call through the active SIMD kernel table. `out`
    /// is resized to the input size and must not alias the input.
    /// Component-wise bit-identical to the complex filter_into().
    void filter_planes_into(const IqPlanes& input, IqPlanes& out) const;

    /// Zero-phase filtering: forward pass, reverse, forward pass, reverse.
    /// Doubles the magnitude response in dB but removes the group delay;
    /// used where waveform timing matters (blink event localisation).
    RealSignal filtfilt(std::span<const double> input) const;

    /// Group delay in samples (linear phase: (taps-1)/2).
    double group_delay_samples() const noexcept;

    const RealSignal& taps() const noexcept { return taps_; }
    std::size_t order() const noexcept { return taps_.size() - 1; }

private:
    RealSignal taps_;
};

}  // namespace blinkradar::dsp
