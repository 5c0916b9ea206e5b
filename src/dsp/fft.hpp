// Radix-2 iterative FFT and helpers.
//
// Implemented from scratch (no external dependency). The Fig. 5 bench and
// signal_explorer plot its real-signal magnitude spectrum; the perf bench
// times fft_inplace.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

/// True iff n is a power of two (and non-zero).
bool is_power_of_two(std::size_t n) noexcept;

/// Smallest power of two >= n (n must be >= 1).
std::size_t next_power_of_two(std::size_t n);

/// In-place forward FFT. `data.size()` must be a power of two.
void fft_inplace(std::span<Complex> data);

/// Magnitude spectrum |X[k]| of a real signal (zero-padded to pow2),
/// returning only the first N/2+1 (non-negative frequency) bins.
RealSignal magnitude_spectrum_real(std::span<const double> input);

}  // namespace blinkradar::dsp
