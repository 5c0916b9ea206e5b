// The Hamming window of the paper's order-26 FIR design.
#pragma once

#include <cstddef>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

/// n-point symmetric Hamming window, 0.54 - 0.46 cos(2 pi i / (n-1))
/// (n >= 1; a single-point window is 1).
RealSignal hamming_window(std::size_t n);

}  // namespace blinkradar::dsp
