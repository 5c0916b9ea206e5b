// Smoothing filters for the slow-time signal path.
//
// The paper cascades the order-26 FIR with a 50-point smoothing filter
// (moving average).
#pragma once

#include <cstddef>
#include <span>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

/// Centred moving average with the given window (odd or even; even windows
/// are treated as window+1 to stay centred), applied independently to I
/// and Q. Edges use the available samples only (shrinking window), so the
/// output length equals the input length. `out` and the caller-owned
/// `prefix` scratch are resized (reusing capacity); neither may alias the
/// input.
void moving_average_into(std::span<const Complex> input, std::size_t window,
                         ComplexSignal& out, ComplexSignal& prefix);

/// Structure-of-arrays variant for the vector frame path: smooths both
/// I/Q planes in one call (prefix sums per plane, interior samples through
/// the active SIMD kernel table). Component-wise bit-identical to the
/// complex moving_average_into().
void moving_average_planes_into(const IqPlanes& input, std::size_t window,
                                IqPlanes& out, IqPlanes& prefix);

}  // namespace blinkradar::dsp
