// Linear interpolation of a uniformly sampled signal.
#pragma once

#include <span>

namespace blinkradar::dsp {

/// Evaluate a uniformly sampled signal at an arbitrary fractional index by
/// linear interpolation; indices outside [0, n-1] clamp to the endpoints.
double interp_at(std::span<const double> input, double index);

}  // namespace blinkradar::dsp
