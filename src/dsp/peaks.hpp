// Local-maximum detection, used by the range-profile bench (Fig. 6) to
// pick the reflector peaks of a power profile.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace blinkradar::dsp {

/// Find local maxima: samples strictly greater than both neighbours (plateaus
/// report their first sample). `min_separation` suppresses maxima closer than
/// that many samples to a previously accepted, larger maximum.
std::vector<std::size_t> find_local_maxima(std::span<const double> signal,
                                           std::size_t min_separation = 1);

}  // namespace blinkradar::dsp
