#include "dsp/resample.hpp"

#include <cstddef>

#include "common/contracts.hpp"

namespace blinkradar::dsp {

double interp_at(std::span<const double> input, double index) {
    BR_EXPECTS(!input.empty());
    if (index <= 0.0) return input.front();
    const double max_idx = static_cast<double>(input.size() - 1);
    if (index >= max_idx) return input.back();
    const std::size_t lo = static_cast<std::size_t>(index);
    const double frac = index - static_cast<double>(lo);
    return input[lo] * (1.0 - frac) + input[lo + 1] * frac;
}

}  // namespace blinkradar::dsp
