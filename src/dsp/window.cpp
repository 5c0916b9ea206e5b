#include "dsp/window.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace blinkradar::dsp {

RealSignal hamming_window(std::size_t n) {
    BR_EXPECTS(n >= 1);
    RealSignal w(n, 1.0);
    if (n == 1) return w;
    const double denom = static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i) / denom;  // in [0, 1]
        w[i] = 0.54 - 0.46 * std::cos(constants::kTwoPi * x);
    }
    return w;
}

}  // namespace blinkradar::dsp
