#include "dsp/smoothing.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "dsp/frame_kernels.hpp"

namespace blinkradar::dsp {

// Prefix sums give O(n) evaluation independent of window size. Complex
// addition and complex/double division act component-wise, so the result
// is bit-identical to smoothing I and Q separately.
void moving_average_into(std::span<const Complex> input, std::size_t window,
                         ComplexSignal& out, ComplexSignal& prefix) {
    BR_EXPECTS(window >= 1);
    BR_EXPECTS(input.empty() || (input.data() != out.data() &&
                                 input.data() != prefix.data()));
    const std::size_t half = window / 2;
    out.resize(input.size());
    prefix.resize(input.size() + 1);
    prefix[0] = Complex{};
    for (std::size_t i = 0; i < input.size(); ++i)
        prefix[i + 1] = prefix[i] + input[i];
    for (std::size_t i = 0; i < input.size(); ++i) {
        const std::size_t lo = i >= half ? i - half : 0;
        const std::size_t hi = std::min(i + half, input.size() - 1);
        out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
    }
}

void moving_average_planes_into(const IqPlanes& input, std::size_t window,
                                IqPlanes& out, IqPlanes& prefix) {
    BR_EXPECTS(window >= 1);
    BR_EXPECTS(input.empty() || (input.i.data() != out.i.data() &&
                                 input.i.data() != prefix.i.data()));
    const std::size_t n = input.size();
    out.resize(n);
    prefix.resize(n + 1);
    // The prefix sums are inherently serial; the complex prefix above adds
    // componentwise, so the per-plane sums are bit-identical to it.
    prefix.i[0] = 0.0;
    prefix.q[0] = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        prefix.i[j + 1] = prefix.i[j] + input.i[j];
        prefix.q[j + 1] = prefix.q[j] + input.q[j];
    }
    active_kernels().smooth_from_prefix(prefix.i.data(), prefix.q.data(), n,
                                        window / 2, out.i.data(),
                                        out.q.data());
}

}  // namespace blinkradar::dsp
