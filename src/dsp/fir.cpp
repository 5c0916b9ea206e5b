#include "dsp/fir.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "dsp/frame_kernels.hpp"
#include "dsp/window.hpp"

namespace blinkradar::dsp {

namespace {

double sinc(double x) {
    if (std::abs(x) < 1e-12) return 1.0;
    return std::sin(constants::kPi * x) / (constants::kPi * x);
}

// Ideal windowed-sinc low-pass taps with normalised cutoff fc in (0, 0.5).
RealSignal design_lowpass_taps(std::size_t order, double fc_norm) {
    const std::size_t n_taps = order + 1;
    const RealSignal w = hamming_window(n_taps);
    RealSignal taps(n_taps);
    const double mid = static_cast<double>(order) / 2.0;
    for (std::size_t i = 0; i < n_taps; ++i) {
        const double m = static_cast<double>(i) - mid;
        taps[i] = 2.0 * fc_norm * sinc(2.0 * fc_norm * m) * w[i];
    }
    // Normalise DC gain to exactly 1.
    double sum = 0.0;
    for (const double t : taps) sum += t;
    BR_ASSERT(sum > 0.0);
    for (double& t : taps) t /= sum;
    return taps;
}

}  // namespace

FirFilter::FirFilter(RealSignal taps) : taps_(std::move(taps)) {
    BR_EXPECTS(!taps_.empty());
}

FirFilter FirFilter::low_pass(std::size_t order, double cutoff_hz,
                              double sample_rate_hz) {
    BR_EXPECTS(order >= 2);
    BR_EXPECTS(sample_rate_hz > 0.0);
    BR_EXPECTS(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0);
    return FirFilter(design_lowpass_taps(order, cutoff_hz / sample_rate_hz));
}

RealSignal FirFilter::filter(std::span<const double> input) const {
    RealSignal out;
    filter_into(input, out);
    return out;
}

ComplexSignal FirFilter::filter(std::span<const Complex> input) const {
    ComplexSignal out;
    filter_into(input, out);
    return out;
}

void FirFilter::filter_into(std::span<const double> input,
                            RealSignal& out) const {
    BR_EXPECTS(input.empty() || input.data() != out.data());
    out.resize(input.size());
    const std::size_t n_taps = taps_.size();
    for (std::size_t n = 0; n < input.size(); ++n) {
        double acc = 0.0;
        const std::size_t k_max = std::min(n_taps - 1, n);
        for (std::size_t k = 0; k <= k_max; ++k) acc += taps_[k] * input[n - k];
        out[n] = acc;
    }
}

void FirFilter::filter_into(std::span<const Complex> input,
                            ComplexSignal& out) const {
    BR_EXPECTS(input.empty() || input.data() != out.data());
    out.resize(input.size());
    const std::size_t n_taps = taps_.size();
    for (std::size_t n = 0; n < input.size(); ++n) {
        Complex acc(0.0, 0.0);
        const std::size_t k_max = std::min(n_taps - 1, n);
        for (std::size_t k = 0; k <= k_max; ++k) acc += taps_[k] * input[n - k];
        out[n] = acc;
    }
}

void FirFilter::filter_planes_into(const IqPlanes& input, IqPlanes& out) const {
    BR_EXPECTS(input.empty() || input.i.data() != out.i.data());
    out.resize(input.size());
    active_kernels().fir2(input.i.data(), input.q.data(), input.size(),
                          taps_.data(), taps_.size(), out.i.data(),
                          out.q.data());
}

RealSignal FirFilter::filtfilt(std::span<const double> input) const {
    RealSignal forward = filter(input);
    std::reverse(forward.begin(), forward.end());
    RealSignal backward = filter(forward);
    std::reverse(backward.begin(), backward.end());
    return backward;
}

double FirFilter::group_delay_samples() const noexcept {
    return static_cast<double>(taps_.size() - 1) / 2.0;
}

}  // namespace blinkradar::dsp
