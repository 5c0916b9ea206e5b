#include "vehicle/vibration.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "dsp/fir.hpp"
#include "dsp/resample.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::vehicle {

VibrationModel::VibrationModel(RoadVibrationSpec spec, Seconds duration_s,
                               double sample_rate_hz, Rng rng)
    : spec_(spec), sample_rate_hz_(sample_rate_hz) {
    BR_EXPECTS(duration_s > 0.0);
    BR_EXPECTS(sample_rate_hz > 0.0);
    BR_EXPECTS(spec.continuous_rms_m >= 0.0);

    const std::size_t n =
        static_cast<std::size_t>(duration_s * sample_rate_hz) + 2;
    trajectory_.assign(n, 0.0);

    // Broadband component: white Gaussian noise low-passed to the road's
    // vibration bandwidth, then rescaled to the specified RMS.
    if (spec.continuous_rms_m > 0.0) {
        dsp::RealSignal white(n);
        for (std::size_t i = 0; i < n; ++i) white[i] = rng.normal(0.0, 1.0);
        const double nyquist = sample_rate_hz / 2.0;
        const double cutoff = std::min(spec.vibration_bw_hz, 0.9 * nyquist);
        const auto lpf =
            dsp::FirFilter::low_pass(/*order=*/32, cutoff, sample_rate_hz);
        dsp::RealSignal shaped = lpf.filtfilt(white);
        const double current_rms = std::sqrt(dsp::variance(shaped));
        const double gain =
            current_rms > 0.0 ? spec.continuous_rms_m / current_rms : 0.0;
        for (std::size_t i = 0; i < n; ++i)
            trajectory_[i] += shaped[i] * gain;
    }

    // Discrete bumps: damped half-sine transients at Poisson times.
    if (spec.bump_rate_per_min > 0.0) {
        const double mean_gap_s = 60.0 / spec.bump_rate_per_min;
        Seconds t = rng.exponential(mean_gap_s);
        while (t < duration_s) {
            const double amp =
                spec.bump_amplitude_m * rng.uniform(0.5, 1.5) *
                (rng.bernoulli(0.5) ? 1.0 : -1.0);
            const Seconds bump_len = rng.uniform(0.15, 0.4);
            const std::size_t start =
                static_cast<std::size_t>(t * sample_rate_hz);
            const std::size_t len = static_cast<std::size_t>(
                bump_len * sample_rate_hz) + 1;
            for (std::size_t k = 0; k < len && start + k < n; ++k) {
                const double u = static_cast<double>(k) /
                                 static_cast<double>(len);
                trajectory_[start + k] +=
                    amp * std::sin(constants::kPi * u) *
                    std::exp(-2.0 * u);
            }
            t += bump_len + rng.exponential(mean_gap_s);
        }
    }

    // Maneuver sway: slow pseudo-sinusoid with random phase drift.
    if (spec.sway_amplitude_m > 0.0 && spec.sway_rate_hz > 0.0) {
        double phase = rng.uniform(0.0, constants::kTwoPi);
        for (std::size_t i = 0; i < n; ++i) {
            trajectory_[i] += spec.sway_amplitude_m * std::sin(phase);
            const double jitter = 1.0 + rng.normal(0.0, 0.1);
            phase += constants::kTwoPi * spec.sway_rate_hz * jitter /
                     sample_rate_hz;
        }
    }
}

Meters VibrationModel::displacement(Seconds t) const {
    return dsp::interp_at(trajectory_, t * sample_rate_hz_);
}

Meters VibrationModel::rms() const {
    return std::sqrt(dsp::variance(trajectory_));
}

}  // namespace blinkradar::vehicle
