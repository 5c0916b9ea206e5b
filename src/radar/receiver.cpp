#include "radar/receiver.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "dsp/fir.hpp"

namespace blinkradar::radar {

Receiver::Receiver(const RadarConfig& config, Hertz sample_rate_hz)
    : config_(config),
      sample_rate_(sample_rate_hz),
      pulse_(config.tx_amplitude, config.bandwidth_hz, config.carrier_hz) {
    config_.validate();
    BR_EXPECTS(sample_rate_hz >
               2.0 * (config.carrier_hz + config.bandwidth_hz / 2.0));
}

dsp::ComplexSignal Receiver::downconvert(const dsp::RealSignal& rf) const {
    BR_EXPECTS(!rf.empty());
    dsp::ComplexSignal baseband(rf.size());
    for (std::size_t n = 0; n < rf.size(); ++n) {
        const double t = static_cast<double>(n) / sample_rate_;
        const double lo_phase = constants::kTwoPi * config_.carrier_hz * t;
        baseband[n] = dsp::Complex(rf[n] * std::cos(lo_phase),
                                   -rf[n] * std::sin(lo_phase));
    }
    // Image-rejecting low-pass: keep the baseband (|f| < ~B), reject the
    // 2 fc image produced by the mixing.
    const auto lpf = dsp::FirFilter::low_pass(
        /*order=*/64, /*cutoff_hz=*/config_.bandwidth_hz, sample_rate_);
    dsp::ComplexSignal filtered = lpf.filter(baseband);
    // Compensate the FIR group delay so path delays stay calibrated.
    const std::size_t gd =
        static_cast<std::size_t>(lpf.group_delay_samples());
    dsp::ComplexSignal out(filtered.size(), dsp::Complex(0.0, 0.0));
    for (std::size_t n = 0; n + gd < filtered.size(); ++n)
        out[n] = filtered[n + gd];
    return out;
}

dsp::ComplexSignal Receiver::range_profile(const dsp::RealSignal& rf) const {
    const dsp::ComplexSignal baseband = downconvert(rf);

    // Matched filter: correlate with the (real) baseband pulse template.
    const dsp::RealSignal tmpl = pulse_.sample_baseband(sample_rate_);
    double tmpl_energy = 0.0;
    for (const double v : tmpl) tmpl_energy += v * v;
    BR_ASSERT(tmpl_energy > 0.0);

    const std::size_t n_bins = config_.n_bins();
    dsp::ComplexSignal profile(n_bins, dsp::Complex(0.0, 0.0));
    // A path of delay tau shifts the baseband pulse to start at sample
    // tau * fs; correlating the template from that origin aligns the two
    // pulse centres and peaks exactly at the path's bin.
    for (std::size_t b = 0; b < n_bins; ++b) {
        const Meters r = static_cast<double>(b) * config_.bin_spacing_m;
        const Seconds tau = 2.0 * r / constants::kSpeedOfLight;
        const double start = tau * sample_rate_;
        dsp::Complex acc(0.0, 0.0);
        for (std::size_t k = 0; k < tmpl.size(); ++k) {
            const double idx = start + static_cast<double>(k);
            if (idx < 0.0 ||
                idx >= static_cast<double>(baseband.size() - 1))
                continue;
            const std::size_t lo = static_cast<std::size_t>(idx);
            const double frac = idx - static_cast<double>(lo);
            const dsp::Complex v =
                baseband[lo] * (1.0 - frac) + baseband[lo + 1] * frac;
            acc += v * tmpl[k];
        }
        // Normalise so a unit-gain path yields amplitude ~0.5 (the mixing
        // loss), independent of sample rate.
        profile[b] = acc / tmpl_energy;
    }
    return profile;
}

}  // namespace blinkradar::radar
