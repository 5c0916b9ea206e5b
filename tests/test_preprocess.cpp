#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "core/preprocess.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::core {
namespace {

radar::RadarFrame noisy_frame(double signal_amp, double noise_sigma,
                              std::size_t n_bins, std::size_t peak_bin,
                              Rng& rng) {
    radar::RadarFrame f;
    f.timestamp_s = 0.0;
    f.bins.assign(n_bins, dsp::Complex(0, 0));
    // A Gaussian range blob (sigma ~5 bins) like the pulse PSF produces.
    for (std::size_t b = 0; b < n_bins; ++b) {
        const double d = static_cast<double>(b) - static_cast<double>(peak_bin);
        f.bins[b] = dsp::Complex(signal_amp * std::exp(-d * d / 50.0), 0.0);
        f.bins[b] += dsp::Complex(rng.normal(0, noise_sigma),
                                  rng.normal(0, noise_sigma));
    }
    return f;
}

TEST(Preprocessor, ReducesNoiseFloor) {
    Rng rng(1);
    const Preprocessor pre{PipelineConfig{}};
    double raw_noise = 0.0, filtered_noise = 0.0;
    for (int i = 0; i < 20; ++i) {
        const radar::RadarFrame f = noisy_frame(1.0, 0.05, 151, 40, rng);
        const radar::RadarFrame g = pre.apply(f);
        // Noise measured far from the blob.
        for (std::size_t b = 90; b < 130; ++b) {
            raw_noise += std::norm(f.bins[b]);
            filtered_noise += std::norm(g.bins[b]);
        }
    }
    EXPECT_LT(filtered_noise, raw_noise / 4.0);
}

TEST(Preprocessor, PreservesSignalPeakLocationAndMostAmplitude) {
    Rng rng(2);
    const Preprocessor pre{PipelineConfig{}};
    const radar::RadarFrame f = noisy_frame(1.0, 0.0, 151, 40, rng);
    const radar::RadarFrame g = pre.apply(f);
    std::size_t peak = 0;
    for (std::size_t b = 0; b < g.bins.size(); ++b)
        if (std::abs(g.bins[b]) > std::abs(g.bins[peak])) peak = b;
    EXPECT_NEAR(static_cast<double>(peak), 40.0, 2.0);
    EXPECT_GT(std::abs(g.bins[peak]), 0.75);
}

TEST(Preprocessor, KeepsTimestamp) {
    Rng rng(3);
    const Preprocessor pre{PipelineConfig{}};
    radar::RadarFrame f = noisy_frame(1.0, 0.01, 151, 40, rng);
    f.timestamp_s = 12.34;
    EXPECT_DOUBLE_EQ(pre.apply(f).timestamp_s, 12.34);
}

TEST(Preprocessor, PhaseIsPreservedAtThePeak) {
    // The blink signature lives in I/Q phase; the fast-time filter must
    // not corrupt it where the signal is strong.
    const Preprocessor pre{PipelineConfig{}};
    radar::RadarFrame f;
    f.bins.assign(151, dsp::Complex(0, 0));
    const dsp::Complex rotor(std::cos(1.1), std::sin(1.1));
    for (std::size_t b = 0; b < 151; ++b) {
        const double d = static_cast<double>(b) - 40.0;
        f.bins[b] = rotor * std::exp(-d * d / 50.0);
    }
    const radar::RadarFrame g = pre.apply(f);
    EXPECT_NEAR(std::arg(g.bins[40]), 1.1, 0.02);
}

TEST(Preprocessor, ConfigurableFirOrderMatters) {
    PipelineConfig strong;
    strong.fir_order = 48;
    strong.fir_cutoff_norm = 0.05;
    strong.smooth_window_bins = 9;
    PipelineConfig weak;
    weak.fir_order = 4;
    weak.fir_cutoff_norm = 0.4;
    weak.smooth_window_bins = 1;
    Rng rng(5);
    const radar::RadarFrame f = noisy_frame(0.0, 0.05, 151, 40, rng);
    const radar::RadarFrame gs = Preprocessor(strong).apply(f);
    const radar::RadarFrame gw = Preprocessor(weak).apply(f);
    double es = 0.0, ew = 0.0;
    for (std::size_t b = 30; b < 120; ++b) {
        es += std::norm(gs.bins[b]);
        ew += std::norm(gw.bins[b]);
    }
    EXPECT_LT(es, ew);
}

TEST(Preprocessor, HoldsTrailingBinsAfterGroupDelayAlignment) {
    // Compensating the FIR group delay shifts the filtered profile left by
    // fir_order/2 bins. The trailing bins have no filtered samples to take;
    // they must hold the nearest (last) filtered value rather than snap to
    // zero, which would fabricate a sharp falling edge at the far end of
    // every frame.
    PipelineConfig cfg;
    cfg.smooth_window_bins = 1;  // isolate the delay alignment
    const Preprocessor pre{cfg};
    radar::RadarFrame f;
    f.bins.assign(151, dsp::Complex(1.0, 0.5));
    const radar::RadarFrame g = pre.apply(f);
    ASSERT_EQ(g.bins.size(), f.bins.size());
    const std::size_t gd = cfg.fir_order / 2;
    ASSERT_GT(gd, 0u);
    const dsp::Complex edge = g.bins[g.bins.size() - gd - 1];
    EXPECT_GT(std::abs(edge), 0.5);  // constant input: edge is far from 0
    for (std::size_t b = g.bins.size() - gd; b < g.bins.size(); ++b) {
        EXPECT_EQ(g.bins[b], edge) << "bin " << b;
    }
}

TEST(Preprocessor, ApplyIntoMatchesApply) {
    Rng rng(6);
    const Preprocessor pre{PipelineConfig{}};
    const radar::RadarFrame f = noisy_frame(1.0, 0.03, 151, 40, rng);
    const radar::RadarFrame copy = pre.apply(f);
    radar::RadarFrame out;
    pre.apply_into(f, out);
    ASSERT_EQ(out.bins.size(), copy.bins.size());
    EXPECT_DOUBLE_EQ(out.timestamp_s, copy.timestamp_s);
    for (std::size_t b = 0; b < out.bins.size(); ++b)
        EXPECT_EQ(out.bins[b], copy.bins[b]);
}

TEST(Preprocessor, RejectsEmptyFrame) {
    const Preprocessor pre{PipelineConfig{}};
    radar::RadarFrame empty;
    EXPECT_THROW(pre.apply(empty), blinkradar::ContractViolation);
}

TEST(Preprocessor, RejectsBadCutoff) {
    PipelineConfig bad;
    bad.fir_cutoff_norm = 0.7;
    EXPECT_THROW(Preprocessor{bad}, blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::core
