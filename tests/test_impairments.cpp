#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "radar/config.hpp"
#include "radar/impairments.hpp"
#include "radar/simulator.hpp"

namespace blinkradar::radar {
namespace {

/// A deterministic clean series: smooth synthetic bins, perfect cadence.
FrameSeries clean_series(std::size_t n_frames, std::size_t n_bins = 64,
                         Seconds period = 0.040) {
    FrameSeries series;
    series.reserve(n_frames);
    for (std::size_t i = 0; i < n_frames; ++i) {
        RadarFrame f;
        f.timestamp_s = static_cast<double>(i) * period;
        f.bins.reserve(n_bins);
        for (std::size_t b = 0; b < n_bins; ++b)
            f.bins.emplace_back(std::sin(0.1 * static_cast<double>(b + i)),
                                std::cos(0.07 * static_cast<double>(b)));
        series.push_back(std::move(f));
    }
    return series;
}

bool frames_equal(const RadarFrame& a, const RadarFrame& b) {
    return a.timestamp_s == b.timestamp_s && a.bins == b.bins;
}

TEST(FaultInjector, ZeroRatesPassThroughBitwise) {
    const FrameSeries clean = clean_series(200);
    FaultInjector injector({}, 42);
    EXPECT_FALSE(injector.config().any_active());
    const FrameSeries out = injector.apply(clean);
    ASSERT_EQ(out.size(), clean.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(frames_equal(out[i], clean[i])) << "frame " << i;
    EXPECT_EQ(injector.stats().frames_in, clean.size());
    EXPECT_EQ(injector.stats().frames_out, clean.size());
}

TEST(FaultInjector, SameSeedReproducesTheExactSchedule) {
    FaultInjectorConfig config;
    config.drop_rate = 0.1;
    config.duplicate_rate = 0.05;
    config.timestamp_jitter_std_s = 0.01;
    config.saturation_rate = 0.1;
    config.nan_rate = 0.05;
    config.truncate_rate = 0.05;
    config.interference_rate = 0.02;
    config.gain_drift_amplitude = 0.2;
    config.dead_bin_count = 3;
    config.stuck_bin_count = 2;
    const FrameSeries clean = clean_series(400);
    FaultInjector a(config, 7);
    FaultInjector b(config, 7);
    const FrameSeries out_a = a.apply(clean);
    const FrameSeries out_b = b.apply(clean);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
        EXPECT_EQ(out_a[i].timestamp_s, out_b[i].timestamp_s);
        ASSERT_EQ(out_a[i].bins.size(), out_b[i].bins.size());
        for (std::size_t bin = 0; bin < out_a[i].bins.size(); ++bin) {
            const dsp::Complex& sa = out_a[i].bins[bin];
            const dsp::Complex& sb = out_b[i].bins[bin];
            // NaN-tolerant bitwise comparison.
            EXPECT_TRUE(std::memcmp(&sa, &sb, sizeof(sa)) == 0)
                << "frame " << i << " bin " << bin;
        }
    }
    EXPECT_EQ(a.stats().dropped, b.stats().dropped);
    EXPECT_EQ(a.dead_bins(), b.dead_bins());
}

TEST(FaultInjector, FaultStreamsAreIndependent) {
    // The jitter schedule must not change when frame dropping is turned
    // on: every timestamp that survives the drops must also appear in the
    // jitter-only output (same frame -> same jitter draw).
    FaultInjectorConfig jitter_only;
    jitter_only.timestamp_jitter_std_s = 0.008;
    FaultInjectorConfig jitter_and_drop = jitter_only;
    jitter_and_drop.drop_rate = 0.3;

    const FrameSeries clean = clean_series(300);
    const FrameSeries ref = FaultInjector(jitter_only, 99).apply(clean);
    const FrameSeries dropped =
        FaultInjector(jitter_and_drop, 99).apply(clean);
    ASSERT_EQ(ref.size(), clean.size());
    EXPECT_LT(dropped.size(), clean.size());

    std::set<double> ref_timestamps;
    for (const RadarFrame& f : ref) ref_timestamps.insert(f.timestamp_s);
    for (const RadarFrame& f : dropped)
        EXPECT_TRUE(ref_timestamps.count(f.timestamp_s) == 1)
            << "timestamp " << f.timestamp_s
            << " not in the jitter-only schedule";
}

TEST(FaultInjector, DropRateIsApproximatelyRespected) {
    FaultInjectorConfig config;
    config.drop_rate = 0.2;
    const FrameSeries clean = clean_series(2000);
    FaultInjector injector(config, 5);
    const FrameSeries out = injector.apply(clean);
    const double measured = static_cast<double>(injector.stats().dropped) /
                            static_cast<double>(clean.size());
    EXPECT_NEAR(measured, 0.2, 0.04);
    EXPECT_EQ(out.size() + injector.stats().dropped, clean.size());
}

TEST(FaultInjector, DeadBinsReadZeroAndStuckBinsFreeze) {
    FaultInjectorConfig config;
    config.dead_bin_count = 4;
    config.stuck_bin_count = 3;
    const FrameSeries clean = clean_series(50);
    FaultInjector injector(config, 11);
    const FrameSeries out = injector.apply(clean);
    ASSERT_EQ(injector.dead_bins().size(), 4u);
    ASSERT_EQ(injector.stuck_bins().size(), 3u);
    for (const RadarFrame& f : out) {
        for (const std::size_t bin : injector.dead_bins())
            EXPECT_EQ(f.bins[bin], dsp::Complex(0.0, 0.0));
        for (const std::size_t bin : injector.stuck_bins())
            EXPECT_EQ(f.bins[bin], out.front().bins[bin]);
    }
}

TEST(FaultInjector, NanCorruptionProducesNonFiniteSamples) {
    FaultInjectorConfig config;
    config.nan_rate = 0.5;
    const FrameSeries clean = clean_series(100);
    FaultInjector injector(config, 3);
    const FrameSeries out = injector.apply(clean);
    std::size_t frames_with_bad = 0;
    for (const RadarFrame& f : out) {
        bool bad = false;
        for (const dsp::Complex& s : f.bins)
            bad |= !std::isfinite(s.real()) || !std::isfinite(s.imag());
        frames_with_bad += bad ? 1 : 0;
    }
    EXPECT_GT(frames_with_bad, 25u);
    EXPECT_EQ(frames_with_bad, injector.stats().nan_corrupted);
}

TEST(FaultInjector, TruncationShortensFrames) {
    FaultInjectorConfig config;
    config.truncate_rate = 0.3;
    const FrameSeries clean = clean_series(200);
    FaultInjector injector(config, 13);
    const FrameSeries out = injector.apply(clean);
    std::size_t short_frames = 0;
    for (const RadarFrame& f : out) {
        EXPECT_GE(f.bins.size(), 1u);
        short_frames += f.bins.size() < clean.front().bins.size() ? 1 : 0;
    }
    EXPECT_EQ(short_frames, injector.stats().truncated);
    EXPECT_GT(short_frames, 30u);
}

TEST(FaultInjector, DuplicatesShareTheTimestamp) {
    FaultInjectorConfig config;
    config.duplicate_rate = 0.25;
    const FrameSeries clean = clean_series(200);
    FaultInjector injector(config, 17);
    const FrameSeries out = injector.apply(clean);
    EXPECT_EQ(out.size(), clean.size() + injector.stats().duplicated);
    EXPECT_GT(injector.stats().duplicated, 20u);
    std::size_t pairs = 0;
    for (std::size_t i = 1; i < out.size(); ++i)
        if (out[i].timestamp_s == out[i - 1].timestamp_s &&
            out[i].bins == out[i - 1].bins)
            ++pairs;
    EXPECT_EQ(pairs, injector.stats().duplicated);
}

TEST(FaultInjector, SaturationClampsToTheRail) {
    FaultInjectorConfig config;
    config.saturation_rate = 1.0;
    config.saturation_level = 0.1;
    const FrameSeries clean = clean_series(10);
    FaultInjector injector(config, 23);
    const FrameSeries out = injector.apply(clean);
    for (const RadarFrame& f : out)
        for (const dsp::Complex& s : f.bins) {
            EXPECT_LE(std::abs(s.real()), 0.1 + 1e-12);
            EXPECT_LE(std::abs(s.imag()), 0.1 + 1e-12);
        }
}

}  // namespace
}  // namespace blinkradar::radar
