#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/bin_selection.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::core {
namespace {

radar::RadarConfig config() { return radar::RadarConfig{}; }

/// Build a synthetic slow-time window: an "eye" bin tracing a thin arc, a
/// "chest" bin doing full rotations with radius wobble, and noise
/// elsewhere.
std::vector<dsp::ComplexSignal> make_window(std::size_t frames,
                                            std::size_t n_bins,
                                            std::size_t eye_bin,
                                            std::size_t chest_bin,
                                            double noise, Rng& rng) {
    std::vector<dsp::ComplexSignal> window(frames,
                                           dsp::ComplexSignal(n_bins));
    for (std::size_t t = 0; t < frames; ++t) {
        for (std::size_t b = 0; b < n_bins; ++b)
            window[t][b] = dsp::Complex(rng.normal(0, noise),
                                        rng.normal(0, noise));
        // Eye/face: radius-1 arc sweeping 0.6 rad over the window.
        const double arc = 0.6 * static_cast<double>(t) /
                           static_cast<double>(frames);
        window[t][eye_bin] +=
            dsp::Complex(std::cos(arc), std::sin(arc));
        // Chest: three full turns with 10% radius wobble.
        const double rot = 3.0 * constants::kTwoPi *
                           static_cast<double>(t) /
                           static_cast<double>(frames);
        const double r = 0.6 * (1.0 + 0.1 * std::sin(5.0 * rot));
        window[t][chest_bin] +=
            dsp::Complex(r * std::cos(rot), r * std::sin(rot));
    }
    return window;
}

/// The window as the pipeline holds it: one I/Q-plane frame per slow-time
/// sample, viewed through frame pointers.
class PlaneWindow {
public:
    explicit PlaneWindow(const std::vector<dsp::ComplexSignal>& window) {
        frames_.resize(window.size());
        for (std::size_t t = 0; t < window.size(); ++t) {
            frames_[t].resize(window[t].size());
            for (std::size_t b = 0; b < window[t].size(); ++b) {
                frames_[t].i[b] = window[t][b].real();
                frames_[t].q[b] = window[t][b].imag();
            }
        }
        for (const dsp::IqPlanes& f : frames_) ptrs_.push_back(&f);
    }
    PlaneWindow(const PlaneWindow&) = delete;
    PlaneWindow& operator=(const PlaneWindow&) = delete;

    SoaWindowView view() const { return ptrs_; }

private:
    std::vector<dsp::IqPlanes> frames_;
    std::vector<const dsp::IqPlanes*> ptrs_;
};

/// Batch per-bin 2-D scatter variance: each bin's slow-time column
/// through dsp::scatter_variance.
std::vector<double> batch_variances(
    const std::vector<dsp::ComplexSignal>& window) {
    const std::size_t n_bins = window.front().size();
    std::vector<double> variances(n_bins);
    dsp::ComplexSignal column(window.size());
    for (std::size_t b = 0; b < n_bins; ++b) {
        for (std::size_t t = 0; t < window.size(); ++t)
            column[t] = window[t][b];
        variances[b] = dsp::scatter_variance(column);
    }
    return variances;
}

/// Per-bin variances as the pipeline reads them: a RollingBinVariance fed
/// every frame of the window.
std::vector<double> rolling_variances(
    const std::vector<dsp::ComplexSignal>& window) {
    RollingBinVariance rolling(window.front().size());
    for (const dsp::ComplexSignal& f : window) rolling.push(f);
    std::vector<double> variances;
    rolling.variances_into(variances);
    return variances;
}

std::optional<BinSelection> select(const BinSelector& sel,
                                   const std::vector<dsp::ComplexSignal>& window,
                                   const std::vector<double>& variances) {
    const PlaneWindow planes(window);
    BinSelector::SelectScratch scratch;
    return sel.select_soa(planes.view(), variances, scratch);
}

std::optional<BinSelection> select(
    const BinSelector& sel, const std::vector<dsp::ComplexSignal>& window) {
    return select(sel, window, batch_variances(window));
}

std::optional<BinSelection> score_bin(
    const BinSelector& sel, const std::vector<dsp::ComplexSignal>& window,
    std::size_t bin) {
    const PlaneWindow planes(window);
    dsp::ComplexSignal column;
    return sel.score_bin_soa(planes.view(), bin, column);
}

TEST(BinSelector, PicksTheArcBinNotTheRotatingChest) {
    Rng rng(1);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    const auto choice = select(sel, window);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->bin, 40u);
    EXPECT_TRUE(choice->fit.ok);
}

TEST(BinSelector, MaxPowerBaselinePicksTheStrongestBin) {
    Rng rng(2);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    PipelineConfig pc;
    pc.selection_mode = BinSelectionMode::kMaxPower;
    const BinSelector sel(config(), pc);
    const auto choice = select(sel, window);
    ASSERT_TRUE(choice.has_value());
    // The eye arc (radius 1) carries more power than the chest (0.6).
    EXPECT_EQ(choice->bin, 40u);
}

TEST(BinSelector, NoSelectionOnPureNoise) {
    Rng rng(3);
    std::vector<dsp::ComplexSignal> window(60, dsp::ComplexSignal(151));
    for (auto& f : window)
        for (auto& v : f)
            v = dsp::Complex(rng.normal(0, 0.002), rng.normal(0, 0.002));
    const BinSelector sel(config(), PipelineConfig{});
    EXPECT_FALSE(select(sel, window).has_value());
}

TEST(BinSelector, RespectsRangeGate) {
    Rng rng(4);
    // Arc sits below the minimum search range: must not be selected.
    const auto window = make_window(100, 151, /*eye_bin=*/4, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    const auto choice = select(sel, window);
    // Either nothing, or not the gated-out bin.
    if (choice) {
        EXPECT_NE(choice->bin, 4u);
    }
}

TEST(BinSelector, BinVariancesPeakAtDynamicBins) {
    Rng rng(5);
    const auto window = make_window(80, 151, 40, 62, 0.001, rng);
    const auto variances = rolling_variances(window);
    ASSERT_EQ(variances.size(), 151u);
    EXPECT_GT(variances[40], 100.0 * variances[100]);
    EXPECT_GT(variances[62], 100.0 * variances[100]);
}

TEST(BinSelector, ScoreBinGatesRotations) {
    Rng rng(6);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    EXPECT_TRUE(score_bin(sel, window, 40).has_value());
    // The multi-turn chest bin fails the arc gate.
    EXPECT_FALSE(score_bin(sel, window, 62).has_value());
}

TEST(BinSelector, ScoreBinRejectsNoiseBin) {
    Rng rng(7);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    // A pure-noise bin: either the fit degenerates or the radius-
    // plausibility gate rejects it.
    EXPECT_FALSE(score_bin(sel, window, 100).has_value());
}

TEST(RollingBinVariance, MatchesBatchVariancesOverSlidingWindow) {
    // The incremental tracker must agree with the batch computation
    // (per-column dsp::scatter_variance) to 1e-9 at every step of a
    // sliding window with interleaved pushes and evictions.
    Rng rng(8);
    const std::size_t n_bins = 151;
    const std::size_t total_frames = 120;
    const std::size_t window_len = 40;
    const auto frames = make_window(total_frames, n_bins, 40, 62, 0.02, rng);

    RollingBinVariance rolling(n_bins);
    std::vector<double> got;
    for (std::size_t t = 0; t < total_frames; ++t) {
        if (rolling.count() == window_len) rolling.evict(frames[t - window_len]);
        rolling.push(frames[t]);
        ASSERT_EQ(rolling.count(), std::min(t + 1, window_len));
        if (t + 1 < 8) continue;  // batch path needs a few frames
        const std::size_t first = t + 1 - rolling.count();
        const std::vector<dsp::ComplexSignal> window(
            frames.begin() + static_cast<std::ptrdiff_t>(first),
            frames.begin() + static_cast<std::ptrdiff_t>(t + 1));
        const auto batch = batch_variances(window);
        rolling.variances_into(got);
        ASSERT_EQ(got.size(), batch.size());
        for (std::size_t b = 0; b < n_bins; ++b) {
            EXPECT_NEAR(got[b], batch[b], 1e-9)
                << "frame " << t << ", bin " << b;
            EXPECT_NEAR(rolling.variance(b), batch[b], 1e-9);
        }
    }
}

TEST(RollingBinVariance, ClearKeepsLayoutAndZeroesState) {
    RollingBinVariance rolling(8);
    dsp::ComplexSignal frame(8, dsp::Complex(1.0, -2.0));
    rolling.push(frame);
    rolling.push(frame);
    EXPECT_EQ(rolling.count(), 2u);
    rolling.clear();
    EXPECT_EQ(rolling.count(), 0u);
    EXPECT_EQ(rolling.n_bins(), 8u);
    EXPECT_EQ(rolling.variance(3), 0.0);
}

TEST(RollingBinVariance, SelectOnRollingVariancesMatchesBatchVariances) {
    // The pipeline selects on the tracker's running variances; they equal
    // the batch variances only to rounding, which must not change the
    // pick or its score (the score is computed from the bin's own column).
    Rng rng(9);
    const auto window = make_window(100, 151, 40, 62, 0.002, rng);
    const BinSelector sel(config(), PipelineConfig{});
    const auto batch = select(sel, window, batch_variances(window));
    const auto rolling = select(sel, window, rolling_variances(window));
    ASSERT_TRUE(batch.has_value());
    ASSERT_TRUE(rolling.has_value());
    EXPECT_EQ(batch->bin, rolling->bin);
    EXPECT_EQ(batch->score, rolling->score);
}

TEST(BinSelector, CapCountsOnlyCandidatesThatPassTheArcGates) {
    // More than kTopCandidates rotating bins outrank the eye bin by raw
    // variance and all fail the arc gates. Counting raw rank against the
    // cap would spend every fit on them; counting gated-in fits reaches
    // the eye bin.
    Rng rng(10);
    const std::size_t n_frames = 100;
    const std::size_t eye_bin = 40;
    const std::size_t first_chest = 50;
    const std::size_t n_chest = kTopCandidates + 3;
    auto window = make_window(n_frames, 151, eye_bin, first_chest, 0.002, rng);
    for (std::size_t k = 1; k < n_chest; ++k) {
        const double turns = 2.0 + 0.5 * static_cast<double>(k);
        for (std::size_t t = 0; t < n_frames; ++t) {
            const double rot = turns * constants::kTwoPi *
                               static_cast<double>(t) /
                               static_cast<double>(n_frames);
            const double r = 0.6 * (1.0 + 0.1 * std::sin(5.0 * rot));
            window[t][first_chest + k] +=
                dsp::Complex(r * std::cos(rot), r * std::sin(rot));
        }
    }
    const BinSelector sel(config(), PipelineConfig{});
    const auto variances = batch_variances(window);
    for (std::size_t k = 0; k < n_chest; ++k) {
        ASSERT_GT(variances[first_chest + k], variances[eye_bin]) << k;
        ASSERT_FALSE(score_bin(sel, window, first_chest + k).has_value())
            << k;
    }
    const auto choice = select(sel, window, variances);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->bin, eye_bin);
}

TEST(BinSelector, RejectsTinyWindows) {
    const BinSelector sel(config(), PipelineConfig{});
    std::vector<dsp::ComplexSignal> window(3, dsp::ComplexSignal(151));
    EXPECT_THROW(select(sel, window), blinkradar::ContractViolation);
}

TEST(BinSelector, RejectsInvertedRangeGate) {
    PipelineConfig pc;
    pc.selection_min_range_m = 1.0;
    pc.selection_max_range_m = 0.2;
    EXPECT_THROW(BinSelector(config(), pc), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::core
