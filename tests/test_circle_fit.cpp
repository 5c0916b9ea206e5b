#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/random.hpp"
#include "common/units.hpp"
#include "dsp/circle_fit.hpp"

namespace blinkradar::dsp {
namespace {

ComplexSignal arc_points(double cx, double cy, double r, double start_rad,
                         double extent_rad, std::size_t n, double noise,
                         Rng& rng) {
    ComplexSignal pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = start_rad + extent_rad * static_cast<double>(i) /
                                         static_cast<double>(n - 1);
        pts.emplace_back(cx + r * std::cos(a) + rng.normal(0, noise),
                         cy + r * std::sin(a) + rng.normal(0, noise));
    }
    return pts;
}

struct FitCase {
    const char* name;
    CircleFit (*fit)(std::span<const Complex>);
};

// Print the case by name so the listed test names stay the same from run to
// run; gtest's default dumps the struct bytes, which hold ASLR'd addresses.
void PrintTo(const FitCase& c, std::ostream* os) { *os << c.name; }

class AllFitters : public ::testing::TestWithParam<FitCase> {};

TEST_P(AllFitters, ExactFullCircleIsRecovered) {
    Rng rng(1);
    const auto pts = arc_points(2.0, -1.0, 3.0, 0.0, constants::kTwoPi, 60,
                                0.0, rng);
    const CircleFit f = GetParam().fit(pts);
    ASSERT_TRUE(f.ok);
    EXPECT_NEAR(f.center_x, 2.0, 1e-9);
    EXPECT_NEAR(f.center_y, -1.0, 1e-9);
    EXPECT_NEAR(f.radius, 3.0, 1e-9);
    EXPECT_NEAR(f.rms_residual, 0.0, 1e-9);
}

TEST_P(AllFitters, NoisyFullCircleIsRecovered) {
    Rng rng(2);
    const auto pts = arc_points(-1.0, 0.5, 1.5, 0.0, constants::kTwoPi, 200,
                                0.01, rng);
    const CircleFit f = GetParam().fit(pts);
    ASSERT_TRUE(f.ok);
    EXPECT_NEAR(f.center_x, -1.0, 0.01);
    EXPECT_NEAR(f.center_y, 0.5, 0.01);
    EXPECT_NEAR(f.radius, 1.5, 0.01);
}

TEST_P(AllFitters, DegenerateInputsAreRejected) {
    // Too few points.
    EXPECT_FALSE(GetParam().fit(ComplexSignal{Complex(0, 0), Complex(1, 1)}).ok);
    // Coincident points.
    EXPECT_FALSE(GetParam().fit(ComplexSignal(10, Complex(2, 2))).ok);
    // Collinear points.
    ComplexSignal line;
    for (int i = 0; i < 10; ++i) line.emplace_back(i, 2.0 * i);
    EXPECT_FALSE(GetParam().fit(line).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllFitters,
    ::testing::Values(FitCase{"kasa", fit_circle_kasa},
                      FitCase{"pratt", fit_circle_pratt},
                      FitCase{"taubin", fit_circle_taubin}),
    [](const ::testing::TestParamInfo<FitCase>& info) {
        return info.param.name;
    });

class ArcExtents : public ::testing::TestWithParam<double> {};

TEST_P(ArcExtents, PrattRecoversPartialArcs) {
    const double extent_deg = GetParam();
    Rng rng(3);
    const auto pts = arc_points(0.3, 0.8, 1.0, 0.7, deg_to_rad(extent_deg),
                                150, 0.005, rng);
    const CircleFit f = fit_circle_pratt(pts);
    ASSERT_TRUE(f.ok);
    EXPECT_NEAR(f.radius, 1.0, 0.12) << "extent " << extent_deg << " deg";
    EXPECT_NEAR(f.center_x, 0.3, 0.12);
    EXPECT_NEAR(f.center_y, 0.8, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Extents, ArcExtents,
                         ::testing::Values(60.0, 90.0, 150.0, 270.0));

TEST(CircleFitComparison, TaubinMatchesPrattOnShortArcs) {
    // Regression test: an early version had a wrong A1 coefficient in the
    // Taubin characteristic polynomial, halving its radius on ~60-degree
    // arcs. Taubin and Pratt should agree closely on partial arcs.
    Rng rng(8);
    for (int t = 0; t < 50; ++t) {
        const auto pts = arc_points(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                    rng.uniform(0.5, 2.0),
                                    rng.uniform(0, 6.0), deg_to_rad(60.0),
                                    100, 0.01, rng);
        const CircleFit pratt = fit_circle_pratt(pts);
        const CircleFit taubin = fit_circle_taubin(pts);
        ASSERT_TRUE(pratt.ok);
        ASSERT_TRUE(taubin.ok);
        EXPECT_NEAR(taubin.radius, pratt.radius, 0.05 * pratt.radius);
    }
}

TEST(CircleFitComparison, PrattBeatsKasaOnShortArcs) {
    // Kasa's algebraic fit is biased towards small radii on short arcs —
    // the reason the paper chooses Pratt. Average over many trials.
    Rng rng(4);
    double kasa_err = 0.0, pratt_err = 0.0;
    constexpr int kTrials = 100;
    for (int t = 0; t < kTrials; ++t) {
        const auto pts = arc_points(0.0, 0.0, 1.0, rng.uniform(0, 6.0),
                                    deg_to_rad(50.0), 100, 0.01, rng);
        kasa_err += std::abs(fit_circle_kasa(pts).radius - 1.0);
        pratt_err += std::abs(fit_circle_pratt(pts).radius - 1.0);
    }
    EXPECT_LT(pratt_err, kasa_err);
}

TEST(CircleFit, ResidualMeasuresScatter) {
    Rng rng(5);
    const auto pts = arc_points(0, 0, 2.0, 0, constants::kTwoPi, 400, 0.05,
                                rng);
    const CircleFit f = fit_circle_pratt(pts);
    ASSERT_TRUE(f.ok);
    // RMS residual should be close to the injected radial noise.
    EXPECT_NEAR(f.rms_residual, 0.05, 0.015);
}

TEST(CircleFit, ResidualHelperMatchesFitResidual) {
    Rng rng(6);
    const auto pts = arc_points(1, 1, 1.0, 0, 3.0, 80, 0.01, rng);
    const CircleFit f = fit_circle_pratt(pts);
    // RMS of the points' radial distances from the fitted circle.
    double acc = 0.0;
    for (const Complex& p : pts) {
        const double dx = p.real() - f.center_x;
        const double dy = p.imag() - f.center_y;
        const double d = std::sqrt(dx * dx + dy * dy) - f.radius;
        acc += d * d;
    }
    const double rms = std::sqrt(acc / static_cast<double>(pts.size()));
    EXPECT_NEAR(rms, f.rms_residual, 1e-12);
}

TEST(CircleFit, TranslationInvariance) {
    Rng rng(7);
    const auto base = arc_points(0, 0, 1.0, 0.2, 2.0, 120, 0.01, rng);
    ComplexSignal shifted;
    for (const auto& p : base) shifted.push_back(p + Complex(100.0, -50.0));
    const CircleFit f0 = fit_circle_pratt(base);
    const CircleFit f1 = fit_circle_pratt(shifted);
    EXPECT_NEAR(f1.center_x - f0.center_x, 100.0, 1e-6);
    EXPECT_NEAR(f1.center_y - f0.center_y, -50.0, 1e-6);
    EXPECT_NEAR(f1.radius, f0.radius, 1e-6);
}

}  // namespace
}  // namespace blinkradar::dsp
