#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace blinkradar::dsp {
namespace {

// Forward transform of a copy (every size here is a power of two).
ComplexSignal fft(ComplexSignal x) {
    fft_inplace(x);
    return x;
}

// Inverse transform by the conjugate trick: ifft(X) = conj(fft(conj(X)))/N.
ComplexSignal ifft(ComplexSignal x) {
    for (Complex& v : x) v = std::conj(v);
    fft_inplace(x);
    const double inv_n = 1.0 / static_cast<double>(x.size());
    for (Complex& v : x) v = std::conj(v) * inv_n;
    return x;
}

TEST(FftHelpers, PowerOfTwoPredicates) {
    EXPECT_TRUE(is_power_of_two(1));
    EXPECT_TRUE(is_power_of_two(2));
    EXPECT_TRUE(is_power_of_two(1024));
    EXPECT_FALSE(is_power_of_two(0));
    EXPECT_FALSE(is_power_of_two(3));
    EXPECT_FALSE(is_power_of_two(1000));
    EXPECT_EQ(next_power_of_two(1), 1u);
    EXPECT_EQ(next_power_of_two(5), 8u);
    EXPECT_EQ(next_power_of_two(1024), 1024u);
    EXPECT_EQ(next_power_of_two(1025), 2048u);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
    ComplexSignal x(8, Complex(0, 0));
    x[0] = Complex(1, 0);
    const ComplexSignal X = fft(x);
    for (const Complex& v : X) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, SingleToneLandsInItsBin) {
    constexpr std::size_t kN = 64;
    constexpr std::size_t kBin = 5;
    ComplexSignal x(kN);
    for (std::size_t n = 0; n < kN; ++n) {
        const double ph = constants::kTwoPi * kBin * n / kN;
        x[n] = Complex(std::cos(ph), std::sin(ph));
    }
    const ComplexSignal X = fft(x);
    for (std::size_t k = 0; k < kN; ++k) {
        if (k == kBin)
            EXPECT_NEAR(std::abs(X[k]), static_cast<double>(kN), 1e-9);
        else
            EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-9);
    }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
    const std::size_t n = GetParam();
    Rng rng(n);
    ComplexSignal x(n);
    for (auto& v : x) v = Complex(rng.normal(0, 1), rng.normal(0, 1));
    const ComplexSignal back = ifft(fft(x));
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(back[i].real(), x[i].real(), 1e-10);
        EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-10);
    }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
    const std::size_t n = GetParam();
    Rng rng(2 * n + 1);
    ComplexSignal x(n);
    for (auto& v : x) v = Complex(rng.normal(0, 1), rng.normal(0, 1));
    double time_energy = 0;
    for (const auto& v : x) time_energy += std::norm(v);
    const ComplexSignal X = fft(x);
    double freq_energy = 0;
    for (const auto& v : X) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-8 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, LinearityHolds) {
    Rng rng(3);
    ComplexSignal a(32), b(32), sum(32);
    for (std::size_t i = 0; i < 32; ++i) {
        a[i] = Complex(rng.normal(0, 1), rng.normal(0, 1));
        b[i] = Complex(rng.normal(0, 1), rng.normal(0, 1));
        sum[i] = 2.0 * a[i] + 3.0 * b[i];
    }
    const ComplexSignal A = fft(a), B = fft(b), S = fft(sum);
    for (std::size_t k = 0; k < 32; ++k) {
        const Complex expected = 2.0 * A[k] + 3.0 * B[k];
        EXPECT_NEAR(std::abs(S[k] - expected), 0.0, 1e-9);
    }
}

TEST(Fft, NonPow2InputIsZeroPadded) {
    const RealSignal x(10, 1.0);
    const RealSignal mag = magnitude_spectrum_real(x);
    EXPECT_EQ(mag.size(), 16u / 2 + 1);
    // DC bin sums the 10 ones.
    EXPECT_NEAR(mag[0], 10.0, 1e-12);
}

TEST(Fft, RealSignalSpectrumIsConjugateSymmetric) {
    Rng rng(5);
    RealSignal x(64);
    for (auto& v : x) v = rng.normal(0, 1);
    const ComplexSignal X = fft(ComplexSignal(x.begin(), x.end()));
    for (std::size_t k = 1; k < 32; ++k) {
        EXPECT_NEAR(X[k].real(), X[64 - k].real(), 1e-9);
        EXPECT_NEAR(X[k].imag(), -X[64 - k].imag(), 1e-9);
    }
}

TEST(Fft, MagnitudeSpectrumPeaksAtToneFrequency) {
    constexpr double kFs = 1000.0;
    constexpr double kTone = 125.0;  // exactly bin 16 of 128
    RealSignal x(128);
    for (std::size_t n = 0; n < x.size(); ++n)
        x[n] = std::sin(constants::kTwoPi * kTone * n / kFs);
    const RealSignal mag = magnitude_spectrum_real(x);
    std::size_t peak = 0;
    for (std::size_t k = 0; k < mag.size(); ++k)
        if (mag[k] > mag[peak]) peak = k;
    EXPECT_EQ(peak, 16u);
}

TEST(Fft, InplaceRejectsNonPow2) {
    ComplexSignal x(10, Complex(0, 0));
    EXPECT_THROW(fft_inplace(x), blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::dsp
