#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "vehicle/vibration.hpp"

namespace blinkradar::vehicle {
namespace {

constexpr double kFs = 100.0;

TEST(Vibration, RmsMatchesSpec) {
    RoadVibrationSpec spec;
    spec.continuous_rms_m = 0.001;
    spec.vibration_bw_hz = 5.0;
    const VibrationModel m(spec, 120.0, kFs, Rng(1));
    EXPECT_NEAR(m.rms(), 0.001, 0.0002);
}

TEST(Vibration, ZeroSpecIsSilent) {
    RoadVibrationSpec spec;
    spec.continuous_rms_m = 0.0;
    const VibrationModel m(spec, 30.0, kFs, Rng(2));
    for (double t = 0.0; t < 30.0; t += 0.2)
        EXPECT_DOUBLE_EQ(m.displacement(t), 0.0);
}

TEST(Vibration, BumpsAddTransients) {
    RoadVibrationSpec spec;
    spec.continuous_rms_m = 0.0;
    spec.bump_rate_per_min = 20.0;
    spec.bump_amplitude_m = 0.005;
    const VibrationModel m(spec, 120.0, kFs, Rng(3));
    double peak = 0.0;
    for (double t = 0.0; t < 120.0; t += 0.01)
        peak = std::max(peak, std::abs(m.displacement(t)));
    EXPECT_GT(peak, 0.002);
    // But bumps are sparse: the overall RMS stays well below the peak.
    EXPECT_LT(m.rms(), peak / 3.0);
}

TEST(Vibration, SwayIsSlowAndBounded) {
    RoadVibrationSpec spec;
    spec.continuous_rms_m = 0.0;
    spec.sway_amplitude_m = 0.004;
    spec.sway_rate_hz = 0.15;
    const VibrationModel m(spec, 60.0, kFs, Rng(4));
    for (double t = 0.0; t < 60.0; t += 0.1)
        EXPECT_LE(std::abs(m.displacement(t)), 0.0045);
    // Slow: consecutive 0.1 s samples barely differ.
    for (double t = 1.0; t < 59.0; t += 1.1) {
        EXPECT_LT(std::abs(m.displacement(t + 0.1) - m.displacement(t)),
                  0.0011);
    }
}

TEST(Vibration, DeterministicForSeed) {
    const RoadVibrationSpec spec = vibration_spec(RoadType::kBumpyRoad);
    const VibrationModel a(spec, 30.0, kFs, Rng(6));
    const VibrationModel b(spec, 30.0, kFs, Rng(6));
    for (double t = 0.0; t < 30.0; t += 0.7)
        EXPECT_DOUBLE_EQ(a.displacement(t), b.displacement(t));
}

TEST(Vibration, InvalidDurationThrows) {
    EXPECT_THROW(VibrationModel(RoadVibrationSpec{}, 0.0, kFs, Rng(1)),
                 blinkradar::ContractViolation);
}

}  // namespace
}  // namespace blinkradar::vehicle
