// Circle (arc) fitting in the I/Q plane.
//
// BlinkRadar estimates the "optimal viewing position" by fitting a circle
// to the arc the dynamic vector traces in I/Q space under respiration/BCG
// interference. The paper uses the Pratt method ("lightweight and
// robust"); Kåsa and Taubin fits are provided as ablation baselines.
// Implementations follow Chernov's classic formulations.
#pragma once

#include <span>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

/// Result of a circle fit.
struct CircleFit {
    double center_x = 0.0;
    double center_y = 0.0;
    double radius = 0.0;
    double rms_residual = 0.0;  ///< RMS of (distance-to-centre - radius)
    bool ok = false;            ///< false for degenerate inputs
};

/// Kåsa algebraic fit (linear least squares). Fast but biased towards
/// smaller radii on short arcs — exactly the regime BlinkRadar operates in,
/// which is why the paper prefers Pratt.
CircleFit fit_circle_kasa(std::span<const Complex> points);

/// Pratt fit (normalisation by the gradient constraint), Newton iteration
/// on the characteristic polynomial. The paper's choice.
CircleFit fit_circle_pratt(std::span<const Complex> points);

/// Taubin fit; near-identical accuracy to Pratt, provided for ablations.
CircleFit fit_circle_taubin(std::span<const Complex> points);

}  // namespace blinkradar::dsp
