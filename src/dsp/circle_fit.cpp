#include "dsp/circle_fit.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace blinkradar::dsp {

namespace {

struct Moments {
    double mean_x = 0.0, mean_y = 0.0;
    double mxx = 0.0, myy = 0.0, mxy = 0.0;
    double mxz = 0.0, myz = 0.0, mzz = 0.0;
};

// Normalised central moments of the point cloud (z = x^2 + y^2), as used by
// Chernov's circle-fit formulations.
Moments compute_moments(std::span<const Complex> pts) {
    Moments m;
    const double n = static_cast<double>(pts.size());
    for (const Complex& p : pts) {
        m.mean_x += p.real();
        m.mean_y += p.imag();
    }
    m.mean_x /= n;
    m.mean_y /= n;
    for (const Complex& p : pts) {
        const double x = p.real() - m.mean_x;
        const double y = p.imag() - m.mean_y;
        const double z = x * x + y * y;
        m.mxx += x * x;
        m.myy += y * y;
        m.mxy += x * y;
        m.mxz += x * z;
        m.myz += y * z;
        m.mzz += z * z;
    }
    m.mxx /= n;
    m.myy /= n;
    m.mxy /= n;
    m.mxz /= n;
    m.myz /= n;
    m.mzz /= n;
    return m;
}

bool degenerate(std::span<const Complex> pts) {
    if (pts.size() < 3) return true;
    // All points (numerically) coincident or collinear => no unique circle.
    const Moments m = compute_moments(pts);
    const double cov_det = m.mxx * m.myy - m.mxy * m.mxy;
    const double scale = m.mxx + m.myy;
    return scale < 1e-24 || cov_det < 1e-12 * scale * scale;
}

// RMS residual of `points` against an already-fitted circle.
double circle_rms_residual(std::span<const Complex> points,
                           const CircleFit& fit) {
    BR_EXPECTS(!points.empty());
    double acc = 0.0;
    for (const Complex& p : points) {
        const double dx = p.real() - fit.center_x;
        const double dy = p.imag() - fit.center_y;
        const double d = std::sqrt(dx * dx + dy * dy) - fit.radius;
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(points.size()));
}

}  // namespace

CircleFit fit_circle_kasa(std::span<const Complex> points) {
    CircleFit out;
    if (degenerate(points)) return out;
    const Moments m = compute_moments(points);

    // Solve the 2x2 system for the centre offset (in centred coordinates):
    //   [mxx mxy][a]   [mxz/2]
    //   [mxy myy][b] = [myz/2]
    const double det = m.mxx * m.myy - m.mxy * m.mxy;
    BR_ASSERT(det != 0.0);
    const double a = (m.mxz * m.myy - m.myz * m.mxy) / (2.0 * det);
    const double b = (m.myz * m.mxx - m.mxz * m.mxy) / (2.0 * det);

    out.center_x = a + m.mean_x;
    out.center_y = b + m.mean_y;
    out.radius = std::sqrt(a * a + b * b + m.mxx + m.myy);
    out.ok = true;
    out.rms_residual = circle_rms_residual(points, out);
    return out;
}

CircleFit fit_circle_pratt(std::span<const Complex> points) {
    CircleFit out;
    if (degenerate(points)) return out;
    const Moments m = compute_moments(points);

    const double mz = m.mxx + m.myy;
    const double cov_xy = m.mxx * m.myy - m.mxy * m.mxy;
    const double var_z = m.mzz - mz * mz;

    const double a2 = 4.0 * cov_xy - 3.0 * mz * mz - m.mzz;
    const double a1 = var_z * mz + 4.0 * cov_xy * mz - m.mxz * m.mxz -
                      m.myz * m.myz;
    const double a0 = m.mxz * (m.mxz * m.myy - m.myz * m.mxy) +
                      m.myz * (m.myz * m.mxx - m.mxz * m.mxy) - var_z * cov_xy;
    const double a22 = a2 + a2;

    // Newton iteration on P(x) = a0 + a1*x + a2*x^2 + 4*x^3, starting at 0.
    double x = 0.0;
    double y = a0;
    for (int iter = 0; iter < 99; ++iter) {
        const double dy = a1 + x * (a22 + 16.0 * x * x);
        if (dy == 0.0) break;
        const double x_new = x - y / dy;
        if (!std::isfinite(x_new) || std::abs(x_new - x) < 1e-12 * std::abs(x_new) + 1e-300)
            break;
        const double y_new = a0 + x_new * (a1 + x_new * (a2 + 4.0 * x_new * x_new));
        if (std::abs(y_new) > std::abs(y)) break;
        x = x_new;
        y = y_new;
    }

    const double det = x * x - x * mz + cov_xy;
    if (det == 0.0 || !std::isfinite(det)) return out;
    const double cx = (m.mxz * (m.myy - x) - m.myz * m.mxy) / det / 2.0;
    const double cy = (m.myz * (m.mxx - x) - m.mxz * m.mxy) / det / 2.0;

    out.center_x = cx + m.mean_x;
    out.center_y = cy + m.mean_y;
    out.radius = std::sqrt(cx * cx + cy * cy + mz + 2.0 * x);
    out.ok = std::isfinite(out.radius);
    if (out.ok) out.rms_residual = circle_rms_residual(points, out);
    return out;
}

CircleFit fit_circle_taubin(std::span<const Complex> points) {
    CircleFit out;
    if (degenerate(points)) return out;
    const Moments m = compute_moments(points);

    const double mz = m.mxx + m.myy;
    const double cov_xy = m.mxx * m.myy - m.mxy * m.mxy;
    const double var_z = m.mzz - mz * mz;

    const double a3 = 4.0 * mz;
    const double a2 = -3.0 * mz * mz - m.mzz;
    const double a1 = var_z * mz + 4.0 * cov_xy * mz - m.mxz * m.mxz -
                      m.myz * m.myz;
    const double a0 = m.mxz * (m.mxz * m.myy - m.myz * m.mxy) +
                      m.myz * (m.myz * m.mxx - m.mxz * m.mxy) - var_z * cov_xy;
    const double a22 = a2 + a2;
    const double a33 = a3 + a3 + a3;

    double x = 0.0;
    double y = a0;
    for (int iter = 0; iter < 99; ++iter) {
        const double dy = a1 + x * (a22 + x * a33);
        if (dy == 0.0) break;
        const double x_new = x - y / dy;
        if (!std::isfinite(x_new) || std::abs(x_new - x) < 1e-12 * std::abs(x_new) + 1e-300)
            break;
        const double y_new = a0 + x_new * (a1 + x_new * (a2 + x_new * a3));
        x = x_new;
        y = y_new;
        if (std::abs(y_new) < 1e-14 * std::abs(a0)) break;
    }

    const double det = x * x - x * mz + cov_xy;
    if (det == 0.0 || !std::isfinite(det)) return out;
    const double cx = (m.mxz * (m.myy - x) - m.myz * m.mxy) / det / 2.0;
    const double cy = (m.myz * (m.mxx - x) - m.mxz * m.mxy) / det / 2.0;

    out.center_x = cx + m.mean_x;
    out.center_y = cy + m.mean_y;
    out.radius = std::sqrt(cx * cx + cy * cy + mz);
    out.ok = std::isfinite(out.radius);
    if (out.ok) out.rms_residual = circle_rms_residual(points, out);
    return out;
}

}  // namespace blinkradar::dsp
