#include "dsp/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace blinkradar::dsp {

double mean(std::span<const double> v) {
    BR_EXPECTS(!v.empty());
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
    BR_EXPECTS(!v.empty());
    const double m = mean(v);
    double acc = 0.0;
    for (const double x : v) acc += (x - m) * (x - m);
    return acc / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

double median(std::span<const double> v) { return percentile(v, 50.0); }

double median_inplace(std::span<double> v) {
    BR_EXPECTS(!v.empty());
    std::sort(v.begin(), v.end());
    if (v.size() == 1) return v.front();
    // Same interpolation as percentile(v, 50.0); 0.5 == 50.0/100.0 exactly.
    const double pos = 0.5 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double percentile(std::span<const double> v, double p) {
    BR_EXPECTS(!v.empty());
    BR_EXPECTS(p >= 0.0 && p <= 100.0);
    std::vector<double> sorted(v.begin(), v.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) return sorted.front();
    const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double scatter_variance(std::span<const Complex> v) {
    BR_EXPECTS(!v.empty());
    const Complex m = complex_mean(v);
    double acc = 0.0;
    for (const Complex& z : v) {
        const double di = z.real() - m.real();
        const double dq = z.imag() - m.imag();
        acc += di * di + dq * dq;
    }
    return acc / static_cast<double>(v.size());
}

Complex complex_mean(std::span<const Complex> v) {
    BR_EXPECTS(!v.empty());
    Complex sum(0.0, 0.0);
    for (const Complex& z : v) sum += z;
    return sum / static_cast<double>(v.size());
}

EmpiricalCdf::EmpiricalCdf(std::span<const double> samples)
    : sorted_(samples.begin(), samples.end()) {
    BR_EXPECTS(!samples.empty());
    std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::quantile(double q) const {
    BR_EXPECTS(q > 0.0 && q <= 1.0);
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted_.size()))) - 1;
    return sorted_[std::min(idx, sorted_.size() - 1)];
}

}  // namespace blinkradar::dsp
