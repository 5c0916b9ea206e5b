// Statistics utilities: summary statistics, percentiles, and empirical
// CDFs used throughout the pipeline and the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

/// Arithmetic mean. Input must be non-empty.
double mean(std::span<const double> v);

/// Population variance (divides by N). Input must be non-empty.
double variance(std::span<const double> v);

/// Population standard deviation.
double stddev(std::span<const double> v);

/// Median (copies and partially sorts). Input must be non-empty.
double median(std::span<const double> v);

/// Allocation-free median for hot paths: sorts `v` in place (caller-owned
/// scratch) and returns the same interpolated median as median(). Input
/// must be non-empty.
double median_inplace(std::span<double> v);

/// Linear-interpolated percentile, p in [0, 100]. Input must be non-empty.
double percentile(std::span<const double> v, double p);

/// Two-dimensional scatter variance of a complex point cloud:
/// var(I) + var(Q). This is the quantity the paper maximises to find the
/// eye's range bin ("variance of the 2D signal variation").
double scatter_variance(std::span<const Complex> v);

/// Mean of a complex point cloud (I and Q averaged independently).
Complex complex_mean(std::span<const Complex> v);

/// Empirical CDF over a sample set, evaluated inversely (quantiles).
class EmpiricalCdf {
public:
    /// Build from samples (copied and sorted). Must be non-empty.
    explicit EmpiricalCdf(std::span<const double> samples);

    /// Quantile: smallest sample s with CDF(s) >= q, q in (0, 1].
    double quantile(double q) const;

    double min() const { return sorted_.front(); }
    double max() const { return sorted_.back(); }
    std::size_t size() const noexcept { return sorted_.size(); }

    /// The sorted sample values (for plotting CDF curves).
    const std::vector<double>& sorted_samples() const noexcept {
        return sorted_;
    }

private:
    std::vector<double> sorted_;
};

}  // namespace blinkradar::dsp
