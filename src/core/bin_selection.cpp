#include "core/bin_selection.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "dsp/stats.hpp"

namespace blinkradar::core {

void RollingBinVariance::reset(std::size_t n_bins) {
    sum_i_.assign(n_bins, 0.0);
    sum_q_.assign(n_bins, 0.0);
    sum_sq_.assign(n_bins, 0.0);
    count_ = 0;
}

void RollingBinVariance::clear() noexcept {
    std::fill(sum_i_.begin(), sum_i_.end(), 0.0);
    std::fill(sum_q_.begin(), sum_q_.end(), 0.0);
    std::fill(sum_sq_.begin(), sum_sq_.end(), 0.0);
    count_ = 0;
}

void RollingBinVariance::push(std::span<const dsp::Complex> frame) {
    BR_EXPECTS(frame.size() == sum_sq_.size());
    for (std::size_t b = 0; b < frame.size(); ++b) {
        const double i = frame[b].real();
        const double q = frame[b].imag();
        sum_i_[b] += i;
        sum_q_[b] += q;
        sum_sq_[b] += i * i + q * q;
    }
    ++count_;
}

void RollingBinVariance::evict(std::span<const dsp::Complex> frame) {
    BR_EXPECTS(frame.size() == sum_sq_.size());
    BR_EXPECTS(count_ >= 1);
    for (std::size_t b = 0; b < frame.size(); ++b) {
        const double i = frame[b].real();
        const double q = frame[b].imag();
        sum_i_[b] -= i;
        sum_q_[b] -= q;
        sum_sq_[b] -= i * i + q * q;
    }
    --count_;
}

double RollingBinVariance::variance(std::size_t bin) const {
    BR_EXPECTS(bin < sum_sq_.size());
    if (count_ == 0) return 0.0;
    const double n = static_cast<double>(count_);
    const double mean_i = sum_i_[bin] / n;
    const double mean_q = sum_q_[bin] / n;
    // E[|z|^2] - |E[z]|^2; clamped because cancellation can leave a tiny
    // negative residue when the window is nearly constant.
    const double v =
        sum_sq_[bin] / n - (mean_i * mean_i + mean_q * mean_q);
    return v > 0.0 ? v : 0.0;
}

void RollingBinVariance::variances_into(std::vector<double>& out) const {
    out.resize(sum_sq_.size());
    for (std::size_t b = 0; b < sum_sq_.size(); ++b) out[b] = variance(b);
}

void RollingBinVariance::variances_into(
    std::vector<double>& out, const dsp::KernelTable& kernels) const {
    out.resize(sum_sq_.size());
    if (count_ == 0) {
        std::fill(out.begin(), out.end(), 0.0);
        return;
    }
    kernels.variances_from_sums(sum_i_.data(), sum_q_.data(), sum_sq_.data(),
                                sum_sq_.size(),
                                static_cast<double>(count_), out.data());
}

namespace {
constexpr std::uint32_t kRollingVarTag = state::make_tag("RVAR");
constexpr std::uint16_t kRollingVarVersion = 1;
}  // namespace

void RollingBinVariance::save_state(state::StateWriter& writer) const {
    writer.begin_section(kRollingVarTag, kRollingVarVersion);
    writer.write_size(count_);
    writer.write_f64_span(sum_i_);
    writer.write_f64_span(sum_q_);
    writer.write_f64_span(sum_sq_);
    writer.end_section();
}

void RollingBinVariance::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kRollingVarTag);
    if (version > kRollingVarVersion)
        throw state::SnapshotError(
            "RVAR: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kRollingVarVersion) + ")");
    const std::size_t count = reader.read_size();
    std::vector<double> sum_i, sum_q, sum_sq;
    reader.read_f64_into(sum_i);
    reader.read_f64_into(sum_q);
    reader.read_f64_into(sum_sq);
    if (sum_i.size() != sum_sq_.size() || sum_q.size() != sum_sq_.size() ||
        sum_sq.size() != sum_sq_.size())
        throw state::SnapshotError(
            "RVAR: snapshot holds sums for " + std::to_string(sum_i.size()) +
            "/" + std::to_string(sum_q.size()) + "/" +
            std::to_string(sum_sq.size()) +
            " bins but the tracker is configured for " +
            std::to_string(sum_sq_.size()));
    count_ = count;
    sum_i_ = std::move(sum_i);
    sum_q_ = std::move(sum_q);
    sum_sq_ = std::move(sum_sq);
    reader.close_section();
}

BinSelector::BinSelector(const radar::RadarConfig& radar,
                         const PipelineConfig& config)
    : config_(config) {
    radar.validate();
    BR_EXPECTS(config.selection_min_range_m < config.selection_max_range_m);
    const std::size_t n_bins = radar.n_bins();
    min_bin_ = static_cast<std::size_t>(config.selection_min_range_m /
                                        radar.bin_spacing_m);
    max_bin_ = std::min(n_bins - 1,
                        static_cast<std::size_t>(config.selection_max_range_m /
                                                 radar.bin_spacing_m));
    BR_ENSURES(min_bin_ < max_bin_);
}

std::optional<BinSelection> BinSelector::select_soa(
    SoaWindowView window, std::span<const double> variances,
    SelectScratch& scratch) const {
    BR_EXPECTS(window.size() >= 8);
    BR_EXPECTS(!window.empty() && variances.size() == window.front()->size());
    if (config_.selection_mode == BinSelectionMode::kMaxPower)
        return select_max_power_soa(window, scratch.column);

    // Significance gate: candidate bins must stand clearly above the
    // median bin variance (which is dominated by thermal noise).
    scratch.in_range.assign(
        variances.begin() + static_cast<std::ptrdiff_t>(min_bin_),
        variances.begin() + static_cast<std::ptrdiff_t>(max_bin_ + 1));
    const double floor = dsp::median_inplace(scratch.in_range);
    const double significance = floor * config_.min_variance_factor;

    scratch.candidates.clear();
    for (std::size_t b = min_bin_; b <= max_bin_; ++b)
        if (variances[b] > significance) scratch.candidates.push_back(b);
    if (scratch.candidates.empty()) return std::nullopt;

    // Cap the fits per pass. Fitting every significant bin costs dozens
    // of fits when the scene is busy (up to 4 ms per pass), and most of
    // those fits are the chest's rotation bins — which dominate by raw
    // variance and which the arc gates reject anyway. So: fit in
    // descending-variance order but count only candidates that *survive*
    // the gates against the cap, stopping once kTopCandidates arc-like
    // bins have been scored. A cap on raw variance rank would instead
    // spend the whole budget on the chest and never reach the eye bins
    // at all. Among gated bins the highest score wins: the arc-explained
    // variance ratio variance / residual^2 (scale-invariant thinness).
    std::sort(scratch.candidates.begin(), scratch.candidates.end(),
              [&variances](std::size_t a, std::size_t b) {
                  return variances[a] != variances[b]
                             ? variances[a] > variances[b]
                             : a < b;
              });
    std::optional<BinSelection> best_gated;
    std::size_t gated = 0;
    for (const std::size_t b : scratch.candidates) {
        const std::optional<BinSelection> sel =
            score_bin_soa(window, b, scratch.column);
        if (!sel) continue;
        if (!best_gated || sel->score > best_gated->score) best_gated = sel;
        if (++gated >= kTopCandidates) break;
    }
    // No fallback: if nothing in view traces a clean partial arc (e.g. the
    // cabin is empty, or the driver is mid-posture-shift), report no
    // selection and let the caller stay in / return to cold start.
    if (!best_gated) return std::nullopt;

    // Local refinement: the early stop can cut the scan just short of the
    // true carrier. Adjacent bins share the arc's signal (the pulse's
    // range point-spread spans several bins), so the score varies
    // smoothly with range — hill-climb to the local maximum, a handful of
    // extra fits at most.
    for (int step = 0; step < 8; ++step) {
        const std::size_t b = best_gated->bin;
        std::optional<BinSelection> improved;
        for (const std::size_t nb : {b - 1, b + 1}) {
            if (nb < min_bin_ || nb > max_bin_) continue;
            if (variances[nb] <= significance) continue;
            const std::optional<BinSelection> sel =
                score_bin_soa(window, nb, scratch.column);
            if (!sel || sel->score <= best_gated->score) continue;
            if (!improved || sel->score > improved->score) improved = sel;
        }
        if (!improved) break;
        best_gated = improved;
    }
    return best_gated;
}

namespace {

// Angular extent of the trajectory around the fitted centre: max - min of
// the unwrapped angle. The eye/face bins sweep well under a half-turn —
// their micro-motion is far below lambda/4 — while the chest sweeps
// through multiple full turns every breath. This is the "arc, not
// rotation" signature the paper's Fig. 10 illustrates. Extent (rather
// than total travel) is used so sample noise does not accumulate.
//
// `bail` short-circuits the walk once the extent reaches it: the extent
// only ever grows, so any return value >= bail is interchangeable with
// the full walk's for a caller that rejects at bail — which lets the
// selection hot path drop a rotating chest bin after ~a dozen atan2
// calls instead of walking the whole window (the dominant cost of a
// selection pass over a busy scene). Accepted bins always complete the
// full (bit-identical) walk.
double angular_extent(const dsp::ComplexSignal& column,
                      const dsp::CircleFit& fit, double bail) {
    double cumulative = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    bool have_prev = false;
    dsp::Complex prev;
    const dsp::Complex centre(fit.center_x, fit.center_y);
    for (const dsp::Complex& z : column) {
        const dsp::Complex v = z - centre;
        if (std::abs(v) < 1e-12) continue;
        if (have_prev) {
            const dsp::Complex rot = v * std::conj(prev);
            if (std::abs(rot) > 0.0) cumulative += std::arg(rot);
            lo = std::min(lo, cumulative);
            hi = std::max(hi, cumulative);
            if (hi - lo >= bail) return hi - lo;
        }
        prev = v;
        have_prev = true;
    }
    return hi - lo;
}

}  // namespace

std::optional<BinSelection> BinSelector::score_bin_soa(
    SoaWindowView window, std::size_t bin,
    dsp::ComplexSignal& column_scratch) const {
    BR_EXPECTS(!window.empty());
    BR_EXPECTS(bin < window.front()->size());
    column_scratch.resize(window.size());
    for (std::size_t t = 0; t < window.size(); ++t)
        column_scratch[t] = window[t]->at(bin);
    const dsp::CircleFit fit = dsp::fit_circle_pratt(column_scratch);
    if (!fit.ok || fit.radius <= 0.0) return std::nullopt;
    // Gates are conjunctive, so ordering is free — run the O(n)
    // multiply-add radius gate before the atan2-heavy extent walk.
    // Radius plausibility: a short noisy arc lets the algebraic fit run
    // away to an enormous circle; such a fit explains nothing about the
    // dynamic vector and must not be allowed to win on any score.
    const double var = dsp::scatter_variance(column_scratch);
    const double spread = std::sqrt(var);
    if (fit.radius > 8.0 * spread || fit.radius < 0.5 * spread)
        return std::nullopt;
    const double extent = angular_extent(column_scratch, fit, constants::kPi);
    if (extent >= constants::kPi || extent <= 1e-3) return std::nullopt;
    const double score =
        var / (fit.rms_residual * fit.rms_residual + 1e-9 * var);
    return BinSelection{bin, var, score, fit};
}

std::optional<BinSelection> BinSelector::select_max_power_soa(
    SoaWindowView window, dsp::ComplexSignal& column_scratch) const {
    const std::size_t n_bins = window.front()->size();
    std::size_t best_bin = min_bin_;
    double best_power = -1.0;
    for (std::size_t b = min_bin_; b <= max_bin_ && b < n_bins; ++b) {
        double acc = 0.0;
        for (const auto* f : window) acc += std::norm(f->at(b));
        if (acc > best_power) {
            best_power = acc;
            best_bin = b;
        }
    }
    column_scratch.resize(window.size());
    for (std::size_t t = 0; t < window.size(); ++t)
        column_scratch[t] = window[t]->at(best_bin);
    BinSelection sel;
    sel.bin = best_bin;
    sel.variance = dsp::scatter_variance(column_scratch);
    sel.fit = dsp::fit_circle_pratt(column_scratch);
    sel.score = best_power;
    return sel;
}

}  // namespace blinkradar::core
