// Range-bin selection (paper Section IV-D, "Fine-grained blink features").
//
// Without prior knowledge of the eye's distance, BlinkRadar cannot pick
// the eye's range bin by peak amplitude — the eye's reflection is weaker
// than seats and steering wheels. Instead it exploits the "harmful"
// embedded interference: respiration- and heartbeat-coupled head motion
// keeps the eye-region bin's I/Q trajectory moving (tracing thin arcs)
// even when no blink occurs. The selector therefore:
//   1. computes the 2-D I/Q scatter variance per bin over a slow-time
//      window, keeps bins that are significantly above the noise floor,
//   2. arc-fits the top candidates and scores them by arc quality
//      (radius^2 / rms-residual: big clean arcs win; full fast rotations
//      with amplitude wobble — the chest — and pure noise both lose).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/pipeline_config.hpp"
#include "dsp/circle_fit.hpp"
#include "dsp/dsp_types.hpp"
#include "dsp/frame_kernels.hpp"
#include "radar/config.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

/// Outcome of a selection pass.
struct BinSelection {
    std::size_t bin = 0;            ///< chosen range bin index
    double variance = 0.0;          ///< its 2-D scatter variance
    double score = 0.0;             ///< arc-quality score
    dsp::CircleFit fit;             ///< the candidate's arc fit
};

/// Non-owning view of a slow-time window of structure-of-arrays frames
/// (outer index = slow time, inner = bins). A span of frame pointers
/// rather than of frames so the pipeline's ring-buffer window is viewed
/// without copying frame data.
using SoaWindowView = std::span<const dsp::IqPlanes* const>;

/// Incremental per-bin 2-D I/Q scatter variance over a sliding window.
/// Maintains running sums of I, Q and |z|^2 per bin so that periodic bin
/// reselection reads variances in O(bins) instead of recomputing
/// O(bins * window) from scratch. push/evict cost O(bins) per frame; the
/// caller owns the window policy (push the new frame, evict the frame
/// that left the window). Matches the batch computation to within
/// floating-point reassociation (~1e-12 relative).
class RollingBinVariance {
public:
    RollingBinVariance() = default;
    explicit RollingBinVariance(std::size_t n_bins) { reset(n_bins); }

    /// Size for `n_bins` bins and forget all frames (allocates; every
    /// later operation is allocation-free).
    void reset(std::size_t n_bins);

    /// Forget all frames, keeping the bin layout.
    void clear() noexcept;

    /// Add a frame to the window.
    void push(std::span<const dsp::Complex> frame);

    /// Remove a previously pushed frame (the caller passes the frame now
    /// leaving the window — its values, not an index).
    void evict(std::span<const dsp::Complex> frame);

    /// Frames currently in the window.
    std::size_t count() const noexcept { return count_; }
    std::size_t n_bins() const noexcept { return sum_sq_.size(); }

    /// Scatter variance var(I) + var(Q) of one bin (0 until 1+ frames).
    double variance(std::size_t bin) const;

    /// All per-bin variances, written into `out` (resized, capacity
    /// reused).
    void variances_into(std::vector<double>& out) const;

    /// Same through the SIMD kernel table; bit-identical to the loop
    /// above on every backend (see dsp/frame_kernels.hpp).
    void variances_into(std::vector<double>& out,
                        const dsp::KernelTable& kernels) const;

    /// Direct access to the running sums plus manual count bookkeeping,
    /// for the fused background+variance kernel which updates the sums
    /// in the same pass that subtracts the background (see
    /// KernelTable::background_var_fused). The kernel mutates the arrays;
    /// the caller tells the tracker how the frame count changed.
    double* sum_i_data() noexcept { return sum_i_.data(); }
    double* sum_q_data() noexcept { return sum_q_.data(); }
    double* sum_sq_data() noexcept { return sum_sq_.data(); }
    void note_push() noexcept { ++count_; }
    void note_evict() noexcept { --count_; }

    /// Snapshot the running sums (section "RVAR"). The sums are saved
    /// rather than recomputed from the frame window on restore because
    /// they carry the accumulated floating-point reassociation of every
    /// push/evict since the window opened — recomputation would be
    /// equal only to ~1e-12, not bit-identical.
    void save_state(state::StateWriter& writer) const;
    void restore_state(state::StateReader& reader);

private:
    std::vector<double> sum_i_;
    std::vector<double> sum_q_;
    std::vector<double> sum_sq_;
    std::size_t count_ = 0;
};

/// Selection cap: select_soa() stops fitting once this many candidates
/// have survived the arc gates (see there). A design constant, not a
/// tunable: flight dumps record it, and only this value replays.
inline constexpr std::size_t kTopCandidates = 5;

/// Selects the blink-carrying bin from a slow-time window of
/// (background-subtracted) frames. Stateless: const methods are safe to
/// call from multiple threads.
class BinSelector {
public:
    BinSelector(const radar::RadarConfig& radar, const PipelineConfig& config);

    /// Caller-owned scratch for select_soa() so the periodic reselection
    /// pass allocates nothing once warmed up.
    struct SelectScratch {
        std::vector<double> in_range;
        std::vector<std::size_t> candidates;
        dsp::ComplexSignal column;
    };

    /// Evaluate a window of frames (all frames must share the bin count
    /// and `variances` holds one scatter variance per bin, e.g. from a
    /// RollingBinVariance tracked alongside the window). Returns
    /// std::nullopt when no bin shows significant dynamic content (e.g.
    /// an empty seat). Allocation-free once `scratch` is warmed up. The
    /// fit fan-out is capped: candidates are fitted in descending-variance
    /// order until kTopCandidates of them survive the arc gates, then a
    /// short hill-climb refines to the local score maximum — bounding the
    /// worst-case fits per pass while still skipping past the
    /// high-variance rotation (chest) bins the gates reject.
    std::optional<BinSelection> select_soa(SoaWindowView window,
                                           std::span<const double> variances,
                                           SelectScratch& scratch) const;

    /// Score one bin under the arc criterion (variance, arc fit and
    /// thinness score), gathering the bin's slow-time column into
    /// `column_scratch`. Returns std::nullopt when the bin's trajectory
    /// is not a clean partial arc. Used for switch hysteresis.
    std::optional<BinSelection> score_bin_soa(
        SoaWindowView window, std::size_t bin,
        dsp::ComplexSignal& column_scratch) const;

    std::size_t min_bin() const noexcept { return min_bin_; }
    std::size_t max_bin() const noexcept { return max_bin_; }

private:
    std::optional<BinSelection> select_max_power_soa(
        SoaWindowView window, dsp::ComplexSignal& column_scratch) const;

    PipelineConfig config_;
    std::size_t min_bin_;
    std::size_t max_bin_;
};

}  // namespace blinkradar::core
