// Static-clutter (background) estimation along slow time.
//
// The paper removes reflections from static objects (seats, steering
// wheel, direct antenna leakage) with a "loopback filter": an exponential
// estimate of the static component per range bin, subtracted from each new
// frame.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/dsp_types.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::dsp {

/// Streaming exponential background estimator over range-bin frames. For
/// each bin b: bg[b] <- (1-alpha)*bg[b] + alpha*x[b]; the returned frame
/// is x - bg (computed against the *pre-update* background so a static
/// scene converges to zero output). The estimate is held once, as I/Q
/// planes: the pipeline runs the update inside the fused SoA kernel (see
/// dsp/frame_kernels.hpp) on bg_i()/bg_q(), and process_into() is the
/// plain, unfused statement of the same update on interleaved frames,
/// kept as the reference the kernel tests compare against. Both act on
/// the one estimate, so they can be mixed on one filter.
class LoopbackFilter {
public:
    /// \param n_bins number of range bins per frame (>= 1).
    /// \param alpha  adaptation rate in (0, 1); small alpha = slow
    ///               background, tracking only truly static reflectors.
    LoopbackFilter(std::size_t n_bins, double alpha);

    /// Process one frame; returns the background-subtracted frame.
    /// `frame.size()` must equal `n_bins()`.
    ComplexSignal process(std::span<const Complex> frame);

    /// Allocation-free variant: writes the subtracted frame into `out`
    /// (resized, reusing capacity; must not alias the input).
    void process_into(std::span<const Complex> frame, ComplexSignal& out);

    /// Whether the background has been seeded with a first frame.
    bool primed() const noexcept { return primed_; }

    /// Seed the background planes with `frame` when unprimed (the first
    /// frame after construction or reset()), mirroring the implicit
    /// priming of process_into(), so the planes hold the live estimate
    /// before the fused kernel runs.
    void begin_soa_frame(const IqPlanes& frame);

    /// Background planes (one I and one Q value per bin), read and
    /// updated in place by the fused kernel.
    RealSignal& bg_i() noexcept { return bg_i_; }
    RealSignal& bg_q() noexcept { return bg_q_; }

    /// Reset the background to the next incoming frame (used after a
    /// detected large body movement, when the old background is stale).
    void reset() noexcept;

    /// Snapshot the background estimate (section "BKGD"). Bit-identical
    /// resume: a restored filter subtracts exactly what the original
    /// would have.
    void save_state(state::StateWriter& writer) const;
    void restore_state(state::StateReader& reader);

    std::size_t n_bins() const noexcept { return bg_i_.size(); }
    double alpha() const noexcept { return alpha_; }

private:
    RealSignal bg_i_;
    RealSignal bg_q_;
    double alpha_;
    bool primed_ = false;
};

}  // namespace blinkradar::dsp
