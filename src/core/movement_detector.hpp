// Large body-movement detection.
//
// When the driver shifts posture (or a heavy road transient hits), the
// whole range profile changes far faster than breathing or blinking ever
// moves it, the fitted viewing position becomes stale, and the paper's
// answer is to restart the entire detection process. This detector
// watches the frame-to-frame difference energy and flags frames whose
// difference exceeds a large multiple of the rolling median.
#pragma once

#include <vector>

#include "common/ring_buffer.hpp"
#include "core/pipeline_config.hpp"
#include "dsp/dsp_types.hpp"
#include "dsp/frame_kernels.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

/// Streaming detector of large movements over raw (pre-background-
/// subtraction) frames.
class MovementDetector {
public:
    MovementDetector(const PipelineConfig& config, double frame_rate_hz);

    /// Feed one frame (I/Q planes); true when a large movement is
    /// detected. The difference energy against the previous frame is
    /// computed by `kernels` (fixed four-stripe reduction, bit-identical
    /// on every backend).
    bool push_soa(const dsp::IqPlanes& frame,
                  const dsp::KernelTable& kernels);

    /// Forget all history (used after the pipeline restarts so the
    /// movement that caused the restart is not re-detected).
    void reset();

    /// Most recent frame-difference energy (diagnostics).
    double last_difference() const noexcept { return last_diff_; }

    /// Snapshot the rolling median window and held frame ("MOVD").
    void save_state(state::StateWriter& writer) const;
    void restore_state(state::StateReader& reader);

private:
    double median_difference() const;
    /// Record `diff`, judge it against the rolling median, grow the
    /// history on non-triggered frames.
    bool judge_and_record(double diff);
    /// Rebuild the sorted mirror from the ring (restore/reset paths).
    void rebuild_sorted();

    PipelineConfig config_;
    std::size_t window_frames_;
    dsp::IqPlanes previous_soa_;
    RingBuffer<double> diffs_;
    /// diffs_ kept in ascending order, maintained incrementally by
    /// binary-search insert/erase (O(log n) search + O(n) memmove on ~100
    /// doubles) so the per-frame median is an array read instead of an
    /// O(n) copy + nth_element. Bit-identical: the k-th order statistic
    /// of the same multiset.
    std::vector<double> sorted_diffs_;
    double last_diff_ = 0.0;
};

}  // namespace blinkradar::core
