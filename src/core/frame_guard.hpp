// Frame validation front-end and sensor-health state machine.
//
// The pipeline's public contract is "feed whatever the sensor produced":
// deployed radars drop and duplicate frames, jitter timestamps, saturate,
// and occasionally hand over NaN-riddled or short frames. The FrameGuard
// is the single place that deals with all of it, so the detection chain
// behind it can keep assuming well-formed, monotonically timestamped
// frames:
//
//   - structural validation: bin count, finite samples, finite and
//     strictly increasing timestamps;
//   - repair: isolated non-finite samples are replaced by sample-hold
//     from the last good frame (a frame past `max_repair_fraction` is
//     quarantined whole);
//   - gap bridging: a short timestamp gap (dropped frames) is filled
//     with sample-held frames at the nominal cadence, using the real
//     timestamps on either side rather than assuming a perfect period;
//   - health: an explicit OK -> DEGRADED -> SIGNAL_LOST -> recovering
//     state machine driven by the rolling fault rate, with warm-restart
//     requests to the downstream pipeline after signal loss.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ring_buffer.hpp"
#include "core/pipeline_config.hpp"
#include "radar/config.hpp"
#include "radar/frame.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

/// Sensor/pipeline health as seen by the guard.
enum class HealthState {
    kOk,         ///< clean stream, detector fully converged
    kDegraded,   ///< faults above threshold but detection continues
    kSignalLost, ///< no usable frames; detection suspended
    kRecovering, ///< frames are back; warm restart converging
};
const char* to_string(HealthState state) noexcept;

/// Per-frame verdict of the guard.
enum class FrameVerdict {
    kClean,       ///< passed through untouched
    kRepaired,    ///< isolated samples fixed by sample-hold
    kBridged,     ///< preceded by synthetic gap-fill frames
    kQuarantined, ///< rejected whole; nothing fed downstream
};
const char* to_string(FrameVerdict verdict) noexcept;

/// Cumulative guard counters (pipeline diagnostics).
struct GuardStats {
    std::uint64_t frames_seen = 0;
    std::uint64_t frames_quarantined = 0;
    std::uint64_t samples_repaired = 0;
    std::uint64_t frames_bridged = 0;  ///< synthetic held frames emitted
    std::uint64_t gaps_bridged = 0;
    std::uint64_t signal_lost_events = 0;
    std::uint64_t warm_restarts = 0;
};

/// Outcome of admitting one sensor frame.
struct GuardDecision {
    /// Frames to feed the detection chain, oldest first (empty when the
    /// input was quarantined; more than one when a gap was bridged).
    /// Valid until the next admit() call.
    std::span<const radar::RadarFrame> frames;
    FrameVerdict verdict = FrameVerdict::kClean;
    std::uint32_t repaired_samples = 0;
    std::uint32_t bridged_frames = 0;
    /// The stream just recovered from signal loss: restart the detection
    /// state before processing `frames`.
    bool warm_restart = false;
};

/// Streaming frame validator; one instance per pipeline.
class FrameGuard {
public:
    FrameGuard(const radar::RadarConfig& radar, FrameGuardConfig config);

    /// Validate/repair one incoming frame and update the health machine.
    GuardDecision admit(const radar::RadarFrame& frame);

    /// Downstream signal: the detector finished (re)converging. Promotes
    /// kRecovering to kOk/kDegraded.
    void notify_converged();

    HealthState health() const noexcept { return health_; }
    const GuardStats& stats() const noexcept { return stats_; }

    /// Rolling fault fraction over the health window (diagnostics).
    double fault_rate() const noexcept;

    /// Snapshot the guard (section "GURD"): held baseline frame, health
    /// machine, rolling fault window, and cumulative stats, so a
    /// restored guard makes the same admit() decisions the original
    /// would have (bit-identical resume).
    void save_state(state::StateWriter& writer) const;
    void restore_state(state::StateReader& reader);

private:
    GuardDecision quarantine(Seconds t);
    void note_frame(bool faulty);
    void update_health();
    void enter_signal_lost();

    radar::RadarConfig radar_;
    FrameGuardConfig config_;
    std::size_t n_bins_;

    bool have_last_ = false;
    Seconds last_ts_ = 0.0;
    radar::RadarFrame last_good_;      ///< most recent valid frame (held)
    radar::RadarFrame repaired_;       ///< scratch for sample repair
    std::vector<radar::RadarFrame> out_;  ///< scratch for bridged output

    /// Rolling per-frame fault flags over the health window (uint8, not
    /// bool: RingBuffer needs real references to its slots).
    RingBuffer<std::uint8_t> fault_events_;
    std::size_t faults_in_window_ = 0;

    HealthState health_ = HealthState::kOk;
    std::size_t consecutive_quarantined_ = 0;
    bool pending_warm_restart_ = false;

    GuardStats stats_;
};

}  // namespace blinkradar::core
