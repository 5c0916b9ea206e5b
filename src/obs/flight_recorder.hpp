// Always-on flight recorder: the pipeline's black box.
//
// Aggregate metrics (metrics.hpp) say *that* a detection went wrong;
// the post-crash slot files (core::Supervisor) say where the state ended
// up. Neither shows the frames and intermediate signals that *caused* an
// incident. The FlightRecorder closes that gap: bounded rings of
//
//   (a) recent raw I/Q frames, exactly as the sensor delivered them
//       (pre-guard, so a dump replays the original input);
//   (b) per-stage signal taps — one compact scalar record per frame
//       (guard verdict/health, selected-bin I/Q, arc-fit centre/radius/
//       residual, waveform sample, LEVD threshold/sigma and decisions)
//       plus decimated full range profiles (post-preprocess and
//       background-subtracted);
//   (c) pipeline events (health transitions, movement restarts, blink
//       emissions, bin switches, supervisor escalations);
//   (d) periodic metrics snapshots; and
//   (e) replay-base checkpoints: serialized pipeline state captured so
//       that every raw frame still in ring (a) is reachable from some
//       checkpoint — a dump is therefore a self-contained, self-
//       verifying reproduction of the incident (see core/postmortem.hpp
//       for the replay contract and tools/br_inspect for the CLI).
//
// Recording follows the frame path's zero-allocation rule: every ring
// slot is recycled (vectors keep their capacity across evictions), the
// checkpoint byte buffers round-robin through StateWriter's recycling
// constructor, and the steady-state record path performs no allocation
// once warm. Dumping — the incident path — may allocate freely.
//
// A recorder belongs to one pipeline at a time but deliberately lives
// *outside* it (same ownership rule as MetricsRegistry): the Supervisor
// replaces crashed pipelines, and the black box must survive the swap.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ring_buffer.hpp"
#include "dsp/dsp_types.hpp"
#include "radar/frame.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::obs {

/// Ring depths and capture cadences. The default channels are tiered
/// like an aircraft black box — fidelity drops as the horizon grows:
/// full-rate raw I/Q frames for the last ~20 s (512 at 25 Hz, the
/// bit-replayable incident window), decimated range profiles spanning
/// ~41 s (spatial context either side of it), and per-frame scalar
/// taps for ~82 s (a whole escalation ladder run plus the healthy
/// lead-up). The raw ring is also sized to stay cache-resident: at the
/// default 151-bin geometry 512 slots are ~1.2 MB, and the per-frame
/// frame copy is what keeps the steady-state recording cost inside the
/// observability layer's <2 % budget (doubling the ring measurably
/// pushes the copy out of L2 on small automotive-class parts).
struct FlightRecorderConfig {
    std::size_t raw_ring_frames = 512;    ///< raw I/Q frames kept
    std::size_t tap_ring_frames = 2048;   ///< per-frame scalar taps kept
    std::size_t event_ring = 512;         ///< pipeline events kept
    std::size_t profile_ring = 64;        ///< full-profile taps kept
    /// Full range profiles (post-preprocess + background-subtracted) are
    /// captured on 1 frame in this many — copying two whole profiles
    /// every frame would eat the overhead budget on its own. At 1-in-16
    /// the 64-slot ring spans 1024 frames, twice the raw ring.
    std::size_t profile_interval_frames = 16;
    std::size_t metrics_ring = 32;        ///< metrics snapshots kept
    std::size_t metrics_interval_frames = 256;
    /// Self-checkpoint cadence (frames): the owning pipeline serializes
    /// its state into the recorder so replay has a base. When non-zero
    /// it must not exceed raw_ring_frames / 2, so at least one retained
    /// checkpoint always predates the oldest raw frame in the ring.
    ///
    /// 0 (the default) disables self-checkpointing. Serializing the
    /// pipeline's ~600 KB detection window is memory-bandwidth-bound
    /// (~120 us per checkpoint even with CRCs deferred), which no
    /// cadence the invariant above allows can amortize into the
    /// recorder's <2 % per-frame budget. The supervised topology does
    /// not need it anyway: core::Supervisor already serializes the
    /// pipeline for crash recovery and feeds every autosnapshot to the
    /// recorder via note_checkpoint(), so replay bases arrive at zero
    /// marginal cost. Standalone pipelines either stay within the raw
    /// ring (replay starts from a cold pipeline at frame 1) or opt in
    /// here, accepting the serialization cost.
    std::size_t checkpoint_interval_frames = 0;
};

/// One compact per-frame record of every stage's scalar output.
struct FrameTap {
    std::uint64_t seq = 0;       ///< recorder sequence number
    double t = 0.0;              ///< frame timestamp
    std::uint8_t verdict = 0;    ///< core::FrameVerdict
    std::uint8_t health = 0;     ///< core::HealthState after the frame
    bool cold_start = false;
    bool restarted = false;
    bool has_blink = false;
    std::int64_t selected_bin = -1;  ///< -1 during cold start
    dsp::Complex bin_iq{0.0, 0.0};   ///< selected-bin subtracted I/Q
    double fit_cx = 0.0, fit_cy = 0.0;  ///< viewing-position centre
    double fit_radius = 0.0;
    double fit_residual = 0.0;
    double waveform = 0.0;           ///< d(t) fed to LEVD
    double levd_threshold = 0.0;
    double levd_sigma = 0.0;
    double blink_peak_s = 0.0, blink_duration_s = 0.0;
    double blink_magnitude = 0.0, blink_strength = 0.0;
    std::uint32_t repaired_samples = 0;
    std::uint32_t bridged_frames = 0;
};

/// Things worth a timeline entry. `a`/`b` carry event-specific payloads
/// (documented per enumerator in to_string()'s table in the .cpp).
enum class RecorderEvent : std::uint8_t {
    kHealthTransition,    ///< a = from, b = to (core::HealthState)
    kMovementRestart,     ///< large body movement reset the pipeline
    kBinSwitch,           ///< a = old bin (-1 none), b = new bin
    kBlink,               ///< a = peak_s, b = strength
    kCheckpoint,          ///< replay-base checkpoint stored, a = bytes
    kSupervisorFault,     ///< exception caught in process()
    kSupervisorRetry,     ///< same-frame retry
    kSupervisorWarmRestore,  ///< pipeline restored from a snapshot
    kSupervisorColdRestart,  ///< pipeline rebuilt from scratch
    kSupervisorBackoff,   ///< a = frames to skip
    kSupervisorStall,     ///< stall watchdog fired, a = gap seconds
    kDump,                ///< a dump was written (appears in later dumps)
};
const char* to_string(RecorderEvent type) noexcept;

struct TapEvent {
    std::uint64_t seq = 0;
    double t = 0.0;
    std::uint8_t type = 0;  ///< RecorderEvent
    double a = 0.0, b = 0.0;
};

/// Periodic numeric roll-up (plain values, no registry machinery, so
/// recording one is a struct copy).
struct MetricsSnap {
    std::uint64_t seq = 0;
    double t = 0.0;
    std::uint64_t frames = 0, blinks = 0, restarts = 0;
    std::uint64_t quarantined = 0, repaired = 0, bridged = 0, gaps = 0;
    std::uint64_t signal_losses = 0, warm_restarts = 0;
    double fault_rate = 0.0, levd_threshold = 0.0, levd_sigma = 0.0;
};

/// Decoded contents of a flight dump (see decode_flight_dump).
struct FlightDump {
    std::uint16_t version = 0;
    std::string reason;
    std::uint64_t seq_at_dump = 0;
    /// True when any checkpoint was ever fed via note_checkpoint() — the
    /// owner replaced pipeline state at least once (Supervisor restores),
    /// so a replay may only base on a *retained* checkpoint: an evicted
    /// external checkpoint could mark a state replacement a cold replay
    /// would silently miss. Self-checkpoints serialize the live state of
    /// an uninterrupted run, so without external ones a cold replay from
    /// frame 1 is always faithful.
    bool external_checkpoints = false;

    struct RawFrame {
        std::uint64_t seq = 0;
        radar::RadarFrame frame;
    };
    std::vector<RawFrame> raw;  ///< oldest first, contiguous seq

    std::vector<FrameTap> taps;      ///< oldest first
    std::vector<TapEvent> events;    ///< oldest first
    std::vector<MetricsSnap> metrics;

    struct ProfileTap {
        std::uint64_t seq = 0;
        dsp::ComplexSignal pre;  ///< range profile after preprocess
        dsp::ComplexSignal sub;  ///< after background subtraction
    };
    std::vector<ProfileTap> profiles;

    struct Checkpoint {
        std::uint64_t seq = 0;  ///< state after processing frame `seq`
        std::vector<std::uint8_t> bytes;  ///< nested BRSN container
    };
    std::vector<Checkpoint> checkpoints;  ///< oldest first
};

/// The black box. See the file comment for the recording contract; the
/// call protocol per frame is:
///
///   seq = begin_frame(frame);          // raw ring, pre-guard
///   if (profiles_due()) tap_profiles(pre, sub);   // inside the stages
///   end_frame(tap);                    // scalar tap + events + metrics
///
/// plus note_checkpoint()/store_checkpoint() whenever a replay base is
/// captured (every checkpoint_interval_frames, or externally by the
/// Supervisor on its own snapshot cadence and after every restore).
class FlightRecorder {
public:
    explicit FlightRecorder(FlightRecorderConfig config = {});

    const FlightRecorderConfig& config() const noexcept { return config_; }

    /// Record the raw sensor frame and open a new sequence number.
    std::uint64_t begin_frame(const radar::RadarFrame& frame);

    /// True when the current frame should capture full range profiles.
    bool profiles_due() const noexcept { return profile_pending_; }

    /// Capture the decimated full-profile tap (first call per frame
    /// wins; bridged replays within one admit() share the slot).
    void tap_profiles(std::span<const dsp::Complex> pre,
                      std::span<const dsp::Complex> sub);

    /// Close the frame: store the scalar tap (tap.seq must be the value
    /// begin_frame returned).
    void end_frame(const FrameTap& tap);

    /// True when end_frame() just crossed the metrics cadence; the owner
    /// then records a MetricsSnap.
    bool metrics_due() const noexcept;
    void record_metrics(const MetricsSnap& snap);

    void record_event(RecorderEvent type, double t, double a = 0.0,
                      double b = 0.0);

    /// Self-checkpoint protocol (alloc-free once warm): the owner asks
    /// checkpoint_due() at the end of each frame, serializes into the
    /// recycled buffer from take_checkpoint_buffer() via
    /// state::StateWriter's recycling constructor, and hands the sealed
    /// bytes back through store_checkpoint().
    bool checkpoint_due() const noexcept;
    std::vector<std::uint8_t> take_checkpoint_buffer() noexcept;
    void store_checkpoint(std::vector<std::uint8_t>&& bytes);

    /// Externally fed replay base (the Supervisor's autosnapshot, and
    /// the restored bytes after every warm restore / cold restart —
    /// restores re-base the replay timeline on the state that is
    /// actually live). Copies into a recycled slot.
    void note_checkpoint(std::span<const std::uint8_t> bytes);

    /// Frames recorded so far (sequence numbers are 1-based).
    std::uint64_t seq() const noexcept { return seq_; }

    /// Serialize every ring as "BRFR"/"FR**" sections into an open
    /// container. `reason` is free-form ("frame_fault", "stall", ...).
    void dump(state::StateWriter& writer, std::string_view reason) const;

    /// Forget everything (rings and checkpoints; capacities are kept).
    void clear();

private:
    struct RawSlot {
        std::uint64_t seq = 0;
        double t = 0.0;
        dsp::ComplexSignal bins;
    };
    struct ProfileSlot {
        std::uint64_t seq = 0;
        dsp::ComplexSignal pre;
        dsp::ComplexSignal sub;
    };
    struct CheckpointSlot {
        std::uint64_t seq = 0;
        bool valid = false;
        /// Self-checkpoints are captured with deferred section CRCs
        /// (StateWriter::defer_crcs) so the steady-state cost is the
        /// bulk copy alone; dump() seals them on the way out. External
        /// checkpoints arrive already sealed and are passed through
        /// verbatim.
        bool sealed = true;
        std::vector<std::uint8_t> bytes;
    };

    /// The slot a checkpoint taken now goes to: the newest slot when it
    /// already holds seq_ (only the later of two states at one seq is
    /// live from there on, and rotating would evict the older replay
    /// base), else the next slot in rotation.
    CheckpointSlot& claim_checkpoint_slot() noexcept;

    FlightRecorderConfig config_;
    std::uint64_t seq_ = 0;
    bool profile_pending_ = false;
    bool metrics_pending_ = false;

    RingBuffer<RawSlot> raw_;
    RingBuffer<FrameTap> taps_;
    RingBuffer<TapEvent> events_;
    RingBuffer<ProfileSlot> profiles_;
    RingBuffer<MetricsSnap> metrics_;

    /// Two alternating replay-base checkpoints plus one spare buffer
    /// that round-robins through StateWriter: with a cadence of at most
    /// raw_ring_frames / 2, the older of the two always predates the
    /// oldest raw frame still in the ring.
    CheckpointSlot checkpoints_[2];
    std::size_t next_checkpoint_ = 0;
    std::vector<std::uint8_t> spare_checkpoint_buf_;
    bool external_checkpoints_ = false;  ///< see FlightDump
};

/// Decode the "BRFR"/"FR**" sections of a dump container. Throws
/// state::SnapshotError on any structural damage the container CRCs did
/// not already catch (missing sections, inconsistent counts, unsupported
/// versions).
FlightDump decode_flight_dump(state::StateReader& reader);

}  // namespace blinkradar::obs
