// Streaming ingest front-end: N concurrent byte streams in, one
// fleet::FleetEngine out, with every overload behaviour made explicit.
//
// The engine multiplexes sessions it is *given*; this module decides
// what the engine is given when producers outrun it. The pieces, bottom
// to top:
//
//   ByteSource / BytePipe   - where bytes come from (file replay, or an
//                             in-process socket-like pipe).
//   WireDecoder             - corruption-tolerant "BRWF" framing; bad
//                             input is quarantined, never thrown.
//   BoundedFrameQueue       - per-stream backpressure policy
//                             (block | drop_oldest | drop_newest).
//   Admission token bucket  - caps the *rate* of new streams.
//   Load governor           - watches the backlog against the tick
//                             budget and walks the shed ladder.
//
// One call to pump() is one tick, in a fixed phase order:
//
//   poll       - per stream in the poll set, ascending id: retry the
//                block-policy holding slot, read up to the byte budget
//                (skipped while blocked — that is how pressure reaches
//                the pipe), decode records, queue frames; hello records
//                create fleet sessions.
//   deliver    - pop frames oldest-first (ascending stream id, only
//                streams with queued frames) into the engine, up to the
//                governor's per-tick frame budget.
//   engine     - FleetEngine::pump(), wall latency recorded to metrics.
//   watchdogs  - stalled sources that are not exhausted get reconnect()
//                with deterministic per-stream jittered exponential
//                backoff, in ascending id, from a schedule ordered by due
//                tick.
//   governor   - recompute load, walk the shed ladder one step with
//                hysteresis, apply the step's side effects.
//   admission  - refill the token bucket.
//
// Tick cost follows the streams that have work, not the streams open.
// The poll set holds every stream that may have something to read: a
// stream enters when it opens, when its source signals (ByteSource::
// bind_ready — a BytePipe write or close), when the watchdog reconnects
// it, or when the shed ladder restores its policy; it leaves only when
// a read returns 0 bytes and it holds no held frame and is not blocked.
// A source that cannot signal never leaves, so it is read every tick.
// Deliver walks only streams with queued frames; the backlog is a
// running count; the decoder gauges add the polled streams' deltas.
// A stream out of the poll set is silent, unblocked and unchanged, so
// its stall clock is lazy: stall_run grows by one per tick since its
// last poll (unless its source is exhausted), and its watchdog due tick
// is known when it leaves. Which streams are visited never changes what
// a visit computes: every result replays exactly as if each tick walked
// every stream.
//
// Shed ladder (ordered, one step per transition, hysteresis on both
// edges):
//
//   0 normal
//   1 widen latency sampling  - the front-end's own pump-latency
//                               metrics sampling stride widens
//                               (observability pays first).
//   2 force drop_oldest       - streams with queues more than half full
//                               are switched to drop_oldest (stale
//                               frames die before fresh ones wait).
//   3 evict idle              - the engine's residency policy tightens
//                               (evict after one idle pump) so idle
//                               sessions spill and working memory
//                               shrinks.
//   4 refuse admissions       - open_stream() refuses new streams.
//
// Determinism: every load-shedding decision — queue drops, ladder
// transitions, forced policies, residency tightening, admission refusal
// — derives from deterministic accounting (queue occupancy, tick
// counts, the forked per-stream RNGs), never from wall-clock time. Runs
// are bit-identical at any shard/thread count. Wall time is only
// *recorded* (metrics).
//
// No silent loss: per stream,
//   frames_decoded == delivered + queue drops + still queued + holding
// — an identity the ingest tests assert. Dropped frames leave timestamp
// gaps the pipeline's FrameGuard sees and bridges/quarantines like any
// other sensor gap.
//
// Threading: the front-end is driven by ONE thread (pump/open/close/
// accessors). Producers on other threads talk to it only through
// BytePipe, which is internally synchronised, as is the ready list its
// writes mark; the engine takes its own lock. The TSan suite drives
// exactly this arrangement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frame_queue.hpp"
#include "ingest/wire_format.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/export.hpp"
#include "obs/telemetry/slo.hpp"
#include "obs/telemetry/span.hpp"
#include "obs/trace.hpp"

namespace blinkradar::ingest {

using StreamId = std::uint64_t;

/// Overload response ladder, walked one step at a time.
enum class ShedLevel : std::uint8_t {
    kNormal = 0,
    kWidenSampling = 1,
    kForceDropOldest = 2,
    kEvictIdle = 3,
    kRefuseAdmissions = 4,
};
const char* to_string(ShedLevel level) noexcept;

/// One ladder transition (deterministic; the overload drill asserts the
/// engagement order against this history).
struct ShedEvent {
    std::uint64_t tick = 0;
    ShedLevel from = ShedLevel::kNormal;
    ShedLevel to = ShedLevel::kNormal;
    double load = 0.0;
};

/// Per-stream knobs, the same for every stream. The read budget (64 KiB
/// per tick), the per-stream delivery cap (32 frames per tick), the
/// decoder's payload ceiling (1 MiB) and the stall watchdog (fires
/// after 50 silent ticks; backoff 4 << attempts ticks, capped at 256,
/// plus jitter) are constants of the front-end.
struct StreamConfig {
    std::size_t queue_capacity = 64;
    BackpressurePolicy policy = BackpressurePolicy::kBlock;
};

/// Token-bucket admission gate for open_stream().
struct AdmissionConfig {
    double capacity = 8.0;         ///< burst allowance, in streams
    double refill_per_tick = 0.25; ///< sustained streams per tick
};

/// Load governor: the shed ladder's budget and thresholds. Its side
/// effects are constants: pump-latency sampling widens from every tick
/// to 1-in-8 at level >= 1, and level >= 3 pushes the residency policy
/// {max_resident 0, evict_idle_after_pumps 1} onto the engine.
struct GovernorConfig {
    /// Frames per tick the deployment is provisioned to sustain — the
    /// denominator of the load signal AND the global deliver budget.
    std::size_t budget_frames_per_tick = 256;

    /// Ladder engage thresholds on load = backlog / budget. Must be
    /// ascending. A level engages after `engage_ticks` consecutive
    /// ticks above its threshold and releases after `release_ticks`
    /// consecutive ticks below it (hysteresis, one step per change).
    double widen_at = 0.5;
    double force_drop_at = 1.0;
    double evict_at = 2.0;
    double refuse_at = 3.0;
    std::size_t engage_ticks = 3;
    std::size_t release_ticks = 6;
};

/// The live telemetry plane (see src/obs/telemetry and DESIGN.md §16):
/// hierarchical aggregation + snapshot export cadence, SLO burn-rate
/// tracking, and end-to-end span sampling. Every piece is
/// observation-only — results are bit-identical with it on or off.
/// With a metrics registry attached, the enqueue->result SLO is always
/// tracked ("ingest.slo.*", default SloConfig), and the roll-up keeps
/// the default 4 laggard sessions in full detail.
struct TelemetryConfig {
    /// Run one aggregation + publish cycle every N ticks; 0 disables
    /// the automatic cadence (publish_telemetry() still works).
    std::size_t export_every_ticks = 0;
    /// `blinkradar-obs-v1` JSON snapshot, replaced atomically each
    /// cycle; empty = keep the rendering in memory only
    /// (SnapshotPublisher::last_json).
    std::string json_path;
    /// Span sampling: one span per span_stride x latency-stride decoded
    /// frames, so the effective stride widens with the shed ladder
    /// exactly as pump-latency sampling does (observability pays
    /// first). 0 disables minting. Default shares the pipeline's 1-in-16
    /// stage-timing duty cycle.
    std::size_t span_stride = 16;
};

/// Every metric the front-end writes is named "ingest.*"
/// (obs/telemetry/names.hpp); each stream's watchdog-jitter RNG is
/// forked, in open order, from one fixed master seed.
struct IngestConfig {
    StreamConfig stream{};
    AdmissionConfig admission{};
    GovernorConfig governor{};
    TelemetryConfig telemetry{};
};

enum class AdmissionOutcome : std::uint8_t {
    kAdmitted = 0,
    kRefusedTokens = 1,  ///< bucket empty — arrival rate too high
    kRefusedShed = 2,    ///< ladder at kRefuseAdmissions
};

struct Admission {
    AdmissionOutcome outcome = AdmissionOutcome::kRefusedTokens;
    StreamId id = 0;  ///< valid only when admitted

    bool admitted() const noexcept {
        return outcome == AdmissionOutcome::kAdmitted;
    }
};

/// Everything one pump() tick did (deterministic except pump_ns).
struct PumpReport {
    std::uint64_t tick = 0;
    std::size_t frames_delivered = 0;  ///< handed to the engine this tick
    std::size_t frames_processed = 0;  ///< FleetEngine::pump() return
    std::size_t backlog = 0;           ///< queued + holding, after deliver
    double load = 0.0;
    ShedLevel level = ShedLevel::kNormal;
    std::uint64_t pump_ns = 0;  ///< engine pump wall latency (NOT determ.)
};

/// Point-in-time view of one stream (deterministic).
struct StreamStats {
    std::uint64_t frames_decoded = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_dropped = 0;  ///< by the queue policy
    std::uint64_t queued = 0;
    bool holding = false;  ///< block-policy holding slot occupied
    std::uint64_t bytes_read = 0;
    std::uint64_t stall_run = 0;  ///< current consecutive silent ticks
    std::uint64_t reconnects = 0;
    bool saw_bye = false;
    bool exhausted = false;
    BackpressurePolicy policy = BackpressurePolicy::kBlock;
    bool policy_forced = false;  ///< shed ladder overrode the policy
};

class IngestFrontend {
public:
    /// `engine` must outlive the front-end. `metrics` / `trace` /
    /// `spans` are optional and not owned; pass nullptr to disable.
    /// `spans` should be the same collector installed as the engine's
    /// FleetConfig::span_collector, so the spans this layer mints at
    /// decode are completed by the session pipelines.
    IngestFrontend(IngestConfig config, fleet::FleetEngine& engine,
                   obs::MetricsRegistry* metrics = nullptr,
                   obs::TraceSink* trace = nullptr,
                   obs::telemetry::SpanCollector* spans = nullptr);
    ~IngestFrontend();

    IngestFrontend(const IngestFrontend&) = delete;
    IngestFrontend& operator=(const IngestFrontend&) = delete;

    /// Admit a stream through the token bucket (and the shed ladder's
    /// refusal step). The fleet session is created later, when the
    /// stream's hello record decodes.
    Admission open_stream(std::unique_ptr<ByteSource> source);

    /// One tick: poll -> deliver -> engine.pump -> watchdogs ->
    /// governor -> token refill.
    PumpReport pump();

    /// Drain-then-release: remaining queued/held frames are fed to the
    /// session and processed (FleetEngine::close drains), then the
    /// stream is released. Returns the session's final stats (all zeros
    /// when the stream never produced a hello).
    fleet::SessionStats close_stream(StreamId id);

    std::size_t stream_count() const noexcept;
    std::vector<StreamId> stream_ids() const;

    /// The stream's fleet session, once its hello has decoded.
    std::optional<fleet::SessionId> session_of(StreamId id) const;

    StreamStats stream_stats(StreamId id) const;
    const DecodeStats& decode_stats(StreamId id) const;
    FrameQueueStats queue_stats(StreamId id) const;

    /// True when the stream can produce nothing more: a bye decoded or
    /// the source exhausted, and nothing queued or held. (A mid-frame
    /// EOF leaves its amputated tail counted in quarantined_bytes.)
    bool stream_done(StreamId id) const;
    /// All streams done.
    bool drained() const;

    ShedLevel shed_level() const noexcept { return level_; }
    const std::vector<ShedEvent>& shed_events() const noexcept {
        return shed_events_;
    }
    std::uint64_t tick() const noexcept { return tick_; }

    fleet::FleetEngine& engine() noexcept { return engine_; }

    /// Run one aggregation + publish cycle now: the engine rolls up
    /// (FleetEngine::aggregate_into), the front-end's own registry and
    /// bounded per-stream roll-ups ("ingest.s<id>.*") fold in,
    /// and the combined registry is rendered/written by the publisher.
    /// Also runs automatically every telemetry.export_every_ticks ticks.
    const obs::telemetry::SnapshotPublisher& publish_telemetry();

    /// The roll-up of the most recent publish_telemetry() cycle.
    const obs::telemetry::Aggregator& aggregator() const noexcept {
        return *aggregator_;
    }
    /// Null unless a metrics registry is attached.
    const obs::telemetry::SloTracker* slo() const noexcept {
        return slo_.get();
    }

private:
    struct Stream;
    struct Metrics;

    /// Decoder totals over open streams (the decoder gauges).
    struct DecodeSums {
        std::uint64_t bytes_in = 0;
        std::uint64_t frames = 0;
        std::uint64_t errors = 0;
        std::uint64_t quarantined = 0;
    };

    Stream& stream_ref(StreamId id);
    const Stream& stream_ref(StreamId id) const;
    void arm(Stream& s);
    void poll();
    void poll_stream(Stream& s);
    /// Replace the stream's share of decode_sums_ with `share`.
    void retally(Stream& s, const DecodeSums& share);
    std::uint64_t stall_run_at(const Stream& s) const;
    void schedule_watchdog(Stream& s);
    std::size_t deliver();
    void run_watchdogs();
    void run_governor(std::size_t backlog, PumpReport& report);
    void set_level(ShedLevel to, double load);
    void trace_line(const std::string& line);

    IngestConfig config_;
    fleet::FleetEngine& engine_;
    obs::MetricsRegistry* metrics_;
    obs::TraceSink* trace_;
    obs::telemetry::SpanCollector* spans_;
    std::unique_ptr<Metrics> m_;  ///< registered metric handles
    std::unique_ptr<obs::telemetry::SloTracker> slo_;
    std::unique_ptr<obs::telemetry::Aggregator> aggregator_;
    std::unique_ptr<obs::telemetry::SnapshotPublisher> publisher_;
    std::uint64_t decode_count_ = 0;  ///< span-sampling clock
    /// Streams whose per-stream roll-up was written last cycle (their
    /// exact "ingest.s<id>." keys are retired next cycle).
    std::vector<StreamId> telemetry_streams_;

    /// Declared before streams_: a source stops marking when its
    /// stream is destroyed, so the list must outlive every stream.
    ReadyList ready_;
    std::map<StreamId, std::unique_ptr<Stream>> streams_;
    StreamId next_stream_id_ = 0;

    std::vector<Stream*> poll_;    ///< the poll set, ascending id
    std::vector<Stream*> armed_;   ///< entering the poll set next tick
    std::vector<Stream*> queued_;  ///< streams with queued frames, ascending
    std::vector<Stream*> newly_queued_;  ///< scratch, ascending
    /// Watchdog schedule of streams out of the poll set: (due tick, id).
    std::set<std::pair<std::uint64_t, StreamId>> watch_;
    std::vector<Stream*> fired_;            ///< scratch
    std::vector<Stream*> merged_;           ///< scratch
    std::vector<std::uint64_t> signalled_;  ///< scratch
    std::size_t backlog_ = 0;  ///< queued + holding over open streams
    DecodeSums decode_sums_;
    Rng master_rng_;

    std::uint64_t tick_ = 0;
    double tokens_;
    ShedLevel level_ = ShedLevel::kNormal;
    std::size_t above_ticks_ = 0;
    std::size_t below_ticks_ = 0;
    std::size_t latency_stride_;
    fleet::ResidencyPolicy saved_residency_{};
    std::vector<ShedEvent> shed_events_;

    /// Read scratch shared by every stream (polls run one at a time):
    /// it stays cache-hot, and a stream costs no 64 KiB buffer of its own.
    std::vector<std::uint8_t> read_buf_;
    std::vector<radar::RadarFrame> deliver_frames_;  ///< scratch
    std::vector<std::uint64_t> deliver_ages_;        ///< scratch
};

}  // namespace blinkradar::ingest
