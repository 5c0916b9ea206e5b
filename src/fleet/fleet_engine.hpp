// Fleet engine: thousands of concurrent driver sessions per process.
//
// A deployment scenario the single-pipeline API cannot serve: one edge
// gateway ingesting radar streams from a whole vehicle fleet, where each
// driver is an independent BlinkRadarPipeline but the process must
// multiplex them all over a handful of cores. The FleetEngine owns a
// session table (create / feed / pump / evict / rehydrate / close) and
// drains queued frames over the shared deterministic ThreadPool.
//
// Determinism contract (the load-bearing property, enforced by
// tests/test_fleet.cpp): a fleet run is bit-identical to running the
// same sessions sequentially, for ANY shard count and ANY pool size.
// It follows from three rules:
//
//   1. A session is only ever drained whole by one worker at a time —
//      frames are processed in feed order, and everything a frame's
//      processing reads lives inside its session (pipeline state,
//      autosnapshot, recovery counters, metrics registry).
//   2. Recovery state is PER SESSION, never per shard. The escalation
//      ladder (retry -> warm restore from the session's autosnapshot ->
//      cold restart) consults only the session's own counters, so which
//      worker happens to drain a session cannot change its recovery
//      decisions. The rung bounds are core::Supervisor's
//      (core/recovery_ladder.hpp), but a shard does not run a
//      Supervisor per session. Supervisor backoff would replay (it
//      counts frames and draws its jitter from a seeded Rng), yet it
//      answers the frames it skips as quarantined; and the Supervisor's
//      stall watchdog reads the wall clock, so its forced checkpoints
//      would make the warm-restore point depend on timing.
//   3. Scheduling only chooses WHICH worker drains a session, never
//      WHAT the drain computes. Sessions are sharded by id % n_shards;
//      each shard has an atomic claim cursor, and a worker that empties
//      its own shard steals from the others round-robin — so one
//      stalled session delays only its own shard's tail, not the pump.
//
// Memory: an idle session can be evicted — its full detection state is
// serialised (the ~600 KB snapshot container from state/snapshot.hpp)
// either in memory or to `spill_dir`, and the pipeline is destroyed.
// The next pump() that finds queued frames rehydrates it bit-exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_config.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/span.hpp"
#include "radar/config.hpp"
#include "radar/frame.hpp"

namespace blinkradar::fleet {

/// Stable session handle; never reused within one engine.
using SessionId = std::uint64_t;

/// Engine-enforced residency budget. The evict/rehydrate *mechanism*
/// has existed since the engine landed; this is the *policy* on top:
/// after every pump the engine itself evicts sessions, least recently
/// active first, until the resident count fits the budget, plus any
/// session idle past the idle timer. "Activity" is measured in pump
/// counts, not wall time, so the policy's decisions replay exactly
/// (bit-identity at any shard/thread count is preserved — eviction is
/// bit-exact, and who gets evicted depends only on the feed/pump
/// sequence). Sessions with queued frames are never policy-evicted:
/// they would rehydrate on the very next pump, pure churn.
struct ResidencyPolicy {
    /// Max resident (pipeline-alive) sessions after a pump; 0 = no cap.
    std::size_t max_resident = 0;
    /// Evict a session whose last processed frame is at least this many
    /// pumps in the past; 0 = no idle timer.
    std::uint64_t evict_idle_after_pumps = 0;
};

struct FleetConfig {
    /// Shards the session table is partitioned into (id % n_shards).
    /// Purely a scheduling knob: results are bit-identical for any
    /// value >= 1. More shards means finer steal granularity.
    std::size_t n_shards = 4;

    /// Base pipeline configuration for every session (create_session
    /// overloads can override per session). The metrics_prefix field is
    /// managed by the engine — see metrics_prefix below.
    core::PipelineConfig pipeline{};

    /// Per-session autosnapshot cadence, in processed frames. The most
    /// recent autosnapshot is the warm-restore point of the recovery
    /// ladder and the eviction fast path. 0 disables autosnapshots
    /// (recovery then escalates straight to cold restart).
    std::size_t snapshot_interval_frames = 250;

    /// When non-empty, evicted session state is written here (one
    /// `session-<id>.snap` per session, crash-safe via
    /// state::write_snapshot_file) instead of being kept in memory.
    /// The engine sweeps orphaned temp files from the directory at
    /// construction.
    std::string spill_dir;

    /// Keep every per-frame core::FrameResult per session (the
    /// bit-identity tests compare these). Off for scale benches —
    /// blink events and SessionStats are always kept.
    bool record_results = true;

    /// Attach a private obs::MetricsRegistry to every session. Merged
    /// in ascending session-id order by merge_metrics().
    bool collect_metrics = false;

    /// Metric name prefix. Every session gets "<metrics_prefix>s<id>.",
    /// so no two sessions' series ever collide.
    std::string metrics_prefix = "fleet.";

    /// Engine-enforced eviction policy (see ResidencyPolicy). Adjustable
    /// at runtime via set_residency_policy — the ingest front-end's shed
    /// ladder tightens it under overload.
    ResidencyPolicy residency{};

    /// End-to-end trace span collector (not owned, must outlive the
    /// engine). Every session pipeline completes spans into it, and the
    /// pump stamps the kPump hop on frames carrying a span id. Null
    /// disables tracing; results are bit-identical either way.
    obs::telemetry::SpanCollector* span_collector = nullptr;
};

/// Per-session lifecycle/recovery counters (deterministic — part of the
/// bit-identity surface).
struct SessionStats {
    std::uint64_t frames_processed = 0;  ///< frames fed through process()
    std::uint64_t frames_dropped = 0;    ///< consumed by a cold restart
    std::uint64_t blinks = 0;
    std::uint64_t retries = 0;
    std::uint64_t warm_restores = 0;
    std::uint64_t cold_restarts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rehydrations = 0;
};

/// Per-worker scheduling counters for one pump() (NOT deterministic —
/// which worker drains which session depends on timing; only the union
/// of drained sessions is fixed). Slot w is written exclusively by
/// parallel_for worker w (by the calling thread, with shard w's
/// sessions, when a small pump drains inline), so reads after pump()
/// are race-free.
struct ShardStats {
    std::uint64_t sessions_drained = 0;
    std::uint64_t frames_processed = 0;
    std::uint64_t sessions_stolen = 0;  ///< drained from a foreign shard
};

/// Engine-wide lifecycle counters (deterministic except where noted).
struct EngineStats {
    std::uint64_t pumps = 0;
    std::uint64_t budget_evictions = 0;  ///< max_resident LRU evictions
    std::uint64_t idle_evictions = 0;    ///< idle-timer evictions
    std::uint64_t frames_processed = 0;  ///< cumulative over all pumps
    /// Cumulative cross-shard steals. NOT deterministic: which worker
    /// steals depends on timing (only the union of drained sessions is
    /// fixed) — excluded from bit-identity comparisons.
    std::uint64_t sessions_stolen = 0;
};

/// Multiplexes N independent BlinkRadarPipeline sessions over the
/// shared ThreadPool. Control operations (create/feed/evict/close/
/// accessors) and pump() are mutually serialised by an internal lock,
/// so the engine may be driven from several control threads; pump()
/// itself fans out over the pool.
class FleetEngine {
public:
    /// `pool` defaults to ThreadPool::shared(); it must outlive the
    /// engine. Construction sweeps orphaned snapshot temps from
    /// spill_dir (crashed-predecessor cleanup).
    explicit FleetEngine(FleetConfig config, ThreadPool* pool = nullptr);
    ~FleetEngine();

    FleetEngine(const FleetEngine&) = delete;
    FleetEngine& operator=(const FleetEngine&) = delete;

    /// Create a session (pipeline constructed immediately). The second
    /// overload overrides the base pipeline config for this session —
    /// its metrics_prefix is still engine-managed.
    SessionId create_session(const radar::RadarConfig& radar);
    SessionId create_session(const radar::RadarConfig& radar,
                             core::PipelineConfig overrides);

    /// Queue frames for a session; processed in feed order by the next
    /// pump(). Unknown id -> ContractViolation. The rvalue overload
    /// moves the frame in (the ingest front-end's zero-copy hand-off).
    void feed(SessionId id, const radar::RadarFrame& frame);
    void feed(SessionId id, radar::RadarFrame&& frame);
    void feed(SessionId id, const radar::FrameSeries& frames);

    /// Drain every queued frame of every session over the pool; a pump
    /// of a few dozen frames or fewer drains on the calling thread
    /// instead (same results, no worker wake-ups). Evicted sessions
    /// with queued frames are rehydrated first (on the draining
    /// worker). Returns the number of frames processed.
    std::size_t pump();

    /// Serialise a session's state (to spill_dir or memory) and destroy
    /// its pipeline. Queued frames, results, blinks, and stats survive;
    /// the next pump() with queued frames rehydrates it. No-op when
    /// already evicted.
    void evict(SessionId id);

    /// Destroy a session: drain-then-release. Frames still queued (fed
    /// after the last pump) are processed first — closing a session must
    /// never silently discard accepted work — then the session's state,
    /// results and spill file are released. Returns the final lifecycle
    /// stats (the last observable trace of the session). Its id is never
    /// reused.
    SessionStats close(SessionId id);

    bool is_resident(SessionId id) const;
    std::size_t session_count() const;
    std::size_t resident_count() const;

    /// Per-frame results (requires record_results; frames consumed by a
    /// cold restart contribute no entry — see SessionStats::frames_dropped).
    const std::vector<core::FrameResult>& results(SessionId id) const;

    /// All blinks the session has emitted (survives evict/rehydrate).
    const std::vector<core::DetectedBlink>& blinks(SessionId id) const;

    const SessionStats& stats(SessionId id) const;

    /// Scheduling counters of the most recent pump(), one slot per
    /// parallel_for worker.
    const std::vector<ShardStats>& last_pump_stats() const;

    /// Merge every session's registry into `out`, ascending id order
    /// (deterministic). No-op unless collect_metrics.
    void merge_metrics(obs::MetricsRegistry& out) const;

    /// Run one full aggregation cycle into `agg` under the engine lock:
    /// every session's registry rolls up (bounded cardinality, top-K
    /// laggard detail — see obs/telemetry/aggregator.hpp), then the
    /// engine's own lifecycle stats and per-shard roll-ups are written
    /// as "<metrics_prefix>engine.*" / "<metrics_prefix>shard<k>.*".
    /// Deterministic except engine.sessions_stolen.
    void aggregate_into(obs::telemetry::Aggregator& agg) const;

    /// Replace the residency policy (takes effect at the next pump).
    void set_residency_policy(ResidencyPolicy policy);
    ResidencyPolicy residency_policy() const;

    const EngineStats& engine_stats() const;

    const FleetConfig& config() const noexcept { return config_; }

private:
    struct Session;

    Session& session_ref(SessionId id);
    const Session& session_ref(SessionId id) const;
    std::string spill_path(SessionId id) const;
    void build_pipeline(Session& s) const;
    std::vector<std::uint8_t> checkpoint(Session& s) const;
    void serialize_session(Session& s) const;
    void evict_locked(Session& s);
    void enforce_residency_locked();
    void rehydrate(Session& s) const;
    void drain(Session& s, ShardStats& worker) const;
    bool process_with_recovery(Session& s,
                               const radar::RadarFrame& frame) const;

    FleetConfig config_;
    ThreadPool* pool_;
    mutable std::mutex mutex_;  ///< serialises control ops and pump()
    std::map<SessionId, std::unique_ptr<Session>> sessions_;
    SessionId next_id_ = 0;
    std::vector<ShardStats> last_pump_stats_;
    EngineStats engine_stats_;
};

}  // namespace blinkradar::fleet
