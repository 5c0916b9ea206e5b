#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/contracts.hpp"
#include "core/recovery_ladder.hpp"
#include "obs/telemetry/names.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::fleet {

namespace fs = std::filesystem;

namespace {

/// A pump with at most this many queued frames (~0.15 ms of steady-state
/// pipeline work) drains on the calling thread. Fanning it out would
/// wake every pool worker for a few microseconds of work each, and the
/// pump would then wait on the slowest wake-up: on a loaded host that
/// wait, not the frames, set a live gateway's tail latency.
constexpr std::size_t kInlinePumpFrames = 32;

}  // namespace

/// Everything one driver session owns. Only ever touched by the control
/// lock's holder or by the single worker currently draining it, so no
/// field needs its own synchronisation.
struct FleetEngine::Session {
    SessionId id = 0;
    radar::RadarConfig radar{};
    core::PipelineConfig pipeline_config{};

    /// Null while evicted. Rebuilt (and restored) by rehydrate().
    std::unique_ptr<core::BlinkRadarPipeline> pipeline;
    std::unique_ptr<obs::MetricsRegistry> metrics;

    /// Serialised state of an evicted session when the engine has no
    /// spill_dir; empty otherwise (the bytes live on disk instead).
    std::vector<std::uint8_t> evicted_state;
    bool evicted = false;

    /// Last periodic autosnapshot — the warm-restore point. The buffer
    /// is recycled through StateWriter so steady state stops allocating.
    std::vector<std::uint8_t> autosnapshot;
    std::size_t frames_since_snapshot = 0;

    /// Recovery ladder position; reset by every successful frame.
    std::size_t consecutive_failures = 0;
    std::size_t warm_restores_spent = 0;

    /// Pump count at creation or the last pump that drained this session
    /// — the residency policy's LRU/idle clock (pump counts, not wall
    /// time, so eviction decisions replay exactly).
    std::uint64_t last_active_pump = 0;

    std::deque<radar::RadarFrame> inbox;
    std::vector<core::FrameResult> results;
    std::vector<core::DetectedBlink> blinks;
    SessionStats stats;
};

FleetEngine::FleetEngine(FleetConfig config, ThreadPool* pool)
    : config_(std::move(config)),
      pool_(pool != nullptr ? pool : &ThreadPool::shared()) {
    BR_EXPECTS(config_.n_shards >= 1);
    shards_.resize(config_.n_shards);
    last_pump_stats_.resize(config_.n_shards);
    if (!config_.spill_dir.empty()) {
        std::error_code ec;
        fs::create_directories(config_.spill_dir, ec);
        // A crashed predecessor may have died mid-spill; its unique
        // temp files are pure leaks (never reused), reclaim them.
        state::cleanup_orphan_temps(config_.spill_dir);
    }
}

FleetEngine::~FleetEngine() = default;

std::string FleetEngine::spill_path(SessionId id) const {
    return config_.spill_dir + "/session-" + std::to_string(id) + ".snap";
}

FleetEngine::Session& FleetEngine::session_ref(SessionId id) {
    const auto it = sessions_.find(id);
    BR_EXPECTS(it != sessions_.end());
    return *it->second;
}

const FleetEngine::Session& FleetEngine::session_ref(SessionId id) const {
    const auto it = sessions_.find(id);
    BR_EXPECTS(it != sessions_.end());
    return *it->second;
}

void FleetEngine::build_pipeline(Session& s) const {
    // The registry persists across rebuilds (cold restarts, rehydration)
    // so counters keep accumulating; the pipeline re-registers the same
    // names into it, which is idempotent for the handles it takes.
    obs::MetricsRegistry* registry = s.metrics.get();
    s.pipeline = std::make_unique<core::BlinkRadarPipeline>(
        s.radar, s.pipeline_config, registry, nullptr,
        config_.span_collector);
}

SessionId FleetEngine::create_session(const radar::RadarConfig& radar) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const SessionId id = next_id_++;
    auto s = std::make_unique<Session>();
    s->id = id;
    s->radar = radar;
    s->pipeline_config = config_.pipeline;
    // Engine-managed per-session prefix: no two sessions can ever
    // collide in a shared downstream registry, snapshot, or trace.
    s->pipeline_config.metrics_prefix =
        std::string(obs::telemetry::kFleetPrefix) + "s" +
        std::to_string(id) + ".";
    if (config_.collect_metrics)
        s->metrics = std::make_unique<obs::MetricsRegistry>();
    s->last_active_pump = engine_stats_.pumps;  // creation counts as activity
    build_pipeline(*s);
    sessions_.emplace(id, std::move(s));
    return id;
}

void FleetEngine::feed(SessionId id, const radar::RadarFrame& frame) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Session& s = session_ref(id);
    if (s.inbox.empty()) ready_.push_back(&s);
    s.inbox.push_back(frame);
}

void FleetEngine::feed(SessionId id, radar::RadarFrame&& frame) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Session& s = session_ref(id);
    if (s.inbox.empty()) ready_.push_back(&s);
    s.inbox.push_back(std::move(frame));
}

void FleetEngine::feed(SessionId id, const radar::FrameSeries& frames) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Session& s = session_ref(id);
    if (s.inbox.empty() && !frames.empty()) ready_.push_back(&s);
    s.inbox.insert(s.inbox.end(), frames.begin(), frames.end());
}

std::vector<std::uint8_t> FleetEngine::checkpoint(Session& s) const {
    // Written into the autosnapshot's buffer: once a session has
    // checkpointed, later checkpoints allocate nothing.
    state::StateWriter writer(std::move(s.autosnapshot));
    s.pipeline->save_state(writer);
    return writer.finish();
}

void FleetEngine::serialize_session(Session& s) const {
    // Eviction drops the autosnapshot anyway, so its buffer takes the
    // eviction bytes.
    std::vector<std::uint8_t> bytes = checkpoint(s);
    if (config_.spill_dir.empty()) {
        s.evicted_state = std::move(bytes);
    } else {
        state::write_snapshot_file(spill_path(s.id), bytes);
        s.evicted_state.clear();
        s.evicted_state.shrink_to_fit();
    }
}

void FleetEngine::evict_locked(Session& s) {
    if (s.evicted) return;
    serialize_session(s);
    s.pipeline.reset();
    // The autosnapshot is reproducible from the serialised state; drop
    // it so an idle session costs its spill bytes and nothing else.
    s.autosnapshot.clear();
    s.autosnapshot.shrink_to_fit();
    s.evicted = true;
    ++s.stats.evictions;
}

void FleetEngine::evict(SessionId id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    evict_locked(session_ref(id));
}

void FleetEngine::enforce_residency_locked() {
    const ResidencyPolicy& policy = config_.residency;
    if (policy.max_resident == 0 && policy.evict_idle_after_pumps == 0)
        return;

    // Idle timer first: a session untouched for the configured number of
    // pumps is spilled regardless of the budget. Sessions with queued
    // frames are skipped — the next pump would rehydrate them anyway.
    if (policy.evict_idle_after_pumps > 0) {
        for (auto& [id, s] : sessions_) {
            if (s->evicted || !s->inbox.empty()) continue;
            if (engine_stats_.pumps - s->last_active_pump >=
                policy.evict_idle_after_pumps) {
                evict_locked(*s);
                ++engine_stats_.idle_evictions;
            }
        }
    }

    // Then the budget: evict least-recently-active first until the
    // resident count fits. Candidates are collected in ascending-id
    // order and stably sorted by last_active_pump, so ties break by id —
    // fully deterministic, no wall clock anywhere.
    if (policy.max_resident > 0) {
        std::vector<Session*> resident;
        for (auto& [id, s] : sessions_)
            if (!s->evicted) resident.push_back(s.get());
        if (resident.size() <= policy.max_resident) return;
        std::stable_sort(resident.begin(), resident.end(),
                         [](const Session* a, const Session* b) {
                             return a->last_active_pump <
                                    b->last_active_pump;
                         });
        std::size_t n_resident = resident.size();
        for (Session* s : resident) {
            if (n_resident <= policy.max_resident) break;
            if (!s->inbox.empty()) continue;  // never evict queued work
            evict_locked(*s);
            ++engine_stats_.budget_evictions;
            --n_resident;
        }
    }
}

void FleetEngine::rehydrate(Session& s) const {
    std::vector<std::uint8_t> bytes;
    if (config_.spill_dir.empty()) {
        bytes = std::move(s.evicted_state);
    } else {
        bytes = state::read_snapshot_file(spill_path(s.id));
    }
    build_pipeline(s);
    state::StateReader reader(bytes);
    s.pipeline->restore_state(reader);
    s.evicted_state.clear();
    s.evicted_state.shrink_to_fit();
    // The restored bytes' buffer becomes the next autosnapshot's (it
    // stays empty, so there is still no warm-restore point until then).
    bytes.clear();
    s.autosnapshot = std::move(bytes);
    s.evicted = false;
    s.frames_since_snapshot = 0;
    ++s.stats.rehydrations;
}

SessionStats FleetEngine::close(SessionId id) {
    // Drain-then-release. Because pump() holds mutex_ for its whole
    // call, a close() racing a pump serialises cleanly behind it — but
    // frames fed AFTER the last pump would previously be discarded
    // without a trace. Draining them here (inline, on the closing
    // thread) upholds the engine-wide invariant that every accepted
    // frame is either processed or counted as dropped.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    BR_EXPECTS(it != sessions_.end());
    Session& s = *it->second;
    if (!s.inbox.empty()) {
        std::erase(ready_, &s);
        ShardStats scratch;
        drain(s, scratch);
        engine_stats_.frames_processed += scratch.frames_processed;
    }
    const SessionStats final_stats = s.stats;
    if (!config_.spill_dir.empty()) {
        std::error_code ec;
        fs::remove(spill_path(id), ec);  // best-effort
    }
    sessions_.erase(it);
    return final_stats;
}

bool FleetEngine::is_resident(SessionId id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return !session_ref(id).evicted;
}

std::size_t FleetEngine::session_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

std::size_t FleetEngine::resident_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [id, s] : sessions_)
        if (!s->evicted) ++n;
    return n;
}

const std::vector<core::FrameResult>& FleetEngine::results(
    SessionId id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return session_ref(id).results;
}

const std::vector<core::DetectedBlink>& FleetEngine::blinks(
    SessionId id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return session_ref(id).blinks;
}

const SessionStats& FleetEngine::stats(SessionId id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return session_ref(id).stats;
}

const std::vector<ShardStats>& FleetEngine::last_pump_stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return last_pump_stats_;
}

void FleetEngine::set_residency_policy(ResidencyPolicy policy) {
    const std::lock_guard<std::mutex> lock(mutex_);
    config_.residency = policy;
}

ResidencyPolicy FleetEngine::residency_policy() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return config_.residency;
}

const EngineStats& FleetEngine::engine_stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return engine_stats_;
}

void FleetEngine::merge_metrics(obs::MetricsRegistry& out) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    // std::map iteration is ascending-id, so the merge order — and with
    // it every merged histogram — is reproducible run to run.
    for (const auto& [id, s] : sessions_)
        if (s->metrics) out.merge_from(*s->metrics);
}

bool FleetEngine::process_with_recovery(
    Session& s, const radar::RadarFrame& frame) const {
    // Per-session escalation ladder: retry -> warm restore from the
    // session's own autosnapshot -> cold restart. Every branch depends
    // only on session-local state, so recovery decisions are identical
    // no matter which worker drains the session (rule 2 of the
    // determinism contract in the header).
    for (;;) {
        try {
            const core::FrameResult result = s.pipeline->process(frame);
            s.consecutive_failures = 0;
            s.warm_restores_spent = 0;
            ++s.stats.frames_processed;
            if (result.blink) {
                s.blinks.push_back(*result.blink);
                ++s.stats.blinks;
            }
            if (config_.record_results) s.results.push_back(result);
            return true;
        } catch (const std::exception&) {
            if (s.consecutive_failures < core::kMaxFrameRetries) {
                ++s.consecutive_failures;
                ++s.stats.retries;
                continue;  // retry the same frame
            }
            if (!s.autosnapshot.empty() &&
                s.warm_restores_spent < core::kMaxWarmRestores) {
                ++s.warm_restores_spent;
                ++s.stats.warm_restores;
                s.consecutive_failures = 0;
                build_pipeline(s);
                state::StateReader reader(s.autosnapshot);
                s.pipeline->restore_state(reader);
                continue;  // replay the frame against the restored state
            }
            // Ladder exhausted: fresh pipeline, drop the poison frame.
            build_pipeline(s);
            s.consecutive_failures = 0;
            s.warm_restores_spent = 0;
            s.frames_since_snapshot = 0;
            s.autosnapshot.clear();
            ++s.stats.cold_restarts;
            ++s.stats.frames_dropped;
            return false;
        }
    }
}

void FleetEngine::drain(Session& s, ShardStats& worker) const {
    if (s.evicted) rehydrate(s);
    while (!s.inbox.empty()) {
        const radar::RadarFrame frame = std::move(s.inbox.front());
        s.inbox.pop_front();
        if (config_.span_collector != nullptr && frame.span_id != 0)
            config_.span_collector->hop(frame.span_id,
                                        obs::telemetry::SpanHop::kPump);
        process_with_recovery(s, frame);
        ++worker.frames_processed;
        if (config_.snapshot_interval_frames > 0 &&
            ++s.frames_since_snapshot >= config_.snapshot_interval_frames) {
            s.autosnapshot = checkpoint(s);
            s.frames_since_snapshot = 0;
        }
    }
    ++worker.sessions_drained;
}

std::size_t FleetEngine::pump() {
    // Held for the whole pump: control ops observe the session table
    // only between pumps, never half-drained. The pool workers below
    // touch sessions and shard cursors directly — not this mutex — so
    // the calling thread participating in parallel_for cannot deadlock.
    const std::lock_guard<std::mutex> lock(mutex_);

    const std::size_t n_shards = config_.n_shards;
    ++engine_stats_.pumps;

    // Ready sessions (the ones fed since the last pump), sharded by id.
    // Ascending-id within each shard — not required for bit-identity,
    // but it makes steal traces reproducible enough to read. Draining
    // counts as activity for the residency policy's pump-count clock.
    std::sort(ready_.begin(), ready_.end(),
              [](const Session* a, const Session* b) {
                  return a->id < b->id;
              });
    for (std::vector<Session*>& shard : shards_) shard.clear();
    std::size_t queued = 0;
    for (Session* s : ready_) {
        s->last_active_pump = engine_stats_.pumps;
        queued += s->inbox.size();
        shards_[static_cast<std::size_t>(s->id % n_shards)].push_back(s);
    }
    ready_.clear();

    std::vector<ShardStats>& stats = last_pump_stats_;
    std::fill(stats.begin(), stats.end(), ShardStats{});

    if (queued <= kInlinePumpFrames) {
        // Small pump: drain every shard here, each into its own slot.
        for (std::size_t t = 0; t < n_shards; ++t)
            for (Session* s : shards_[t]) drain(*s, stats[t]);
    } else {
        std::vector<std::atomic<std::size_t>> cursor(n_shards);
        for (auto& c : cursor) c.store(0, std::memory_order_relaxed);

        // One parallel_for index per shard. Worker w drains shard w, then
        // steals round-robin from w+1, w+2, ... Each session is claimed
        // by exactly one fetch_add winner and drained whole (rules 1 and
        // 3 of the determinism contract). Worker w writes only stats[w].
        pool_->parallel_for(n_shards, [&](std::size_t w) {
            for (std::size_t offset = 0; offset < n_shards; ++offset) {
                const std::size_t t = (w + offset) % n_shards;
                for (;;) {
                    const std::size_t i =
                        cursor[t].fetch_add(1, std::memory_order_relaxed);
                    if (i >= shards_[t].size()) break;
                    drain(*shards_[t][i], stats[w]);
                    if (t != w) ++stats[w].sessions_stolen;
                }
            }
        });
    }

    // Residency policy runs after the drain, while every inbox the pump
    // saw is empty — so "has queued frames" below means "fed during this
    // pump by another control thread", exactly the sessions not worth
    // spilling.
    enforce_residency_locked();

    std::size_t total = 0;
    for (const ShardStats& st : stats) {
        total += st.frames_processed;
        engine_stats_.sessions_stolen += st.sessions_stolen;
    }
    engine_stats_.frames_processed += total;
    return total;
}

void FleetEngine::aggregate_into(obs::telemetry::Aggregator& agg) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    agg.begin_cycle();
    // Pass 1: roll every session up (ascending id — deterministic gauge
    // last-writer and merge order). Pass 2: the top-K laggards keep
    // their per-session series.
    for (const auto& [id, s] : sessions_)
        if (s->metrics) agg.add_session(id, *s->metrics);
    for (const std::uint64_t id : agg.select_laggards()) {
        const auto it = sessions_.find(id);
        if (it != sessions_.end() && it->second->metrics)
            agg.add_laggard_detail(id, *it->second->metrics);
    }

    // Engine + per-shard roll-ups: bounded (one set + n_shards sets),
    // independent of fleet size. Monotone stats go in as counters (the
    // output was just reset, so inc(absolute) lands the exact value);
    // instantaneous ones as gauges.
    obs::MetricsRegistry& out = agg.output();
    const std::string p(obs::telemetry::kFleetPrefix);
    std::size_t resident = 0;
    std::vector<std::uint64_t> shard_resident(config_.n_shards, 0);
    std::vector<std::uint64_t> shard_queued(config_.n_shards, 0);
    for (const auto& [id, s] : sessions_) {
        const std::size_t k = static_cast<std::size_t>(id % config_.n_shards);
        if (!s->evicted) {
            ++resident;
            ++shard_resident[k];
        }
        shard_queued[k] += s->inbox.size();
    }
    out.gauge(p + "engine.sessions")
        .set(static_cast<double>(sessions_.size()));
    out.gauge(p + "engine.resident").set(static_cast<double>(resident));
    out.gauge(p + "engine.evicted")
        .set(static_cast<double>(sessions_.size() - resident));
    out.counter(p + "engine.pumps").inc(engine_stats_.pumps);
    out.counter(p + "engine.budget_evictions")
        .inc(engine_stats_.budget_evictions);
    out.counter(p + "engine.idle_evictions")
        .inc(engine_stats_.idle_evictions);
    out.counter(p + "engine.frames_processed")
        .inc(engine_stats_.frames_processed);
    out.counter(p + "engine.sessions_stolen")
        .inc(engine_stats_.sessions_stolen);
    for (std::size_t k = 0; k < config_.n_shards; ++k) {
        const std::string shard = p + "shard" + std::to_string(k) + ".";
        out.gauge(shard + "resident")
            .set(static_cast<double>(shard_resident[k]));
        out.gauge(shard + "queued")
            .set(static_cast<double>(shard_queued[k]));
    }
}

}  // namespace blinkradar::fleet
