#include "ingest/frontend.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/contracts.hpp"
#include "obs/telemetry/names.hpp"

namespace blinkradar::ingest {

namespace {

// Stream, governor and watchdog constants (see frontend.hpp).
constexpr std::size_t kReadBudgetBytes = 64 * 1024;
constexpr std::size_t kMaxDeliverPerTick = 32;
constexpr std::uint64_t kStallTicks = 50;
constexpr std::uint64_t kBackoffBaseTicks = 4;
constexpr std::uint64_t kBackoffMaxTicks = 256;
constexpr std::size_t kLatencyStrideNormal = 1;
constexpr std::size_t kLatencyStrideShed = 8;
constexpr fleet::ResidencyPolicy kOverloadResidency{
    .max_resident = 0, .evict_idle_after_pumps = 1};
constexpr std::uint64_t kMasterSeed = 0xB11Fu;

/// Tick sets are kept in ascending stream id, the replay order.
constexpr auto by_id = [](const auto* a, const auto* b) {
    return a->id < b->id;
};

}  // namespace

const char* to_string(ShedLevel level) noexcept {
    switch (level) {
        case ShedLevel::kNormal: return "normal";
        case ShedLevel::kWidenSampling: return "widen_sampling";
        case ShedLevel::kForceDropOldest: return "force_drop_oldest";
        case ShedLevel::kEvictIdle: return "evict_idle";
        case ShedLevel::kRefuseAdmissions: return "refuse_admissions";
    }
    return "?";
}

/// Everything one stream owns. Touched only by the driving thread; the
/// source is the boundary to producer threads (BytePipe locks inside).
struct IngestFrontend::Stream {
    Stream(StreamId id_, const StreamConfig& config,
           std::unique_ptr<ByteSource> source_, Rng rng_)
        : id(id_),
          source(std::move(source_)),
          queue(config.queue_capacity, config.policy),
          rng(rng_) {}

    StreamId id;
    std::unique_ptr<ByteSource> source;
    WireDecoder decoder;  ///< default 1 MiB payload ceiling
    BoundedFrameQueue queue;
    bool policy_forced = false;  ///< shed ladder overrode the policy
    Rng rng;                     ///< watchdog jitter (forked, per stream)

    bool signals = false;  ///< the source marks the ready list
    bool in_poll = false;  ///< in the poll set, or armed to enter it
    bool in_queued = false;  ///< in the deliver set (queue non-empty)

    std::optional<fleet::SessionId> session;
    /// Block-policy holding slot: the one decoded frame the full queue
    /// refused. While occupied the stream reads no further bytes, so
    /// pressure backs up into the decoder buffer and then the source.
    std::optional<radar::RadarFrame> holding;

    /// Consecutive silent ticks, current as of polled_tick; while out
    /// of the poll set with stall_counting, every later tick adds one.
    std::uint64_t stall_run = 0;
    std::uint64_t polled_tick = 0;
    bool stall_counting = false;
    std::uint64_t watch_due = 0;  ///< key in the watchdog schedule; 0 = none
    std::uint64_t reconnects = 0;
    std::uint64_t backoff_attempts = 0;
    std::uint64_t next_reconnect_tick = 0;

    std::uint64_t bytes_read = 0;
    std::uint64_t delivered = 0;

    DecodeSums decode_share;  ///< this stream's part of decode_sums_
};

/// Metric handles registered once at construction (hot paths only
/// touch integers — the registry contract).
struct IngestFrontend::Metrics {
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* opened = nullptr;
    obs::Counter* closed = nullptr;
    obs::Counter* refused_tokens = nullptr;
    obs::Counter* refused_shed = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* shed_transitions = nullptr;
    obs::Gauge* load = nullptr;
    obs::Gauge* shed_level = nullptr;
    obs::Gauge* backlog = nullptr;
    obs::Gauge* tokens = nullptr;
    obs::Gauge* bytes_in = nullptr;
    obs::Gauge* frames_decoded = nullptr;
    obs::Gauge* decode_errors = nullptr;
    obs::Gauge* quarantined_bytes = nullptr;
    obs::LatencyHistogram* pump_ns = nullptr;
    obs::LatencyHistogram* queue_age_ticks = nullptr;
};

IngestFrontend::IngestFrontend(IngestConfig config,
                               fleet::FleetEngine& engine,
                               obs::MetricsRegistry* metrics,
                               obs::TraceSink* trace,
                               obs::telemetry::SpanCollector* spans)
    : config_(std::move(config)),
      engine_(engine),
      metrics_(metrics),
      trace_(trace),
      spans_(spans),
      master_rng_(kMasterSeed),
      tokens_(config_.admission.capacity),
      latency_stride_(kLatencyStrideNormal),
      read_buf_(kReadBudgetBytes) {
    const GovernorConfig& g = config_.governor;
    BR_EXPECTS(g.budget_frames_per_tick >= 1);
    BR_EXPECTS(g.widen_at < g.force_drop_at &&
               g.force_drop_at < g.evict_at && g.evict_at < g.refuse_at);
    BR_EXPECTS(g.engage_ticks >= 1 && g.release_ticks >= 1);
    BR_EXPECTS(config_.stream.queue_capacity >= 1);
    BR_EXPECTS(config_.admission.capacity >= 1.0);
    if (metrics_ != nullptr) {
        const std::string p(obs::telemetry::kIngestPrefix);
        m_ = std::make_unique<Metrics>();
        m_->delivered = &metrics_->counter(p + "frames.delivered");
        m_->dropped = &metrics_->counter(p + "frames.dropped");
        m_->opened = &metrics_->counter(p + "streams.opened");
        m_->closed = &metrics_->counter(p + "streams.closed");
        m_->refused_tokens = &metrics_->counter(p + "streams.refused_tokens");
        m_->refused_shed = &metrics_->counter(p + "streams.refused_shed");
        m_->reconnects = &metrics_->counter(p + "watchdog.reconnects");
        m_->shed_transitions = &metrics_->counter(p + "shed.transitions");
        m_->load = &metrics_->gauge(p + "load");
        m_->shed_level = &metrics_->gauge(p + "shed.level");
        m_->backlog = &metrics_->gauge(p + "backlog");
        m_->tokens = &metrics_->gauge(p + "admission.tokens");
        m_->bytes_in = &metrics_->gauge(p + "bytes_in");
        m_->frames_decoded = &metrics_->gauge(p + "frames.decoded");
        m_->decode_errors = &metrics_->gauge(p + "decode.errors");
        m_->quarantined_bytes = &metrics_->gauge(p + "decode.quarantined_bytes");
        m_->pump_ns = &metrics_->histogram(p + "pump_ns");
        m_->queue_age_ticks = &metrics_->histogram(p + "queue_age_ticks");
        slo_ = std::make_unique<obs::telemetry::SloTracker>(
            obs::telemetry::SloConfig{}, metrics_);
    }
    aggregator_ = std::make_unique<obs::telemetry::Aggregator>();
    publisher_ = std::make_unique<obs::telemetry::SnapshotPublisher>(
        obs::telemetry::SnapshotPublisherConfig{config_.telemetry.json_path});
}

IngestFrontend::~IngestFrontend() = default;

void IngestFrontend::trace_line(const std::string& line) {
    if (trace_ != nullptr) trace_->write_line(line);
}

IngestFrontend::Stream& IngestFrontend::stream_ref(StreamId id) {
    const auto it = streams_.find(id);
    BR_EXPECTS(it != streams_.end());
    return *it->second;
}

const IngestFrontend::Stream& IngestFrontend::stream_ref(
    StreamId id) const {
    const auto it = streams_.find(id);
    BR_EXPECTS(it != streams_.end());
    return *it->second;
}

Admission IngestFrontend::open_stream(std::unique_ptr<ByteSource> source) {
    BR_EXPECTS(source != nullptr);
    if (level_ >= ShedLevel::kRefuseAdmissions) {
        if (m_) m_->refused_shed->inc();
        trace_line("{\"ev\":\"ingest.refuse\",\"why\":\"shed\",\"tick\":" +
                   std::to_string(tick_) + "}");
        return {AdmissionOutcome::kRefusedShed, 0};
    }
    if (tokens_ < 1.0) {
        if (m_) m_->refused_tokens->inc();
        trace_line("{\"ev\":\"ingest.refuse\",\"why\":\"tokens\",\"tick\":" +
                   std::to_string(tick_) + "}");
        return {AdmissionOutcome::kRefusedTokens, 0};
    }
    tokens_ -= 1.0;
    const StreamId id = next_stream_id_++;
    Stream& s = *streams_
                     .emplace(id, std::make_unique<Stream>(
                                      id, config_.stream, std::move(source),
                                      master_rng_.fork()))
                     .first->second;
    s.signals = s.source->bind_ready(ready_, id);
    arm(s);
    if (m_) m_->opened->inc();
    trace_line("{\"ev\":\"ingest.open\",\"stream\":" + std::to_string(id) +
               ",\"tick\":" + std::to_string(tick_) + "}");
    return {AdmissionOutcome::kAdmitted, id};
}

void IngestFrontend::arm(Stream& s) {
    if (s.in_poll) return;
    s.in_poll = true;
    if (s.watch_due != 0) {
        watch_.erase({s.watch_due, s.id});
        s.watch_due = 0;
    }
    armed_.push_back(&s);
}

std::uint64_t IngestFrontend::stall_run_at(const Stream& s) const {
    return s.stall_run + (s.stall_counting ? tick_ - s.polled_tick : 0);
}

void IngestFrontend::poll() {
    // Marks from producers (late ones of closed streams are dropped),
    // then everything armed since the last tick, merged in id order.
    ready_.take(signalled_);
    for (const StreamId id : signalled_) {
        const auto it = streams_.find(id);
        if (it != streams_.end()) arm(*it->second);
    }
    if (!armed_.empty()) {
        std::sort(armed_.begin(), armed_.end(), by_id);
        merged_.clear();
        std::merge(poll_.begin(), poll_.end(), armed_.begin(), armed_.end(),
                   std::back_inserter(merged_), by_id);
        poll_.swap(merged_);
        armed_.clear();
    }

    newly_queued_.clear();
    for (Stream* s : poll_) {
        poll_stream(*s);
        if (!s->in_queued && s->queue.size() != 0) {
            s->in_queued = true;
            newly_queued_.push_back(s);
        }
        // The decoder only changes here, so re-tallying each polled
        // stream keeps the sums equal to the open streams' totals.
        if (m_ != nullptr) {
            const DecodeStats& d = s->decoder.stats();
            retally(*s, {d.bytes_in, d.frames_decoded, d.total_errors(),
                         d.quarantined_bytes});
        }
    }
    if (!newly_queued_.empty()) {
        merged_.clear();
        std::merge(queued_.begin(), queued_.end(), newly_queued_.begin(),
                   newly_queued_.end(), std::back_inserter(merged_),
                   by_id);
        queued_.swap(merged_);
    }
}

void IngestFrontend::retally(Stream& s, const DecodeSums& share) {
    DecodeSums& old = s.decode_share;
    decode_sums_.bytes_in += share.bytes_in - old.bytes_in;
    decode_sums_.frames += share.frames - old.frames;
    decode_sums_.errors += share.errors - old.errors;
    decode_sums_.quarantined += share.quarantined - old.quarantined;
    old = share;
}

void IngestFrontend::poll_stream(Stream& s) {
    bool progress = false;

    // Every tick since the last poll was a silent one.
    if (s.stall_counting) s.stall_run += tick_ - 1 - s.polled_tick;
    s.stall_counting = false;
    s.polled_tick = tick_;

    // Retry the holding slot first — it is the oldest undecoded frame.
    if (s.holding) {
        const std::uint64_t held_span = s.holding->span_id;
        const PushOutcome out = s.queue.push(std::move(*s.holding), tick_);
        if (out != PushOutcome::kWouldBlock) {
            // (push only moves from its argument when it enqueues, so
            // the held frame is intact on kWouldBlock.)
            s.holding.reset();
            progress = true;
            if (out != PushOutcome::kAccepted) {
                // A forced drop_oldest evicted a queued frame (or the
                // held one was refused): one frame fewer waiting.
                --backlog_;
                if (m_) m_->dropped->inc();
            }
            if (spans_ != nullptr && held_span != 0 &&
                out != PushOutcome::kDroppedNewest)
                spans_->hop(held_span, obs::telemetry::SpanHop::kEnqueue);
        }
    }

    // Backpressure: while the stream is blocked we do not consume source
    // bytes. A BytePipe then fills and its writers see short writes; a
    // file simply waits.
    const bool blocked =
        s.holding.has_value() ||
        (s.queue.policy() == BackpressurePolicy::kBlock &&
         s.queue.size() >= s.queue.capacity());

    std::size_t bytes = 0;
    if (!blocked) {
        bytes = s.source->read(read_buf_.data(), read_buf_.size());
        if (bytes > 0) {
            s.bytes_read += bytes;
            s.decoder.push({read_buf_.data(), bytes});
            progress = true;
        }
    }

    // Decode until the buffer runs dry or the queue refuses a frame.
    while (!s.holding) {
        std::optional<DecodedRecord> rec = s.decoder.next();
        if (!rec) break;
        progress = true;
        switch (rec->type) {
            case RecordType::kHello:
                s.session = engine_.create_session(rec->hello.radar);
                trace_line("{\"ev\":\"ingest.hello\",\"stream\":" +
                           std::to_string(s.id) + ",\"session\":" +
                           std::to_string(*s.session) + ",\"tag\":" +
                           std::to_string(rec->hello.stream_tag) + "}");
                break;
            case RecordType::kFrame: {
                // Span sampling: one span per span_stride x latency-
                // stride decoded frames. latency_stride_ is the shed
                // ladder's widening knob, so tracing sheds in lockstep
                // with latency sampling. The counter advances on every
                // decoded frame, sampled or not, so which frames carry
                // spans replays exactly.
                const std::size_t stride =
                    config_.telemetry.span_stride * latency_stride_;
                if (spans_ != nullptr && stride != 0 &&
                    decode_count_ % stride == 0)
                    rec->frame.span_id = spans_->mint(s.id, rec->seq);
                ++decode_count_;
                const std::uint64_t span = rec->frame.span_id;
                const PushOutcome out =
                    s.queue.push(std::move(rec->frame), tick_);
                if (out == PushOutcome::kAccepted ||
                    out == PushOutcome::kWouldBlock)
                    ++backlog_;
                if (out == PushOutcome::kWouldBlock)
                    s.holding = std::move(rec->frame);
                else if (out == PushOutcome::kDroppedOldest ||
                         out == PushOutcome::kDroppedNewest)
                    if (m_) m_->dropped->inc();
                if (spans_ != nullptr && span != 0 &&
                    out != PushOutcome::kWouldBlock &&
                    out != PushOutcome::kDroppedNewest)
                    spans_->hop(span, obs::telemetry::SpanHop::kEnqueue);
                break;
            }
            case RecordType::kBye:
                break;  // decoder latches saw_bye; stream_done() reads it
        }
    }

    const bool silent = !blocked && bytes == 0;
    if (progress) {
        s.stall_run = 0;
        s.backoff_attempts = 0;
    } else if (silent && !s.source->exhausted()) {
        ++s.stall_run;  // genuinely silent upstream, not our refusal
    }

    // Leave the poll set when the source is drained and the stream is
    // not blocked: nothing can change until the source marks again.
    if (!s.signals || !silent || s.holding.has_value() ||
        (s.queue.policy() == BackpressurePolicy::kBlock &&
         s.queue.size() >= s.queue.capacity()))
        return;
    s.in_poll = false;
    s.stall_counting = !s.source->exhausted();
}

void IngestFrontend::schedule_watchdog(Stream& s) {
    // The first tick the lazy stall clock reaches the threshold with the
    // backoff expired. An exhausted stream's clock stands still (it left
    // the poll set with stall_counting off), and no reconnect can bring
    // it bytes, so it is never due.
    if (!s.stall_counting) return;
    const std::uint64_t first = s.stall_run >= kStallTicks
                                    ? tick_ + 1
                                    : tick_ + (kStallTicks - s.stall_run);
    s.watch_due = std::max(first, s.next_reconnect_tick);
    watch_.emplace(s.watch_due, s.id);
}

std::size_t IngestFrontend::deliver() {
    // Global budget, ascending stream id, per-stream fairness cap. The
    // order is fixed, so which frames ship on which tick — and therefore
    // every downstream result — replays exactly. When the budget runs
    // out, later streams keep their frames queued; that is the duty
    // cycle the queues (and the governor watching them) are for.
    std::size_t budget = config_.governor.budget_frames_per_tick;
    std::size_t total = 0;
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < queued_.size() && budget != 0; ++i) {
        // (A queued frame implies a session: frames decode only after
        // the hello that creates it.)
        Stream& s = *queued_[i];
        deliver_frames_.clear();
        deliver_ages_.clear();
        const std::size_t want = std::min(budget, kMaxDeliverPerTick);
        const std::size_t n =
            s.queue.pop_into(want, tick_, deliver_frames_, deliver_ages_);
        for (std::size_t i = 0; i < n; ++i) {
            if (spans_ != nullptr && deliver_frames_[i].span_id != 0)
                spans_->hop(deliver_frames_[i].span_id,
                            obs::telemetry::SpanHop::kAdmit);
            engine_.feed(*s.session, std::move(deliver_frames_[i]));
        }
        if (m_ != nullptr)
            for (std::size_t i = 0; i < n; ++i)
                m_->queue_age_ticks->record(deliver_ages_[i]);
        if (slo_ != nullptr)
            for (std::size_t i = 0; i < n; ++i)
                slo_->record_frame(deliver_ages_[i]);
        s.delivered += n;
        budget -= n;
        total += n;
        if (s.queue.size() != 0)
            queued_[keep++] = &s;
        else
            s.in_queued = false;
    }
    for (; i < queued_.size(); ++i) queued_[keep++] = queued_[i];
    queued_.resize(keep);
    backlog_ -= total;
    if (m_) m_->delivered->inc(total);
    return total;
}

void IngestFrontend::run_watchdogs() {
    // Due: streams polled this tick whose stall clock is at the
    // threshold with the backoff expired and whose source is not
    // exhausted, and streams out of the poll set whose scheduled tick
    // came. Fired in ascending id.
    fired_.clear();
    for (Stream* s : poll_)
        if (s->stall_run >= kStallTicks && tick_ >= s->next_reconnect_tick &&
            !s->source->exhausted())
            fired_.push_back(s);
    while (!watch_.empty() && watch_.begin()->first <= tick_) {
        Stream& s = stream_ref(watch_.begin()->second);
        watch_.erase(watch_.begin());
        s.watch_due = 0;
        s.stall_run = stall_run_at(s);
        s.polled_tick = tick_;
        // A reconnect may bring bytes without a mark: read next tick.
        arm(s);
        fired_.push_back(&s);
    }
    std::sort(fired_.begin(), fired_.end(), by_id);

    for (Stream* sp : fired_) {
        Stream& s = *sp;
        s.source->reconnect();
        ++s.reconnects;
        if (m_) m_->reconnects->inc();
        // Exponential backoff with per-stream deterministic jitter, so a
        // thundering herd of stalled streams de-synchronises the same
        // way on every replay.
        const std::uint64_t shift =
            std::min<std::uint64_t>(s.backoff_attempts, 6);
        const std::uint64_t base =
            std::min(kBackoffBaseTicks << shift, kBackoffMaxTicks);
        const std::uint64_t jitter = static_cast<std::uint64_t>(
            s.rng.uniform_int(0, static_cast<int>(std::min<std::uint64_t>(
                                     base, 1u << 16))));
        s.next_reconnect_tick = tick_ + base + jitter;
        ++s.backoff_attempts;
        trace_line("{\"ev\":\"ingest.reconnect\",\"stream\":" +
                   std::to_string(s.id) + ",\"tick\":" +
                   std::to_string(tick_) + ",\"backoff\":" +
                   std::to_string(base + jitter) + "}");
        s.in_poll = true;  // (polled this tick: it stays in poll_)
    }

    // Streams that left the poll set this tick go on the schedule.
    std::size_t keep = 0;
    for (Stream* s : poll_) {
        if (s->in_poll)
            poll_[keep++] = s;
        else
            schedule_watchdog(*s);
    }
    poll_.resize(keep);
}

void IngestFrontend::set_level(ShedLevel to, double load) {
    const ShedLevel from = level_;
    level_ = to;
    shed_events_.push_back({tick_, from, to, load});
    if (m_) {
        m_->shed_transitions->inc();
        m_->shed_level->set(static_cast<double>(to));
    }
    trace_line("{\"ev\":\"ingest.shed\",\"tick\":" + std::to_string(tick_) +
               ",\"from\":" + std::to_string(static_cast<int>(from)) +
               ",\"to\":" + std::to_string(static_cast<int>(to)) + "}");

    // Step side effects. The ladder moves one level at a time, so each
    // transition crosses exactly one boundary.
    latency_stride_ = to >= ShedLevel::kWidenSampling ? kLatencyStrideShed
                                                      : kLatencyStrideNormal;
    if (to == ShedLevel::kEvictIdle && from < ShedLevel::kEvictIdle) {
        saved_residency_ = engine_.residency_policy();
        engine_.set_residency_policy(kOverloadResidency);
    }
    if (from == ShedLevel::kEvictIdle && to < ShedLevel::kEvictIdle) {
        engine_.set_residency_policy(saved_residency_);
    }
    if (from == ShedLevel::kForceDropOldest &&
        to < ShedLevel::kForceDropOldest) {
        // A restored block policy can block a full queue, which the
        // lazy stall clock does not model: poll such streams again.
        for (auto& [id, sp] : streams_)
            if (sp->policy_forced) {
                sp->queue.set_policy(config_.stream.policy);
                sp->policy_forced = false;
                arm(*sp);
            }
    }
}

void IngestFrontend::run_governor(std::size_t backlog, PumpReport& report) {
    const GovernorConfig& g = config_.governor;
    const double load = static_cast<double>(backlog) /
                        static_cast<double>(g.budget_frames_per_tick);

    ShedLevel target = ShedLevel::kNormal;
    if (load >= g.refuse_at) target = ShedLevel::kRefuseAdmissions;
    else if (load >= g.evict_at) target = ShedLevel::kEvictIdle;
    else if (load >= g.force_drop_at) target = ShedLevel::kForceDropOldest;
    else if (load >= g.widen_at) target = ShedLevel::kWidenSampling;

    // Hysteresis, one rung per decision: engage after engage_ticks
    // consecutive ticks wanting a higher level, release after
    // release_ticks wanting a lower one.
    if (target > level_) {
        below_ticks_ = 0;
        if (++above_ticks_ >= g.engage_ticks) {
            above_ticks_ = 0;
            set_level(static_cast<ShedLevel>(
                          static_cast<std::uint8_t>(level_) + 1),
                      load);
        }
    } else if (target < level_) {
        above_ticks_ = 0;
        if (++below_ticks_ >= g.release_ticks) {
            below_ticks_ = 0;
            set_level(static_cast<ShedLevel>(
                          static_cast<std::uint8_t>(level_) - 1),
                      load);
        }
    } else {
        above_ticks_ = 0;
        below_ticks_ = 0;
    }

    // While at (or above) the force-drop rung, laggards — streams whose
    // queue is more than half full — are switched to drop_oldest. New
    // laggards are caught on every tick the rung stays engaged.
    if (level_ >= ShedLevel::kForceDropOldest) {
        for (Stream* sp : queued_) {
            Stream& s = *sp;
            if (!s.policy_forced &&
                s.queue.policy() != BackpressurePolicy::kDropOldest &&
                s.queue.size() > s.queue.capacity() / 2) {
                s.queue.set_policy(BackpressurePolicy::kDropOldest);
                s.policy_forced = true;
                trace_line(
                    "{\"ev\":\"ingest.force_drop\",\"stream\":" +
                    std::to_string(s.id) + ",\"tick\":" +
                    std::to_string(tick_) + "}");
            }
        }
    }

    report.load = load;
    report.level = level_;
}

PumpReport IngestFrontend::pump() {
    ++tick_;
    PumpReport report;
    report.tick = tick_;

    poll();

    report.frames_delivered = deliver();

    const auto t0 = std::chrono::steady_clock::now();
    report.frames_processed = engine_.pump();
    const auto t1 = std::chrono::steady_clock::now();
    report.pump_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());

    run_watchdogs();

    report.backlog = backlog_;
    run_governor(backlog_, report);

    tokens_ = std::min(config_.admission.capacity,
                       tokens_ + config_.admission.refill_per_tick);

    if (m_ != nullptr) {
        if (tick_ % latency_stride_ == 0)
            m_->pump_ns->record(report.pump_ns);
        m_->load->set(report.load);
        m_->backlog->set(static_cast<double>(backlog_));
        m_->tokens->set(tokens_);
        // Aggregate decoder accounting over the open streams, refreshed
        // once per tick (the decoders keep the authoritative counters).
        m_->bytes_in->set(static_cast<double>(decode_sums_.bytes_in));
        m_->frames_decoded->set(static_cast<double>(decode_sums_.frames));
        m_->decode_errors->set(static_cast<double>(decode_sums_.errors));
        m_->quarantined_bytes->set(
            static_cast<double>(decode_sums_.quarantined));
    }

    if (slo_ != nullptr) slo_->tick();
    if (config_.telemetry.export_every_ticks != 0 &&
        tick_ % config_.telemetry.export_every_ticks == 0)
        publish_telemetry();
    return report;
}

const obs::telemetry::SnapshotPublisher& IngestFrontend::publish_telemetry() {
    // Engine roll-up first (begin_cycle + both aggregation passes run
    // under the engine lock), then the front-end's own flat registry.
    engine_.aggregate_into(*aggregator_);
    obs::MetricsRegistry& out = aggregator_->output();
    if (metrics_ != nullptr) aggregator_->add_flat(*metrics_);

    // Per-stream roll-ups, cardinality bounded by admission control.
    // Gauge nodes of streams closed since the previous cycle are retired
    // by their exact per-id prefix (a shared-prefix erase would take
    // sibling names — "ingest.s" covers "ingest.shed.*").
    std::string key;
    for (const StreamId id : telemetry_streams_) {
        if (streams_.find(id) != streams_.end()) continue;
        key.assign(obs::telemetry::kIngestPrefix);
        key += 's';
        key += std::to_string(id);
        key += '.';
        out.erase_prefix(key);
    }
    telemetry_streams_.clear();
    for (const auto& [id, sp] : streams_) {
        telemetry_streams_.push_back(id);
        const Stream& s = *sp;
        key.assign(obs::telemetry::kIngestPrefix);
        key += 's';
        key += std::to_string(id);
        key += '.';
        const std::size_t base = key.size();
        const auto set = [&](const char* leaf, double v) {
            key.resize(base);
            key += leaf;
            out.gauge(key).set(v);
        };
        set("decoded",
            static_cast<double>(s.decoder.stats().frames_decoded));
        set("delivered", static_cast<double>(s.delivered));
        set("dropped", static_cast<double>(s.queue.stats().dropped()));
        set("queued",
            static_cast<double>(s.queue.size() + (s.holding ? 1 : 0)));
    }

    publisher_->publish(out);
    return *publisher_;
}

fleet::SessionStats IngestFrontend::close_stream(StreamId id) {
    Stream& s = stream_ref(id);
    fleet::SessionStats final_stats{};
    if (s.session) {
        // Drain-then-release, end to end: everything this stream still
        // holds goes to the session, and FleetEngine::close processes
        // the session's whole inbox before destroying it. The held
        // frame is the one the full queue refused, so it is newer than
        // every queued frame and goes last: fed first, FrameGuard would
        // quarantine the older queued frames as reorders.
        deliver_frames_.clear();
        deliver_ages_.clear();
        s.queue.pop_into(SIZE_MAX, tick_, deliver_frames_, deliver_ages_);
        for (auto& frame : deliver_frames_)
            engine_.feed(*s.session, std::move(frame));
        s.delivered += deliver_frames_.size();
        backlog_ -= deliver_frames_.size();
        if (s.holding) {
            engine_.feed(*s.session, std::move(*s.holding));
            s.holding.reset();
            --backlog_;
        }
        final_stats = engine_.close(*s.session);
    }
    // Unlink the stream from every tick set and the gauges' sums.
    if (s.in_poll) {
        std::erase(poll_, &s);
        std::erase(armed_, &s);
    }
    if (s.in_queued) std::erase(queued_, &s);
    if (s.watch_due != 0) watch_.erase({s.watch_due, s.id});
    retally(s, {});
    trace_line("{\"ev\":\"ingest.close\",\"stream\":" + std::to_string(id) +
               ",\"tick\":" + std::to_string(tick_) + "}");
    streams_.erase(id);
    if (m_) m_->closed->inc();
    return final_stats;
}

std::size_t IngestFrontend::stream_count() const noexcept {
    return streams_.size();
}

std::vector<StreamId> IngestFrontend::stream_ids() const {
    std::vector<StreamId> ids;
    ids.reserve(streams_.size());
    for (const auto& [id, sp] : streams_) ids.push_back(id);
    return ids;
}

std::optional<fleet::SessionId> IngestFrontend::session_of(
    StreamId id) const {
    return stream_ref(id).session;
}

StreamStats IngestFrontend::stream_stats(StreamId id) const {
    const Stream& s = stream_ref(id);
    const FrameQueueStats q = s.queue.stats();
    StreamStats out;
    out.frames_decoded = s.decoder.stats().frames_decoded;
    out.frames_delivered = s.delivered;
    out.frames_dropped = q.dropped();
    out.queued = s.queue.size();
    out.holding = s.holding.has_value();
    out.bytes_read = s.bytes_read;
    out.stall_run = stall_run_at(s);
    out.reconnects = s.reconnects;
    out.saw_bye = s.decoder.saw_bye();
    out.exhausted = s.source->exhausted();
    out.policy = s.queue.policy();
    out.policy_forced = s.policy_forced;
    return out;
}

const DecodeStats& IngestFrontend::decode_stats(StreamId id) const {
    return stream_ref(id).decoder.stats();
}

FrameQueueStats IngestFrontend::queue_stats(StreamId id) const {
    return stream_ref(id).queue.stats();
}

bool IngestFrontend::stream_done(StreamId id) const {
    const Stream& s = stream_ref(id);
    return (s.decoder.saw_bye() || s.source->exhausted()) &&
           s.queue.size() == 0 && !s.holding.has_value();
}

bool IngestFrontend::drained() const {
    for (const auto& [id, sp] : streams_)
        if (!stream_done(id)) return false;
    return true;
}

}  // namespace blinkradar::ingest
