// The three workloads, driven through the real path: BRWF bytes ->
// ingest::IngestFrontend -> fleet::FleetEngine -> core pipeline -> dsp.
//
// One thread drives the front-end (as the ingest threading contract
// requires); the engine fans each pump out over the benchmark's pool.
//
//   steady_drain   closed loop: pump() again as soon as it returns, until
//                  every stream is drained. One round = set up, drain,
//                  close; rounds repeat until the time is up.
//   churn_drain    closed loop with sessions opened in waves, bursts
//                  separated by idle gaps, a residency cap, and periodic
//                  telemetry export; streams close on their bye.
//   live_impaired  open loop: each stream's frames are written into its
//                  BytePipe at their due times (25 fps, phases staggered
//                  over the frame period) whether or not the pump kept up;
//                  the front-end is pumped on a fixed 1 ms tick.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "dsp/stats.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/frontend.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "obs/trace.hpp"

namespace fleetbench {

using namespace br;

namespace {

constexpr double kFramePeriodS = 0.040;
constexpr double kSloS = 0.040;
constexpr std::size_t kSetups = 15;  ///< timed setups per pass
/// Pause between timed setups. A setup takes 1-10 ms, and back-to-back
/// setups all sampled the same moment of a noisy host: their medians
/// differed by up to 40 % between runs seconds apart.
constexpr double kSetupGapS = 0.2;
constexpr double kLatencyWindowS = 2.0;       ///< live_impaired
/// live_impaired pump cadence. Pumping after every 156 us frame slot kept
/// the driving thread about 65 % busy at 256 streams, so host noise could
/// tip it into a batching mode with ten times the latency.
constexpr double kPumpTickS = 0.001;
constexpr std::size_t kMinWindowSamples = 1000;
constexpr std::size_t kMinRounds = 3;

fleet::FleetConfig fleet_config(const Shape& shape, ThreadPool& pool,
                                obs::telemetry::SpanCollector* spans,
                                bool record_results) {
    fleet::FleetConfig c;
    c.n_shards = 2 * (pool.size() + 1);
    c.record_results = record_results;
    c.collect_metrics =
        shape.export_every_ticks != 0 || shape.export_every_s != 0.0;
    c.residency.max_resident = shape.max_resident;
    c.residency.evict_idle_after_pumps = shape.evict_idle_pumps;
    c.span_collector = spans;
    return c;
}

ingest::IngestConfig ingest_config(const Shape& shape, double admission_burst,
                                   double refill_per_tick) {
    ingest::IngestConfig c;
    // Above any backlog these workloads build: the shed ladder must stay
    // parked (the traced run reports its transitions; they must be 0).
    c.governor.budget_frames_per_tick = 1u << 20;
    c.admission.capacity = admission_burst;
    c.admission.refill_per_tick = refill_per_tick;
    c.telemetry.export_every_ticks = shape.export_every_ticks;
    c.telemetry.span_stride = shape.span_stride;
    return c;
}

void sleep_until_s(double t) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(t);
    ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

/// Percentile of per-pump latencies weighted by the frames each pump
/// completed.
double weighted_quantile(std::vector<std::pair<double, double>> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    double total = 0.0;
    for (const auto& p : v) total += p.second;
    double acc = 0.0;
    for (const auto& p : v) {
        acc += p.second;
        if (acc >= q * total) return p.first;
    }
    return v.back().first;
}

/// Optional tracing state of one pass.
struct Tracer {
    explicit Tracer(const std::string& path)
        : sink(path.empty() ? nullptr
                            : std::make_unique<obs::TraceSink>(path)),
          spans(sink ? std::make_unique<obs::telemetry::SpanCollector>(
                           sink.get())
                     : nullptr) {}

    bool on() const { return spans != nullptr; }

    /// Wrap one front-end tick. Front-end self time is the pump() wall
    /// minus the engine pump inside it: the front-end's own work (decode,
    /// queues, feed, session creation, governor, tick-driven export) runs
    /// on this one thread, outside the engine's fan-out.
    ingest::PumpReport pump(ingest::IngestFrontend& fe, TraceCounters& tc) {
        if (!on()) return fe.pump();
        const double a = now_s();
        ingest::PumpReport r = fe.pump();
        const double b = now_s();
        tc.frontend_self_s += (b - a) - 1e-9 * static_cast<double>(r.pump_ns);
        ++tc.pumps;
        tc.delivered += r.frames_delivered;
        for (const fleet::ShardStats& s : fe.engine().last_pump_stats()) {
            tc.sessions_drained += s.sessions_drained;
            tc.sessions_stolen += s.sessions_stolen;
        }
        return r;
    }

    /// Time a lifecycle call made between ticks (open/close in the loop).
    template <typename F>
    auto lifecycle(TraceCounters& tc, F&& fn) {
        if (!on()) return fn();
        const double c = process_cpu_s();
        auto r = fn();
        const double d = process_cpu_s() - c;
        tc.lifecycle_s += d;
        return r;
    }

    std::unique_ptr<obs::TraceSink> sink;
    std::unique_ptr<obs::telemetry::SpanCollector> spans;
};

/// Read the hop stamps of every completed span record.
void read_spans(const std::string& path, TraceCounters& tc) {
    std::ifstream f(path);
    std::string line;
    const auto field = [&](const char* key) -> double {
        const std::size_t p = line.find(key);
        if (p == std::string::npos) return 0.0;
        return std::strtod(line.c_str() + p + std::strlen(key), nullptr);
    };
    while (std::getline(f, line)) {
        if (field("{\"span\":") <= static_cast<double>(tc.spans_before))
            continue;
        const double enq = field("\"enqueue_ns\":");
        const double adm = field("\"admit_ns\":");
        const double pmp = field("\"pump_ns\":");
        tc.queue_wait_ms.push_back((adm - enq) * 1e-6);
        tc.dispatch_ms.push_back((pmp - adm) * 1e-6);
    }
}

/// Collect a drained stream's outcome and close it.
SessionOutcome close_and_collect(ingest::IngestFrontend& fe,
                                 fleet::FleetEngine& engine,
                                 ingest::StreamId id, std::size_t input,
                                 bool verdicts, TraceCounters* tc) {
    SessionOutcome out;
    out.input = input;
    const std::optional<fleet::SessionId> sid = fe.session_of(id);
    if (sid) {
        out.blinks = engine.blinks(*sid);
        if (verdicts)
            for (const core::FrameResult& r : engine.results(*sid))
                out.quarantined.push_back(
                    r.quality == core::FrameVerdict::kQuarantined ? 1 : 0);
    }
    if (tc != nullptr) {
        tc->queue_dropped += fe.stream_stats(id).frames_dropped;
        const ingest::DecodeStats& d = fe.decode_stats(id);
        tc->resyncs += d.resyncs;
        tc->quarantined_bytes += d.quarantined_bytes;
    }
    const fleet::SessionStats st = fe.close_stream(id);
    out.frames_consumed = st.frames_processed + st.frames_dropped;
    out.cold_restarts = st.cold_restarts;
    if (tc != nullptr) {
        tc->evictions += st.evictions;
        tc->rehydrations += st.rehydrations;
        // The engine autosnapshots every kAutosnapshotFrames frames and
        // restarts that count on rehydration; assume equal resident
        // stretches between rehydrations.
        const std::uint64_t stretches = st.rehydrations + 1;
        tc->autosnapshots +=
            stretches * (st.frames_processed / stretches / kAutosnapshotFrames);
    }
    return out;
}

/// Per-round measurements of a drain workload.
struct Round {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    std::vector<std::pair<double, double>> pump_ms;  ///< (latency, frames)
    std::vector<SessionOutcome> sessions;
    std::size_t resident = 0;
    double peak_rss_mb = 0.0;
};

/// Engine and front-end of one drain round (the registry and engine
/// outlive the front-end that points at them).
struct DrainRig {
    DrainRig(const Shape& shape, ThreadPool& pool, Tracer& tracer,
             bool churn)
        : engine(fleet_config(shape, pool, tracer.spans.get(), false), &pool),
          // churn: the token bucket holds one wave and refills in half a
          // wave period, so no wave is refused.
          fe(churn ? ingest_config(shape, static_cast<double>(shape.wave),
                                   2.0 * static_cast<double>(shape.wave) /
                                       static_cast<double>(
                                           shape.wave_every_ticks))
                   : ingest_config(shape, static_cast<double>(shape.streams),
                                   0.25),
             engine, churn ? &registry : nullptr, nullptr,
             tracer.spans.get()) {}

    obs::MetricsRegistry registry;
    fleet::FleetEngine engine;
    ingest::IngestFrontend fe;
};

/// A drain stream as opened: its id (nullopt when admission refused it)
/// and its session index (open order).
struct Opened {
    std::optional<ingest::StreamId> id;
    std::size_t session = 0;
};

/// Open sessions [first, first + n): each replays input session % inputs.
std::vector<Opened> open_streams(DrainRig& rig, const Shape& shape,
                                 const std::vector<EncodedStream>& in,
                                 std::size_t first, std::size_t n,
                                 Tracer& tracer, TraceCounters& tc) {
    std::vector<Opened> out;
    for (std::size_t s = first; s < first + n; ++s) {
        const EncodedStream& e = in[s % in.size()];
        const ingest::Admission a = tracer.lifecycle(tc, [&] {
            return rig.fe.open_stream(make_scripted_source(
                e.bytes, release_points(e, shape.burst_frames),
                shape.gap_reads));
        });
        out.push_back({a.admitted() ? std::optional(a.id) : std::nullopt, s});
    }
    return out;
}

/// A set-up drain rig: the streams opened so far and how long it took.
struct DrainSetup {
    std::unique_ptr<DrainRig> rig;
    std::vector<Opened> open;
    double seconds = 0.0;
};

/// Setup: construct the rig, open the first streams (all of them, or
/// churn's first wave) and pump once so every hello becomes a session.
/// Its open calls are not counted as in-loop lifecycle work.
DrainSetup drain_setup(const Options& opt, const Shape& shape,
                       const std::vector<EncodedStream>& in,
                       ThreadPool& pool, Tracer& tracer) {
    const bool churn = opt.workload == Workload::kChurnDrain;
    DrainSetup d;
    TraceCounters scratch;
    const double t0 = now_s();
    d.rig = std::make_unique<DrainRig>(shape, pool, tracer, churn);
    d.open = open_streams(*d.rig, shape, in, 0,
                          churn ? std::min(shape.wave, shape.streams)
                                : shape.streams,
                          tracer, scratch);
    d.rig->fe.pump();
    d.seconds = now_s() - t0;
    return d;
}

Round drain_round(const Options& opt, const Shape& shape,
                  const std::vector<EncodedStream>& in, ThreadPool& pool,
                  Tracer& tracer, TraceCounters& tc) {
    const bool churn = opt.workload == Workload::kChurnDrain;
    Round r;
    const RssProbe rss;
    DrainSetup setup = drain_setup(opt, shape, in, pool, tracer);
    const std::unique_ptr<DrainRig> rig = std::move(setup.rig);
    std::vector<Opened>& open = setup.open;
    ingest::IngestFrontend& fe = rig->fe;
    fleet::FleetEngine& engine = rig->engine;
    std::size_t opened = open.size();
    std::uint64_t refused = 0, created = 0;
    // Every session is a failure until its outcome is collected.
    std::vector<SessionOutcome> done(shape.streams);
    for (std::size_t s = 0; s < shape.streams; ++s) {
        done[s].input = s % in.size();
        done[s].error = "not finished before the deadline";
    }
    // The admission budget fits every wave, so a refusal is a failure.
    const auto drop_refused = [&] {
        const auto it =
            std::remove_if(open.begin(), open.end(), [&](const Opened& o) {
                if (o.id) return false;
                done[o.session].error = "refused at admission";
                return true;
            });
        refused += static_cast<std::uint64_t>(open.end() - it);
        open.erase(it, open.end());
    };
    drop_refused();

    const double w0 = now_s();
    const double c0 = process_cpu_s();
    std::size_t resident_sum = 0, pumps = 0;
    for (std::uint64_t tick = 1;
         (churn ? opened < shape.streams || !open.empty() : !fe.drained()) &&
         now_s() < opt.deadline_s;
         ++tick) {
        if (churn && opened < shape.streams &&
            tick % shape.wave_every_ticks == 0) {
            const std::size_t n = std::min(shape.wave, shape.streams - opened);
            for (const Opened& o :
                 open_streams(*rig, shape, in, opened, n, tracer, tc)) {
                open.push_back(o);
                if (o.id) ++created;
            }
            opened += n;
            drop_refused();
        }
        const double a = now_s();
        const ingest::PumpReport rep = tracer.pump(fe, tc);
        r.pump_ms.emplace_back((now_s() - a) * 1e3,
                               static_cast<double>(rep.frames_processed));
        r.served += rep.frames_processed;
        // churn_drain closes every stream whose bye has been processed;
        // steady_drain's sessions stay resident until the loop ends.
        for (std::size_t i = 0; churn && i < open.size();) {
            if (!fe.stream_done(*open[i].id)) {
                ++i;
                continue;
            }
            done[open[i].session] = tracer.lifecycle(tc, [&] {
                return close_and_collect(fe, engine, *open[i].id,
                                         open[i].session % in.size(), false,
                                         tracer.on() ? &tc : nullptr);
            });
            open[i] = open.back();
            open.pop_back();
        }
        if (tracer.on()) {
            resident_sum += engine.resident_count();
            ++pumps;
        }
    }
    r.cpu_s = process_cpu_s() - c0;
    r.wall_s = now_s() - w0;
    r.peak_rss_mb = rss.growth_mb();
    r.resident = pumps == 0 ? engine.resident_count() : resident_sum / pumps;
    for (const Opened& o : open)
        if (fe.stream_done(*o.id))
            done[o.session] = close_and_collect(fe, engine, *o.id,
                                                o.session % in.size(), false,
                                                tracer.on() ? &tc : nullptr);
    for (std::size_t s = 0; s < shape.streams; ++s)
        r.offered += in[s % in.size()].offered();
    r.sessions = std::move(done);
    if (tracer.on()) {
        tc.refused += refused;
        tc.created_in_loop += created;
        tc.shed_transitions += fe.shed_events().size();
        tc.telemetry_cycles += fe.aggregator().cycles();
    }
    return r;
}

PassResult run_drain(const Options& opt, const Shape& shape,
                     const std::vector<EncodedStream>& inputs,
                     ThreadPool& pool, double seconds, Tracer& tracer) {
    PassResult out;
    // setup_s samples come from dedicated setups, torn down at once, so
    // every sample starts from the same heap state as the others.
    for (std::size_t i = 0; i < kSetups; ++i) {
        if (i != 0) sleep_until_s(now_s() + kSetupGapS);
        out.setup_s.push_back(
            drain_setup(opt, shape, inputs, pool, tracer).seconds);
    }
    std::vector<std::size_t> resident;
    // Rounds repeat while another one is expected to finish in time.
    const double start = now_s(), end = start + seconds;
    for (std::size_t round = 0;
         round == 0 ||
         (now_s() < opt.deadline_s &&
          (round < kMinRounds ||
           now_s() + (now_s() - start) / static_cast<double>(round) <= end));
         ++round) {
        Round r = drain_round(opt, shape, inputs, pool, tracer, out.trace);
        out.peak_rss_mb.push_back(r.peak_rss_mb);
        out.frames_per_s.push_back(static_cast<double>(r.served) / r.wall_s);
        out.cpu_us_per_frame.push_back(1e6 * r.cpu_s /
                                       static_cast<double>(r.served));
        out.p50_ms.push_back(weighted_quantile(r.pump_ms, 0.50));
        out.p99_ms.push_back(weighted_quantile(r.pump_ms, 0.99));
        out.offered += r.offered;
        out.served += r.served;
        for (const auto& [ms, frames] : r.pump_ms) {
            out.latency_samples += static_cast<std::uint64_t>(frames);
            if (ms <= kSloS * 1e3)
                out.slo_met += static_cast<std::uint64_t>(frames);
        }
        resident.push_back(r.resident);
        out.rounds.push_back(std::move(r.sessions));
    }
    std::sort(resident.begin(), resident.end());
    out.resident_sessions = resident[resident.size() / 2];
    return out;
}

/// One live stream's generator and accounting state.
struct LiveStream {
    std::size_t input = 0;
    ingest::StreamId id = 0;
    std::size_t scheduled = 0;   ///< source frames due so far
    std::size_t written = 0;     ///< bytes accepted by the pipe
    std::size_t complete = 0;    ///< source frames whose bytes are written
    std::size_t avail = 0;       ///< decoded frames those bytes yield
    std::size_t seen = 0;        ///< decoded frames delivered so far
    std::size_t first_paced = 0; ///< decoded frames sent during warm-up
    bool pending = false;        ///< in the pending-write list
    bool dirty = false;          ///< in the awaiting-delivery list
    bool closed = false;
    std::vector<float> latency_ms;  ///< per decoded frame
};

/// Engine, pipes and front-end of one live setup (members destroyed in
/// reverse: front-end, then the pipes its sources read, then the engine).
struct LiveRig {
    std::unique_ptr<fleet::FleetEngine> engine;
    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    obs::MetricsRegistry registry;
    std::unique_ptr<ingest::IngestFrontend> fe;
};

PassResult run_live(const Shape& shape,
                    const std::vector<EncodedStream>& inputs,
                    ThreadPool& pool, double seconds, double hard_deadline,
                    Tracer& tracer) {
    PassResult out;
    const RssProbe rss;
    const std::size_t S = shape.streams;
    std::vector<LiveStream> ls(S);
    std::unique_ptr<LiveRig> rig;

    // Set up several times (the median is setup_s); the last rig runs.
    for (std::size_t rep = 0; rep < kSetups; ++rep) {
        if (rig) {
            for (const ingest::StreamId id : rig->fe->stream_ids())
                rig->fe->close_stream(id);
            rig.reset();
            sleep_until_s(now_s() + kSetupGapS);
        }
        rig = std::make_unique<LiveRig>();
        const double t0 = now_s();
        rig->engine = std::make_unique<fleet::FleetEngine>(
            fleet_config(shape, pool, tracer.spans.get(), true), &pool);
        rig->fe = std::make_unique<ingest::IngestFrontend>(
            ingest_config(shape, static_cast<double>(S), 0.25), *rig->engine,
            &rig->registry, nullptr, tracer.spans.get());
        for (std::size_t s = 0; s < S; ++s) {
            const EncodedStream& e = inputs[s % inputs.size()];
            rig->pipes.push_back(std::make_unique<ingest::BytePipe>());
            const ingest::Admission a =
                rig->fe->open_stream(rig->pipes.back()->make_source());
            if (!a.admitted()) throw std::runtime_error("stream refused");
            rig->pipes.back()->write({e.bytes->data(), e.hello_end});
            ls[s] = LiveStream{};
            ls[s].input = s % inputs.size();
            ls[s].id = a.id;
            ls[s].written = e.hello_end;
            ls[s].latency_ms.assign(e.decoded(), -1.0f);
        }
        rig->fe->pump();  // hellos decode into sessions
        out.setup_s.push_back(now_s() - t0);
    }
    ingest::IngestFrontend& fe = *rig->fe;

    std::vector<std::size_t> pending, dirty;
    std::size_t open_streams = S;

    // Move stream bytes into the pipes up to each stream's scheduled
    // frame; track which decoded frames those bytes make available.
    const auto write_pending = [&] {
        for (std::size_t i = 0; i < pending.size();) {
            LiveStream& s = ls[pending[i]];
            const EncodedStream& e = inputs[s.input];
            const std::size_t target = s.scheduled == e.offered()
                                           ? e.bytes->size()
                                           : e.frame_end[s.scheduled - 1];
            s.written += rig->pipes[pending[i]]->write(
                {e.bytes->data() + s.written, target - s.written});
            while (s.complete < e.offered() &&
                   e.frame_end[s.complete] <= s.written)
                ++s.complete;
            if (s.written == e.bytes->size()) s.complete = e.offered();
            while (s.avail < e.decoded() &&
                   (e.decodable_after[s.avail] < s.complete ||
                    s.complete == e.offered()))
                ++s.avail;
            if (s.avail > s.seen && !s.dirty) {
                s.dirty = true;
                dirty.push_back(pending[i]);
            }
            if (s.written == target) {
                if (target == e.bytes->size() && !s.closed) {
                    rig->pipes[pending[i]]->close();
                    s.closed = true;
                    --open_streams;
                }
                s.pending = false;
                pending[i] = pending.back();
                pending.pop_back();
            } else {
                ++i;
            }
        }
    };
    // After a pump: which decoded frames got their result, and when.
    const auto collect = [&](double t_ret, const auto& due) {
        for (std::size_t i = 0; i < dirty.size();) {
            LiveStream& s = ls[dirty[i]];
            const EncodedStream& e = inputs[s.input];
            const std::size_t delivered = static_cast<std::size_t>(
                fe.stream_stats(s.id).frames_delivered);
            for (; s.seen < delivered && s.seen < e.decoded(); ++s.seen)
                s.latency_ms[s.seen] = static_cast<float>(
                    (t_ret - due(dirty[i], e.decodable_after[s.seen])) * 1e3);
            if (s.seen >= s.avail) {
                s.dirty = false;
                dirty[i] = dirty.back();
                dirty.pop_back();
            } else {
                ++i;
            }
        }
    };

    // Warm-up, unpaced and unmeasured: each input starts with a different
    // number of frames, so the paced window begins with sessions past
    // their cold start and spread over the autosnapshot cycle, as in a
    // gateway whose drivers connected at different times.
    for (std::size_t s = 0; s < S; ++s) {
        ls[s].scheduled = inputs[ls[s].input].warmup;
        if (ls[s].scheduled == 0) continue;
        ls[s].pending = true;
        pending.push_back(s);
    }
    for (std::size_t i = 0; i < 100000 && (!pending.empty() || !dirty.empty());
         ++i) {
        write_pending();
        fe.pump();
        collect(0.0, [](std::size_t, std::size_t) { return 0.0; });
    }
    if (tracer.on()) {
        out.trace.spans_before = tracer.spans->minted();
        out.trace.abandoned_before = tracer.spans->abandoned();
    }
    std::size_t max_frames = 0;
    for (LiveStream& s : ls) {
        const EncodedStream& e = inputs[s.input];
        s.first_paced = s.seen;
        max_frames = std::max(max_frames, e.offered() - e.warmup);
        out.offered += e.offered() - e.warmup;
    }

    const std::size_t total_slots = max_frames * S;
    const double slot_s = kFramePeriodS / static_cast<double>(S);
    const double t0 = now_s() + 0.02;
    // Source frame k of stream s is due warmup frames after the window
    // opens, staggered by the stream's phase.
    const auto due = [&](std::size_t stream, std::size_t k) {
        const double paced = static_cast<double>(k) -
                             static_cast<double>(inputs[ls[stream].input].warmup);
        return t0 + (paced + static_cast<double>(stream) /
                                 static_cast<double>(S)) *
                        kFramePeriodS;
    };
    // The driving thread counts toward cpu_us_per_frame only inside
    // pump() and the scrapes; its generator work and sleeps do not.
    double driver_s = 0.0;
    const auto timed = [&](const auto& fn) {
        const double h = thread_cpu_s();
        fn();
        driver_s += thread_cpu_s() - h;
    };
    double next_scrape = shape.export_every_s > 0.0 ? t0 + shape.export_every_s
                                                    : HUGE_VAL;
    double next_pump = t0;
    std::size_t g = 0;
    const double c0 = process_cpu_s(), h0 = thread_cpu_s();
    const double deadline = std::min(t0 + seconds + 30.0, hard_deadline);

    for (;;) {
        const double now = now_s();
        if (now > deadline) break;  // frames never delivered: check fails
        // Generator: schedule every slot now due.
        for (; g < total_slots && t0 + static_cast<double>(g) * slot_s <= now;
             ++g) {
            const std::size_t s = g % S;
            const EncodedStream& e = inputs[ls[s].input];
            const std::size_t k = e.warmup + g / S;
            if (k >= e.offered()) continue;
            ls[s].scheduled = k + 1;
            out.generator_lag_ms.push_back((now - due(s, k)) * 1e3);
            if (!ls[s].pending) {
                ls[s].pending = true;
                pending.push_back(s);
            }
        }
        write_pending();

        const bool work = !dirty.empty() || !pending.empty();
        if (!work && g >= total_slots && open_streams == 0) break;
        if (!work || now < next_pump) {
            // Wake for the next slot, or the next tick if there is work.
            double wake = work ? next_pump : deadline;
            if (g < total_slots)
                wake = std::min(wake, t0 + static_cast<double>(g) * slot_s);
            sleep_until_s(wake);
            continue;
        }

        timed([&] { tracer.pump(fe, out.trace); });
        const double t_ret = now_s();
        collect(t_ret, due);
        // The next tick; after an overrun (a stall such as an autosnapshot)
        // pump again at once, then keep the tick from there.
        next_pump = std::max(next_pump + kPumpTickS, t_ret);
        if (t_ret >= next_scrape) {
            const double c = tracer.on() ? process_cpu_s() : 0.0;
            timed([&] { fe.publish_telemetry(); });
            if (tracer.on()) out.trace.scrape_s += process_cpu_s() - c;
            next_scrape += shape.export_every_s;
        }
    }
    const double t_end = now_s();
    // Pump until the front-end holds nothing (bye records, stragglers).
    for (std::size_t i = 0; i < 64 && !fe.drained(); ++i)
        timed([&] { tracer.pump(fe, out.trace); });
    const double cpu_s =
        (process_cpu_s() - c0) - (thread_cpu_s() - h0) + driver_s;
    out.peak_rss_mb.push_back(rss.growth_mb());

    // Latency percentiles are taken per window of due time and reported
    // as the median over windows: robust to one unlucky burst, yet each
    // window still holds over ten thousand samples.
    std::vector<std::vector<double>> windows(
        static_cast<std::size_t>(seconds / kLatencyWindowS) + 2);
    std::vector<double> lat;
    std::vector<SessionOutcome>& sessions = out.rounds.emplace_back();
    for (std::size_t s = 0; s < S; ++s) {
        SessionOutcome o = close_and_collect(fe, *rig->engine, ls[s].id,
                                             ls[s].input, true,
                                             tracer.on() ? &out.trace
                                                         : nullptr);
        const EncodedStream& e = inputs[ls[s].input];
        const std::size_t n = std::min(o.quarantined.size(),
                                       ls[s].latency_ms.size());
        for (std::size_t j = ls[s].first_paced; j < n; ++j) {
            const double ms = ls[s].latency_ms[j];
            // Quarantined, or never seen delivered: a failure.
            if (o.quarantined[j] != 0 || ms < 0.0) continue;
            ++out.served;
            lat.push_back(ms);
            if (ms <= kSloS * 1e3) ++out.slo_met;
            const std::size_t w = static_cast<std::size_t>(
                std::max(0.0, due(s, e.decodable_after[j]) - t0) /
                kLatencyWindowS);
            windows[std::min(w, windows.size() - 1)].push_back(ms);
        }
        sessions.push_back(std::move(o));
    }
    out.latency_samples = lat.size();
    out.frames_per_s.push_back(static_cast<double>(out.served) /
                               (t_end - t0));
    out.cpu_us_per_frame.push_back(1e6 * cpu_s /
                                   static_cast<double>(out.served));
    const auto pooled = [&](double p) {
        return lat.empty() ? 0.0 : dsp::percentile(lat, p);
    };
    std::vector<double> p50, p99;
    for (const std::vector<double>& w : windows) {
        if (w.size() < kMinWindowSamples) continue;  // the ragged last one
        p50.push_back(dsp::percentile(w, 50.0));
        p99.push_back(dsp::percentile(w, 99.0));
    }
    if (p99.empty()) {  // smoke-sized runs
        p50.push_back(pooled(50.0));
        p99.push_back(pooled(99.0));
    }
    out.p50_ms.push_back(dsp::median(p50));
    out.p99_ms.push_back(dsp::median(p99));
    const std::pair<const char*, double> tail[] = {
        {"latency.pooled.p90_ms", 90.0}, {"latency.pooled.p99_ms", 99.0},
        {"latency.pooled.p99.9_ms", 99.9}};
    for (const auto& [name, p] : tail)
        out.latency_tail.emplace_back(name, pooled(p));
    out.resident_sessions = S;
    if (tracer.on()) {
        out.trace.shed_transitions += fe.shed_events().size();
        out.trace.telemetry_cycles += fe.aggregator().cycles();
    }
    return out;
}

}  // namespace

PassResult run_pass(const Options& opt, const Shape& shape,
                    const std::vector<EncodedStream>& inputs,
                    ThreadPool& pool, double seconds,
                    const std::string& span_path) {
    Tracer tracer(span_path);
    PassResult out =
        opt.workload == Workload::kLiveImpaired
            ? run_live(shape, inputs, pool, seconds, opt.deadline_s, tracer)
            : run_drain(opt, shape, inputs, pool, seconds, tracer);
    if (tracer.on()) {
        out.trace.spans_abandoned =
            tracer.spans->abandoned() - out.trace.abandoned_before;
        tracer.sink->flush();
        read_spans(span_path, out.trace);
        std::remove(span_path.c_str());
    }
    return out;
}

}  // namespace fleetbench
