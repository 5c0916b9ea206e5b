// Per-layer measurements, timed from outside: every number here comes
// from wrapping a layer's public functions (or reading its stats
// structs) on the workload's own inputs. Nothing inside src/ is
// instrumented for the benchmark.
//
// The ledger adds the layers' self costs, in CPU microseconds per served
// frame, and compares the sum with the untraced pass's cpu_us_per_frame.
// Every summed row is measured on its own: standalone on the workload's
// frames, or in place around a call the traced pass makes. None is the
// loop's total minus the other rows, so whatever no row measures stays
// in ledger.unattributed_pct.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>

#include "bench.hpp"
#include "core/bin_selection.hpp"
#include "core/frame_guard.hpp"
#include "core/viewing_position.hpp"
#include "dsp/frame_kernels.hpp"
#include "dsp/stats.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/wire_format.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/export.hpp"
#include "state/snapshot.hpp"

namespace fleetbench {

using namespace br;

namespace {

/// Frames the standalone replays decode, at most (bounds their time).
constexpr std::size_t kReplayFrames = 24000;

/// Decoded frames of the first inputs, up to kReplayFrames in total.
std::vector<radar::FrameSeries> replay_frames(
    const std::vector<EncodedStream>& inputs) {
    std::vector<radar::FrameSeries> out;
    std::size_t total = 0;
    for (const EncodedStream& in : inputs) {
        if (total >= kReplayFrames) break;
        out.emplace_back();
        for_each_decoded(in, [&](radar::RadarFrame&& f) {
            out.back().push_back(std::move(f));
        });
        total += out.back().size();
    }
    return out;
}

double decode_us_per_frame(const std::vector<EncodedStream>& inputs) {
    double t = 0.0;
    std::size_t frames = 0;
    constexpr std::size_t kSlice = 64 * 1024;  // the front-end read budget
    for (const EncodedStream& in : inputs) {
        if (frames >= kReplayFrames) break;
        const std::vector<std::uint8_t>& b = *in.bytes;
        const double t0 = now_s();
        ingest::WireDecoder dec;
        for (std::size_t off = 0; off < b.size(); off += kSlice) {
            dec.push({b.data() + off, std::min(kSlice, b.size() - off)});
            while (auto rec = dec.next())
                if (rec->type == ingest::RecordType::kFrame) ++frames;
        }
        t += now_s() - t0;
    }
    return 1e6 * t / static_cast<double>(std::max<std::size_t>(frames, 1));
}

struct PipelineCost {
    std::vector<std::vector<double>> us;  ///< per series, per frame
    std::vector<double> steady_us, cold_us;
    double total_s = 0.0;
    std::size_t frames = 0;
};

PipelineCost pipeline_cost(const std::vector<EncodedStream>& inputs,
                           const std::vector<radar::FrameSeries>& frames) {
    PipelineCost c;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        core::BlinkRadarPipeline pipe(inputs[i].radar);
        std::vector<double>& us = c.us.emplace_back();
        for (const radar::RadarFrame& f : frames[i]) {
            const double t0 = now_s();
            const core::FrameResult r = pipe.process(f);
            const double dt = now_s() - t0;
            us.push_back(dt * 1e6);
            (r.cold_start ? c.cold_us : c.steady_us).push_back(dt * 1e6);
            c.total_s += dt;
            ++c.frames;
        }
    }
    return c;
}

struct GuardCost {
    double us_per_frame = 0.0;
    std::uint64_t frames = 0, clean = 0, repaired = 0, bridged = 0,
                  quarantined = 0;
};

GuardCost guard_cost(const std::vector<EncodedStream>& inputs,
                     const std::vector<radar::FrameSeries>& frames) {
    GuardCost g;
    double t = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        core::FrameGuard guard(inputs[i].radar, core::PipelineConfig{}.guard);
        for (const radar::RadarFrame& f : frames[i]) {
            const double t0 = now_s();
            const core::GuardDecision d = guard.admit(f);
            t += now_s() - t0;
            ++g.frames;
            switch (d.verdict) {
                case core::FrameVerdict::kClean: ++g.clean; break;
                case core::FrameVerdict::kRepaired: ++g.repaired; break;
                case core::FrameVerdict::kBridged: ++g.bridged; break;
                case core::FrameVerdict::kQuarantined: ++g.quarantined; break;
            }
        }
    }
    g.us_per_frame = 1e6 * t / static_cast<double>(std::max<std::uint64_t>(g.frames, 1));
    return g;
}

fleet::FleetConfig standalone_config(const Shape& shape, bool record_results,
                                     ThreadPool& pool) {
    fleet::FleetConfig fc;
    fc.n_shards = 2 * (pool.size() + 1);
    fc.record_results = record_results;
    fc.collect_metrics =
        shape.export_every_ticks != 0 || shape.export_every_s != 0.0;
    return fc;
}

struct EngineCost {
    double feed_us = 0.0;       ///< FleetEngine::feed (move), per frame
    double pump_self_us = 0.0;  ///< FleetEngine::pump minus the pipeline
    std::size_t sessions = 0, active = 0, batch = 0;  ///< replay shape
};

/// FleetEngine::feed and pump on the replayed frames, dispatched as the
/// traced pass dispatched them: `resident` sessions, of which `active`
/// are fed `batch` frames before each pump (the traced pass's averages).
/// The pump's self cost is the loop's process CPU minus the feed calls
/// and minus the bare pipeline's time on the same frames. Autosnapshots
/// are off and no residency cap applies: the state row counts that work.
EngineCost engine_cost(const Shape& shape, bool record_results,
                       const std::vector<EncodedStream>& inputs,
                       const std::vector<radar::FrameSeries>& frames,
                       const PipelineCost& bare, const TraceCounters& tc,
                       std::size_t resident, ThreadPool& pool) {
    EngineCost c;
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        if (den == 0) return std::size_t{1};
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   static_cast<double>(num) / static_cast<double>(den))));
    };
    c.sessions = std::max<std::size_t>(resident, 1);
    c.active = std::min(c.sessions, ratio(tc.sessions_drained, tc.pumps));
    c.batch = ratio(tc.delivered, tc.sessions_drained);

    fleet::FleetConfig fc = standalone_config(shape, record_results, pool);
    fc.snapshot_interval_frames = 0;
    fleet::FleetEngine engine(fc, &pool);
    // Session s replays series s % F from its start, up to an equal
    // share of the replay budget.
    const std::size_t share = std::max(c.batch, kReplayFrames / c.sessions);
    std::vector<fleet::SessionId> ids(c.sessions);
    std::vector<std::size_t> next(c.sessions, 0), end(c.sessions);
    double bare_s = 0.0;
    std::size_t left = 0;
    for (std::size_t s = 0; s < c.sessions; ++s) {
        const std::size_t i = s % frames.size();
        ids[s] = engine.create_session(inputs[i].radar);
        end[s] = std::min(share, frames[i].size());
        for (std::size_t k = 0; k < end[s]; ++k) bare_s += 1e-6 * bare.us[i][k];
        left += end[s];
    }
    const double fed = static_cast<double>(std::max<std::size_t>(left, 1));
    double feed_s = 0.0, staging_s = 0.0;
    std::vector<radar::RadarFrame> staged;
    std::size_t cursor = 0;
    const double c0 = process_cpu_s();
    while (left > 0) {
        std::size_t picked = 0;
        for (std::size_t tries = 0; tries < c.sessions && picked < c.active;
             ++tries) {
            const std::size_t s = cursor;
            cursor = (cursor + 1) % c.sessions;
            const std::size_t n = std::min(c.batch, end[s] - next[s]);
            if (n == 0) continue;
            ++picked;
            // Copies stand in for decoded frames; their CPU is not the
            // engine's.
            const double h0 = thread_cpu_s();
            const radar::FrameSeries& f = frames[s % frames.size()];
            staged.assign(f.begin() + static_cast<std::ptrdiff_t>(next[s]),
                          f.begin() + static_cast<std::ptrdiff_t>(next[s] + n));
            staging_s += thread_cpu_s() - h0;
            const double t0 = now_s();
            for (radar::RadarFrame& frame : staged)
                engine.feed(ids[s], std::move(frame));
            feed_s += now_s() - t0;
            next[s] += n;
            left -= n;
        }
        engine.pump();
    }
    const double cpu_s = process_cpu_s() - c0 - staging_s;
    c.feed_us = 1e6 * feed_s / fed;
    c.pump_self_us = 1e6 * (cpu_s - feed_s - bare_s) / fed;
    return c;
}

struct SessionCost {
    double create_us = 0.0, close_us = 0.0;
};

/// create_session / close on a fresh engine of the workload's config.
SessionCost session_cost(const Shape& shape,
                         const std::vector<EncodedStream>& inputs,
                         ThreadPool& pool) {
    fleet::FleetEngine fresh(standalone_config(shape, false, pool), &pool);
    std::vector<double> create, close;
    std::vector<fleet::SessionId> made;
    for (std::size_t i = 0; i < 64; ++i) {
        const double t0 = now_s();
        made.push_back(fresh.create_session(inputs[i % inputs.size()].radar));
        create.push_back(1e6 * (now_s() - t0));
    }
    for (const fleet::SessionId sid : made) {
        const double t0 = now_s();
        fresh.close(sid);
        close.push_back(1e6 * (now_s() - t0));
    }
    return {dsp::median(create), dsp::median(close)};
}

struct StateCost {
    double save_us = 0.0, restore_us = 0.0, kb = 0.0;  ///< warm session
    /// Means over checkpoints across the input's life: evictions use a
    /// fresh writer, autosnapshots recycle their buffer.
    double life_save_us = 0.0, life_restore_us = 0.0, autosnapshot_us = 0.0;
};

/// save_state / restore_state on one session, every `every` frames of
/// its input (where the workload's evictions or autosnapshots happen).
StateCost state_cost(const EncodedStream& in, const radar::FrameSeries& f,
                     std::size_t every) {
    StateCost c;
    core::BlinkRadarPipeline pipe(in.radar);
    std::vector<double> saves, restores, recycled;
    std::vector<std::uint8_t> bytes, recycle;
    for (std::size_t t = 0; t < f.size(); ++t) {
        pipe.process(f[t]);
        if ((t + 1) % every != 0 && t + 1 != f.size()) continue;
        std::vector<double> s, r, a;
        for (int rep = 0; rep < 3; ++rep) {
            double t0 = now_s();
            state::StateWriter w;
            pipe.save_state(w);
            bytes = w.finish();
            s.push_back(1e6 * (now_s() - t0));

            t0 = now_s();
            state::StateWriter wr(std::move(recycle));
            pipe.save_state(wr);
            recycle = wr.finish();
            a.push_back(1e6 * (now_s() - t0));

            core::BlinkRadarPipeline fresh(in.radar);
            t0 = now_s();
            state::StateReader reader(bytes);
            fresh.restore_state(reader);
            r.push_back(1e6 * (now_s() - t0));
        }
        saves.push_back(dsp::median(s));
        restores.push_back(dsp::median(r));
        recycled.push_back(dsp::median(a));
    }
    const auto mean = [](const std::vector<double>& v) {
        return v.empty() ? 0.0
                         : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
    };
    c.save_us = saves.empty() ? 0.0 : saves.back();
    c.restore_us = restores.empty() ? 0.0 : restores.back();
    c.kb = static_cast<double>(bytes.size()) / 1024.0;
    c.life_save_us = mean(saves);
    c.life_restore_us = mean(restores);
    c.autosnapshot_us = mean(recycled);
    return c;
}

struct SelectionCost {
    double select_us = 0.0, fit_us = 0.0;
};

/// BinSelector::select_soa and ViewingPosition::fit_trimmed on windows
/// of the input's frames with the static clutter (first frame) removed,
/// as the pipeline's primed background subtraction does.
SelectionCost selection_cost(const EncodedStream& in,
                             const radar::FrameSeries& frames) {
    SelectionCost c;
    const core::PipelineConfig cfg{};
    const std::size_t win = cfg.selection_window_frames;
    const std::size_t fit_win = cfg.fit_window_frames;
    if (frames.size() < fit_win + 1) return c;
    const std::size_t n = in.radar.n_bins();
    std::vector<dsp::IqPlanes> planes(frames.size());
    for (std::size_t t = 0; t < frames.size(); ++t) {
        planes[t].resize(n);
        for (std::size_t b = 0; b < n && b < frames[t].bins.size(); ++b) {
            const dsp::Complex d = frames[t].bins[b] - frames[0].bins[b];
            planes[t].i[b] = d.real();
            planes[t].q[b] = d.imag();
        }
    }
    const core::BinSelector selector(in.radar, cfg);
    core::BinSelector::SelectScratch scratch;
    std::vector<const dsp::IqPlanes*> view(win);
    std::vector<double> var(n);
    std::vector<double> select_us, fit_us;
    dsp::ComplexSignal column(fit_win);
    for (std::size_t end = fit_win; end <= frames.size();
         end += std::max<std::size_t>(1, (frames.size() - fit_win) / 30)) {
        for (std::size_t k = 0; k < win; ++k) view[k] = &planes[end - win + k];
        for (std::size_t b = 0; b < n; ++b) {
            double si = 0, sq = 0, ss = 0;
            for (const dsp::IqPlanes* p : view) {
                si += p->i[b];
                sq += p->q[b];
                ss += p->i[b] * p->i[b] + p->q[b] * p->q[b];
            }
            const double m = static_cast<double>(win);
            var[b] = std::max(0.0, ss / m - (si * si + sq * sq) / (m * m));
        }
        const double t0 = now_s();
        const auto sel = selector.select_soa(view, var, scratch);
        select_us.push_back(1e6 * (now_s() - t0));
        const std::size_t bin = sel ? sel->bin : n / 3;
        for (std::size_t k = 0; k < fit_win; ++k)
            column[k] = planes[end - fit_win + k].at(bin);
        const double t1 = now_s();
        core::ViewingPosition::fit_trimmed(column, cfg.fit_method);
        fit_us.push_back(1e6 * (now_s() - t1));
    }
    c.select_us = dsp::median(select_us);
    c.fit_us = dsp::median(fit_us);
    return c;
}

/// ns per call of each KernelTable kernel at the workload's bin count.
std::vector<std::pair<std::string, double>> kernel_costs(std::size_t n) {
    const dsp::KernelTable& k = dsp::active_kernels();
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    const auto vec = [&](std::size_t m) {
        std::vector<double> v(m);
        for (double& x : v) x = u(rng);
        return v;
    };
    std::vector<double> xi = vec(n), xq = vec(n), yi(n), yq(n), pi = vec(n + 1),
                        pq = vec(n + 1), bgi = vec(n), bgq = vec(n),
                        oi(n), oq(n), old_i = vec(n), old_q = vec(n),
                        si = vec(n), sq = vec(n), ss = vec(n), out(n),
                        taps = vec(core::PipelineConfig{}.fir_order + 1);
    for (double& x : ss) x = std::abs(x) * 4.0;
    dsp::ComplexSignal z(n);
    std::size_t fft_n = 1;
    while (fft_n < n) fft_n <<= 1;
    std::vector<double> fft = vec(2 * fft_n), tw(fft_n);
    for (std::size_t j = 0; j < fft_n / 2; ++j) {
        tw[2 * j] = std::cos(-2.0 * M_PI * static_cast<double>(j) /
                             static_cast<double>(fft_n));
        tw[2 * j + 1] = std::sin(-2.0 * M_PI * static_cast<double>(j) /
                                 static_cast<double>(fft_n));
    }
    const std::size_t half = core::PipelineConfig{}.smooth_window_bins / 2;
    volatile double sink = 0.0;
    std::vector<std::pair<std::string, double>> r;
    const auto time = [&](const char* name, const auto& fn) {
        constexpr int kCalls = 20000;
        for (int i = 0; i < 200; ++i) fn();
        const double t0 = now_s();
        for (int i = 0; i < kCalls; ++i) fn();
        r.emplace_back(name, 1e9 * (now_s() - t0) / kCalls);
    };
    time("deinterleave", [&] { k.deinterleave(z.data(), n, yi.data(), yq.data()); });
    time("interleave", [&] { k.interleave(xi.data(), xq.data(), n, z.data()); });
    time("fir2", [&] {
        k.fir2(xi.data(), xq.data(), n, taps.data(), taps.size(), yi.data(),
               yq.data());
    });
    time("smooth_from_prefix", [&] {
        k.smooth_from_prefix(pi.data(), pq.data(), n, half, yi.data(),
                             yq.data());
    });
    time("movement_energy", [&] {
        sink = sink + k.movement_energy(xi.data(), xq.data(), yi.data(),
                                        yq.data(), n);
    });
    time("background_var_fused", [&] {
        k.background_var_fused(xi.data(), xq.data(), n, 0.0005, bgi.data(),
                               bgq.data(), oi.data(), oq.data(), old_i.data(),
                               old_q.data(), si.data(), sq.data(), ss.data());
    });
    time("variances_from_sums", [&] {
        k.variances_from_sums(si.data(), sq.data(), ss.data(), n, 100.0,
                              out.data());
    });
    time("fft_pass", [&] { k.fft_pass(fft.data(), tw.data(), fft_n, fft_n); });
    return r;
}

struct TelemetryCost {
    double aggregate_us = 0.0, publish_us = 0.0, nodes = 0.0;
};

/// FleetEngine::aggregate_into + SnapshotPublisher::publish with
/// `resident` instrumented sessions, each warmed on a few frames.
TelemetryCost telemetry_cost(const Shape& shape,
                             const std::vector<EncodedStream>& inputs,
                             const std::vector<radar::FrameSeries>& frames,
                             std::size_t resident, ThreadPool& pool) {
    TelemetryCost c;
    fleet::FleetConfig fc = standalone_config(shape, false, pool);
    fc.collect_metrics = true;
    fleet::FleetEngine engine(fc, &pool);
    for (std::size_t s = 0; s < std::max<std::size_t>(resident, 1); ++s) {
        const std::size_t i = s % frames.size();
        const fleet::SessionId id = engine.create_session(inputs[i].radar);
        for (std::size_t k = 0; k < std::min<std::size_t>(60, frames[i].size());
             ++k)
            engine.feed(id, frames[i][k]);
    }
    engine.pump();
    obs::telemetry::Aggregator agg;
    obs::telemetry::SnapshotPublisher pub;
    std::vector<double> a, p;
    for (int i = 0; i < 12; ++i) {
        const double t0 = now_s();
        engine.aggregate_into(agg);
        const double t1 = now_s();
        pub.publish(agg.output());
        const double t2 = now_s();
        a.push_back(1e6 * (t1 - t0));
        p.push_back(1e6 * (t2 - t1));
    }
    c.aggregate_us = dsp::median(a);
    c.publish_us = dsp::median(p);
    const obs::MetricsRegistry& out = agg.output();
    c.nodes = static_cast<double>(out.counters().size() + out.gauges().size() +
                                  out.histograms().size());
    return c;
}

struct LedgerRow {
    std::string layer;
    double us = 0.0;
    std::string feeds;
    bool summed = true;  ///< false: part of the summed row above it
};

}  // namespace

void measure_layers(const Options& opt, const Shape& shape,
                    const std::vector<EncodedStream>& inputs,
                    ThreadPool& pool, const PassResult& untraced,
                    const PassResult& traced, Metrics& out) {
    const TraceCounters& tc = traced.trace;
    const std::vector<radar::FrameSeries> frames = replay_frames(inputs);
    const double decode_us = decode_us_per_frame(inputs);
    const PipelineCost pipe = pipeline_cost(inputs, frames);
    const GuardCost guard = guard_cost(inputs, frames);
    const EngineCost eng = engine_cost(
        shape, opt.workload == Workload::kLiveImpaired, inputs, frames, pipe,
        tc, traced.resident_sessions, pool);
    const SessionCost sess = session_cost(shape, inputs, pool);
    const StateCost st = state_cost(
        inputs[0], frames[0],
        shape.burst_frames != 0 ? shape.burst_frames : kAutosnapshotFrames);
    const SelectionCost sel = selection_cost(inputs[0], frames[0]);
    const auto kernels = kernel_costs(inputs[0].radar.n_bins());
    const TelemetryCost tel =
        telemetry_cost(shape, inputs, frames, traced.resident_sessions, pool);

    // Ledger arithmetic, everything in CPU us per served frame of the
    // traced pass. Standalone unit costs are scaled by how often the
    // traced pass did the work (frames delivered, sessions created in the
    // measured loop, autosnapshots, evictions, telemetry cycles).
    const double served =
        static_cast<double>(std::max<std::uint64_t>(traced.served, 1));
    const double delivered = static_cast<double>(tc.delivered);
    const double per_served = delivered / served;
    const double pipe_us =
        1e6 * pipe.total_s /
        static_cast<double>(std::max<std::size_t>(pipe.frames, 1));
    const double frontend_self_us =
        1e6 * tc.frontend_self_s / std::max(delivered, 1.0);
    // Tick-driven exports (churn_drain) run inside pump() on the
    // front-end's thread; scrapes (live_impaired) run between ticks.
    const double export_in_pump_us =
        shape.export_every_ticks == 0
            ? 0.0
            : static_cast<double>(tc.telemetry_cycles) *
                  (tel.aggregate_us + tel.publish_us) / served;
    // Sessions created in the loop are created by the front-end, on the
    // hello record.
    const double create_us =
        static_cast<double>(tc.created_in_loop) * sess.create_us / served;
    const double state_us =
        (static_cast<double>(tc.autosnapshots) * st.autosnapshot_us +
         static_cast<double>(tc.evictions) * st.life_save_us +
         static_cast<double>(tc.rehydrations) * st.life_restore_us) /
        served;
    const double steal =
        tc.sessions_drained == 0
            ? 0.0
            : static_cast<double>(tc.sessions_stolen) /
                  static_cast<double>(tc.sessions_drained);

    const double cpu_untraced = dsp::median(untraced.cpu_us_per_frame);
    const double cpu_traced = dsp::median(traced.cpu_us_per_frame);

    const std::vector<LedgerRow> rows = {
        {"ingest.frontend self (in place)", frontend_self_us * per_served,
         "cpu_us_per_frame, latency_p99_ms"},
        {"  of which ingest.decode", decode_us * per_served,
         "cpu_us_per_frame, latency_p50_ms", false},
        {"  of which fleet.feed", eng.feed_us * per_served,
         "cpu_us_per_frame, frames_per_s", false},
        {"  of which fleet.create_session", create_us,
         "cpu_us_per_frame, setup_s", false},
        {"  of which obs.telemetry export", export_in_pump_us,
         "cpu_us_per_frame", false},
        {"fleet.pump self", eng.pump_self_us * per_served,
         "cpu_us_per_frame, frames_per_s"},
        {"core.pipeline", pipe_us * per_served, "cpu_us_per_frame"},
        {"  of which core.guard", guard.us_per_frame * per_served,
         "latency_p50_ms, served_ratio, blink_f1", false},
        {"state (autosnapshot, evict, rehydrate)", state_us,
         "cpu_us_per_frame, peak_rss_mb"},
        {"stream open/close (in place)", 1e6 * tc.lifecycle_s / served,
         "cpu_us_per_frame"},
        {"obs.telemetry scrapes (in place)", 1e6 * tc.scrape_s / served,
         "latency_p99_ms, cpu_us_per_frame"},
    };
    double attributed = 0.0;
    for (const LedgerRow& r : rows)
        if (r.summed) attributed += r.us;
    const double unattributed_pct =
        100.0 * (cpu_untraced - attributed) / cpu_untraced;
    const double overhead_pct =
        100.0 * (cpu_traced - cpu_untraced) / cpu_untraced;

    std::printf("\nledger: %s (CPU us per served frame; untraced "
                "cpu_us_per_frame %.3f)\n",
                opt.workload_name.c_str(), cpu_untraced);
    std::printf("  'of which' rows are part of the row above and are not "
                "summed again. fleet.pump self: standalone feed+pump of %zu "
                "sessions, %zu fed %zu frames per pump, minus the bare "
                "pipeline.\n",
                eng.sessions, eng.active, eng.batch);
    std::printf("  %-40s %10s %8s  %s\n", "layer", "self us", "share",
                "feeds");
    for (const LedgerRow& r : rows)
        std::printf("  %-40s %10.3f %7.1f%%  %s\n", r.layer.c_str(), r.us,
                    100.0 * r.us / cpu_untraced, r.feeds.c_str());
    std::printf("  %-40s %10.3f %7.1f%%  %s\n", "ledger.unattributed_pct",
                cpu_untraced - attributed, unattributed_pct,
                "the ledger itself");
    std::printf("  %-40s %10.3f %7.1f%%  %s\n", "trace.overhead_pct",
                cpu_traced - cpu_untraced, overhead_pct,
                "traced vs untraced cpu_us_per_frame");

    const auto add = [&](const std::string& name, double v,
                         const std::string& unit) {
        out.push_back({name, v, unit});
    };
    // Some sample sets are empty on some workloads (no spans in a tiny
    // smoke run, no generator on the drains): those report 0.
    const auto pct = [](const std::vector<double>& v, double p) {
        return v.empty() ? 0.0 : dsp::percentile(v, p);
    };
    add("ingest.decode.us_per_frame", decode_us, "us");
    add("ingest.decode.resyncs", static_cast<double>(tc.resyncs), "count");
    add("ingest.decode.quarantined_bytes",
        static_cast<double>(tc.quarantined_bytes), "bytes");
    add("ingest.frontend.self_us_per_frame", frontend_self_us, "us");
    add("ingest.queue.wait_ms_p50", pct(tc.queue_wait_ms, 50.0), "ms");
    add("ingest.queue.wait_ms_p99", pct(tc.queue_wait_ms, 99.0), "ms");
    add("ingest.queue.dropped_frames", static_cast<double>(tc.queue_dropped),
        "count");
    add("ingest.admission.refused", static_cast<double>(tc.refused), "count");
    add("ingest.governor.shed_transitions",
        static_cast<double>(tc.shed_transitions), "count");
    add("fleet.feed.us_per_frame", eng.feed_us, "us");
    add("fleet.pump.self_us_per_frame", eng.pump_self_us, "us");
    add("fleet.pump.dispatch_ms_p99", pct(tc.dispatch_ms, 99.0), "ms");
    add("fleet.steal_ratio", steal, "ratio");
    add("fleet.create_session_us", sess.create_us, "us");
    add("fleet.close_us", sess.close_us, "us");
    add("fleet.evictions", static_cast<double>(tc.evictions), "count");
    add("fleet.rehydrations", static_cast<double>(tc.rehydrations), "count");
    add("state.save_us", st.save_us, "us");
    add("state.restore_us", st.restore_us, "us");
    add("state.snapshot_kb", st.kb, "KiB");
    add("core.pipeline.steady_us_per_frame.p50", pct(pipe.steady_us, 50.0),
        "us");
    add("core.pipeline.steady_us_per_frame.p99", pct(pipe.steady_us, 99.0),
        "us");
    add("core.pipeline.cold_us_per_frame.p50", pct(pipe.cold_us, 50.0), "us");
    add("core.pipeline.cold_us_per_frame.p99", pct(pipe.cold_us, 99.0), "us");
    add("core.bin_selection.us_per_call", sel.select_us, "us");
    add("core.viewing_fit.us_per_call", sel.fit_us, "us");
    add("core.guard.us_per_frame", guard.us_per_frame, "us");
    add("core.guard.clean_ratio",
        static_cast<double>(guard.clean) /
            static_cast<double>(std::max<std::uint64_t>(guard.frames, 1)),
        "ratio");
    add("core.guard.repaired", static_cast<double>(guard.repaired), "count");
    add("core.guard.bridged", static_cast<double>(guard.bridged), "count");
    add("core.guard.quarantined", static_cast<double>(guard.quarantined),
        "count");
    for (const auto& [name, ns] : kernels)
        add("dsp.kernel." + name + ".ns_per_call", ns, "ns");
    add("obs.telemetry.aggregate_us", tel.aggregate_us, "us");
    add("obs.telemetry.publish_us", tel.publish_us, "us");
    add("obs.telemetry.nodes", tel.nodes, "count");
    add("generator.lag_ms_p99", pct(traced.generator_lag_ms, 99.0), "ms");
    add("ledger.unattributed_pct", unattributed_pct, "%");
    add("trace.overhead_pct", overhead_pct, "%");
    add("obs.spans.abandoned", static_cast<double>(tc.spans_abandoned),
        "count");
}

}  // namespace fleetbench
