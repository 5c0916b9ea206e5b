// Performance microbenches (google-benchmark) for the real-time claim:
// the paper outputs a detection every 40 ms frame after a one-time 2 s
// cold start, so the whole per-frame pipeline must run in well under
// 40 ms. Also benches the individual hot stages and the batch session
// engine. By default results are also written to BENCH_perf.json
// (google-benchmark JSON format); pass your own --benchmark_out= to
// override.
#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/bin_selection.hpp"
#include "core/pipeline.hpp"
#include "core/preprocess.hpp"
#include "dsp/circle_fit.hpp"
#include "dsp/fft.hpp"
#include "eval/experiment.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frontend.hpp"
#include "ingest/wire_format.hpp"
#include "obs/telemetry/aggregator.hpp"
#include "obs/telemetry/export.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

using namespace blinkradar;

namespace {

sim::SimulatedSession& session() {
    static sim::SimulatedSession s = [] {
        sim::ScenarioConfig sc;
        Rng rng(1);
        sc.driver = physio::sample_participants(1, rng).front();
        sc.duration_s = 60.0;
        sc.seed = 2;
        return sim::simulate_session(sc);
    }();
    return s;
}

/// Replays the recorded session in a loop with timestamps re-stamped to
/// stay monotonic across wraps. Naively re-feeding the recorded frames
/// makes every post-wrap timestamp non-monotonic, so the frame guard
/// quarantines them and the bench silently measures the ~25 ns reject
/// path instead of the detection chain. The per-iteration bin copy is
/// identical across the instrumented/uninstrumented variants.
class FrameReplayer {
public:
    explicit FrameReplayer(const sim::SimulatedSession& s)
        : frames_(s.frames),
          period_s_(frames_[1].timestamp_s - frames_[0].timestamp_s) {}

    const radar::RadarFrame& next() {
        scratch_.bins = frames_[i_].bins;
        scratch_.timestamp_s = static_cast<double>(n_) * period_s_;
        i_ = (i_ + 1) % frames_.size();
        ++n_;
        return scratch_;
    }

private:
    const radar::FrameSeries& frames_;
    const double period_s_;
    radar::RadarFrame scratch_;
    std::size_t i_ = 0;
    std::uint64_t n_ = 0;
};

// The frame path: fused SoA kernels through the best SIMD backend for
// the host. Also the uninstrumented baseline
// scripts/check_metrics_overhead.sh pairs the instrumented variants
// below against.
void BM_PipelinePerFrameSimd(benchmark::State& state) {
    const auto& s = session();
    core::BlinkRadarPipeline pipeline(s.radar);
    FrameReplayer replay(s);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipeline.process(replay.next()));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelinePerFrameSimd);

/// Global registry the stage-breakdown snapshot is written from after the
/// run (see main); fed by BM_PipelinePerFrameMetrics.
obs::MetricsRegistry& bench_registry() {
    static obs::MetricsRegistry registry;
    return registry;
}

// Same workload with the observability layer attached; the delta versus
// BM_PipelinePerFrameSimd is the total metrics overhead (budget: <2 %,
// enforced by scripts/check_metrics_overhead.sh). Fills the stage.* and
// kernel.* histograms BENCH_perf_stages.json is written from.
void BM_PipelinePerFrameMetrics(benchmark::State& state) {
    const auto& s = session();
    core::BlinkRadarPipeline pipeline(s.radar, {}, &bench_registry());
    FrameReplayer replay(s);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipeline.process(replay.next()));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelinePerFrameMetrics);

// Same workload with the flight recorder attached at default ring
// depths; the delta versus BM_PipelinePerFrameSimd is the black-box
// overhead, gated by the same <2 % budget. (Self-checkpointing is off
// by default — see FlightRecorderConfig — so this measures the
// always-on rings, which is what every supervised deployment pays.)
void BM_PipelinePerFrameRecorder(benchmark::State& state) {
    const auto& s = session();
    static obs::FlightRecorder recorder;
    recorder.clear();
    core::BlinkRadarPipeline pipeline(s.radar, {}, nullptr, &recorder);
    FrameReplayer replay(s);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipeline.process(replay.next()));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelinePerFrameRecorder);

// Fleet-path telemetry overhead trio: one iteration feeds 256
// concurrent sessions one frame each (one 25 fps fleet tick at the
// fleet size of fleetbench's churn_drain and live_impaired) and pumps
// the shard executor. The trio is also the CI speed gate for the fleet
// path and the telemetry plane (BENCH_perf.json).
// Base runs bare; Metrics adds the per-session registries; Telemetry
// adds the rest of the telemetry plane — the hierarchical aggregation
// cycle plus both snapshot serialisations every 25 ticks (the ~1 Hz
// live-export cadence). check_metrics_overhead.sh pairs the paired
// per-repetition deltas Metrics-Base and Telemetry-Metrics, each
// against the same <2 % budget as pipeline metrics: the first is the
// collection cost on the fleet hot path, the second is what the
// aggregation/export plane adds on top. The cycle cost is bounded by
// snapshot cardinality, not fleet size, so the second delta only
// shrinks as the fleet grows past this point.
// Process CPU time, because the frames burn on pool workers. The
// iteration count is pinned so every repetition of all variants runs
// the identical 200-tick schedule from a fresh engine — per-frame cost
// varies along the session timeline (periodic bin re-selection scans),
// and a pinned schedule makes the paired per-repetition differences
// measure instrumentation, not timeline phase.
enum class FleetBench { kBase, kMetrics, kTelemetry };

void fleet_per_frame(benchmark::State& state, FleetBench variant) {
    const auto& s = session();
    constexpr std::size_t kSessions = 256;
    fleet::FleetConfig cfg;
    cfg.record_results = false;
    cfg.collect_metrics = variant != FleetBench::kBase;
    fleet::FleetEngine engine(cfg, &ThreadPool::shared());
    std::vector<fleet::SessionId> ids;
    std::vector<FrameReplayer> replays;
    for (std::size_t k = 0; k < kSessions; ++k) {
        ids.push_back(engine.create_session(s.radar));
        replays.emplace_back(s);
    }
    obs::telemetry::Aggregator agg;
    obs::telemetry::SnapshotPublisher pub;  // in-memory buffers only
    std::uint64_t tick = 0;
    for (auto _ : state) {
        for (std::size_t k = 0; k < kSessions; ++k)
            engine.feed(ids[k], replays[k].next());
        benchmark::DoNotOptimize(engine.pump());
        if (variant == FleetBench::kTelemetry && ++tick % 25 == 0) {
            engine.aggregate_into(agg);
            pub.publish(agg.output());
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kSessions));
}

void BM_FleetPerFrameBase(benchmark::State& state) {
    fleet_per_frame(state, FleetBench::kBase);
}
BENCHMARK(BM_FleetPerFrameBase)->MeasureProcessCPUTime()->Iterations(200);

void BM_FleetPerFrameMetrics(benchmark::State& state) {
    fleet_per_frame(state, FleetBench::kMetrics);
}
BENCHMARK(BM_FleetPerFrameMetrics)
    ->MeasureProcessCPUTime()
    ->Iterations(200);

void BM_FleetPerFrameTelemetry(benchmark::State& state) {
    fleet_per_frame(state, FleetBench::kTelemetry);
}
BENCHMARK(BM_FleetPerFrameTelemetry)
    ->MeasureProcessCPUTime()
    ->Iterations(200);

// Idle-tick cost of the ingest front-end at a live gateway's shape: N
// BytePipe streams, each with a session, and a metrics registry; one
// stream gets a frame before every tick, the rest stay silent (their
// stall watchdogs fire on schedule, as on a live gateway). A tick's work
// is the one ready stream, so the /64 and /256 variants should cost the
// same; the committed baselines make the CI gate fail when a tick walks
// every stream or session again. Thread CPU: a one-frame pump drains on
// the calling thread.
void BM_IngestIdleTick(benchmark::State& state) {
    const auto& s = session();
    const auto n_streams = static_cast<std::size_t>(state.range(0));
    fleet::FleetConfig fcfg;
    fcfg.record_results = false;
    fleet::FleetEngine engine(fcfg, &ThreadPool::shared());
    obs::MetricsRegistry registry;
    ingest::IngestConfig cfg;
    cfg.admission.capacity = static_cast<double>(n_streams);
    ingest::IngestFrontend fe(cfg, engine, &registry);

    ingest::WireHello hello;
    hello.radar = s.radar;
    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    std::vector<ingest::WireEncoder> encoders;
    for (std::size_t k = 0; k < n_streams; ++k) {
        pipes.push_back(std::make_unique<ingest::BytePipe>());
        if (!fe.open_stream(pipes.back()->make_source()).admitted())
            state.SkipWithError("stream refused");
        encoders.emplace_back(hello);
        pipes.back()->write(encoders.back().take());
    }
    fe.pump();  // hellos decode into sessions

    // Untimed warm-up past stream 0's cold start and the silent streams'
    // first watchdog bursts (their backoff reaches its 256-tick cap after
    // ~600 ticks), so every run length times the same steady state.
    FrameReplayer replay(s);
    const auto tick = [&] {
        encoders[0].encode_frame(replay.next());
        pipes[0]->write(encoders[0].take());
        return fe.pump();
    };
    for (int i = 0; i < 1024; ++i) tick();
    for (auto _ : state) benchmark::DoNotOptimize(tick());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    for (const ingest::StreamId id : fe.stream_ids()) fe.close_stream(id);
}
BENCHMARK(BM_IngestIdleTick)->Arg(64)->Arg(256);

void BM_PreprocessFrame(benchmark::State& state) {
    const auto& s = session();
    const core::Preprocessor pre{core::PipelineConfig{}};
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pre.apply(s.frames[i]));
        i = (i + 1) % s.frames.size();
    }
}
BENCHMARK(BM_PreprocessFrame);

void BM_BinSelection(benchmark::State& state) {
    // One selection pass as the pipeline runs it: a 250-frame window of
    // I/Q planes, with the per-bin variances already tracked.
    const auto& s = session();
    const core::BinSelector selector(s.radar, core::PipelineConfig{});
    std::vector<dsp::IqPlanes> frames(250);
    std::vector<const dsp::IqPlanes*> window;
    core::RollingBinVariance rolling(s.radar.n_bins());
    for (std::size_t t = 0; t < frames.size(); ++t) {
        const dsp::ComplexSignal& bins = s.frames[100 + t].bins;
        frames[t].resize(bins.size());
        for (std::size_t b = 0; b < bins.size(); ++b) {
            frames[t].i[b] = bins[b].real();
            frames[t].q[b] = bins[b].imag();
        }
        window.push_back(&frames[t]);
        rolling.push(bins);
    }
    std::vector<double> variances;
    rolling.variances_into(variances);
    core::BinSelector::SelectScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            selector.select_soa(window, variances, scratch));
}
BENCHMARK(BM_BinSelection);

void BM_PrattFit(benchmark::State& state) {
    Rng rng(3);
    dsp::ComplexSignal pts;
    for (int k = 0; k < 250; ++k) {
        const double a = 0.01 * k;
        pts.emplace_back(std::cos(a) + rng.normal(0, 0.01),
                         std::sin(a) + rng.normal(0, 0.01));
    }
    for (auto _ : state) benchmark::DoNotOptimize(dsp::fit_circle_pratt(pts));
}
BENCHMARK(BM_PrattFit);

void BM_Fft1024(benchmark::State& state) {
    Rng rng(4);
    dsp::ComplexSignal sig(1024);
    for (auto& z : sig) z = dsp::Complex(rng.normal(0, 1), rng.normal(0, 1));
    for (auto _ : state) {
        dsp::ComplexSignal copy = sig;
        dsp::fft_inplace(copy);
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_Fft1024);

void BM_SimulatorFrame(benchmark::State& state) {
    sim::ScenarioConfig sc;
    Rng rng(5);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = 3600.0;
    sc.seed = 6;
    sim::StreamingSession stream = sim::make_streaming_session(sc);
    for (auto _ : state) benchmark::DoNotOptimize(stream.simulator->next());
}
BENCHMARK(BM_SimulatorFrame);

// Batch engine throughput: score several independent sessions through
// eval::run_sessions (fanned out over the shared thread pool). Reports
// sessions/sec; scales with BLINKRADAR_THREADS on multi-core hosts.
void BM_BatchSessions(benchmark::State& state) {
    Rng rng(7);
    const auto drivers = physio::sample_participants(4, rng);
    std::vector<sim::ScenarioConfig> scenarios;
    for (std::size_t i = 0; i < drivers.size(); ++i) {
        sim::ScenarioConfig sc;
        sc.driver = drivers[i];
        sc.duration_s = 20.0;
        sc.seed = 100 + i;
        scenarios.push_back(sc);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(eval::run_sessions(scenarios));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * scenarios.size()));
}
BENCHMARK(BM_BatchSessions);

}  // namespace

// Custom main: default to emitting BENCH_perf.json next to the working
// directory unless the caller already chose an output file.
int main(int argc, char** argv) {
    std::vector<char*> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    }
    std::string out_flag = "--benchmark_out=BENCH_perf.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    // Stage-level breakdown of the instrumented run, next to the
    // google-benchmark output (empty if the metrics bench was filtered
    // out).
    if (bench_registry().histograms().size() > 0) {
        std::ofstream stages("BENCH_perf_stages.json");
        stages << obs::snapshot_to_json(bench_registry());
    }
    return 0;
}
