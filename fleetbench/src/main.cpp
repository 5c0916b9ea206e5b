// fleetbench: the repository's end-to-end benchmark.
//
//   fleetbench --workload <steady_drain|churn_drain|live_impaired>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--smoke] [--perturb-reference] [--scratch <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs an untraced
// and a traced pass (half the time each) and reports the per-layer
// metrics plus the cost ledger. Human-readable output comes first; the
// last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 ok, 1 correctness failure (named workload and session),
// 2 usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "dsp/frame_kernels.hpp"
#include "dsp/stats.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEETBENCH_CXX_FLAGS
#define FLEETBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace fleetbench;

/// Later changes re-check their claims on this seed, which was never
/// used while tuning the benchmark.
constexpr std::uint64_t kHeldOutSeed = 918273645;

/// Seconds after start by which every measured pass has stopped; the
/// layer measurements of a traced run still fit in the 180 s a run may
/// take.
constexpr double kPassDeadlineS = 140.0;

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "fleetbench: %s\nusage: fleetbench --workload "
                 "<steady_drain|churn_drain|live_impaired> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] "
                 "[--perturb-reference] [--scratch <dir>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload_name = value();
            have_workload = true;
            if (o.workload_name == "steady_drain")
                o.workload = Workload::kSteadyDrain;
            else if (o.workload_name == "churn_drain")
                o.workload = Workload::kChurnDrain;
            else if (o.workload_name == "live_impaired")
                o.workload = Workload::kLiveImpaired;
            else
                usage(("unknown workload " + o.workload_name).c_str());
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
            if (!(o.seconds > 0.0 && o.seconds <= 600.0))
                usage("--seconds must be in (0, 600]");
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--perturb-reference") {
            o.perturb_reference = true;
        } else if (a == "--scratch") {
            o.scratch_dir = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    return o;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

double safe_ratio(double num, double den) {
    return den <= 0.0 ? 0.0 : num / den;
}

void print_table(const Metrics& m) {
    std::printf("\n  %-44s %16s  %s\n", "metric", "value", "unit");
    for (const Metric& x : m)
        std::printf("  %-44s %16.6g  %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& m) {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char num[64];
        const double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
        std::snprintf(num, sizeof(num), "%.17g", v);
        if (i != 0) s += ", ";
        s += "\"" + m[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

/// Returns "" when the pass's sessions match the reference and the
/// accuracy floor holds.
std::string check(const Options& opt, const Shape& shape,
                  const std::vector<EncodedStream>& inputs,
                  const PassResult& pass, const char* label) {
    std::string why;
    for (std::size_t r = 0; r < pass.rounds.size() && why.empty(); ++r) {
        if (pass.rounds[r].size() != shape.streams)
            why = std::to_string(pass.rounds[r].size()) + " sessions, " +
                  std::to_string(shape.streams) + " expected";
        else
            why = check_sessions(pass.rounds[r], inputs,
                                 opt.perturb_reference);
        if (!why.empty() && pass.rounds.size() > 1)
            why = "round " + std::to_string(r) + ", " + why;
    }
    if (why.empty()) {
        const Accuracy acc = score_sessions(pass.rounds.front(), inputs);
        if (acc.truth == 0) {
            why = "no ground-truth blinks to score";
        } else if (acc.f1() < shape.f1_floor) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "pooled blink F1 %.4f below the floor %.2f",
                          acc.f1(), shape.f1_floor);
            why = buf;
        }
    }
    if (why.empty()) return "";
    return "workload " + opt.workload_name + " (" + label + " pass), " + why;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt = parse(argc, argv);
    opt.deadline_s = now_s() + kPassDeadlineS;
    const Shape shape = shape_for(opt);
    double load1 = 0.0;
    getloadavg(&load1, 1);
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    // The driving thread joins every parallel_for, so nproc - 1 workers
    // keep one busy thread per core.
    br::ThreadPool pool(static_cast<std::size_t>(std::max(1L, nproc - 1)));

    std::printf("fleetbench workload=%s seed=%llu held_out_seed=%llu "
                "seconds=%g trace=%d%s\n",
                opt.workload_name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(kHeldOutSeed), opt.seconds,
                opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
    std::printf("stamp: {\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
                "\"compiler\": \"%s\", \"simd_backend\": \"%s\", "
                "\"pool_threads\": %zu, \"caller_joins_pool\": true, "
                "\"nproc\": %ld, \"loadavg_1m\": %.2f}\n",
                FLEETBENCH_BUILD_TYPE, json_escape(FLEETBENCH_CXX_FLAGS).c_str(),
                json_escape(__VERSION__).c_str(),
                br::dsp::active_kernels().name, pool.size(), nproc, load1);

    const double g0 = now_s();
    std::vector<EncodedStream> inputs = make_inputs(opt, shape, pool);
    std::size_t offered = 0, bytes = 0;
    for (const EncodedStream& in : inputs) {
        offered += in.offered();
        bytes += in.bytes->size();
    }
    std::printf("inputs: %zu distinct streams (%zu frames, %.1f MB wire) "
                "for %zu %s, generated in %.2f s\n",
                inputs.size(), offered, static_cast<double>(bytes) / 1e6,
                shape.streams,
                opt.workload == Workload::kChurnDrain ? "sessions" : "streams",
                now_s() - g0);

    Metrics metrics;
    const PassResult p = run_pass(opt, shape, inputs, pool,
                                  opt.trace ? opt.seconds / 2 : opt.seconds,
                                  "");
    // The reference is built after the measured pass so its memory never
    // counts toward peak_rss_mb.
    build_reference(inputs, pool);
    std::string failure = check(opt, shape, inputs, p, "untraced");

    const double offered_all = static_cast<double>(p.offered);
    const Accuracy acc = score_sessions(p.rounds.front(), inputs);
    if (!opt.trace) {
        const double served_ratio = safe_ratio(static_cast<double>(p.served), offered_all);
        const double slo_met_ratio = safe_ratio(static_cast<double>(p.slo_met), offered_all);
        metrics = {
            {"setup_s", br::dsp::median(p.setup_s), "s"},
            {"frames_per_s", br::dsp::median(p.frames_per_s), "frames/s"},
            {"cpu_us_per_frame", br::dsp::median(p.cpu_us_per_frame), "us"},
            {"latency_p50_ms", br::dsp::median(p.p50_ms), "ms"},
            {"latency_p99_ms", br::dsp::median(p.p99_ms), "ms"},
            {"slo_met_ratio", slo_met_ratio, "ratio"},
            {"served_ratio", served_ratio, "ratio"},
            {"blink_f1", acc.f1(), "ratio"},
            {"blink_recall", acc.recall(), "ratio"},
            {"peak_rss_mb", br::dsp::median(p.peak_rss_mb), "MB"},
        };
        print_table(metrics);
        std::printf("  %-44s %16.6g  %s\n", "failed_ratio", 1.0 - served_ratio,
                    "ratio");
        std::printf("  %-44s %16.6g  %s\n", "slo_miss_ratio",
                    1.0 - slo_met_ratio, "ratio");
        std::printf("  %-44s %16llu  %s\n", "latency.samples",
                    static_cast<unsigned long long>(p.latency_samples),
                    "count");
        std::printf("  %-44s %16zu  %s\n", "rounds", p.cpu_us_per_frame.size(),
                    "count");
        if (!p.generator_lag_ms.empty())
            std::printf("  %-44s %16.6g  %s\n", "generator.lag_ms_p99",
                        br::dsp::percentile(p.generator_lag_ms, 99.0), "ms");
        for (const auto& [name, q] : p.latency_tail)
            std::printf("  %-44s %16.6g  %s\n", name.c_str(), q, "ms");
    } else if (failure.empty()) {
        const std::string spans = opt.scratch_dir + "/spans-" +
                                  opt.workload_name + "-" +
                                  std::to_string(getpid()) + ".jsonl";
        const PassResult traced =
            run_pass(opt, shape, inputs, pool, opt.seconds / 2, spans);
        failure = check(opt, shape, inputs, traced, "traced");
        if (failure.empty()) {
            measure_layers(opt, shape, inputs, pool, p, traced, metrics);
            print_table(metrics);
        }
    }
    std::printf("\naccuracy: pooled blink F1 %.4f, recall %.4f over %zu "
                "sessions (floor %.2f)\n",
                acc.f1(), acc.recall(), p.rounds.front().size(),
                shape.f1_floor);
    if (!failure.empty()) {
        std::printf("CORRECTNESS FAILURE: %s\n", failure.c_str());
        std::fprintf(stderr, "CORRECTNESS FAILURE: %s\n", failure.c_str());
    } else {
        std::printf("correctness: ok, %zu sessions bit-identical to a bare "
                    "BlinkRadarPipeline on the same decoded frames in each "
                    "of %zu rounds\n",
                    p.rounds.front().size(), p.rounds.size());
    }
    print_json(failure.empty(), std::max<std::uint64_t>(p.offered, 1),
               p.offered - std::min(p.offered, p.served), metrics);
    return failure.empty() ? 0 : 1;
}
