// Shared declarations of the fleet benchmark: workload shapes, the
// seed-generated inputs (simulated drivers encoded to BRWF wire bytes),
// the bare-pipeline reference every session is checked against, and the
// ordered metric list the command prints.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/levd.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/byte_source.hpp"
#include "physio/blink.hpp"
#include "radar/config.hpp"
#include "radar/frame.hpp"

namespace fleetbench {

namespace br = blinkradar;

enum class Workload { kSteadyDrain, kChurnDrain, kLiveImpaired };

/// The engine's autosnapshot cadence, which the ledger and the live
/// warm-up account for.
inline const std::size_t kAutosnapshotFrames =
    br::fleet::FleetConfig{}.snapshot_interval_frames;

struct Options {
    Workload workload = Workload::kSteadyDrain;
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;               ///< tiny inputs, no accuracy floor
    bool perturb_reference = false;   ///< self-test of the correctness check
    std::string scratch_dir = ".";    ///< span trace files (traced run)
    /// now_s() past which measured loops stop; every session still open
    /// then counts as a correctness failure, so a hang cannot outlive
    /// the run's time limit.
    double deadline_s = 0.0;
};

/// Size and policy knobs of one workload. Every field is fixed per
/// workload; smoke mode shrinks the sizes only.
struct Shape {
    std::size_t distinct = 8;       ///< distinct simulated inputs
    std::size_t streams = 64;       ///< streams (churn: sessions in total)
    double session_s = 120.0;       ///< simulated length of each input
    // churn_drain
    std::size_t wave = 0;              ///< streams opened per wave
    std::size_t wave_every_ticks = 0;  ///< ticks between waves
    std::size_t burst_frames = 0;      ///< frames per burst (0 = one burst)
    std::size_t gap_reads = 0;         ///< silent reads between bursts
    std::size_t max_resident = 0;      ///< ResidencyPolicy cap (0 = none)
    std::uint64_t evict_idle_pumps = 0;
    // telemetry and tracing
    std::size_t export_every_ticks = 0;  ///< front-end cadence (churn)
    double export_every_s = 0.0;         ///< scrape cadence (live)
    std::size_t span_stride = 16;
    // live_impaired
    bool faults = false;
    std::size_t warmup_frames = 0;  ///< spread of per-input warm-up lengths
    // accuracy floor (pooled F1) the run must stay above
    double f1_floor = 0.0;
};

Shape shape_for(const Options& opt);

/// One distinct input stream: encoded bytes plus everything the
/// correctness check and the latency accounting need about it.
struct EncodedStream {
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
    std::size_t hello_end = 0;            ///< stream header + hello record
    std::vector<std::size_t> frame_end;   ///< end offset of source frame k
    br::radar::RadarConfig radar{};
    std::vector<br::physio::BlinkEvent> truth;
    /// Per decoded frame j: the source frame k whose bytes completed it
    /// (its due time is frame k's due time).
    std::vector<std::uint32_t> decodable_after;
    /// live_impaired: source frames sent unpaced before the window.
    std::size_t warmup = 0;

    // Reference: a bare BlinkRadarPipeline fed the offline-decoded frames.
    std::vector<br::core::DetectedBlink> ref_blinks;
    std::vector<std::uint8_t> ref_quarantined;  ///< per decoded frame

    std::size_t offered() const noexcept { return frame_end.size(); }
    std::size_t decoded() const noexcept { return decodable_after.size(); }
};

/// Simulate, impair (live_impaired only) and encode the distinct inputs.
std::vector<EncodedStream> make_inputs(const Options& opt, const Shape& shape,
                                       br::ThreadPool& pool);

/// Fill the ref_* fields of every input (bare pipeline, one per input).
void build_reference(std::vector<EncodedStream>& inputs,
                     br::ThreadPool& pool);

/// Decode an input offline, calling fn for every decoded frame in order.
void for_each_decoded(const EncodedStream& in,
                      const std::function<void(br::radar::RadarFrame&&)>& fn);

/// Zero-copy replay source over shared bytes. Bytes are released in
/// steps: the first read returns at most the bytes up to releases[0],
/// and once a step is consumed the source stays silent for `gap_reads`
/// reads before the next step opens (bursty producers).
std::unique_ptr<br::ingest::ByteSource> make_scripted_source(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes,
    std::vector<std::size_t> releases, std::size_t gap_reads);

/// Release points for a stream: hello first, then bursts of
/// `burst_frames` source frames (0 = everything at once).
std::vector<std::size_t> release_points(const EncodedStream& in,
                                        std::size_t burst_frames);

/// What one fleet session produced, for the correctness check.
struct SessionOutcome {
    std::size_t input = 0;  ///< index into the inputs
    /// Non-empty when the session has no outcome to compare (refused at
    /// admission, or not finished before the deadline): a failure.
    std::string error;
    std::vector<br::core::DetectedBlink> blinks;
    std::uint64_t frames_consumed = 0;  ///< processed + cold-restart drops
    std::uint64_t cold_restarts = 0;
    /// Per consumed frame, live_impaired only: guard-quarantined?
    std::vector<std::uint8_t> quarantined;
};

/// Compare sessions against their reference. Returns "" when every
/// session matches, otherwise a message naming the first bad session.
std::string check_sessions(const std::vector<SessionOutcome>& sessions,
                           const std::vector<EncodedStream>& inputs,
                           bool perturb_reference);

/// Pooled blink matching of every session against its input's truth.
/// Every ratio is 0 when there is nothing to score.
struct Accuracy {
    std::size_t truth = 0, detected = 0, matched = 0;
    double recall() const;
    double precision() const;
    double f1() const;
};
Accuracy score_sessions(const std::vector<SessionOutcome>& sessions,
                        const std::vector<EncodedStream>& inputs);

/// Ordered (name, value, unit) list.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

// Clocks and process probes.
double now_s();           ///< steady clock
double process_cpu_s();   ///< CLOCK_PROCESS_CPUTIME_ID
double thread_cpu_s();    ///< CLOCK_THREAD_CPUTIME_ID

/// Peak resident-memory growth from construction on: free heap pages are
/// returned first, so memory a previous phase freed cannot hide it.
class RssProbe {
public:
    RssProbe();
    double growth_mb() const;  ///< peak RSS (VmHWM) minus RSS at start

private:
    double base_mb_ = 0.0;
};

/// Per-layer counters a traced pass collects by wrapping the layers'
/// public calls and reading their stats structs.
struct TraceCounters {
    double frontend_self_s = 0.0;   ///< sum of pump() wall minus pump_ns
    double lifecycle_s = 0.0;  ///< process CPU of open/close calls in the loop
    double scrape_s = 0.0;     ///< process CPU of publish_telemetry() scrapes
    std::uint64_t pumps = 0;        ///< IngestFrontend::pump() calls
    std::uint64_t delivered = 0;    ///< frames handed to the engine
    std::uint64_t sessions_drained = 0;
    std::uint64_t sessions_stolen = 0;
    std::uint64_t refused = 0;
    std::uint64_t shed_transitions = 0;
    std::uint64_t queue_dropped = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t quarantined_bytes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rehydrations = 0;
    std::uint64_t autosnapshots = 0;  ///< estimated from session stats
    std::uint64_t telemetry_cycles = 0;
    std::uint64_t created_in_loop = 0;  ///< sessions opened after setup
    std::uint64_t spans_abandoned = 0;
    /// Spans minted (and abandoned) before the measured window opened:
    /// live_impaired's unpaced warm-up is not part of the span metrics.
    std::uint64_t spans_before = 0;
    std::uint64_t abandoned_before = 0;
    std::vector<double> queue_wait_ms;  ///< enqueue -> admit span hops
    std::vector<double> dispatch_ms;    ///< admit -> pump span hops
};

/// Everything one measured pass produced.
struct PassResult {
    std::vector<double> setup_s;  ///< one per setup performed
    /// Per round (drain workloads) or one entry (live_impaired).
    std::vector<double> frames_per_s, cpu_us_per_frame, p50_ms, p99_ms;
    std::uint64_t offered = 0;          ///< frames offered, all rounds
    std::uint64_t served = 0;           ///< results that are not failures
    std::uint64_t slo_met = 0;          ///< served within 40 ms of due
    std::uint64_t latency_samples = 0;
    std::vector<double> generator_lag_ms;  ///< live_impaired only
    /// More latency percentiles (live_impaired), printed for context.
    std::vector<std::pair<std::string, double>> latency_tail;
    std::vector<double> peak_rss_mb;  ///< per round, above the held inputs
    /// Every round's sessions (one round on live_impaired), each checked
    /// against the reference.
    std::vector<std::vector<SessionOutcome>> rounds;
    std::size_t resident_sessions = 0;  ///< engine residents, typical
    TraceCounters trace;
};

/// Run one pass of the workload for about `seconds`. With `span_path`
/// non-empty the pass is traced: a SpanCollector writes sampled frame
/// spans there and the layer counters are collected.
PassResult run_pass(const Options& opt, const Shape& shape,
                    const std::vector<EncodedStream>& inputs,
                    br::ThreadPool& pool, double seconds,
                    const std::string& span_path);

/// Standalone per-layer measurements over the workload's inputs plus the
/// cost ledger; appends per-layer metrics and prints the ledger table.
void measure_layers(const Options& opt, const Shape& shape,
                    const std::vector<EncodedStream>& inputs,
                    br::ThreadPool& pool, const PassResult& untraced,
                    const PassResult& traced, Metrics& out);

/// Deterministic 64-bit mix (splitmix64) for deriving per-input seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace fleetbench
