// The BlinkRadar detection pipeline (paper Section III/IV, Fig. 3).
//
// Streaming facade over the full chain:
//   frame -> noise reduction -> movement check -> background subtraction
//         -> (cold start: bin selection + viewing-position fit)
//         -> relative-distance waveform -> LEVD -> blink events
// with the paper's adaptive behaviour: a 50-chirp (2 s) one-time cold
// start, periodic viewing-position refits, periodic bin re-selection, and
// a full restart whenever a significant body movement is detected.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/ring_buffer.hpp"
#include "core/bin_selection.hpp"
#include "core/frame_guard.hpp"
#include "core/levd.hpp"
#include "core/movement_detector.hpp"
#include "core/pipeline_config.hpp"
#include "core/preprocess.hpp"
#include "core/viewing_position.hpp"
#include "dsp/background.hpp"
#include "dsp/frame_kernels.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/kernel_timers.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "radar/config.hpp"
#include "radar/frame.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

/// Pipeline stages instrumented by the observability layer; indexes the
/// per-stage latency histograms and the per-frame trace durations.
enum class PipelineStage : std::size_t {
    kGuard,         ///< FrameGuard::admit
    kPreprocess,    ///< FIR + smoothing noise reduction
    kMovement,      ///< large-body-movement check
    kBackground,    ///< clutter subtraction + window bookkeeping
    kBinSelection,  ///< arc-variance bin (re)selection
    kViewingFit,    ///< viewing-position circle fit
    kWaveform,      ///< relative-distance / phase waveform
    kLevd,          ///< local-extreme-value blink detection
    kFrameTotal,    ///< whole process() call
};
constexpr std::size_t kNumPipelineStages = 9;
const char* to_string(PipelineStage stage) noexcept;

/// Phase-mode waveform accumulator (WaveformMode::kPhase): unwrapped
/// phase progression with *each increment* scaled by the running mean
/// amplitude at accumulation time, so the waveform lives in the same
/// units as the other modes. Scaling increments (not the accumulated
/// total) keeps amplitude drift from retroactively rescaling history —
/// the total-scaling variant stepped the baseline whenever the running
/// mean moved, faking LEVD extrema. A zero-amplitude first sample does
/// not freeze the scale: the mean seeds from the first sample with
/// measurable amplitude.
class PhaseWaveform {
public:
    /// Feed one I/Q sample; returns the accumulated scaled phase.
    double push(const dsp::Complex& sample);

    /// Forget all state (pipeline restart or bin switch).
    void reset() noexcept;

    /// Snapshot hooks (section "PHSW"): the previous sample, accumulated
    /// value, and running amplitude mean — everything push() reads.
    void save_state(state::StateWriter& writer) const;
    void restore_state(state::StateReader& reader);

private:
    dsp::Complex prev_{0.0, 0.0};
    double value_ = 0.0;
    double amp_mean_ = 0.0;
};

/// Per-frame output of the streaming pipeline.
struct FrameResult {
    std::optional<DetectedBlink> blink; ///< set when a blink completes
    bool restarted = false;             ///< a large movement reset the pipe
    bool cold_start = false;            ///< still initialising, no output
    double waveform_value = 0.0;        ///< current d(t) (diagnostics)

    // Robustness surface (populated by the frame guard; on a clean
    // stream: health == kOk, quality == kClean, counters zero).
    HealthState health = HealthState::kOk;          ///< current health
    FrameVerdict quality = FrameVerdict::kClean;    ///< this frame's fate
    std::uint32_t repaired_samples = 0;  ///< non-finite samples fixed
    std::uint32_t bridged_frames = 0;    ///< gap-fill frames synthesised
};

/// Streaming BlinkRadar pipeline. Feed frames in order; blinks come out.
class BlinkRadarPipeline {
public:
    /// `metrics` (optional) attaches the observability layer: every
    /// stage is timed into latency histograms (duty-cycled, see
    /// kStageSampleFrames) and guard health / reselection / restart
    /// events become exact per-frame counters, all registered in the
    /// given registry at construction time (the frame path never
    /// allocates or does string work).
    /// `recorder` (optional) attaches the always-on flight recorder: the
    /// raw frame is ringed before the guard sees it, a per-stage scalar
    /// tap (plus decimated full profiles) is ringed after every frame,
    /// and the pipeline checkpoints its own state into the recorder on
    /// the recorder's cadence so dumps replay (see core/postmortem.hpp).
    /// The recorder outlives crashed pipelines, so it is owned by the
    /// caller (typically core::Supervisor) — never by the pipeline.
    /// `spans` (optional) closes end-to-end trace spans: a frame whose
    /// span_id is non-zero is timed in full (detailed) and its measured
    /// stage durations complete the span after processing. Stages are
    /// timed only with `metrics`; without it the span carries none.
    /// All pointers must outlive the pipeline. Instrumentation only
    /// observes: output is bit-identical with metrics on, off, or absent,
    /// and likewise with or without a recorder or span collector.
    BlinkRadarPipeline(const radar::RadarConfig& radar,
                       PipelineConfig config = {},
                       obs::MetricsRegistry* metrics = nullptr,
                       obs::FlightRecorder* recorder = nullptr,
                       obs::telemetry::SpanCollector* spans = nullptr);

    /// Process the next frame. With the frame guard enabled (the
    /// default) any sensor output is accepted: corrupt frames are
    /// quarantined or repaired, dropped-frame gaps are bridged, and the
    /// result's health/quality fields report what happened. With the
    /// guard disabled the caller must feed well-formed frames (checked:
    /// a bin-count mismatch throws ContractViolation).
    FrameResult process(const radar::RadarFrame& frame);

    /// Stage-latency sampling period: the observability layer times the
    /// pipeline stages on 1 frame in kStageSampleFrames (deterministic
    /// in the frame index), and on every frame that carries a span.
    /// Counters stay exact on every frame — only the latency histograms
    /// are duty-cycled. Rationale: a timestamp read costs ~65-95 ns
    /// under a hypervisor, so even the single whole-frame span timed on
    /// every frame would eat the entire <2 % overhead budget of a ~8.5 us
    /// frame (measured; see scripts/check_metrics_overhead.sh).
    static constexpr std::uint64_t kStageSampleFrames = 16;

    /// All blinks detected so far.
    const std::vector<DetectedBlink>& blinks() const noexcept {
        return blinks_;
    }

    /// Number of large-movement restarts so far.
    std::size_t restarts() const noexcept { return restarts_; }

    /// Currently selected range bin (empty during cold start).
    std::optional<std::size_t> selected_bin() const noexcept {
        return selected_bin_;
    }

    /// Current viewing position (empty during cold start).
    const std::optional<ViewingPosition>& viewing_position() const noexcept {
        return viewing_;
    }

    /// Current LEVD threshold (diagnostics).
    double levd_threshold() const noexcept { return levd_.threshold(); }

    /// Current sensor/pipeline health (kOk with the guard disabled).
    HealthState health() const noexcept { return guard_.health(); }

    /// Frame-guard counters: quarantines, repairs, bridged gaps, signal
    /// losses, warm restarts.
    const GuardStats& guard_stats() const noexcept { return guard_.stats(); }

    const PipelineConfig& config() const noexcept { return config_; }
    const radar::RadarConfig& radar_config() const noexcept { return radar_; }

    /// Serialize the complete detection state — the pipeline's own
    /// section ("PIPE") followed by one section per stateful stage — so
    /// that restoring into a freshly constructed pipeline (same configs)
    /// and replaying the remaining frames yields bit-identical
    /// FrameResults. Instrumentation is observation-only and is not
    /// snapshotted.
    void save_state(state::StateWriter& writer) const;

    /// Restore from a snapshot taken by save_state. The snapshot's
    /// fingerprint (bin count, frame rate, waveform mode) must match this
    /// pipeline's configuration; any mismatch, truncation, or corruption
    /// throws state::SnapshotError. On throw the pipeline may be left
    /// half-restored — discard it and construct a fresh one.
    void restore_state(state::StateReader& reader);

private:
    /// process() minus the whole-frame timing and span bookkeeping.
    FrameResult process_guarded(const radar::RadarFrame& frame);
    /// The detection chain behind the guard (the pre-guard process()).
    FrameResult process_validated(const radar::RadarFrame& frame);
    void reset_detection_state();
    void restart();
    double waveform_value(const dsp::Complex& sample);
    void refit_viewing();
    bool reselect_bin();

    /// Handles into the metrics registry, registered once at
    /// construction (names in DESIGN.md section 10). Absent when the
    /// pipeline runs uninstrumented; every hot-path touch point is a
    /// single null check then plain integer/double stores.
    struct Instrumentation {
        Instrumentation(obs::MetricsRegistry& registry,
                        const std::string& prefix);

        std::array<obs::LatencyHistogram*, kNumPipelineStages> stage{};
        obs::Counter* frames = nullptr;
        obs::Counter* blinks = nullptr;
        obs::Counter* restarts = nullptr;
        obs::Counter* cold_start_frames = nullptr;
        obs::Counter* reselect_attempts = nullptr;
        obs::Counter* reselect_switches = nullptr;
        obs::Counter* refits = nullptr;
        obs::Counter* guard_quarantined = nullptr;
        obs::Counter* guard_samples_repaired = nullptr;
        obs::Counter* guard_frames_bridged = nullptr;
        obs::Counter* guard_gaps_bridged = nullptr;
        obs::Counter* guard_signal_lost = nullptr;
        obs::Counter* guard_warm_restarts = nullptr;
        /// Indexed by HealthState: transitions *into* each state.
        std::array<obs::Counter*, 4> health_entered{};
        obs::Gauge* fault_rate = nullptr;
        obs::Gauge* levd_threshold = nullptr;
        obs::Gauge* levd_sigma = nullptr;
        obs::Gauge* selected_bin = nullptr;

        /// Sub-stage latency histograms for the vectorized kernels
        /// (prefix + "kernel.*"); timed on detailed frames only, like the
        /// sampled stages.
        obs::KernelTimers kernels;

        /// Per-frame stage durations (span scratch, ns).
        std::array<std::uint64_t, kNumPipelineStages> last_ns{};
        GuardStats prev_guard{};  ///< last counters, for per-frame deltas
        std::uint64_t frame_index = 0;
        bool detailed_frame = true;  ///< time sampled stages this frame?
    };

    /// True for the stages whose spans are duty-cycled (see
    /// kStageSampleFrames). The rare, expensive stages are timed on
    /// every occurrence: they run a handful of times per minute and take
    /// tens of microseconds, so sampling would starve their histograms
    /// while saving nothing.
    static constexpr bool sampled_stage(PipelineStage s) noexcept {
        return s != PipelineStage::kBinSelection &&
               s != PipelineStage::kViewingFit;
    }

    /// Histogram / span-slot accessors; null (span disabled) when
    /// uninstrumented or when the stage is sampled out this frame.
    obs::LatencyHistogram* stage_hist(PipelineStage s) noexcept {
        if (instr_ == nullptr) return nullptr;
        if (!instr_->detailed_frame && sampled_stage(s)) return nullptr;
        return instr_->stage[static_cast<std::size_t>(s)];
    }
    std::uint64_t* stage_ns(PipelineStage s) noexcept {
        return instr_ ? &instr_->last_ns[static_cast<std::size_t>(s)]
                      : nullptr;
    }

    /// Post-frame bookkeeping: counters, gauges and health transitions.
    /// Only called when instrumented.
    void observe_frame(const FrameResult& result, HealthState before);

    /// Flight-recorder close-out for one frame: the scalar tap, any
    /// events (health transition, restart, bin switch, blink), a metrics
    /// snapshot when due, and the periodic self-checkpoint. Only called
    /// when a recorder is attached; allocation-free once warm.
    void record_frame(std::uint64_t seq, const radar::RadarFrame& frame,
                      const FrameResult& result, HealthState before,
                      std::int64_t bin_before);

    radar::RadarConfig radar_;
    PipelineConfig config_;

    Preprocessor preprocessor_;
    FrameGuard guard_;
    dsp::LoopbackFilter background_;
    MovementDetector movement_;
    BinSelector selector_;
    Levd levd_;

    RingBuffer<dsp::IqPlanes> window_soa_;  ///< recent subtracted frames
    RingBuffer<Seconds> window_times_;      ///< their timestamps

    /// Kernel table the frame path dispatches through.
    const dsp::KernelTable* kernels_ = nullptr;

    /// Incremental per-bin variance over the last selection_window_frames
    /// frames of window_soa_, so periodic reselection reads variances in
    /// O(bins) instead of recomputing O(bins * window).
    RollingBinVariance rolling_var_;
    std::size_t rolling_window_frames_ = 0;  ///< its window length

    // Steady-state scratch (sized once; reused every frame/reselect).
    dsp::IqPlanes pre_planes_;                          ///< preprocessed frame
    std::vector<const dsp::IqPlanes*> view_soa_scratch_;   ///< reselect view
    BinSelector::SelectScratch select_scratch_;         ///< select_soa scratch
    std::vector<double> var_scratch_;                   ///< rolling variances
    dsp::ComplexSignal column_scratch_;                 ///< refit column
    dsp::ComplexSignal tap_pre_scratch_;   ///< recorder tap interleave
    dsp::ComplexSignal tap_sub_scratch_;   ///< recorder tap interleave

    std::optional<std::size_t> selected_bin_;
    std::optional<ViewingPosition> viewing_;
    std::vector<DetectedBlink> blinks_;

    std::size_t frames_since_start_ = 0;   ///< since last (re)start
    std::size_t frames_since_fit_ = 0;
    std::size_t frames_since_reselect_ = 0;
    std::size_t restarts_ = 0;

    PhaseWaveform phase_wave_;  ///< WaveformMode::kPhase accumulator

    std::unique_ptr<Instrumentation> instr_;  ///< null when uninstrumented
    obs::FlightRecorder* recorder_ = nullptr;  ///< null when unrecorded
    obs::telemetry::SpanCollector* spans_ = nullptr;  ///< null = no tracing
};

/// Batch result of running the pipeline over a recorded series.
struct BatchResult {
    std::vector<DetectedBlink> blinks;
    std::size_t restarts = 0;
};

/// Convenience: run the streaming pipeline over a whole frame series.
/// `metrics` (optional) instruments the run as in the pipeline ctor.
BatchResult detect_blinks(const radar::FrameSeries& series,
                          const radar::RadarConfig& radar,
                          const PipelineConfig& config = {},
                          obs::MetricsRegistry* metrics = nullptr);

}  // namespace blinkradar::core
