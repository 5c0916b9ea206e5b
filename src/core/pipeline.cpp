#include "core/pipeline.hpp"

#include <cmath>
#include <cstdio>

#include "common/contracts.hpp"
#include "obs/stage_timer.hpp"

namespace blinkradar::core {

const char* to_string(PipelineStage stage) noexcept {
    switch (stage) {
        case PipelineStage::kGuard: return "guard";
        case PipelineStage::kPreprocess: return "preprocess";
        case PipelineStage::kMovement: return "movement";
        case PipelineStage::kBackground: return "background";
        case PipelineStage::kBinSelection: return "bin_selection";
        case PipelineStage::kViewingFit: return "viewing_fit";
        case PipelineStage::kWaveform: return "waveform";
        case PipelineStage::kLevd: return "levd";
        case PipelineStage::kFrameTotal: return "frame_total";
    }
    return "?";
}

double PhaseWaveform::push(const dsp::Complex& sample) {
    const double amp = std::abs(sample);
    // Seed the running mean from the first sample with measurable
    // amplitude (a zero first sample must not freeze the scale at 0);
    // track with a slow EMA afterwards.
    amp_mean_ = amp_mean_ == 0.0 ? amp : 0.98 * amp_mean_ + 0.02 * amp;
    if (std::abs(prev_) > 0.0) {
        const dsp::Complex rot = sample * std::conj(prev_);
        // Scale the *increment* by the amplitude now: amplitude drift
        // then bends the waveform slowly instead of rescaling (stepping)
        // everything already accumulated.
        if (std::abs(rot) > 0.0) value_ += std::arg(rot) * amp_mean_;
    }
    prev_ = sample;
    return value_;
}

void PhaseWaveform::reset() noexcept {
    prev_ = dsp::Complex(0.0, 0.0);
    value_ = 0.0;
    amp_mean_ = 0.0;
}

namespace {
constexpr std::uint32_t kPhaseWaveTag = state::make_tag("PHSW");
constexpr std::uint16_t kPhaseWaveVersion = 1;
}  // namespace

void PhaseWaveform::save_state(state::StateWriter& writer) const {
    writer.begin_section(kPhaseWaveTag, kPhaseWaveVersion);
    writer.write_complex(prev_);
    writer.write_f64(value_);
    writer.write_f64(amp_mean_);
    writer.end_section();
}

void PhaseWaveform::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kPhaseWaveTag);
    if (version > kPhaseWaveVersion)
        throw state::SnapshotError(
            "PHSW: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kPhaseWaveVersion) + ")");
    prev_ = reader.read_complex();
    value_ = reader.read_f64();
    amp_mean_ = reader.read_f64();
    reader.close_section();
}

BlinkRadarPipeline::Instrumentation::Instrumentation(
    obs::MetricsRegistry* external, obs::TraceSink* trace_sink,
    const std::string& prefix)
    : trace(trace_sink) {
    if (external == nullptr)  // trace-only pipeline: private registry
        owned_registry = std::make_unique<obs::MetricsRegistry>();
    obs::MetricsRegistry& registry =
        external != nullptr ? *external : *owned_registry;
    // One-time registration (and clock calibration): the frame path
    // after this touches only the returned handles. Every name carries
    // the caller's prefix so two instrumented pipelines (e.g. two fleet
    // sessions) can share a registry without colliding.
    obs::detail::calibrate_clock();
    for (std::size_t s = 0; s < kNumPipelineStages; ++s)
        stage[s] = &registry.histogram(
            prefix + "stage." +
            to_string(static_cast<PipelineStage>(s)));
    frames = &registry.counter(prefix + "pipeline.frames");
    blinks = &registry.counter(prefix + "pipeline.blinks");
    restarts = &registry.counter(prefix + "pipeline.restarts");
    cold_start_frames =
        &registry.counter(prefix + "pipeline.cold_start_frames");
    reselect_attempts =
        &registry.counter(prefix + "pipeline.reselect.attempts");
    reselect_switches =
        &registry.counter(prefix + "pipeline.reselect.switches");
    refits = &registry.counter(prefix + "pipeline.refits");
    guard_quarantined =
        &registry.counter(prefix + "guard.frames_quarantined");
    guard_samples_repaired =
        &registry.counter(prefix + "guard.samples_repaired");
    guard_frames_bridged =
        &registry.counter(prefix + "guard.frames_bridged");
    guard_gaps_bridged = &registry.counter(prefix + "guard.gaps_bridged");
    guard_signal_lost =
        &registry.counter(prefix + "guard.signal_lost_events");
    guard_warm_restarts =
        &registry.counter(prefix + "guard.warm_restarts");
    const char* health_names[] = {"guard.health.entered_ok",
                                  "guard.health.entered_degraded",
                                  "guard.health.entered_signal_lost",
                                  "guard.health.entered_recovering"};
    for (std::size_t s = 0; s < health_entered.size(); ++s)
        health_entered[s] = &registry.counter(prefix + health_names[s]);
    fault_rate = &registry.gauge(prefix + "guard.fault_rate");
    levd_threshold = &registry.gauge(prefix + "levd.threshold");
    levd_sigma = &registry.gauge(prefix + "levd.noise_sigma");
    selected_bin = &registry.gauge(prefix + "pipeline.selected_bin");
    kernels.register_in(registry, prefix);
    trace_line.reserve(512);
}

BlinkRadarPipeline::BlinkRadarPipeline(const radar::RadarConfig& radar,
                                       PipelineConfig config,
                                       obs::MetricsRegistry* metrics,
                                       obs::TraceSink* trace,
                                       obs::FlightRecorder* recorder,
                                       obs::telemetry::SpanCollector* spans)
    : radar_(radar),
      config_(config),
      preprocessor_(config),
      guard_(radar, config.guard),
      background_(radar.n_bins(), config.background_alpha),
      movement_(config, radar.frame_rate_hz()),
      selector_(radar, config),
      levd_(config, radar.frame_rate_hz()) {
    radar_.validate();
    BR_EXPECTS(config.cold_start_frames >= 8);
    BR_EXPECTS(config.fit_window_frames >= 8);
    BR_EXPECTS(config.update_interval_frames >= 1);
    BR_EXPECTS(config.reselect_interval_frames >= 1);

    // Size every bounded window and scratch buffer once, so the steady
    // 40 ms frame path performs zero heap allocations (the per-frame
    // planes in window_soa_ acquire their capacity on first fill and keep
    // it as slots are recycled).
    const std::size_t max_window =
        std::max(config_.fit_window_frames, config_.cold_start_frames);
    window_soa_.reset_capacity(max_window);
    window_times_.reset_capacity(max_window);
    rolling_window_frames_ =
        std::min(config_.selection_window_frames, max_window);
    rolling_var_.reset(radar_.n_bins());
    view_soa_scratch_.reserve(max_window);
    select_scratch_.in_range.reserve(radar_.n_bins());
    select_scratch_.candidates.reserve(radar_.n_bins());
    select_scratch_.column.reserve(max_window);
    var_scratch_.reserve(radar_.n_bins());
    column_scratch_.reserve(max_window);
    blinks_.reserve(256);
    kernels_ = &dsp::active_kernels();

    // Observability attaches last: all registration (and the one-time
    // clock calibration) happens here, never on the frame path. A trace
    // sink without a registry gets a private one so stage durations are
    // still measured for the trace records.
    if (metrics != nullptr || trace != nullptr)
        instr_ = std::make_unique<Instrumentation>(metrics, trace,
                                                   config_.metrics_prefix);
    recorder_ = recorder;
    spans_ = spans;
}

void BlinkRadarPipeline::reset_detection_state() {
    background_.reset();
    movement_.reset();
    levd_.reset();
    window_soa_.clear();
    window_times_.clear();
    rolling_var_.clear();
    selected_bin_.reset();
    viewing_.reset();
    frames_since_start_ = 0;
    frames_since_fit_ = 0;
    frames_since_reselect_ = 0;
    phase_wave_.reset();
}

void BlinkRadarPipeline::restart() {
    reset_detection_state();
    ++restarts_;
}

void BlinkRadarPipeline::refit_viewing() {
    BR_ASSERT(selected_bin_.has_value());
    const obs::StageTimer timer(stage_hist(PipelineStage::kViewingFit),
                                stage_ns(PipelineStage::kViewingFit));
    if (instr_) instr_->refits->inc();
    dsp::ComplexSignal& column = column_scratch_;
    column.clear();
    for (std::size_t i = 0; i < window_soa_.size(); ++i)
        column.push_back(window_soa_[i].at(*selected_bin_));
    const ViewingPosition fit =
        ViewingPosition::fit_trimmed(column, config_.fit_method);
    // Keep the previous viewing position if the new fit degenerated
    // (e.g. the driver held perfectly still for the whole window).
    if (!fit.valid()) return;
    if (!viewing_ || !viewing_->valid()) {
        viewing_ = fit;
        return;
    }
    // Blend instead of replacing: a hard swap steps the relative-distance
    // waveform, and LEVD would read the step as an extremum. The blend
    // weight is scaled by fit quality — a refit whose residual is a large
    // fraction of its radius carries a poorly constrained centre (short
    // or noisy arc) and must barely move the running estimate.
    const double q =
        fit.raw_fit().rms_residual / std::max(fit.radius(), 1e-12);
    const double quality = 1.0 / (1.0 + (q / 0.03) * (q / 0.03));
    const double beta = config_.viewing_blend * quality;
    const dsp::Complex centre =
        (1.0 - beta) * viewing_->center() + beta * fit.center();
    const double radius =
        (1.0 - beta) * viewing_->radius() + beta * fit.radius();
    viewing_ = ViewingPosition::from_circle(centre, radius);
}

bool BlinkRadarPipeline::reselect_bin() {
    const obs::StageTimer timer(stage_hist(PipelineStage::kBinSelection),
                                stage_ns(PipelineStage::kBinSelection));
    if (instr_) instr_->reselect_attempts->inc();
    // Select over the most recent frames only: after a restart the head of
    // the window still contains the turbulent tail of the movement that
    // caused it, and waiting for that to age out of a long window would
    // stretch the recovery (and the consecutive-miss runs) several-fold.
    // The window is passed as a view (no frame data is copied) and the
    // per-bin variances come from the rolling tracker, which covers
    // exactly these `take` frames by construction.
    const std::size_t take =
        std::min(window_soa_.size(), config_.selection_window_frames);
    BR_ASSERT(rolling_var_.count() == take);
    view_soa_scratch_.clear();
    for (std::size_t i = window_soa_.size() - take; i < window_soa_.size();
         ++i)
        view_soa_scratch_.push_back(&window_soa_[i]);
    const SoaWindowView view(view_soa_scratch_);
    {
        const obs::StageTimer k(
            instr_ ? instr_->kernels.variance_scan : nullptr);
        rolling_var_.variances_into(var_scratch_, *kernels_);
    }
    const std::optional<BinSelection> sel =
        selector_.select_soa(view, var_scratch_, select_scratch_);
    if (!sel) return false;  // nothing arc-like: keep what we have
    if (selected_bin_ && *selected_bin_ == sel->bin) return false;
    if (selected_bin_) {
        // Hysteresis: only hop if the challenger clearly beats the
        // currently tracked bin under the same window.
        const std::optional<BinSelection> current = selector_.score_bin_soa(
            view, *selected_bin_, select_scratch_.column);
        if (current &&
            sel->score < config_.reselect_hysteresis * current->score)
            return false;
    }
    selected_bin_ = sel->bin;
    if (instr_) instr_->reselect_switches->inc();  // reselection churn
    return true;
}

double BlinkRadarPipeline::waveform_value(const dsp::Complex& sample) {
    switch (config_.waveform_mode) {
        case WaveformMode::kArcDistance:
            BR_ASSERT(viewing_ && viewing_->valid());
            return viewing_->relative_distance(sample);
        case WaveformMode::kAmplitude:
            return std::abs(sample);
        case WaveformMode::kPhase:
            // Unwrapped phase progression with amplitude-scaled
            // increments (see PhaseWaveform) so the LEVD threshold lives
            // in the same units as the other modes.
            return phase_wave_.push(sample);
    }
    return 0.0;
}

FrameResult BlinkRadarPipeline::process(const radar::RadarFrame& frame) {
    const HealthState health_before = guard_.health();
    // The raw ring captures the frame before the guard sees it, so a
    // dump replays the sensor's actual output, corruption included.
    std::uint64_t seq = 0;
    std::int64_t bin_before = -1;
    if (recorder_ != nullptr) {
        seq = recorder_->begin_frame(frame);
        if (selected_bin_)
            bin_before = static_cast<std::int64_t>(*selected_bin_);
    }
    const bool span_frame = spans_ != nullptr && frame.span_id != 0;
    if (instr_) {
        instr_->detailed_frame =
            span_frame || instr_->trace != nullptr ||
            (instr_->frame_index & (kStageSampleFrames - 1)) == 0;
        // A span frame's record reads last_ns as this frame's stage
        // durations, so stale values from earlier detailed frames must
        // not leak in (the trace path wipes after each record instead).
        if (span_frame) instr_->last_ns.fill(0);
    }
    FrameResult result;
    {
        const obs::StageTimer total(stage_hist(PipelineStage::kFrameTotal),
                                    stage_ns(PipelineStage::kFrameTotal));
        result = process_guarded(frame);
    }
    if (recorder_ != nullptr)
        record_frame(seq, frame, result, health_before, bin_before);
    // Close the span before observe_frame: the trace path zeroes
    // last_ns after emitting its own record. stage[0..7] only —
    // frame_total is the whole call, not a hop.
    if (span_frame)
        spans_->complete(frame.span_id,
                         instr_ ? instr_->last_ns.data() : nullptr,
                         kNumPipelineStages - 1);
    if (instr_) observe_frame(frame, result, health_before);
    return result;
}

FrameResult BlinkRadarPipeline::process_guarded(
    const radar::RadarFrame& frame) {
    if (!config_.guard.enabled) {
        // Unguarded contract: the caller promises well-formed frames. A
        // bin-count mismatch is a checked error, never an out-of-bounds
        // read further down the chain.
        BR_EXPECTS(frame.bins.size() == radar_.n_bins());
        return process_validated(frame);
    }

    GuardDecision decision;
    {
        const obs::StageTimer timer(stage_hist(PipelineStage::kGuard),
                                    stage_ns(PipelineStage::kGuard));
        decision = guard_.admit(frame);
    }
    FrameResult result;
    result.quality = decision.verdict;
    result.repaired_samples = decision.repaired_samples;
    result.bridged_frames = decision.bridged_frames;
    if (decision.warm_restart) {
        // The stream recovered from signal loss: the held baseline and
        // fitted viewing position are stale, so re-converge from scratch
        // (warm restarts are counted by the guard, not in restarts()).
        reset_detection_state();
    }
    if (decision.verdict == FrameVerdict::kQuarantined) {
        result.cold_start = !selected_bin_.has_value();
        result.health = guard_.health();
        return result;
    }
    for (const radar::RadarFrame& admitted : decision.frames) {
        const FrameResult r = process_validated(admitted);
        if (r.blink) result.blink = r.blink;
        result.restarted |= r.restarted;
        result.cold_start = r.cold_start;
        result.waveform_value = r.waveform_value;
    }
    if (!result.cold_start) guard_.notify_converged();
    result.health = guard_.health();
    return result;
}

FrameResult BlinkRadarPipeline::process_validated(
    const radar::RadarFrame& frame) {
    BR_ASSERT(frame.bins.size() == radar_.n_bins());
    FrameResult result;
    // Per-kernel sub-stage timers, duty-cycled with the stage timers.
    const obs::KernelTimers* kt =
        (instr_ && instr_->detailed_frame) ? &instr_->kernels : nullptr;

    // 1. Noise reduction (into per-pipeline scratch: no allocation).
    {
        const obs::StageTimer timer(stage_hist(PipelineStage::kPreprocess),
                                    stage_ns(PipelineStage::kPreprocess));
        preprocessor_.apply_soa(frame, pre_planes_, kt);
    }

    // 2. Significant body movement => restart the whole detection process.
    bool moved = false;
    {
        const obs::StageTimer timer(stage_hist(PipelineStage::kMovement),
                                    stage_ns(PipelineStage::kMovement));
        const obs::StageTimer k(kt ? kt->movement_energy : nullptr);
        moved = movement_.push_soa(pre_planes_, *kernels_);
    }
    if (moved) {
        restart();
        result.restarted = true;
        result.cold_start = true;
        return result;
    }

    // 3. Background (static clutter) subtraction, written straight into
    // the window ring's recycled slot. The rolling variance tracker
    // follows the last rolling_window_frames_ frames: evict the frame
    // about to leave that window *before* pushing (when the ring is full
    // it may be the very slot the new frame overwrites).
    {
        const obs::StageTimer timer(stage_hist(PipelineStage::kBackground),
                                    stage_ns(PipelineStage::kBackground));
        // Fused kernel: evict + subtract + variance-push + background
        // adapt in one pass over the bins. The evicted frame may be the
        // very ring slot being recycled as the output, so its pointers
        // are captured before emplace_slot() and the kernel loads them
        // before storing (see background_var_fused).
        const obs::StageTimer k(kt ? kt->background_fused : nullptr);
        const std::size_t n = radar_.n_bins();
        const dsp::IqPlanes* evict = nullptr;
        if (rolling_var_.count() == rolling_window_frames_) {
            evict = &window_soa_[window_soa_.size() - rolling_window_frames_];
            rolling_var_.note_evict();
        }
        const double* old_i = evict ? evict->i.data() : nullptr;
        const double* old_q = evict ? evict->q.data() : nullptr;
        dsp::IqPlanes& sub = window_soa_.emplace_slot();
        sub.resize(n);
        background_.begin_soa_frame(pre_planes_);
        kernels_->background_var_fused(
            pre_planes_.i.data(), pre_planes_.q.data(), n,
            config_.background_alpha, background_.bg_i().data(),
            background_.bg_q().data(), sub.i.data(), sub.q.data(), old_i,
            old_q, rolling_var_.sum_i_data(), rolling_var_.sum_q_data(),
            rolling_var_.sum_sq_data());
        rolling_var_.note_push();
        window_times_.push_back(frame.timestamp_s);
    }
    // Decimated full-profile tap (outside the stage span: it is recorder
    // cost, not background-subtraction cost). First call per recorder
    // frame wins — a bridged gap replays several synthetic frames
    // through here for one sensor frame, and the tap captures the first.
    if (recorder_ != nullptr && recorder_->profiles_due()) {
        // Rare (decimated) tap: interleave the SoA planes into the
        // recorder's AoS wire format via reused scratch.
        const dsp::IqPlanes& sub = window_soa_.back();
        tap_pre_scratch_.resize(pre_planes_.size());
        tap_sub_scratch_.resize(sub.size());
        kernels_->interleave(pre_planes_.i.data(), pre_planes_.q.data(),
                             pre_planes_.size(), tap_pre_scratch_.data());
        kernels_->interleave(sub.i.data(), sub.q.data(), sub.size(),
                             tap_sub_scratch_.data());
        recorder_->tap_profiles(tap_pre_scratch_, tap_sub_scratch_);
    }
    ++frames_since_start_;

    // 4. Cold start: accumulate, then select the bin and fit the arc.
    if (!selected_bin_) {
        if (frames_since_start_ < config_.cold_start_frames) {
            result.cold_start = true;
            return result;
        }
        if (!reselect_bin()) {
            // Nothing significant in view yet; stay in cold start.
            result.cold_start = true;
            return result;
        }
        refit_viewing();
        if (!viewing_ || !viewing_->valid()) {
            selected_bin_.reset();
            result.cold_start = true;
            return result;
        }
        frames_since_fit_ = 0;
        frames_since_reselect_ = 0;
        // Pre-fill the LEVD noise estimate from the cold-start window so
        // detection is live immediately — the 2 s cold start is the only
        // dead time, exactly as the paper describes.
        if (config_.waveform_mode == WaveformMode::kArcDistance) {
            const obs::StageTimer timer(stage_hist(PipelineStage::kLevd),
                                        stage_ns(PipelineStage::kLevd));
            for (std::size_t i = 0; i + 1 < window_soa_.size(); ++i) {
                levd_.warm_up(window_times_[i],
                              waveform_value(
                                  window_soa_[i].at(*selected_bin_)));
            }
        }
    }

    // 5. Adaptive update: periodic refit and bin re-selection.
    if (++frames_since_fit_ >= config_.update_interval_frames) {
        frames_since_fit_ = 0;
        refit_viewing();
    }
    if (++frames_since_reselect_ >= config_.reselect_interval_frames) {
        frames_since_reselect_ = 0;
        if (reselect_bin()) {
            // The blink carrier moved to a different bin: refit there.
            // LEVD state is kept — its robust (MAD) noise estimate absorbs
            // the one-off baseline step within a couple of seconds, which
            // costs far less than rebuilding the threshold from scratch.
            refit_viewing();
            phase_wave_.reset();
        }
    }

    if (config_.waveform_mode == WaveformMode::kArcDistance &&
        (!viewing_ || !viewing_->valid())) {
        result.cold_start = true;
        return result;
    }

    // 6. Relative-distance waveform and LEVD.
    double d = 0.0;
    {
        const obs::StageTimer timer(stage_hist(PipelineStage::kWaveform),
                                    stage_ns(PipelineStage::kWaveform));
        d = waveform_value(window_soa_.back().at(*selected_bin_));
    }
    result.waveform_value = d;

    {
        const obs::StageTimer timer(stage_hist(PipelineStage::kLevd),
                                    stage_ns(PipelineStage::kLevd));
        result.blink = levd_.push(frame.timestamp_s, d);
    }
    if (result.blink) blinks_.push_back(*result.blink);
    return result;
}

namespace {

/// Append `v` to `out` with %.9g formatting (locale-independent enough
/// for diagnostics; the exporter uses round-trip formatting instead).
void append_double(std::string& out, double v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.9g", v);
    out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    const int n = std::snprintf(buf, sizeof(buf), "%llu",
                                static_cast<unsigned long long>(v));
    out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

}  // namespace

void BlinkRadarPipeline::observe_frame(const radar::RadarFrame& frame,
                                       const FrameResult& result,
                                       HealthState before) {
    Instrumentation& in = *instr_;
    in.frames->inc();
    if (result.blink) in.blinks->inc();
    if (result.restarted) in.restarts->inc();
    if (result.cold_start) in.cold_start_frames->inc();

    // Guard counters mirror GuardStats incrementally (per-frame deltas),
    // so a merged batch roll-up sums cleanly across sessions. The
    // mirrored fields only move on fault events, so the overwhelmingly
    // common clean frame pays a contiguous compare instead of six
    // read-modify-writes on scattered counter nodes.
    const GuardStats& gs = guard_.stats();
    const GuardStats& pg = in.prev_guard;
    if (gs.frames_quarantined != pg.frames_quarantined ||
        gs.samples_repaired != pg.samples_repaired ||
        gs.frames_bridged != pg.frames_bridged ||
        gs.gaps_bridged != pg.gaps_bridged ||
        gs.signal_lost_events != pg.signal_lost_events ||
        gs.warm_restarts != pg.warm_restarts) {
        in.guard_quarantined->inc(gs.frames_quarantined -
                                  pg.frames_quarantined);
        in.guard_samples_repaired->inc(gs.samples_repaired -
                                       pg.samples_repaired);
        in.guard_frames_bridged->inc(gs.frames_bridged -
                                     pg.frames_bridged);
        in.guard_gaps_bridged->inc(gs.gaps_bridged - pg.gaps_bridged);
        in.guard_signal_lost->inc(gs.signal_lost_events -
                                  pg.signal_lost_events);
        in.guard_warm_restarts->inc(gs.warm_restarts - pg.warm_restarts);
        in.prev_guard = gs;
    }

    const HealthState after = guard_.health();
    if (after != before)
        in.health_entered[static_cast<std::size_t>(after)]->inc();
    // Gauges are last-written snapshots; refreshing them on sampled
    // frames only (every frame when tracing) is indistinguishable at
    // snapshot time and keeps the steady-state frame cost down.
    if (in.detailed_frame) {
        in.fault_rate->set(guard_.fault_rate());
        in.levd_threshold->set(levd_.threshold());
        in.levd_sigma->set(levd_.noise_sigma());
        in.selected_bin->set(
            selected_bin_ ? static_cast<double>(*selected_bin_) : -1.0);
    }

    if (in.trace != nullptr) {
        // One JSONL record per frame, built by appending into the reused
        // (pre-reserved) line buffer — no temporaries, so steady-state
        // tracing never allocates; the only cost beyond formatting is the
        // sink's write.
        std::string& line = in.trace_line;
        line.clear();
        line += "{\"frame\": ";
        append_u64(line, in.frame_index);
        line += ", \"t\": ";
        append_double(line, frame.timestamp_s);
        line += ", \"verdict\": \"";
        line += to_string(result.quality);
        line += "\", \"health\": \"";
        line += to_string(after);
        line += "\", \"cold_start\": ";
        line += result.cold_start ? "true" : "false";
        line += ", \"restarted\": ";
        line += result.restarted ? "true" : "false";
        line += ", \"blink\": ";
        line += result.blink ? "true" : "false";
        line += ", \"wave\": ";
        append_double(line, result.waveform_value);
        line += ", \"stages_ns\": {";
        for (std::size_t s = 0; s < kNumPipelineStages; ++s) {
            if (s != 0) line += ", ";
            line += '"';
            line += to_string(static_cast<PipelineStage>(s));
            line += "\": ";
            append_u64(line, in.last_ns[s]);
        }
        line += "}}";
        in.trace->write_line(line);
        // Stages skipped next frame must not show stale durations; only
        // the trace reads last_ns, so the wipe is trace-gated too.
        in.last_ns.fill(0);
    }
    ++in.frame_index;
}

void BlinkRadarPipeline::record_frame(std::uint64_t seq,
                                      const radar::RadarFrame& frame,
                                      const FrameResult& result,
                                      HealthState before,
                                      std::int64_t bin_before) {
    obs::FlightRecorder& rec = *recorder_;
    const double t = frame.timestamp_s;

    obs::FrameTap tap;
    tap.seq = seq;
    tap.t = t;
    tap.verdict = static_cast<std::uint8_t>(result.quality);
    tap.health = static_cast<std::uint8_t>(result.health);
    tap.cold_start = result.cold_start;
    tap.restarted = result.restarted;
    tap.has_blink = result.blink.has_value();
    tap.selected_bin =
        selected_bin_ ? static_cast<std::int64_t>(*selected_bin_) : -1;
    if (selected_bin_ && !window_soa_.empty())
        tap.bin_iq = window_soa_.back().at(*selected_bin_);
    if (viewing_) {
        const dsp::CircleFit& fit = viewing_->raw_fit();
        tap.fit_cx = fit.center_x;
        tap.fit_cy = fit.center_y;
        tap.fit_radius = fit.radius;
        tap.fit_residual = fit.rms_residual;
    }
    tap.waveform = result.waveform_value;
    tap.levd_threshold = levd_.threshold();
    tap.levd_sigma = levd_.noise_sigma();
    if (result.blink) {
        tap.blink_peak_s = result.blink->peak_s;
        tap.blink_duration_s = result.blink->duration_s;
        tap.blink_magnitude = result.blink->magnitude;
        tap.blink_strength = result.blink->strength;
    }
    tap.repaired_samples = result.repaired_samples;
    tap.bridged_frames = result.bridged_frames;
    rec.end_frame(tap);

    if (result.health != before)
        rec.record_event(obs::RecorderEvent::kHealthTransition, t,
                         static_cast<double>(before),
                         static_cast<double>(result.health));
    if (result.restarted)
        rec.record_event(obs::RecorderEvent::kMovementRestart, t);
    if (tap.selected_bin != bin_before)
        rec.record_event(obs::RecorderEvent::kBinSwitch, t,
                         static_cast<double>(bin_before),
                         static_cast<double>(tap.selected_bin));
    if (result.blink)
        rec.record_event(obs::RecorderEvent::kBlink, t,
                         result.blink->peak_s, result.blink->strength);

    if (rec.metrics_due()) {
        obs::MetricsSnap snap;
        snap.seq = seq;
        snap.t = t;
        snap.frames = seq;
        snap.blinks = blinks_.size();
        snap.restarts = restarts_;
        const GuardStats& gs = guard_.stats();
        snap.quarantined = gs.frames_quarantined;
        snap.repaired = gs.samples_repaired;
        snap.bridged = gs.frames_bridged;
        snap.gaps = gs.gaps_bridged;
        snap.signal_losses = gs.signal_lost_events;
        snap.warm_restarts = gs.warm_restarts;
        snap.fault_rate = guard_.fault_rate();
        snap.levd_threshold = levd_.threshold();
        snap.levd_sigma = levd_.noise_sigma();
        rec.record_metrics(snap);
    }

    // Periodic self-checkpoint: serialize into the recorder's recycled
    // buffer so dumps always carry a replay base (see postmortem.hpp for
    // the seq labelling contract). The three rotating buffers make this
    // allocation-free once they have grown to the state's working size.
    if (rec.checkpoint_due()) {
        state::StateWriter writer(rec.take_checkpoint_buffer());
        // CRCs are deferred: checksumming ~600 KB of window state costs
        // ~30x the bulk copy and is only needed when a dump actually
        // leaves the process — FlightRecorder::dump() seals it then.
        writer.defer_crcs();
        save_state(writer);
        rec.store_checkpoint(writer.finish());
    }
}

namespace {
constexpr std::uint32_t kPipelineTag = state::make_tag("PIPE");
// v2 added a frame-path byte to the fingerprint, from the time the
// pipeline also ran a legacy scalar frame path with numerically
// different results (v1 sections and path byte 0 come from it). Only
// the SoA frame path remains; its tag keeps the layout byte-identical,
// so snapshots written before the scalar path was retired still restore.
// v3 dropped the (t, d, theta) history and the three unwrapped-angle
// scalars after the window timestamps, which only the retired motion
// compensation and motion-artifact veto read; v2 sections still restore
// with that block bound-checked and discarded.
constexpr std::uint16_t kPipelineVersion = 3;
constexpr std::uint8_t kSoaPathTag = 1;
}  // namespace

void BlinkRadarPipeline::save_state(state::StateWriter& writer) const {
    writer.begin_section(kPipelineTag, kPipelineVersion);

    // Configuration fingerprint: a snapshot only makes sense restored
    // into a pipeline with the same geometry and waveform semantics. The
    // frame-path byte is always the SoA tag (see kSoaPathTag).
    writer.write_size(radar_.n_bins());
    writer.write_f64(radar_.frame_rate_hz());
    writer.write_u8(static_cast<std::uint8_t>(config_.waveform_mode));
    writer.write_u8(kSoaPathTag);

    // Sliding windows, oldest first (the ring's physical head position
    // is unobservable, so logical order is the canonical form). The SoA
    // window interleaves through write_complex_planes, so the wire
    // format is the plain complex-span one.
    writer.write_size(window_soa_.size());
    for (std::size_t i = 0; i < window_soa_.size(); ++i)
        writer.write_complex_planes(window_soa_[i].i, window_soa_[i].q);
    writer.write_size(window_times_.size());
    for (std::size_t i = 0; i < window_times_.size(); ++i)
        writer.write_f64(window_times_[i]);

    writer.write_bool(selected_bin_.has_value());
    writer.write_size(selected_bin_.value_or(0));

    writer.write_bool(viewing_.has_value());
    {
        const dsp::CircleFit fit =
            viewing_ ? viewing_->raw_fit() : dsp::CircleFit{};
        writer.write_f64(fit.center_x);
        writer.write_f64(fit.center_y);
        writer.write_f64(fit.radius);
        writer.write_f64(fit.rms_residual);
        writer.write_bool(fit.ok);
    }

    writer.write_size(blinks_.size());
    for (const DetectedBlink& b : blinks_) {
        writer.write_f64(b.peak_s);
        writer.write_f64(b.duration_s);
        writer.write_f64(b.magnitude);
        writer.write_f64(b.strength);
    }

    writer.write_size(frames_since_start_);
    writer.write_size(frames_since_fit_);
    writer.write_size(frames_since_reselect_);
    // Retired keep-check reselect counter, always 0 at the only cadence
    // that remains; the slot keeps this tail identical to PIPE v2's.
    writer.write_size(0);
    writer.write_size(restarts_);
    writer.end_section();

    // One section per stateful stage, written after the pipeline's own
    // so a partial writer failure cannot leave a PIPE-less container
    // that still opens.
    preprocessor_.save_state(writer);
    guard_.save_state(writer);
    background_.save_state(writer);
    movement_.save_state(writer);
    rolling_var_.save_state(writer);
    levd_.save_state(writer);
    phase_wave_.save_state(writer);
}

void BlinkRadarPipeline::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kPipelineTag);
    if (version > kPipelineVersion)
        throw state::SnapshotError(
            "PIPE: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kPipelineVersion) + ")");
    if (version < 2)
        throw state::SnapshotError(
            "PIPE: v1 snapshot sections were written by the retired scalar "
            "frame path, which this build no longer runs");

    const std::size_t snap_bins = reader.read_size();
    const double snap_rate = reader.read_f64();
    const std::uint8_t snap_mode = reader.read_u8();
    if (snap_bins != radar_.n_bins())
        throw state::SnapshotError(
            "PIPE: snapshot was taken with " + std::to_string(snap_bins) +
            " range bins but this pipeline is configured for " +
            std::to_string(radar_.n_bins()));
    if (snap_rate != radar_.frame_rate_hz())
        throw state::SnapshotError(
            "PIPE: snapshot frame rate " + std::to_string(snap_rate) +
            " Hz does not match the configured " +
            std::to_string(radar_.frame_rate_hz()) + " Hz");
    if (snap_mode != static_cast<std::uint8_t>(config_.waveform_mode))
        throw state::SnapshotError(
            "PIPE: snapshot waveform mode " + std::to_string(snap_mode) +
            " does not match the configured mode " +
            std::to_string(
                static_cast<std::uint8_t>(config_.waveform_mode)));
    const std::uint8_t snap_path = reader.read_u8();
    if (snap_path != kSoaPathTag)
        throw state::SnapshotError(
            "PIPE: snapshot frame-path byte " + std::to_string(snap_path) +
            " is not the SoA path (" + std::to_string(kSoaPathTag) +
            "); snapshots of the retired scalar frame path cannot be "
            "restored");

    const std::size_t n_frames = reader.read_size();
    if (n_frames > window_soa_.capacity())
        throw state::SnapshotError(
            "PIPE: snapshot window holds " + std::to_string(n_frames) +
            " frames but this pipeline's window capacity is " +
            std::to_string(window_soa_.capacity()));
    window_soa_.clear();
    for (std::size_t i = 0; i < n_frames; ++i) {
        dsp::IqPlanes& slot = window_soa_.emplace_slot();
        reader.read_complex_planes_into(slot.i, slot.q);
        if (slot.size() != radar_.n_bins())
            throw state::SnapshotError(
                "PIPE: snapshot window frame " + std::to_string(i) +
                " holds " + std::to_string(slot.size()) +
                " bins, expected " + std::to_string(radar_.n_bins()));
    }
    const std::size_t n_times = reader.read_size();
    if (n_times != n_frames)
        throw state::SnapshotError(
            "PIPE: snapshot holds " + std::to_string(n_times) +
            " window timestamps for " + std::to_string(n_frames) +
            " window frames");
    window_times_.clear();
    for (std::size_t i = 0; i < n_times; ++i)
        window_times_.push_back(reader.read_f64());

    if (version == 2) {
        // Retired motion-stage history (see kPipelineVersion): up to 4 s
        // of (t, d, theta) triples (at least 16), then the unwrapped
        // angle, its valid flag and the previous raw angle.
        const std::size_t n_wave = reader.read_size();
        const std::size_t cap = std::max<std::size_t>(
            16, static_cast<std::size_t>(4.0 * radar_.frame_rate_hz()));
        if (n_wave > cap)
            throw state::SnapshotError(
                "PIPE: v2 snapshot wave history holds " +
                std::to_string(n_wave) + " samples but its capacity is " +
                std::to_string(cap));
        for (std::size_t i = 0; i < 3 * n_wave; ++i) reader.read_f64();
        reader.read_f64();
        reader.read_bool();
        reader.read_f64();
    }

    const bool have_bin = reader.read_bool();
    const std::size_t bin = reader.read_size();
    if (have_bin && bin >= radar_.n_bins())
        throw state::SnapshotError(
            "PIPE: snapshot selected bin " + std::to_string(bin) +
            " is out of range for " + std::to_string(radar_.n_bins()) +
            " bins");
    selected_bin_ = have_bin ? std::optional<std::size_t>(bin)
                             : std::nullopt;

    const bool have_viewing = reader.read_bool();
    dsp::CircleFit fit;
    fit.center_x = reader.read_f64();
    fit.center_y = reader.read_f64();
    fit.radius = reader.read_f64();
    fit.rms_residual = reader.read_f64();
    fit.ok = reader.read_bool();
    viewing_ = have_viewing
                   ? std::optional<ViewingPosition>(
                         ViewingPosition::from_raw_fit(fit))
                   : std::nullopt;

    const std::size_t n_blinks = reader.read_size();
    blinks_.clear();
    blinks_.reserve(std::max<std::size_t>(n_blinks, 256));
    for (std::size_t i = 0; i < n_blinks; ++i) {
        DetectedBlink b;
        b.peak_s = reader.read_f64();
        b.duration_s = reader.read_f64();
        b.magnitude = reader.read_f64();
        b.strength = reader.read_f64();
        blinks_.push_back(b);
    }

    frames_since_start_ = reader.read_size();
    frames_since_fit_ = reader.read_size();
    frames_since_reselect_ = reader.read_size();
    reader.read_size();  // retired keep-check counter (see save_state)
    restarts_ = reader.read_size();
    reader.close_section();

    preprocessor_.restore_state(reader);
    guard_.restore_state(reader);
    background_.restore_state(reader);
    movement_.restore_state(reader);
    rolling_var_.restore_state(reader);
    levd_.restore_state(reader);
    phase_wave_.restore_state(reader);
}

BatchResult detect_blinks(const radar::FrameSeries& series,
                          const radar::RadarConfig& radar,
                          const PipelineConfig& config,
                          obs::MetricsRegistry* metrics) {
    BlinkRadarPipeline pipeline(radar, config, metrics);
    for (const radar::RadarFrame& f : series) pipeline.process(f);
    return BatchResult{pipeline.blinks(), pipeline.restarts()};
}

}  // namespace blinkradar::core
