#include "core/frame_guard.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace blinkradar::core {

const char* to_string(HealthState state) noexcept {
    switch (state) {
        case HealthState::kOk: return "OK";
        case HealthState::kDegraded: return "DEGRADED";
        case HealthState::kSignalLost: return "SIGNAL_LOST";
        case HealthState::kRecovering: return "RECOVERING";
    }
    return "?";
}

const char* to_string(FrameVerdict verdict) noexcept {
    switch (verdict) {
        case FrameVerdict::kClean: return "clean";
        case FrameVerdict::kRepaired: return "repaired";
        case FrameVerdict::kBridged: return "bridged";
        case FrameVerdict::kQuarantined: return "quarantined";
    }
    return "?";
}

FrameGuard::FrameGuard(const radar::RadarConfig& radar,
                       FrameGuardConfig config)
    : radar_(radar), config_(config), n_bins_(radar.n_bins()) {
    BR_EXPECTS(config.gap_tolerance_periods > 1.0);
    BR_EXPECTS(config.max_bridge_gap_s > 0.0);
    BR_EXPECTS(config.max_repair_fraction >= 0.0 &&
               config.max_repair_fraction <= 1.0);
    BR_EXPECTS(config.health_window_s > 0.0);
    BR_EXPECTS(config.degraded_fault_rate > 0.0);
    BR_EXPECTS(config.lost_after_quarantines >= 1);
    const auto window_frames = std::max<std::size_t>(
        8, static_cast<std::size_t>(config.health_window_s *
                                    radar.frame_rate_hz()));
    fault_events_.reset_capacity(window_frames);
    last_good_.bins.reserve(n_bins_);
    repaired_.bins.reserve(n_bins_);
}

double FrameGuard::fault_rate() const noexcept {
    if (fault_events_.empty()) return 0.0;
    return static_cast<double>(faults_in_window_) /
           static_cast<double>(fault_events_.size());
}

void FrameGuard::note_frame(bool faulty) {
    if (fault_events_.full() && fault_events_.front() != 0)
        --faults_in_window_;
    fault_events_.push_back(faulty ? 1 : 0);
    if (faulty) ++faults_in_window_;
}

void FrameGuard::enter_signal_lost() {
    if (health_ != HealthState::kSignalLost) {
        ++stats_.signal_lost_events;
        health_ = HealthState::kSignalLost;
    }
    pending_warm_restart_ = true;
}

void FrameGuard::update_health() {
    const double rate = fault_rate();
    switch (health_) {
        case HealthState::kOk:
            if (rate > config_.degraded_fault_rate)
                health_ = HealthState::kDegraded;
            break;
        case HealthState::kDegraded:
            // Hysteresis: recover only once the rate clearly subsides.
            if (rate < 0.5 * config_.degraded_fault_rate)
                health_ = HealthState::kOk;
            break;
        case HealthState::kSignalLost:
        case HealthState::kRecovering:
            break;  // promoted by admit()/notify_converged()
    }
}

void FrameGuard::notify_converged() {
    if (health_ != HealthState::kRecovering) return;
    health_ = fault_rate() > config_.degraded_fault_rate
                  ? HealthState::kDegraded
                  : HealthState::kOk;
}

GuardDecision FrameGuard::quarantine(Seconds) {
    ++stats_.frames_quarantined;
    ++consecutive_quarantined_;
    note_frame(true);
    if (consecutive_quarantined_ >= config_.lost_after_quarantines)
        enter_signal_lost();
    else
        update_health();
    GuardDecision decision;
    decision.verdict = FrameVerdict::kQuarantined;
    return decision;
}

GuardDecision FrameGuard::admit(const radar::RadarFrame& frame) {
    ++stats_.frames_seen;
    const Seconds t = frame.timestamp_s;

    // Structural validation: anything the detection chain cannot digest
    // at all is quarantined whole.
    if (!std::isfinite(t)) return quarantine(t);
    if (frame.bins.size() != n_bins_) return quarantine(t);
    if (have_last_ && t <= last_ts_) return quarantine(t);  // dup/reorder
    std::uint32_t non_finite = 0;
    for (const dsp::Complex& s : frame.bins)
        if (!std::isfinite(s.real()) || !std::isfinite(s.imag()))
            ++non_finite;
    if (non_finite >
        static_cast<std::uint32_t>(config_.max_repair_fraction *
                                   static_cast<double>(n_bins_)))
        return quarantine(t);

    consecutive_quarantined_ = 0;
    GuardDecision decision;
    out_.clear();

    // Repair isolated non-finite samples by per-bin sample-hold.
    const radar::RadarFrame* emit = &frame;
    if (non_finite > 0) {
        repaired_.timestamp_s = t;
        repaired_.bins = frame.bins;
        for (std::size_t b = 0; b < repaired_.bins.size(); ++b) {
            const dsp::Complex& s = repaired_.bins[b];
            if (std::isfinite(s.real()) && std::isfinite(s.imag())) continue;
            repaired_.bins[b] = have_last_ && b < last_good_.bins.size()
                                    ? last_good_.bins[b]
                                    : dsp::Complex(0.0, 0.0);
        }
        emit = &repaired_;
        decision.verdict = FrameVerdict::kRepaired;
        decision.repaired_samples = non_finite;
        stats_.samples_repaired += non_finite;
    }

    // Timestamp-gap handling, against the *real* inter-frame spacing.
    bool gap_fault = false;
    if (have_last_) {
        const double dt = t - last_ts_;
        const double period = radar_.frame_period_s;
        if (dt > config_.max_bridge_gap_s) {
            // Too long to bridge honestly: the signal was lost; the held
            // baseline is stale, so recover via a warm restart instead.
            enter_signal_lost();
        } else if (dt > config_.gap_tolerance_periods * period &&
                   !pending_warm_restart_) {
            // (With a warm restart pending the held baseline is being
            // discarded anyway — bridging stale frames would be noise.)
            // Short gap (dropped frames): fill with sample-held frames,
            // spacing the synthetic timestamps evenly across the real gap.
            const auto missing = static_cast<std::size_t>(
                std::max(1.0, std::round(dt / period) - 1.0));
            for (std::size_t k = 1; k <= missing; ++k) {
                radar::RadarFrame& held = out_.emplace_back(last_good_);
                held.timestamp_s =
                    last_ts_ + dt * static_cast<double>(k) /
                                   static_cast<double>(missing + 1);
            }
            ++stats_.gaps_bridged;
            stats_.frames_bridged += missing;
            decision.bridged_frames = static_cast<std::uint32_t>(missing);
            if (decision.verdict == FrameVerdict::kClean)
                decision.verdict = FrameVerdict::kBridged;
            gap_fault = true;
        }
    }

    if (out_.empty() && emit == &frame) {
        // Clean pass-through: no copy, span straight over the input.
        decision.frames = std::span<const radar::RadarFrame>(&frame, 1);
    } else {
        out_.push_back(*emit);
        decision.frames =
            std::span<const radar::RadarFrame>(out_.data(), out_.size());
    }

    last_good_.timestamp_s = t;
    last_good_.bins = emit->bins;
    last_ts_ = t;
    have_last_ = true;
    note_frame(decision.verdict != FrameVerdict::kClean || gap_fault);

    if (health_ == HealthState::kSignalLost)
        health_ = HealthState::kRecovering;
    if (pending_warm_restart_) {
        decision.warm_restart = true;
        pending_warm_restart_ = false;
        ++stats_.warm_restarts;
        health_ = HealthState::kRecovering;
    }
    update_health();
    return decision;
}

namespace {
constexpr std::uint32_t kGuardTag = state::make_tag("GURD");
constexpr std::uint16_t kGuardVersion = 1;
}  // namespace

void FrameGuard::save_state(state::StateWriter& writer) const {
    writer.begin_section(kGuardTag, kGuardVersion);
    writer.write_bool(have_last_);
    writer.write_f64(last_ts_);
    writer.write_f64(last_good_.timestamp_s);
    writer.write_complex_span(last_good_.bins);
    // Rolling fault window, oldest first (the logical order is all the
    // health machine sees; the ring's physical head position is not
    // observable state).
    writer.write_size(fault_events_.size());
    for (std::size_t i = 0; i < fault_events_.size(); ++i)
        writer.write_u8(fault_events_[i]);
    writer.write_u8(static_cast<std::uint8_t>(health_));
    writer.write_size(consecutive_quarantined_);
    writer.write_bool(pending_warm_restart_);
    writer.write_u64(stats_.frames_seen);
    writer.write_u64(stats_.frames_quarantined);
    writer.write_u64(stats_.samples_repaired);
    writer.write_u64(stats_.frames_bridged);
    writer.write_u64(stats_.gaps_bridged);
    writer.write_u64(stats_.signal_lost_events);
    writer.write_u64(stats_.warm_restarts);
    writer.end_section();
}

void FrameGuard::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kGuardTag);
    if (version > kGuardVersion)
        throw state::SnapshotError(
            "GURD: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kGuardVersion) + ")");
    const bool have_last = reader.read_bool();
    const Seconds last_ts = reader.read_f64();
    radar::RadarFrame last_good;
    last_good.timestamp_s = reader.read_f64();
    reader.read_complex_into(last_good.bins);
    if (have_last && last_good.bins.size() != n_bins_)
        throw state::SnapshotError(
            "GURD: held baseline has " +
            std::to_string(last_good.bins.size()) +
            " bins but the guard is configured for " +
            std::to_string(n_bins_));
    const std::size_t n_events = reader.read_size();
    if (n_events > fault_events_.capacity())
        throw state::SnapshotError(
            "GURD: fault window holds " + std::to_string(n_events) +
            " events but this configuration's window is " +
            std::to_string(fault_events_.capacity()));
    fault_events_.clear();
    faults_in_window_ = 0;
    for (std::size_t i = 0; i < n_events; ++i) {
        const std::uint8_t faulty = reader.read_u8();
        if (faulty > 1)
            throw state::SnapshotError(
                "GURD: fault-window entry holds invalid value " +
                std::to_string(faulty));
        fault_events_.push_back(faulty);
        faults_in_window_ += faulty;
    }
    const std::uint8_t health = reader.read_u8();
    if (health > static_cast<std::uint8_t>(HealthState::kRecovering))
        throw state::SnapshotError("GURD: invalid health state " +
                                   std::to_string(health));
    have_last_ = have_last;
    last_ts_ = last_ts;
    last_good_ = std::move(last_good);
    health_ = static_cast<HealthState>(health);
    consecutive_quarantined_ = reader.read_size();
    pending_warm_restart_ = reader.read_bool();
    stats_.frames_seen = reader.read_u64();
    stats_.frames_quarantined = reader.read_u64();
    stats_.samples_repaired = reader.read_u64();
    stats_.frames_bridged = reader.read_u64();
    stats_.gaps_bridged = reader.read_u64();
    stats_.signal_lost_events = reader.read_u64();
    stats_.warm_restarts = reader.read_u64();
    reader.close_section();
}

}  // namespace blinkradar::core
