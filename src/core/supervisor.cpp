#include "core/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/contracts.hpp"
#include "core/postmortem.hpp"
#include "core/recovery_ladder.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

namespace {

/// Backoff after the k-th consecutive warm restore skips
/// ~kBackoffBaseFrames * 2^k frames, capped at kBackoffCapFrames and
/// scaled by a factor drawn uniformly from [1-j, 1+j) with
/// j = kBackoffJitter.
constexpr std::size_t kBackoffBaseFrames = 8;
constexpr std::size_t kBackoffCapFrames = 256;
constexpr double kBackoffJitter = 0.25;

/// Consecutive clean frames that reset the warm-restore count.
constexpr std::size_t kLadderResetFrames = 64;

double steady_now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

Supervisor::Supervisor(const radar::RadarConfig& radar,
                       PipelineConfig pipeline_config, SupervisorConfig config)
    : radar_(radar),
      pipeline_config_(pipeline_config),
      config_(std::move(config)),
      jitter_rng_(Rng(config_.seed).fork()) {
    BR_EXPECTS(config_.stall_timeout_s >= 0.0);
    // Reclaim temp files a crashed predecessor left next to the slot
    // files (and in the dump directory, when separate): the unique
    // temp-name scheme never reuses them, so they are pure disk leaks.
    if (!config_.snapshot_dir.empty())
        state::cleanup_orphan_temps(config_.snapshot_dir);
    if (!config_.dump_dir.empty() &&
        config_.dump_dir != config_.snapshot_dir)
        state::cleanup_orphan_temps(config_.dump_dir);
    // The recorder must exist before the first pipeline: every pipeline
    // this supervisor ever constructs shares it.
    if (config_.flight_recorder)
        recorder_ = std::make_unique<obs::FlightRecorder>();
    pipeline_ = make_pipeline();
}

std::unique_ptr<BlinkRadarPipeline> Supervisor::make_pipeline() const {
    return std::make_unique<BlinkRadarPipeline>(radar_, pipeline_config_,
                                                nullptr, recorder_.get());
}

double Supervisor::now() { return clock_ ? clock_() : steady_now_s(); }

FrameResult Supervisor::skipped_result() const {
    FrameResult result;
    result.quality = FrameVerdict::kQuarantined;
    result.cold_start = true;
    result.health = pipeline_->health();
    return result;
}

FrameResult Supervisor::process(const radar::RadarFrame& frame) {
    ++stats_.frames;
    frame_t_ = frame.timestamp_s;

    // Stall watchdog: a long wall-clock gap means the feed wedged. The
    // pipeline state itself is intact (FrameGuard handles the timestamp
    // gap), so the response is to checkpoint promptly once the stream is
    // flowing again — an outage that wedged the feed may next take the
    // process down, and the pre-stall checkpoint could be arbitrarily old.
    const double wall = now();
    if (config_.stall_timeout_s > 0.0 && have_last_wall_ &&
        wall - last_wall_s_ > config_.stall_timeout_s) {
        ++stats_.stalls;
        snapshot_due_ = true;
        if (recorder_ != nullptr)
            recorder_->record_event(obs::RecorderEvent::kSupervisorStall,
                                    frame.timestamp_s, wall - last_wall_s_);
        // A feed that wedged once may take the process down next:
        // capture the black box while we can.
        dump_now("", "stall");
    }
    have_last_wall_ = true;
    last_wall_s_ = wall;

    // Backoff window after a warm restore that did not stop the crash
    // storm: keep the pipeline untouched until the budget drains.
    if (backoff_remaining_ > 0) {
        --backoff_remaining_;
        ++stats_.backoff_skipped;
        clean_streak_ = 0;
        return skipped_result();
    }

    std::size_t attempts = 0;
    bool restored_this_frame = false;
    for (;;) {
        try {
            const FrameResult result = attempt(frame);
            fault_dump_written_ = false;  // next fault run dumps afresh
            if (++clean_streak_ >= kLadderResetFrames)
                consecutive_warm_restores_ = 0;
            ++frames_since_snapshot_;
            if (snapshot_due_ ||
                (config_.snapshot_interval_frames > 0 &&
                 frames_since_snapshot_ >= config_.snapshot_interval_frames)) {
                snapshot_now();
                snapshot_due_ = false;
            }
            return result;
        } catch (const std::exception&) {
            ++stats_.frame_faults;
            clean_streak_ = 0;
            if (recorder_ != nullptr)
                recorder_->record_event(obs::RecorderEvent::kSupervisorFault,
                                        frame.timestamp_s);
            // One automatic dump per fault run, at the first exception:
            // the rings then hold the healthy lead-up plus the crash
            // frame itself, and later escalation dumps capture the rest.
            if (!fault_dump_written_) {
                fault_dump_written_ = true;
                dump_now("", "frame_fault");
            }
            // Rung 1: retry the frame in place (transient faults).
            if (attempts < kMaxFrameRetries) {
                ++attempts;
                ++stats_.retries;
                if (recorder_ != nullptr)
                    recorder_->record_event(
                        obs::RecorderEvent::kSupervisorRetry,
                        frame.timestamp_s, static_cast<double>(attempts));
                continue;
            }
            // A restore already happened for this frame and it still
            // crashes: the fault is input- or environment-driven. Back
            // off (exponentially in the restore run, jittered) before
            // the ladder climbs again.
            if (restored_this_frame) {
                backoff_remaining_ =
                    backoff_frames(consecutive_warm_restores_ - 1);
                if (recorder_ != nullptr)
                    recorder_->record_event(
                        obs::RecorderEvent::kSupervisorBackoff,
                        frame.timestamp_s,
                        static_cast<double>(backoff_remaining_));
                return skipped_result();
            }
            // Rung 3: the ladder is exhausted — rebuild from scratch.
            if (consecutive_warm_restores_ >= kMaxWarmRestores) {
                cold_restart();
                if (recorder_ != nullptr)
                    recorder_->record_event(
                        obs::RecorderEvent::kSupervisorColdRestart,
                        frame.timestamp_s);
                dump_now("", "cold_restart");
                return skipped_result();
            }
            // Rung 2: warm-restore from the newest readable snapshot.
            ++consecutive_warm_restores_;
            if (!warm_restore()) {
                cold_restart();
                if (recorder_ != nullptr)
                    recorder_->record_event(
                        obs::RecorderEvent::kSupervisorColdRestart,
                        frame.timestamp_s);
                dump_now("", "cold_restart");
                return skipped_result();
            }
            restored_this_frame = true;
            if (recorder_ != nullptr)
                recorder_->record_event(
                    obs::RecorderEvent::kSupervisorWarmRestore,
                    frame.timestamp_s,
                    static_cast<double>(consecutive_warm_restores_));
            dump_now("", "warm_restore");
        }
    }
}

FrameResult Supervisor::attempt(const radar::RadarFrame& frame) {
    if (fault_hook_) fault_hook_(stats_.frames - 1);
    return pipeline_->process(frame);
}

std::vector<std::uint8_t> Supervisor::serialize_pipeline() const {
    state::StateWriter writer;
    pipeline_->save_state(writer);
    return writer.finish();
}

std::string Supervisor::slot_path(std::size_t slot) const {
    return config_.snapshot_dir + "/" + config_.snapshot_basename + ".slot" +
           std::to_string(slot) + ".snap";
}

bool Supervisor::snapshot_now() {
    std::vector<std::uint8_t> bytes;
    try {
        bytes = serialize_pipeline();
    } catch (const std::exception&) {
        // Serialisation failing is a bug, but the supervisor's contract
        // is that checkpointing never takes the run loop down.
        ++stats_.snapshot_failures;
        return false;
    }
    last_good_ = std::move(bytes);
    frames_since_snapshot_ = 0;
    ++stats_.snapshots;
    // Feed the autosnapshot to the black box as a replay base: it is the
    // live state at the current recorder sequence (see postmortem.hpp).
    if (recorder_ != nullptr) recorder_->note_checkpoint(last_good_);
    if (config_.snapshot_dir.empty()) return true;
    try {
        state::write_snapshot_file(slot_path(next_slot_), last_good_);
        newest_slot_ = next_slot_;
        have_slot_ = true;
        next_slot_ ^= 1u;
        return true;
    } catch (const state::SnapshotError&) {
        ++stats_.snapshot_failures;
        return false;
    }
}

bool Supervisor::restore_from_bytes(const std::vector<std::uint8_t>& bytes) {
    // Restore into a *fresh* pipeline: restore_state may leave its
    // target half-mutated on throw, and the current pipeline is the only
    // fallback we have until another source is tried.
    std::unique_ptr<BlinkRadarPipeline> fresh = make_pipeline();
    state::StateReader reader(bytes);
    fresh->restore_state(reader);
    pipeline_ = std::move(fresh);
    return true;
}

bool Supervisor::warm_restore() {
    // Source order: the in-memory checkpoint is newest; the slot files
    // cover the case where memory was never populated (or was taken down
    // with a corrupted heap and fails to parse). The older slot is the
    // last resort — it survives a crash mid-write of the newer one.
    const auto try_bytes = [&](const std::vector<std::uint8_t>& bytes) {
        try {
            if (restore_from_bytes(bytes)) {
                ++stats_.warm_restores;
                // Re-base the replay timeline: from this recorder seq on,
                // the live pipeline's state IS these bytes.
                note_restore_checkpoint(bytes);
                return true;
            }
        } catch (const std::exception&) {
            ++stats_.restore_failures;
        }
        return false;
    };
    if (!last_good_.empty() && try_bytes(last_good_)) return true;
    if (have_slot_) {
        const std::size_t order[2] = {newest_slot_, 1 - newest_slot_};
        for (const std::size_t slot : order) {
            std::vector<std::uint8_t> bytes;
            try {
                bytes = state::read_snapshot_file(slot_path(slot));
            } catch (const state::SnapshotError&) {
                ++stats_.restore_failures;
                continue;
            }
            if (try_bytes(bytes)) {
                last_good_ = std::move(bytes);
                return true;
            }
        }
    }
    return false;
}

void Supervisor::cold_restart() {
    pipeline_ = make_pipeline();
    ++stats_.cold_restarts;
    // Re-base the replay timeline on the from-scratch state.
    if (recorder_ != nullptr) {
        try {
            note_restore_checkpoint(serialize_pipeline());
        } catch (const std::exception&) {
            // Serialisation failing must not take the restart down.
        }
    }
    consecutive_warm_restores_ = 0;
    backoff_remaining_ = 0;
    frames_since_snapshot_ = 0;
    clean_streak_ = 0;
    // The in-memory checkpoint either failed to parse or failed to stop
    // the crash run — drop it so the next warm restore starts from a
    // checkpoint of the rebuilt pipeline, not a pre-storm ghost. Disk
    // slots are kept for post-mortem inspection.
    last_good_.clear();
}

std::size_t Supervisor::backoff_frames(std::size_t attempt) {
    const std::size_t shift = std::min<std::size_t>(attempt, 20);
    const std::size_t base =
        std::min(kBackoffCapFrames, kBackoffBaseFrames << shift);
    const double factor =
        jitter_rng_.uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
    const auto jittered =
        static_cast<std::size_t>(static_cast<double>(base) * factor);
    return std::clamp<std::size_t>(jittered, 1, kBackoffCapFrames);
}

void Supervisor::restore_from_file(const std::string& path) {
    std::vector<std::uint8_t> bytes = state::read_snapshot_file(path);
    restore_from_bytes(bytes);  // throws on rejection; pipeline_ kept
    note_restore_checkpoint(bytes);
    last_good_ = std::move(bytes);
    frames_since_snapshot_ = 0;
}

void Supervisor::note_restore_checkpoint(
    const std::vector<std::uint8_t>& bytes) {
    if (recorder_ != nullptr) recorder_->note_checkpoint(bytes);
}

std::string Supervisor::dump_path(std::size_t slot) const {
    const std::string& dir =
        config_.dump_dir.empty() ? config_.snapshot_dir : config_.dump_dir;
    return dir + "/" + config_.snapshot_basename + ".dump" +
           std::to_string(slot) + ".brfr";
}

std::string Supervisor::dump_now(const std::string& path,
                                 std::string_view reason) {
    if (recorder_ == nullptr) return "";
    std::string target = path;
    if (target.empty()) {
        if (config_.dump_dir.empty() && config_.snapshot_dir.empty())
            return "";
        target = dump_path(next_dump_);
    }
    try {
        write_flight_dump_file(target, *recorder_, radar_, pipeline_config_,
                               reason);
    } catch (const std::exception&) {
        // Dumping is best-effort by contract: a full disk must not turn
        // an absorbed pipeline fault into a supervisor crash.
        ++stats_.dump_failures;
        return "";
    }
    if (path.empty()) next_dump_ ^= 1u;
    ++stats_.dumps;
    last_dump_path_ = target;
    recorder_->record_event(obs::RecorderEvent::kDump, frame_t_);
    return target;
}

}  // namespace blinkradar::core
