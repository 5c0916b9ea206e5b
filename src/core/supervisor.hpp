// Supervised pipeline execution: autosnapshot, crash isolation, and a
// recovery escalation ladder.
//
// BlinkRadar runs unattended in a vehicle; the Supervisor is the layer
// that keeps detection alive across faults the pipeline itself cannot
// absorb — a crash inside a stage, a wedged sensor feed, a corrupted
// checkpoint. It owns the run loop around BlinkRadarPipeline::process():
//
//   - autosnapshot: every snapshot_interval_frames clean frames the full
//     pipeline state is serialised (state::StateWriter) to memory and,
//     when a snapshot directory is configured, to one of two alternating
//     slot files via an atomic write-then-rename — a crash mid-write can
//     never destroy the previous good checkpoint;
//   - per-frame exception isolation: a throw out of process() (or out of
//     the test/eval fault hook) is caught and escalated, never leaked;
//   - escalation ladder: retry the frame -> warm-restore the pipeline
//     from the newest readable snapshot (memory, then newest slot, then
//     the other slot) -> capped exponential backoff with seeded jitter
//     between repeated restores -> cold restart from scratch;
//   - stall watchdog: a wall-clock gap between frames beyond
//     stall_timeout_s (with an injectable clock for tests) is counted
//     and forces a fresh checkpoint as soon as the stream is healthy;
//   - observability: every transition is counted in SupervisorStats.
//
// The ladder's rung bounds (core/recovery_ladder.hpp) are shared with
// the fleet engine; the backoff schedule is fixed in supervisor.cpp.
//
// All randomness (backoff jitter) comes from an Rng forked from the
// configured seed, so a crash drill replays identically — the same
// discipline radar::FaultInjector uses for fault schedules.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "obs/flight_recorder.hpp"

namespace blinkradar::core {

/// Supervisor settings. Defaults suit the 25 Hz in-vehicle stream: a
/// checkpoint every ~10 s and a 5 s stall watchdog.
struct SupervisorConfig {
    /// Clean frames between autosnapshots (0 disables autosnapshot).
    std::size_t snapshot_interval_frames = 250;

    /// Directory for the two snapshot slot files; empty keeps snapshots
    /// in memory only (still enough for warm restores within a process).
    std::string snapshot_dir;

    /// Slot file basename: <dir>/<basename>.slot{0,1}.snap.
    std::string snapshot_basename = "blinkradar";

    /// Wall-clock gap between process() calls that counts as a stall
    /// (0 disables the watchdog).
    double stall_timeout_s = 5.0;

    /// Seed for the jitter stream (forked; independent of everything).
    std::uint64_t seed = 1;

    /// Attach an always-on obs::FlightRecorder (default ring depths) to
    /// the supervised pipeline (the black box survives pipeline
    /// replacement, so the supervisor owns it). It writes a flight dump
    /// (rotating <basename>.dump{0,1}.brfr) on the first exception of a
    /// fault run, on every warm restore / cold restart, and on a
    /// stall-watchdog fire. Disable for batch evaluation sweeps where
    /// post-mortem capture is dead weight (eval::run_recovery_session
    /// does).
    bool flight_recorder = true;

    /// Directory for dump files; empty falls back to snapshot_dir, and
    /// with both empty the recorder still records but nothing is written
    /// automatically (dump_now() with an explicit path still works).
    std::string dump_dir;
};

/// Counts of every supervisor transition.
struct SupervisorStats {
    std::uint64_t frames = 0;            ///< process() calls
    std::uint64_t frame_faults = 0;      ///< exceptions caught
    std::uint64_t retries = 0;           ///< same-frame retry attempts
    std::uint64_t warm_restores = 0;     ///< snapshot restores performed
    std::uint64_t cold_restarts = 0;     ///< from-scratch pipeline rebuilds
    std::uint64_t snapshots = 0;         ///< checkpoints taken
    std::uint64_t snapshot_failures = 0; ///< disk writes that failed
    std::uint64_t restore_failures = 0;  ///< snapshot sources that failed
    std::uint64_t backoff_skipped = 0;   ///< frames skipped while backing off
    std::uint64_t stalls = 0;            ///< watchdog trips
    std::uint64_t dumps = 0;             ///< flight dumps written
    std::uint64_t dump_failures = 0;     ///< dump writes that failed
};

/// Crash-safe run loop around a BlinkRadarPipeline. Feed frames through
/// process() exactly as with the bare pipeline; the supervisor
/// guarantees a FrameResult comes back for every frame, whatever
/// happens inside the detection chain.
class Supervisor {
public:
    /// Wall-clock source (seconds, monotonic). Injectable so the stall
    /// watchdog is testable with a fake clock.
    using ClockFn = std::function<double()>;

    /// Called at the top of every processing attempt with the frame
    /// index; a throw is treated exactly like a pipeline crash. This is
    /// the injection point the crash drills and tests use.
    using FaultHook = std::function<void(std::uint64_t frame_index)>;

    Supervisor(const radar::RadarConfig& radar, PipelineConfig pipeline_config,
               SupervisorConfig config = {});

    /// Process one frame under supervision. Never throws for pipeline
    /// faults (contract violations in the supervisor's own use of the
    /// API still do). Frames consumed by backoff or a failed recovery
    /// return quality == kQuarantined and cold_start == true.
    FrameResult process(const radar::RadarFrame& frame);

    /// Take a checkpoint now (also resets the autosnapshot countdown).
    /// Returns false when the disk slot write failed (the in-memory
    /// snapshot is still updated).
    bool snapshot_now();

    /// Restore the pipeline from an explicit snapshot file. Throws
    /// state::SnapshotError when the file is unreadable or rejected; the
    /// supervisor keeps its previous pipeline in that case.
    void restore_from_file(const std::string& path);

    /// The supervised pipeline (read-only: blinks, health, config).
    const BlinkRadarPipeline& pipeline() const noexcept { return *pipeline_; }

    const SupervisorStats& stats() const noexcept { return stats_; }
    const SupervisorConfig& config() const noexcept { return config_; }

    /// True once at least one checkpoint exists (memory or disk).
    bool has_snapshot() const noexcept { return !last_good_.empty(); }

    /// The attached flight recorder (null when disabled by config).
    const obs::FlightRecorder* flight_recorder() const noexcept {
        return recorder_.get();
    }

    /// Write a flight dump now, to `path` (or, when empty, to the next
    /// rotating automatic slot). Returns the path written, or "" when no
    /// recorder is attached or no directory is configured/given. Never
    /// throws: a failed write is counted in stats().dump_failures.
    std::string dump_now(const std::string& path = "",
                         std::string_view reason = "manual");

    /// Path of the most recent successfully written flight dump ("" if
    /// none yet).
    const std::string& last_dump_path() const noexcept {
        return last_dump_path_;
    }

    /// Frame index (process() calls so far).
    std::uint64_t frame_index() const noexcept { return stats_.frames; }

    /// Install the test/eval crash hook (null to clear).
    void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

    /// Install a fake clock for the stall watchdog (null restores the
    /// real steady clock).
    void set_clock(ClockFn clock) { clock_ = std::move(clock); }

private:
    std::unique_ptr<BlinkRadarPipeline> make_pipeline() const;
    FrameResult attempt(const radar::RadarFrame& frame);
    bool warm_restore();
    bool restore_from_bytes(const std::vector<std::uint8_t>& bytes);
    void cold_restart();
    std::vector<std::uint8_t> serialize_pipeline() const;
    std::string slot_path(std::size_t slot) const;
    std::size_t backoff_frames(std::size_t attempt);
    double now();
    FrameResult skipped_result() const;
    std::string dump_path(std::size_t slot) const;
    void note_restore_checkpoint(const std::vector<std::uint8_t>& bytes);

    radar::RadarConfig radar_;
    PipelineConfig pipeline_config_;
    SupervisorConfig config_;

    /// The black box. Owned here, not by the pipeline: recovery replaces
    /// pipelines, and the incident record must survive the swap.
    std::unique_ptr<obs::FlightRecorder> recorder_;
    std::size_t next_dump_ = 0;           ///< dump slot to overwrite next
    bool fault_dump_written_ = false;     ///< one auto-dump per fault run
    std::string last_dump_path_;

    std::unique_ptr<BlinkRadarPipeline> pipeline_;

    /// Newest in-memory checkpoint (empty until the first snapshot).
    std::vector<std::uint8_t> last_good_;
    std::size_t next_slot_ = 0;      ///< slot file to overwrite next
    bool have_slot_ = false;         ///< any slot file written yet
    std::size_t newest_slot_ = 0;    ///< slot file written most recently

    std::size_t frames_since_snapshot_ = 0;
    std::size_t consecutive_warm_restores_ = 0;
    std::size_t clean_streak_ = 0;
    std::size_t backoff_remaining_ = 0;
    bool snapshot_due_ = false;  ///< watchdog asked for a prompt checkpoint

    bool have_last_wall_ = false;
    double last_wall_s_ = 0.0;
    /// Timestamp of the frame being supervised: the timeline every
    /// recorder event is stamped on.
    double frame_t_ = 0.0;

    Rng jitter_rng_;
    FaultHook fault_hook_;
    ClockFn clock_;

    SupervisorStats stats_;
};

}  // namespace blinkradar::core
