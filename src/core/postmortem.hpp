// Post-mortem flight dumps: self-contained, self-verifying incident
// captures.
//
// The obs::FlightRecorder holds the rings (raw frames, stage taps,
// events, checkpoints) but knows nothing about pipeline construction.
// This module adds the core-side halves that turn a recorder into a
// reproduction of an incident:
//
//   - the "FRCF" section: the full radar + pipeline configuration, so a
//     dump carries everything needed to construct the identical pipeline
//     on another machine;
//   - dump assembly and file IO (make/write/read, atomic write-rename
//     via the state layer, every section CRC-protected);
//   - replay: feed the captured raw frames through freshly constructed
//     pipelines restored from the co-dumped checkpoints and cross-check
//     every FrameResult bit-for-bit against the recorded taps. A dump
//     that replays clean *proves* the capture is a faithful reproduction
//     of the incident — the same contract test_resume enforces for
//     checkpoint/resume, extended to the black box.
//
// Replay contract. A checkpoint labelled seq = S holds the serialized
// state of the live pipeline at the moment frame S had been processed —
// equivalently, the state in effect *before* frame S+1. Self-checkpoints
// satisfy this trivially; the Supervisor's post-restore note_checkpoint()
// does too, because the restored bytes *are* the live state from that
// point on (the replay timeline re-bases across recoveries exactly where
// the live one did). Replay therefore walks the raw ring oldest-first,
// re-basing onto each checkpoint at its boundary, and expects
// bit-identical results everywhere a tap was recorded. Frames with a raw
// entry but no tap are the crash frames themselves.
//
// Base choice: when the dump ever saw an external checkpoint (the owner
// replaced state from outside — a restore), replay bases on the oldest
// *retained* checkpoint, because an evicted external one could mark a
// state replacement a from-frame-1 cold replay would silently miss.
// Only an uninterrupted self-checkpointing run whose raw ring reaches
// back to frame 1 replays from a cold pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline_config.hpp"
#include "obs/flight_recorder.hpp"
#include "radar/config.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {

/// Serialize the full radar + pipeline configuration as one "FRCF"
/// section (every tunable, including the frame-guard block).
void save_flight_configs(state::StateWriter& writer,
                         const radar::RadarConfig& radar,
                         const PipelineConfig& pipeline);

struct FlightConfigs {
    radar::RadarConfig radar;
    PipelineConfig pipeline;
};

/// Decode the "FRCF" section. Throws state::SnapshotError when missing,
/// truncated, newer than this reader, holding an out-of-range enum byte,
/// or recorded by the retired scalar frame path.
FlightConfigs load_flight_configs(state::StateReader& reader);

/// Assemble a complete dump container: "FRCF" followed by the recorder's
/// "BRFR"/"FR**" sections.
std::vector<std::uint8_t> make_flight_dump(const obs::FlightRecorder& recorder,
                                           const radar::RadarConfig& radar,
                                           const PipelineConfig& pipeline,
                                           std::string_view reason);

/// make_flight_dump + crash-safe write (atomic rename, like snapshots).
void write_flight_dump_file(const std::string& path,
                            const obs::FlightRecorder& recorder,
                            const radar::RadarConfig& radar,
                            const PipelineConfig& pipeline,
                            std::string_view reason);

/// A fully decoded dump: configuration + every recorder ring.
struct DecodedDump {
    FlightConfigs configs;
    obs::FlightDump flight;
};

/// Decode a dump container; throws state::SnapshotError on any damage.
DecodedDump decode_dump(std::span<const std::uint8_t> bytes);

/// Read + decode a dump file; throws state::SnapshotError on any damage.
DecodedDump read_flight_dump_file(const std::string& path);

/// One field-level divergence between a recorded tap and its replay.
struct ReplayMismatch {
    std::uint64_t seq = 0;
    std::string field;     ///< e.g. "waveform_value", "health"
    double recorded = 0.0; ///< recorded value (numeric view)
    double replayed = 0.0; ///< replayed value (numeric view)
};

/// Outcome of replaying a dump (see replay_flight_dump).
struct ReplayReport {
    bool ok = false;  ///< base found, 1+ taps compared, zero mismatches
    std::string note;          ///< human-readable outcome summary
    std::uint64_t base_seq = 0;///< first replay base (0 = cold pipeline)
    bool from_cold = false;    ///< replay started from a cold pipeline
    std::uint64_t frames_replayed = 0;
    std::uint64_t taps_compared = 0;
    std::uint64_t taps_missing = 0;  ///< raw frames without a tap (crash frames)
    std::uint64_t rebases = 0;       ///< checkpoint boundaries crossed
    std::uint64_t replay_faults = 0; ///< exceptions thrown during replay
    std::uint64_t mismatch_count = 0;
    std::vector<ReplayMismatch> mismatches;  ///< first few, for reporting
};

/// Replay every captured raw frame through freshly constructed pipelines
/// restored from the co-dumped checkpoints, comparing each FrameResult
/// bit-for-bit (doubles compared by bit pattern) against the recorded
/// tap. Never throws for divergence — the report carries the verdict;
/// state::SnapshotError from a damaged nested checkpoint, and configs
/// the pipeline constructor rejects, are reported as ok = false with the
/// error in `note`. A dump that verifies nothing (no raw frames, or no
/// tap compared) is ok = false too.
ReplayReport replay_flight_dump(const DecodedDump& dump);

}  // namespace blinkradar::core
