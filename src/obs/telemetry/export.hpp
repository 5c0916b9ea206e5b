// Live telemetry export: atomic double-buffered snapshot publication.
//
// The fleet/ingest layers publish their aggregated registry on a tick
// cadence as one "blinkradar-obs-v1" JSON snapshot (obs/metrics.hpp);
// consumers (tools/br_top, tests) read the published file. No sockets —
// a snapshot is a plain file replaced atomically (write temp + rename),
// so a reader never observes a torn snapshot and the whole plane stays
// deterministic and test-friendly.
//
// Rendering appends into publisher-owned buffers so the steady-state
// publish cycle reuses capacity and does not allocate. The rendering is
// byte-deterministic: map-sorted metric names, fixed field order,
// locale-independent numbers.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace blinkradar::obs::telemetry {

struct SnapshotPublisherConfig {
    std::string json_path;  ///< `blinkradar-obs-v1` JSON; empty = skip
};

/// Renders a registry into alternating front/back buffers and publishes
/// the result atomically (temp file + rename). The front buffer always
/// holds the last published rendering, so in-process consumers can read
/// it without touching the filesystem. One publisher = one writer; the
/// temp path is derived from the target path, so two publishers must
/// not share a target.
class SnapshotPublisher {
public:
    explicit SnapshotPublisher(SnapshotPublisherConfig config = {});

    /// Render + write. Returns false if the configured file write
    /// failed (the in-memory buffers still advance).
    bool publish(const MetricsRegistry& registry);

    const std::string& last_json() const noexcept {
        return json_buf_[front_];
    }
    std::uint64_t publishes() const noexcept { return publishes_; }
    std::uint64_t failures() const noexcept { return failures_; }

private:
    bool write_atomic(const std::string& path, const std::string& body);

    SnapshotPublisherConfig config_;
    std::array<std::string, 2> json_buf_;
    std::size_t front_ = 0;
    std::uint64_t publishes_ = 0;
    std::uint64_t failures_ = 0;
    std::string tmp_path_;  ///< scratch
};

}  // namespace blinkradar::obs::telemetry
