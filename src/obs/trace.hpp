// JSONL trace file, gated by the BLINKRADAR_TRACE environment variable.
//
// Tracing is the expensive, opt-in tier of the observability layer. A
// sink is the file a telemetry::SpanCollector writes its span records
// into (one per traced frame, see obs/telemetry/span.hpp), and the file
// the ingest front-end writes its stream lifecycle and shed events into.
// The formatting + I/O cost is real — never enable it while
// benchmarking the hot path.
//
// A sink is not synchronised: one writer at a time (the SpanCollector
// writes under its own mutex).
#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <string_view>

namespace blinkradar::obs {

class TraceSink {
public:
    /// Open `path` for writing (truncating). Throws std::runtime_error
    /// if the file cannot be opened.
    explicit TraceSink(const std::string& path);

    /// Returns a sink writing to $BLINKRADAR_TRACE when that variable is
    /// set and non-empty, nullptr otherwise.
    static std::unique_ptr<TraceSink> from_env();

    ~TraceSink();

    /// Append one JSONL record (the newline is added here).
    void write_line(std::string_view line);

    /// Push buffered lines to the OS. The stream buffers for throughput,
    /// so a crash can swallow the tail of the trace; the destructor
    /// flushes so a clean shutdown never loses lines.
    void flush();

    const std::string& path() const noexcept { return path_; }
    std::size_t lines_written() const noexcept { return lines_; }

private:
    std::string path_;
    std::ofstream out_;
    std::size_t lines_ = 0;
};

}  // namespace blinkradar::obs
