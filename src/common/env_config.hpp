// Process-wide configuration resolved from the environment exactly once.
//
// Several components historically called std::getenv at construction
// time (the SIMD backend pick, the shared pool size, the trace gate). Per-construction getenv is a latent data race:
// POSIX setenv/getenv are unsynchronized, so any runtime setenv — a test
// harness, an embedding host configuring itself — races with a pipeline
// being constructed on another thread, and two sessions constructed
// concurrently around a setenv can resolve *different* configs inside
// one process. A fleet of sessions must agree on process-wide knobs.
//
// This module snapshots every BLINKRADAR_* variable into one immutable
// ProcessConfig on first use (thread-safe); all components read the
// snapshot and never touch the environment again. Tests that need to
// exercise the resolution logic re-run it explicitly with
// reload_process_config_for_testing() — a documented single-threaded
// test hook, not a production path.
#pragma once

#include <cstddef>
#include <string>

namespace blinkradar {

/// Immutable snapshot of the BLINKRADAR_* environment, taken on first
/// use. Raw string values are stored as found (empty when unset);
/// consumers own the parsing so resolution errors degrade exactly as
/// the old per-call getenv paths did.
struct ProcessConfig {
    /// BLINKRADAR_SIMD_BACKEND ("scalar" | "avx2" | "neon"): kernel
    /// table override for the frame path. "scalar" also forces the
    /// portable slice-by-8 backend of state::crc32.
    std::string simd_backend;
    /// BLINKRADAR_THREADS: shared thread-pool size override (unparsed;
    /// ThreadPool::parse_thread_count owns the validation).
    std::string threads;
    /// BLINKRADAR_TRACE: JSONL trace path gate (see obs::TraceSink).
    std::string trace_path;
};

/// The process-wide config. The first call resolves it from the
/// environment; every later call returns the same snapshot. Thread-safe:
/// concurrent first calls resolve once, and concurrently constructed
/// sessions always observe identical values.
const ProcessConfig& process_config();

/// Re-resolve the snapshot from the current environment. TEST-ONLY
/// single-threaded hook (callers must guarantee no concurrent
/// process_config() readers); lets env-override tests exercise the
/// resolution logic without restarting the process.
void reload_process_config_for_testing();

}  // namespace blinkradar
