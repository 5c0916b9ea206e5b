// Deterministic transport-fault injection over encoded "BRWF" bytes.
//
// radar::FaultInjector damages *frames* (what a flaky sensor does); the
// WireFaultInjector damages *bytes* (what a flaky transport does): it
// splits an encoded stream into fixed-size chunks — the unit a DMA
// engine or socket write actually moves — and per chunk may truncate the
// tail, flip bits, deliver the chunk twice, swap it with its successor,
// drop it entirely, or prepend garbage bytes. A final-chunk truncation
// is exactly the mid-frame-EOF case of a producer dying mid-write.
//
// Determinism contract (the FaultInjector mold): every fault type owns a
// forked RNG stream and draws a fixed number of values per *input*
// chunk regardless of what the other faults decided, so the same config
// and seed reproduce the same damage, and changing one fault's rate
// never moves where any other fault lands.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"

namespace blinkradar::ingest {

/// Per-fault rates; everything defaults to off (bytewise pass-through).
struct WireFaultConfig {
    /// Transport chunk size the faults operate on [bytes].
    std::size_t chunk_bytes = 512;
    /// Probability a chunk loses a uniform fraction of its tail
    /// (partial write / mid-frame EOF when it is the last chunk).
    double truncate_rate = 0.0;
    /// Probability a chunk has 1..max_bitflips random bits flipped.
    double bitflip_rate = 0.0;
    std::size_t max_bitflips = 3;
    /// Probability a chunk is delivered twice back to back.
    double duplicate_rate = 0.0;
    /// Probability a chunk is held back and emitted after its successor
    /// (transport reordering).
    double reorder_rate = 0.0;
    /// Probability a chunk vanishes entirely.
    double drop_rate = 0.0;
    /// Probability 1..garbage_max_bytes of noise precede a chunk
    /// (garbage preambles / line noise between reconnects).
    double garbage_rate = 0.0;
    std::size_t garbage_max_bytes = 64;

    /// Throws ContractViolation on rates outside [0, 1] or a zero chunk.
    void validate() const;
};

/// What the injector actually did (per-fault event counters).
struct WireFaultStats {
    std::uint64_t chunks_in = 0;
    std::uint64_t chunks_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t truncated = 0;
    std::uint64_t bits_flipped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t garbage_bytes = 0;
};

/// Seed-deterministic byte-stream corruptor.
class WireFaultInjector {
public:
    WireFaultInjector(WireFaultConfig config, std::uint64_t seed);

    /// Damage one transport chunk, appending 0+ output bytes to `out`.
    /// Chunks must be fed in transport order; reordering is implemented
    /// by holding a chunk back until the next apply() call.
    void apply(std::span<const std::uint8_t> chunk,
               std::vector<std::uint8_t>& out);

    /// Split `stream` into config.chunk_bytes chunks and damage each;
    /// flushes any held-back chunk at the end.
    std::vector<std::uint8_t> corrupt(std::span<const std::uint8_t> stream);

    /// Emit a chunk held back by a pending reorder (end of stream).
    void flush(std::vector<std::uint8_t>& out);

    const WireFaultStats& stats() const noexcept { return stats_; }
    const WireFaultConfig& config() const noexcept { return config_; }

private:
    void emit(std::span<const std::uint8_t> chunk,
              std::vector<std::uint8_t>& out, bool truncate_hit,
              double truncate_frac, bool flip_hit,
              std::span<const std::size_t> flip_bits, bool garbage_hit,
              std::span<const std::uint8_t> garbage);

    WireFaultConfig config_;
    // One stream per fault type, forked from the master seed in a fixed
    // order (see the determinism contract in the header comment).
    Rng truncate_rng_;
    Rng bitflip_rng_;
    Rng dup_rng_;
    Rng reorder_rng_;
    Rng drop_rng_;
    Rng garbage_rng_;

    std::vector<std::uint8_t> held_;  ///< chunk awaiting a reorder swap
    bool holding_ = false;
    WireFaultStats stats_;
};

}  // namespace blinkradar::ingest
