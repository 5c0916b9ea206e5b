#include "ingest/wire_fault.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace blinkradar::ingest {

void WireFaultConfig::validate() const {
    BR_EXPECTS(chunk_bytes >= 1);
    for (const double r : {truncate_rate, bitflip_rate, duplicate_rate,
                           reorder_rate, drop_rate, garbage_rate})
        BR_EXPECTS(r >= 0.0 && r <= 1.0);
    BR_EXPECTS(max_bitflips >= 1);
    BR_EXPECTS(garbage_max_bytes >= 1);
}

WireFaultInjector::WireFaultInjector(WireFaultConfig config,
                                     std::uint64_t seed)
    : config_(config),
      truncate_rng_(0),
      bitflip_rng_(0),
      dup_rng_(0),
      reorder_rng_(0),
      drop_rng_(0),
      garbage_rng_(0) {
    config_.validate();
    // Fork every fault stream from one master in a fixed order, so each
    // fault's schedule is a pure function of (seed, its own rate).
    Rng master(seed);
    truncate_rng_ = master.fork();
    bitflip_rng_ = master.fork();
    dup_rng_ = master.fork();
    reorder_rng_ = master.fork();
    drop_rng_ = master.fork();
    garbage_rng_ = master.fork();
}

void WireFaultInjector::apply(std::span<const std::uint8_t> chunk,
                              std::vector<std::uint8_t>& out) {
    ++stats_.chunks_in;
    stats_.bytes_in += chunk.size();

    // Fixed per-chunk decision draws, one independent stream per fault.
    // Streams that fire draw their fault-local parameters afterwards —
    // still independent of every other fault's decisions.
    const bool drop_hit = drop_rng_.bernoulli(config_.drop_rate);
    const bool trunc_hit = truncate_rng_.bernoulli(config_.truncate_rate);
    const double trunc_frac = truncate_rng_.uniform(0.0, 1.0);
    const bool flip_hit = bitflip_rng_.bernoulli(config_.bitflip_rate);
    const bool dup_hit = dup_rng_.bernoulli(config_.duplicate_rate);
    const bool reorder_hit = reorder_rng_.bernoulli(config_.reorder_rate);
    const bool garbage_hit = garbage_rng_.bernoulli(config_.garbage_rate);

    std::vector<std::uint8_t> damaged;
    if (!drop_hit) {
        if (garbage_hit) {
            const int n = garbage_rng_.uniform_int(
                1, static_cast<int>(config_.garbage_max_bytes));
            for (int i = 0; i < n; ++i)
                damaged.push_back(static_cast<std::uint8_t>(
                    garbage_rng_.uniform_int(0, 255)));
            stats_.garbage_bytes += static_cast<std::uint64_t>(n);
        }
        std::size_t keep = chunk.size();
        if (trunc_hit && !chunk.empty()) {
            const std::size_t lose = std::max<std::size_t>(
                1, static_cast<std::size_t>(trunc_frac *
                                            static_cast<double>(
                                                chunk.size())));
            keep = chunk.size() - std::min(lose, chunk.size());
            ++stats_.truncated;
        }
        const std::size_t body = damaged.size();
        damaged.insert(damaged.end(), chunk.begin(),
                       chunk.begin() + static_cast<std::ptrdiff_t>(keep));
        if (flip_hit && keep > 0) {
            const int flips = bitflip_rng_.uniform_int(
                1, static_cast<int>(config_.max_bitflips));
            for (int i = 0; i < flips; ++i) {
                const std::size_t bit = static_cast<std::size_t>(
                    bitflip_rng_.uniform_int(
                        0, static_cast<int>(keep * 8 - 1)));
                damaged[body + bit / 8] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
                ++stats_.bits_flipped;
            }
        }
        if (dup_hit && keep > 0) {
            damaged.insert(damaged.end(), damaged.begin() + body,
                           damaged.end());
            ++stats_.duplicated;
            ++stats_.chunks_out;
        }
    } else {
        ++stats_.dropped;
    }

    // Reordering: hold this chunk's bytes back and release them after
    // the next chunk (or at flush()). Nested holds collapse to emission.
    if (reorder_hit && !holding_ && !damaged.empty()) {
        held_ = std::move(damaged);
        holding_ = true;
        ++stats_.reordered;
        return;
    }
    if (!damaged.empty()) {
        out.insert(out.end(), damaged.begin(), damaged.end());
        stats_.bytes_out += damaged.size();
        ++stats_.chunks_out;
    }
    if (holding_) {
        out.insert(out.end(), held_.begin(), held_.end());
        stats_.bytes_out += held_.size();
        ++stats_.chunks_out;
        held_.clear();
        holding_ = false;
    }
}

void WireFaultInjector::flush(std::vector<std::uint8_t>& out) {
    if (!holding_) return;
    out.insert(out.end(), held_.begin(), held_.end());
    stats_.bytes_out += held_.size();
    ++stats_.chunks_out;
    held_.clear();
    holding_ = false;
}

std::vector<std::uint8_t> WireFaultInjector::corrupt(
    std::span<const std::uint8_t> stream) {
    std::vector<std::uint8_t> out;
    out.reserve(stream.size());
    for (std::size_t off = 0; off < stream.size();
         off += config_.chunk_bytes) {
        const std::size_t n =
            std::min(config_.chunk_bytes, stream.size() - off);
        apply(stream.subspan(off, n), out);
    }
    flush(out);
    return out;
}

}  // namespace blinkradar::ingest
