// End-to-end frame tracing: one span per sampled frame, from wire
// decode to pipeline result.
//
// A span ID is minted at ingest decode (sampling stride shared with the
// metrics duty cycle and widened by the shed ladder), rides inside the
// RadarFrame through the bounded queue, admission, and the fleet pump,
// and is completed by the pipeline after the frame's stages ran. A
// caller that feeds a pipeline directly may mint every frame (stride 1,
// what BLINKRADAR_TRACE means for drowsiness_monitor); its spans skip
// the queue hops, which then inherit the decode stamp. The
// completed span is emitted as one JSONL record of absolute per-hop
// timestamps:
//
//   {"span":N,"stream":S,"seq":Q,"decode_ns":..,"enqueue_ns":..,
//    "admit_ns":..,"pump_ns":..,"stage_ns":[8 stage-end times],
//    "result_ns":..}
//
// "stage_ns" is empty when the completing pipeline timed no stages (it
// has no metrics registry).
//
// Hops decode..pump are stamped with the steady clock at the moment
// they happen (possibly on different threads; the queue's mutex orders
// them). Stage times are synthesised at completion from the pump stamp
// plus the pipeline's measured per-stage durations, and the whole chain
// is clamped monotonically non-decreasing at emission — the overload
// drill asserts exactly that, so it holds by construction even across
// TSC/steady clock disagreement.
//
// Storage is a fixed ring of 64 slots keyed by span_id % 64: no
// allocation, no unbounded growth. A span overtaken by 64 newer mints
// before completing is abandoned (counted); a hop or completion for an
// overwritten span is ignored. All operations take one internal mutex —
// they only run for sampled frames (1-in-16 or sparser in the gateway),
// so an unsampled frame's entire cost is the `span_id == 0` branch.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/trace.hpp"

namespace blinkradar::obs::telemetry {

enum class SpanHop : std::uint8_t {
    kDecode = 0,   ///< frame decoded off the wire
    kEnqueue = 1,  ///< accepted by the per-stream bounded queue
    kAdmit = 2,    ///< popped under the governor's budget, handed on
    kPump = 3,     ///< fleet worker starts processing the frame
};
inline constexpr std::size_t kSpanHops = 4;

class SpanCollector {
public:
    static constexpr std::size_t kSlots = 64;
    static constexpr std::size_t kMaxStages = 16;

    /// `sink` is optional and not owned; records are kept inspectable
    /// via last_record() either way.
    explicit SpanCollector(TraceSink* sink = nullptr);

    /// Open a span: returns its non-zero id with the decode hop
    /// stamped. Overwrites the slot of any span 64 mints older.
    std::uint64_t mint(std::uint64_t stream, std::uint64_t seq);

    /// Stamp one hop. id 0 (unsampled frame) and stale ids are ignored.
    void hop(std::uint64_t span_id, SpanHop h);

    /// Close a span: synthesise stage timestamps from the pump hop plus
    /// `stage_dur_ns[0..n_stages)`, clamp the chain monotone, emit the
    /// JSONL record, free the slot. A null `stage_dur_ns` means nothing
    /// was timed: the record's stage list is empty.
    void complete(std::uint64_t span_id, const std::uint64_t* stage_dur_ns,
                  std::size_t n_stages);

    std::uint64_t minted() const;
    std::uint64_t completed() const;
    std::uint64_t abandoned() const;
    /// Copy of the most recent record (for tests and drills).
    std::string last_record() const;

private:
    struct Slot {
        std::uint64_t id = 0;  ///< 0 = free
        std::uint64_t stream = 0;
        std::uint64_t seq = 0;
        std::array<std::uint64_t, kSpanHops> hop_ns{};
    };

    mutable std::mutex mutex_;
    TraceSink* sink_;
    std::array<Slot, kSlots> slots_{};
    std::uint64_t next_id_ = 1;
    std::uint64_t minted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t abandoned_ = 0;
    std::string line_;         ///< reused emission scratch
    std::string last_record_;  ///< copy of the last emitted line
};

}  // namespace blinkradar::obs::telemetry
