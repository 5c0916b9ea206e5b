#include "obs/telemetry/span.hpp"

#include <algorithm>
#include <charconv>

#include "common/contracts.hpp"
#include "obs/stage_timer.hpp"

namespace blinkradar::obs::telemetry {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    BR_ASSERT(ec == std::errc());
    out.append(buf, end);
}

}  // namespace

SpanCollector::SpanCollector(TraceSink* sink) : sink_(sink) {
    line_.reserve(256);
}

std::uint64_t SpanCollector::mint(std::uint64_t stream, std::uint64_t seq) {
    const std::uint64_t now = detail::steady_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = next_id_++;
    Slot& s = slots_[id % kSlots];
    if (s.id != 0) ++abandoned_;
    s.id = id;
    s.stream = stream;
    s.seq = seq;
    s.hop_ns.fill(0);
    s.hop_ns[static_cast<std::size_t>(SpanHop::kDecode)] = now;
    ++minted_;
    return id;
}

void SpanCollector::hop(std::uint64_t span_id, SpanHop h) {
    if (span_id == 0) return;
    const std::uint64_t now = detail::steady_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& s = slots_[span_id % kSlots];
    if (s.id != span_id) return;
    s.hop_ns[static_cast<std::size_t>(h)] = now;
}

void SpanCollector::complete(std::uint64_t span_id,
                             const std::uint64_t* stage_dur_ns,
                             std::size_t n_stages) {
    if (span_id == 0) return;
    const std::uint64_t now = detail::steady_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& s = slots_[span_id % kSlots];
    if (s.id != span_id) return;
    n_stages = stage_dur_ns == nullptr ? 0 : std::min(n_stages, kMaxStages);

    // Clamp the hop chain monotone; a hop that was never stamped (its
    // leg was skipped) inherits its predecessor's time.
    std::array<std::uint64_t, kSpanHops> hops = s.hop_ns;
    for (std::size_t i = 1; i < kSpanHops; ++i)
        hops[i] = std::max(hops[i], hops[i - 1]);

    // Stage-end timestamps: pump start plus cumulative measured stage
    // durations (monotone by construction, durations being unsigned).
    std::uint64_t t = hops[static_cast<std::size_t>(SpanHop::kPump)];
    line_.clear();
    line_ += "{\"span\":";
    append_u64(line_, span_id);
    line_ += ",\"stream\":";
    append_u64(line_, s.stream);
    line_ += ",\"seq\":";
    append_u64(line_, s.seq);
    line_ += ",\"decode_ns\":";
    append_u64(line_, hops[0]);
    line_ += ",\"enqueue_ns\":";
    append_u64(line_, hops[1]);
    line_ += ",\"admit_ns\":";
    append_u64(line_, hops[2]);
    line_ += ",\"pump_ns\":";
    append_u64(line_, hops[3]);
    line_ += ",\"stage_ns\":[";
    for (std::size_t i = 0; i < n_stages; ++i) {
        if (i != 0) line_ += ',';
        t += stage_dur_ns[i];
        append_u64(line_, t);
    }
    line_ += "],\"result_ns\":";
    append_u64(line_, std::max(t, now));
    line_ += '}';

    if (sink_ != nullptr) sink_->write_line(line_);
    last_record_ = line_;
    s.id = 0;
    ++completed_;
}

std::uint64_t SpanCollector::minted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return minted_;
}

std::uint64_t SpanCollector::completed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

std::uint64_t SpanCollector::abandoned() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return abandoned_;
}

std::string SpanCollector::last_record() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_record_;
}

}  // namespace blinkradar::obs::telemetry
