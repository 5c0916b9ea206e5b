#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace blinkradar::obs {

namespace {

// Dump sections. "BRFR" is the directory entry (reason + cursor); the
// "FR**" sections hold one ring each so a reader can skip what it does
// not need and a future writer can add rings without a format break.
constexpr std::uint32_t kTagHeader = state::make_tag("BRFR");
constexpr std::uint32_t kTagRaw = state::make_tag("FRRW");
constexpr std::uint32_t kTagTaps = state::make_tag("FRTP");
constexpr std::uint32_t kTagEvents = state::make_tag("FREV");
constexpr std::uint32_t kTagMetrics = state::make_tag("FRMS");
constexpr std::uint32_t kTagProfiles = state::make_tag("FRPF");
constexpr std::uint32_t kTagCheckpoints = state::make_tag("FRCK");
constexpr std::uint16_t kSectionVersion = 1;

void check_version(const char* section, std::uint16_t version) {
    if (version > kSectionVersion)
        throw state::SnapshotError(
            std::string("flight dump: section ") + section + " version " +
            std::to_string(version) + " is newer than this reader (max " +
            std::to_string(kSectionVersion) + ")");
}

void write_tap(state::StateWriter& w, const FrameTap& tap) {
    w.write_u64(tap.seq);
    w.write_f64(tap.t);
    w.write_u8(tap.verdict);
    w.write_u8(tap.health);
    w.write_bool(tap.cold_start);
    w.write_bool(tap.restarted);
    w.write_bool(tap.has_blink);
    w.write_i64(tap.selected_bin);
    w.write_complex(tap.bin_iq);
    w.write_f64(tap.fit_cx);
    w.write_f64(tap.fit_cy);
    w.write_f64(tap.fit_radius);
    w.write_f64(tap.fit_residual);
    w.write_f64(tap.waveform);
    w.write_f64(tap.levd_threshold);
    w.write_f64(tap.levd_sigma);
    w.write_f64(tap.blink_peak_s);
    w.write_f64(tap.blink_duration_s);
    w.write_f64(tap.blink_magnitude);
    w.write_f64(tap.blink_strength);
    w.write_u32(tap.repaired_samples);
    w.write_u32(tap.bridged_frames);
}

FrameTap read_tap(state::StateReader& r) {
    FrameTap tap;
    tap.seq = r.read_u64();
    tap.t = r.read_f64();
    tap.verdict = r.read_u8();
    tap.health = r.read_u8();
    tap.cold_start = r.read_bool();
    tap.restarted = r.read_bool();
    tap.has_blink = r.read_bool();
    tap.selected_bin = r.read_i64();
    tap.bin_iq = r.read_complex();
    tap.fit_cx = r.read_f64();
    tap.fit_cy = r.read_f64();
    tap.fit_radius = r.read_f64();
    tap.fit_residual = r.read_f64();
    tap.waveform = r.read_f64();
    tap.levd_threshold = r.read_f64();
    tap.levd_sigma = r.read_f64();
    tap.blink_peak_s = r.read_f64();
    tap.blink_duration_s = r.read_f64();
    tap.blink_magnitude = r.read_f64();
    tap.blink_strength = r.read_f64();
    tap.repaired_samples = r.read_u32();
    tap.bridged_frames = r.read_u32();
    return tap;
}

void write_metrics_snap(state::StateWriter& w, const MetricsSnap& m) {
    w.write_u64(m.seq);
    w.write_f64(m.t);
    w.write_u64(m.frames);
    w.write_u64(m.blinks);
    w.write_u64(m.restarts);
    w.write_u64(m.quarantined);
    w.write_u64(m.repaired);
    w.write_u64(m.bridged);
    w.write_u64(m.gaps);
    w.write_u64(m.signal_losses);
    w.write_u64(m.warm_restarts);
    w.write_f64(m.fault_rate);
    w.write_f64(m.levd_threshold);
    w.write_f64(m.levd_sigma);
}

MetricsSnap read_metrics_snap(state::StateReader& r) {
    MetricsSnap m;
    m.seq = r.read_u64();
    m.t = r.read_f64();
    m.frames = r.read_u64();
    m.blinks = r.read_u64();
    m.restarts = r.read_u64();
    m.quarantined = r.read_u64();
    m.repaired = r.read_u64();
    m.bridged = r.read_u64();
    m.gaps = r.read_u64();
    m.signal_losses = r.read_u64();
    m.warm_restarts = r.read_u64();
    m.fault_rate = r.read_f64();
    m.levd_threshold = r.read_f64();
    m.levd_sigma = r.read_f64();
    return m;
}

}  // namespace

const char* to_string(RecorderEvent type) noexcept {
    switch (type) {
        case RecorderEvent::kHealthTransition: return "health_transition";
        case RecorderEvent::kMovementRestart: return "movement_restart";
        case RecorderEvent::kBinSwitch: return "bin_switch";
        case RecorderEvent::kBlink: return "blink";
        case RecorderEvent::kCheckpoint: return "checkpoint";
        case RecorderEvent::kSupervisorFault: return "supervisor_fault";
        case RecorderEvent::kSupervisorRetry: return "supervisor_retry";
        case RecorderEvent::kSupervisorWarmRestore:
            return "supervisor_warm_restore";
        case RecorderEvent::kSupervisorColdRestart:
            return "supervisor_cold_restart";
        case RecorderEvent::kSupervisorBackoff: return "supervisor_backoff";
        case RecorderEvent::kSupervisorStall: return "supervisor_stall";
        case RecorderEvent::kDump: return "dump";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(config) {
    BR_EXPECTS(config_.raw_ring_frames >= 1);
    BR_EXPECTS(config_.tap_ring_frames >= 1);
    BR_EXPECTS(config_.event_ring >= 1);
    BR_EXPECTS(config_.profile_ring >= 1);
    BR_EXPECTS(config_.profile_interval_frames >= 1);
    BR_EXPECTS(config_.metrics_ring >= 1);
    BR_EXPECTS(config_.metrics_interval_frames >= 1);
    // Replay invariant: with self-checkpoints every K frames and the two
    // newest kept, the older one is at most 2K-1 frames behind the head,
    // so 2K <= raw ring depth guarantees a base at or before the oldest
    // raw frame still in the ring (dumps stay fully replayable).
    BR_EXPECTS(config_.checkpoint_interval_frames == 0 ||
               config_.checkpoint_interval_frames * 2 <=
                   config_.raw_ring_frames);
    raw_.reset_capacity(config_.raw_ring_frames);
    taps_.reset_capacity(config_.tap_ring_frames);
    events_.reset_capacity(config_.event_ring);
    profiles_.reset_capacity(config_.profile_ring);
    metrics_.reset_capacity(config_.metrics_ring);
}

std::uint64_t FlightRecorder::begin_frame(const radar::RadarFrame& frame) {
    ++seq_;
    RawSlot& slot = raw_.emplace_slot();
    slot.seq = seq_;
    slot.t = frame.timestamp_s;
    slot.bins.assign(frame.bins.begin(), frame.bins.end());
    profile_pending_ = (seq_ - 1) % config_.profile_interval_frames == 0;
    return seq_;
}

void FlightRecorder::tap_profiles(std::span<const dsp::Complex> pre,
                                  std::span<const dsp::Complex> sub) {
    if (!profile_pending_) return;
    profile_pending_ = false;
    ProfileSlot& slot = profiles_.emplace_slot();
    slot.seq = seq_;
    slot.pre.assign(pre.begin(), pre.end());
    slot.sub.assign(sub.begin(), sub.end());
}

void FlightRecorder::end_frame(const FrameTap& tap) {
    BR_EXPECTS(tap.seq == seq_);
    taps_.emplace_slot() = tap;
    profile_pending_ = false;
    metrics_pending_ = seq_ % config_.metrics_interval_frames == 0;
}

bool FlightRecorder::metrics_due() const noexcept {
    return metrics_pending_;
}

void FlightRecorder::record_metrics(const MetricsSnap& snap) {
    metrics_pending_ = false;
    metrics_.emplace_slot() = snap;
}

void FlightRecorder::record_event(RecorderEvent type, double t, double a,
                                  double b) {
    TapEvent& ev = events_.emplace_slot();
    ev.seq = seq_;
    ev.t = t;
    ev.type = static_cast<std::uint8_t>(type);
    ev.a = a;
    ev.b = b;
}

bool FlightRecorder::checkpoint_due() const noexcept {
    return config_.checkpoint_interval_frames != 0 && seq_ != 0 &&
           seq_ % config_.checkpoint_interval_frames == 0;
}

std::vector<std::uint8_t> FlightRecorder::take_checkpoint_buffer() noexcept {
    return std::move(spare_checkpoint_buf_);
}

FlightRecorder::CheckpointSlot&
FlightRecorder::claim_checkpoint_slot() noexcept {
    CheckpointSlot& newest = checkpoints_[(next_checkpoint_ + 1) % 2];
    if (newest.valid && newest.seq == seq_) return newest;
    CheckpointSlot& slot = checkpoints_[next_checkpoint_];
    next_checkpoint_ = (next_checkpoint_ + 1) % 2;
    return slot;
}

void FlightRecorder::store_checkpoint(std::vector<std::uint8_t>&& bytes) {
    CheckpointSlot& slot = claim_checkpoint_slot();
    // The replaced slot's buffer becomes the next spare: the three
    // buffers (two slots + spare) round-robin, so once each has grown to
    // the serialized-state size, checkpointing stops allocating.
    spare_checkpoint_buf_ = std::move(slot.bytes);
    slot.bytes = std::move(bytes);
    slot.seq = seq_;
    slot.valid = true;
    slot.sealed = false;  // CRCs deferred; dump() seals on the way out
    record_event(RecorderEvent::kCheckpoint, raw_.empty() ? 0.0 : raw_.back().t,
                 static_cast<double>(slot.bytes.size()));
}

void FlightRecorder::note_checkpoint(std::span<const std::uint8_t> bytes) {
    external_checkpoints_ = true;
    CheckpointSlot& slot = claim_checkpoint_slot();
    slot.bytes.assign(bytes.begin(), bytes.end());
    slot.seq = seq_;
    slot.valid = true;
    slot.sealed = true;  // external snapshots carry their CRCs already
    record_event(RecorderEvent::kCheckpoint, raw_.empty() ? 0.0 : raw_.back().t,
                 static_cast<double>(slot.bytes.size()));
}

void FlightRecorder::clear() {
    seq_ = 0;
    profile_pending_ = false;
    metrics_pending_ = false;
    raw_.clear();
    taps_.clear();
    events_.clear();
    profiles_.clear();
    metrics_.clear();
    for (CheckpointSlot& slot : checkpoints_) slot.valid = false;
    next_checkpoint_ = 0;
    external_checkpoints_ = false;
}

void FlightRecorder::dump(state::StateWriter& writer,
                          std::string_view reason) const {
    writer.begin_section(kTagHeader, kSectionVersion);
    writer.write_u8_span({reinterpret_cast<const std::uint8_t*>(reason.data()),
                          reason.size()});
    writer.write_u64(seq_);
    writer.write_bool(external_checkpoints_);
    writer.end_section();

    writer.begin_section(kTagRaw, kSectionVersion);
    writer.write_u64(raw_.size());
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        const RawSlot& slot = raw_[i];
        writer.write_u64(slot.seq);
        writer.write_f64(slot.t);
        writer.write_complex_span(slot.bins);
    }
    writer.end_section();

    writer.begin_section(kTagTaps, kSectionVersion);
    writer.write_u64(taps_.size());
    for (std::size_t i = 0; i < taps_.size(); ++i) write_tap(writer, taps_[i]);
    writer.end_section();

    writer.begin_section(kTagEvents, kSectionVersion);
    writer.write_u64(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const TapEvent& ev = events_[i];
        writer.write_u64(ev.seq);
        writer.write_f64(ev.t);
        writer.write_u8(ev.type);
        writer.write_f64(ev.a);
        writer.write_f64(ev.b);
    }
    writer.end_section();

    writer.begin_section(kTagMetrics, kSectionVersion);
    writer.write_u64(metrics_.size());
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        write_metrics_snap(writer, metrics_[i]);
    writer.end_section();

    writer.begin_section(kTagProfiles, kSectionVersion);
    writer.write_u64(profiles_.size());
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
        const ProfileSlot& slot = profiles_[i];
        writer.write_u64(slot.seq);
        writer.write_complex_span(slot.pre);
        writer.write_complex_span(slot.sub);
    }
    writer.end_section();

    // Oldest checkpoint first, matching every other ring's ordering.
    writer.begin_section(kTagCheckpoints, kSectionVersion);
    const CheckpointSlot* ordered[2] = {nullptr, nullptr};
    std::size_t n_ckpt = 0;
    for (const CheckpointSlot& slot : checkpoints_)
        if (slot.valid) ordered[n_ckpt++] = &slot;
    if (n_ckpt == 2 && ordered[0]->seq > ordered[1]->seq)
        std::swap(ordered[0], ordered[1]);
    writer.write_u64(n_ckpt);
    std::vector<std::uint8_t> sealed_copy;
    for (std::size_t i = 0; i < n_ckpt; ++i) {
        writer.write_u64(ordered[i]->seq);
        if (ordered[i]->sealed) {
            writer.write_u8_span(ordered[i]->bytes);
        } else {
            // Self-checkpoints defer their section CRCs at capture time
            // (the checksum dominates serialisation cost); pay for them
            // here, on the rare dump, against a scratch copy so dump()
            // stays const and the live slot is untouched.
            sealed_copy = ordered[i]->bytes;
            state::seal_section_crcs(sealed_copy);
            writer.write_u8_span(sealed_copy);
        }
    }
    writer.end_section();
}

FlightDump decode_flight_dump(state::StateReader& reader) {
    FlightDump dump;

    dump.version = reader.open_section(kTagHeader);
    check_version("BRFR", dump.version);
    std::vector<std::uint8_t> reason_bytes;
    reader.read_u8_into(reason_bytes);
    dump.reason.assign(reason_bytes.begin(), reason_bytes.end());
    dump.seq_at_dump = reader.read_u64();
    dump.external_checkpoints = reader.read_bool();
    reader.close_section();

    check_version("FRRW", reader.open_section(kTagRaw));
    const std::size_t n_raw = reader.read_size();
    dump.raw.reserve(n_raw);
    for (std::size_t i = 0; i < n_raw; ++i) {
        FlightDump::RawFrame raw;
        raw.seq = reader.read_u64();
        raw.frame.timestamp_s = reader.read_f64();
        reader.read_complex_into(raw.frame.bins);
        if (i > 0 && raw.seq != dump.raw.back().seq + 1)
            throw state::SnapshotError(
                "flight dump: raw frame sequence not contiguous (" +
                std::to_string(dump.raw.back().seq) + " followed by " +
                std::to_string(raw.seq) + ")");
        dump.raw.push_back(std::move(raw));
    }
    reader.close_section();

    check_version("FRTP", reader.open_section(kTagTaps));
    const std::size_t n_taps = reader.read_size();
    dump.taps.reserve(n_taps);
    for (std::size_t i = 0; i < n_taps; ++i) {
        FrameTap tap = read_tap(reader);
        if (i > 0 && tap.seq <= dump.taps.back().seq)
            throw state::SnapshotError(
                "flight dump: tap sequence not increasing at index " +
                std::to_string(i));
        dump.taps.push_back(tap);
    }
    reader.close_section();

    check_version("FREV", reader.open_section(kTagEvents));
    const std::size_t n_events = reader.read_size();
    dump.events.reserve(n_events);
    for (std::size_t i = 0; i < n_events; ++i) {
        TapEvent ev;
        ev.seq = reader.read_u64();
        ev.t = reader.read_f64();
        ev.type = reader.read_u8();
        ev.a = reader.read_f64();
        ev.b = reader.read_f64();
        dump.events.push_back(ev);
    }
    reader.close_section();

    check_version("FRMS", reader.open_section(kTagMetrics));
    const std::size_t n_metrics = reader.read_size();
    dump.metrics.reserve(n_metrics);
    for (std::size_t i = 0; i < n_metrics; ++i)
        dump.metrics.push_back(read_metrics_snap(reader));
    reader.close_section();

    check_version("FRPF", reader.open_section(kTagProfiles));
    const std::size_t n_profiles = reader.read_size();
    dump.profiles.reserve(n_profiles);
    for (std::size_t i = 0; i < n_profiles; ++i) {
        FlightDump::ProfileTap profile;
        profile.seq = reader.read_u64();
        reader.read_complex_into(profile.pre);
        reader.read_complex_into(profile.sub);
        dump.profiles.push_back(std::move(profile));
    }
    reader.close_section();

    check_version("FRCK", reader.open_section(kTagCheckpoints));
    const std::size_t n_ckpt = reader.read_size();
    if (n_ckpt > 2)
        throw state::SnapshotError(
            "flight dump: checkpoint count " + std::to_string(n_ckpt) +
            " exceeds the two retained slots");
    for (std::size_t i = 0; i < n_ckpt; ++i) {
        FlightDump::Checkpoint ckpt;
        ckpt.seq = reader.read_u64();
        reader.read_u8_into(ckpt.bytes);
        if (i > 0 && ckpt.seq < dump.checkpoints.back().seq)
            throw state::SnapshotError(
                "flight dump: checkpoints out of order");
        dump.checkpoints.push_back(std::move(ckpt));
    }
    reader.close_section();

    return dump;
}

}  // namespace blinkradar::obs
