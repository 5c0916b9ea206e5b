#include "core/postmortem.hpp"

#include <bit>
#include <memory>
#include <utility>

#include "core/bin_selection.hpp"
#include "core/pipeline.hpp"

namespace blinkradar::core {

namespace {

constexpr std::uint32_t kTagConfigs = state::make_tag("FRCF");
// v2 appended a frame-path byte, from the time the pipeline also ran a
// legacy scalar frame path: 0 = scalar, 1 = SoA, 2 = "auto" (resolved to
// SoA unless a process-wide override picked scalar). Dumps stored the
// caller's unresolved config, so every default-config dump carries 2.
// Only the SoA frame path remains. The byte is still written as 2, which
// keeps dumps byte-identical to those recorded before the scalar path
// was retired; 0 and v1 sections (only the scalar-only build wrote v1)
// are rejected.
constexpr std::uint16_t kConfigsVersion = 2;
constexpr std::uint8_t kScalarPathByte = 0;
constexpr std::uint8_t kAutoPathByte = 2;
// Two slots after noise_window_s held the retired motion-artifact veto
// correlation (>= 1.0 = off) and the motion-compensation flag. They are
// still written as their old "off" defaults, which keeps default-config
// dumps byte-identical to those recorded before both stages were
// removed; a dump that enabled either one cannot be replayed.
constexpr double kRetiredVetoOff = 1.5;
constexpr bool kRetiredCompensationOff = false;
// The FIR window was a PipelineConfig setting (0 = rectangular,
// 1 = Hamming, 2 = Hann, 3 = Blackman) and is now always Hamming; its
// slot still holds 1, and a dump recorded with another window cannot be
// replayed.
constexpr std::uint8_t kHammingWindowByte = 1;

/// Bit-pattern double equality: replay verification must distinguish
/// -0.0 from 0.0 and treat NaN == NaN (a repeated NaN is *correct*
/// reproduction), which operator== gets wrong on both counts.
bool bit_eq(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Read one enum byte, rejecting values past the enum's last
/// enumerator: a corrupt byte must fail the decode, not replay as a
/// configuration no build can produce.
template <typename Enum>
Enum read_enum(state::StateReader& reader, const char* field, Enum last) {
    const std::uint8_t v = reader.read_u8();
    if (v > static_cast<std::uint8_t>(last))
        throw state::SnapshotError("FRCF: " + std::string(field) + " byte " +
                                   std::to_string(v) + " is out of range");
    return static_cast<Enum>(v);
}

}  // namespace

void save_flight_configs(state::StateWriter& writer,
                         const radar::RadarConfig& radar,
                         const PipelineConfig& pipeline) {
    writer.begin_section(kTagConfigs, kConfigsVersion);

    writer.write_f64(radar.carrier_hz);
    writer.write_f64(radar.bandwidth_hz);
    writer.write_f64(radar.frame_period_s);
    writer.write_f64(radar.tx_amplitude);
    writer.write_f64(radar.max_range_m);
    writer.write_f64(radar.bin_spacing_m);
    writer.write_f64(radar.reference_range_m);
    writer.write_f64(radar.min_rolloff_range_m);
    writer.write_f64(radar.noise_sigma);
    writer.write_f64(radar.phase_noise_rad);

    writer.write_u64(pipeline.fir_order);
    writer.write_u8(kHammingWindowByte);
    writer.write_f64(pipeline.fir_cutoff_norm);
    writer.write_u64(pipeline.smooth_window_bins);
    writer.write_f64(pipeline.background_alpha);
    writer.write_u8(static_cast<std::uint8_t>(pipeline.selection_mode));
    writer.write_f64(pipeline.selection_min_range_m);
    writer.write_f64(pipeline.selection_max_range_m);
    writer.write_f64(pipeline.min_variance_factor);
    writer.write_u64(kTopCandidates);
    writer.write_u64(pipeline.selection_window_frames);
    writer.write_u8(static_cast<std::uint8_t>(pipeline.fit_method));
    writer.write_u64(pipeline.cold_start_frames);
    writer.write_u64(pipeline.fit_window_frames);
    writer.write_u64(pipeline.update_interval_frames);
    writer.write_u64(pipeline.reselect_interval_frames);
    writer.write_f64(pipeline.viewing_blend);
    writer.write_f64(pipeline.reselect_hysteresis);
    writer.write_u8(static_cast<std::uint8_t>(pipeline.waveform_mode));
    writer.write_f64(pipeline.threshold_sigma);
    writer.write_f64(pipeline.min_blink_s);
    writer.write_f64(pipeline.max_blink_s);
    writer.write_f64(pipeline.max_rise_s);
    writer.write_f64(pipeline.refractory_s);
    writer.write_f64(pipeline.noise_window_s);
    writer.write_f64(kRetiredVetoOff);
    writer.write_bool(kRetiredCompensationOff);
    writer.write_f64(pipeline.movement_threshold_factor);
    writer.write_f64(pipeline.movement_median_window_s);

    writer.write_bool(pipeline.guard.enabled);
    writer.write_f64(pipeline.guard.gap_tolerance_periods);
    writer.write_f64(pipeline.guard.max_bridge_gap_s);
    writer.write_f64(pipeline.guard.max_repair_fraction);
    writer.write_f64(pipeline.guard.health_window_s);
    writer.write_f64(pipeline.guard.degraded_fault_rate);
    writer.write_u64(pipeline.guard.lost_after_quarantines);

    writer.write_u8(kAutoPathByte);

    writer.end_section();
}

FlightConfigs load_flight_configs(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kTagConfigs);
    if (version > kConfigsVersion)
        throw state::SnapshotError(
            "FRCF: dump section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kConfigsVersion) + ")");
    if (version < 2)
        throw state::SnapshotError(
            "FRCF: v1 dump sections were recorded by the retired scalar "
            "frame path, which this build no longer runs");
    FlightConfigs c;

    c.radar.carrier_hz = reader.read_f64();
    c.radar.bandwidth_hz = reader.read_f64();
    c.radar.frame_period_s = reader.read_f64();
    c.radar.tx_amplitude = reader.read_f64();
    c.radar.max_range_m = reader.read_f64();
    c.radar.bin_spacing_m = reader.read_f64();
    c.radar.reference_range_m = reader.read_f64();
    c.radar.min_rolloff_range_m = reader.read_f64();
    c.radar.noise_sigma = reader.read_f64();
    c.radar.phase_noise_rad = reader.read_f64();

    c.pipeline.fir_order = reader.read_size();
    const std::uint8_t fir_window = reader.read_u8();
    if (fir_window != kHammingWindowByte)
        throw state::SnapshotError(
            "FRCF: dump was recorded with fir_window byte " +
            std::to_string(fir_window) + ", but this build's FIR window is "
            "fixed at Hamming (" + std::to_string(kHammingWindowByte) +
            ") and cannot replay it");
    c.pipeline.fir_cutoff_norm = reader.read_f64();
    c.pipeline.smooth_window_bins = reader.read_size();
    c.pipeline.background_alpha = reader.read_f64();
    c.pipeline.selection_mode =
        read_enum(reader, "selection_mode", BinSelectionMode::kMaxPower);
    c.pipeline.selection_min_range_m = reader.read_f64();
    c.pipeline.selection_max_range_m = reader.read_f64();
    c.pipeline.min_variance_factor = reader.read_f64();
    // The bin-selection cap was a PipelineConfig setting and is now the
    // constant kTopCandidates; a dump recorded with another cap cannot be
    // replayed.
    const std::size_t top_candidates = reader.read_size();
    if (top_candidates != kTopCandidates)
        throw state::SnapshotError(
            "FRCF: dump was recorded with top_candidates " +
            std::to_string(top_candidates) + ", but this build's selection "
            "cap is fixed at " + std::to_string(kTopCandidates) +
            " and cannot replay it");
    c.pipeline.selection_window_frames = reader.read_size();
    c.pipeline.fit_method =
        read_enum(reader, "fit_method", CircleFitMethod::kTaubin);
    c.pipeline.cold_start_frames = reader.read_size();
    c.pipeline.fit_window_frames = reader.read_size();
    c.pipeline.update_interval_frames = reader.read_size();
    c.pipeline.reselect_interval_frames = reader.read_size();
    c.pipeline.viewing_blend = reader.read_f64();
    c.pipeline.reselect_hysteresis = reader.read_f64();
    c.pipeline.waveform_mode =
        read_enum(reader, "waveform_mode", WaveformMode::kPhase);
    c.pipeline.threshold_sigma = reader.read_f64();
    c.pipeline.min_blink_s = reader.read_f64();
    c.pipeline.max_blink_s = reader.read_f64();
    c.pipeline.max_rise_s = reader.read_f64();
    c.pipeline.refractory_s = reader.read_f64();
    c.pipeline.noise_window_s = reader.read_f64();
    if (reader.read_f64() < 1.0)
        throw state::SnapshotError(
            "FRCF: dump was recorded with the retired motion-artifact veto "
            "enabled, which this build can no longer replay");
    if (reader.read_bool())
        throw state::SnapshotError(
            "FRCF: dump was recorded with the retired motion compensation "
            "enabled, which this build can no longer replay");
    c.pipeline.movement_threshold_factor = reader.read_f64();
    c.pipeline.movement_median_window_s = reader.read_f64();

    c.pipeline.guard.enabled = reader.read_bool();
    c.pipeline.guard.gap_tolerance_periods = reader.read_f64();
    c.pipeline.guard.max_bridge_gap_s = reader.read_f64();
    c.pipeline.guard.max_repair_fraction = reader.read_f64();
    c.pipeline.guard.health_window_s = reader.read_f64();
    c.pipeline.guard.degraded_fault_rate = reader.read_f64();
    c.pipeline.guard.lost_after_quarantines = reader.read_size();

    const std::uint8_t path = reader.read_u8();
    if (path == kScalarPathByte)
        throw state::SnapshotError(
            "FRCF: dump was recorded on the retired scalar frame path, "
            "which this build can no longer replay");
    if (path > kAutoPathByte)
        throw state::SnapshotError("FRCF: frame-path byte " +
                                   std::to_string(path) + " is out of range");

    reader.close_section();
    return c;
}

std::vector<std::uint8_t> make_flight_dump(const obs::FlightRecorder& recorder,
                                           const radar::RadarConfig& radar,
                                           const PipelineConfig& pipeline,
                                           std::string_view reason) {
    state::StateWriter writer;
    save_flight_configs(writer, radar, pipeline);
    recorder.dump(writer, reason);
    return writer.finish();
}

void write_flight_dump_file(const std::string& path,
                            const obs::FlightRecorder& recorder,
                            const radar::RadarConfig& radar,
                            const PipelineConfig& pipeline,
                            std::string_view reason) {
    state::write_snapshot_file(
        path, make_flight_dump(recorder, radar, pipeline, reason));
}

DecodedDump decode_dump(std::span<const std::uint8_t> bytes) {
    state::StateReader reader(bytes);
    DecodedDump dump;
    dump.configs = load_flight_configs(reader);
    dump.flight = obs::decode_flight_dump(reader);
    return dump;
}

DecodedDump read_flight_dump_file(const std::string& path) {
    return decode_dump(state::read_snapshot_file(path));
}

namespace {

/// One comparison; appends a mismatch record (capped) on divergence.
void check(ReplayReport& report, std::uint64_t seq, const char* field,
           double recorded, double replayed) {
    if (bit_eq(recorded, replayed)) return;
    ++report.mismatch_count;
    if (report.mismatches.size() < 16)
        report.mismatches.push_back(
            ReplayMismatch{seq, field, recorded, replayed});
}

void compare_tap(ReplayReport& report, const obs::FrameTap& tap,
                 const FrameResult& result, const BlinkRadarPipeline& pipe) {
    const std::uint64_t s = tap.seq;
    check(report, s, "waveform_value", tap.waveform, result.waveform_value);
    check(report, s, "quality", tap.verdict,
          static_cast<double>(static_cast<std::uint8_t>(result.quality)));
    check(report, s, "health", tap.health,
          static_cast<double>(static_cast<std::uint8_t>(result.health)));
    check(report, s, "cold_start", tap.cold_start ? 1.0 : 0.0,
          result.cold_start ? 1.0 : 0.0);
    check(report, s, "restarted", tap.restarted ? 1.0 : 0.0,
          result.restarted ? 1.0 : 0.0);
    check(report, s, "repaired_samples", tap.repaired_samples,
          result.repaired_samples);
    check(report, s, "bridged_frames", tap.bridged_frames,
          result.bridged_frames);
    check(report, s, "has_blink", tap.has_blink ? 1.0 : 0.0,
          result.blink ? 1.0 : 0.0);
    if (tap.has_blink && result.blink) {
        check(report, s, "blink.peak_s", tap.blink_peak_s,
              result.blink->peak_s);
        check(report, s, "blink.duration_s", tap.blink_duration_s,
              result.blink->duration_s);
        check(report, s, "blink.magnitude", tap.blink_magnitude,
              result.blink->magnitude);
        check(report, s, "blink.strength", tap.blink_strength,
              result.blink->strength);
    }
    const std::int64_t replayed_bin =
        pipe.selected_bin()
            ? static_cast<std::int64_t>(*pipe.selected_bin())
            : -1;
    check(report, s, "selected_bin", static_cast<double>(tap.selected_bin),
          static_cast<double>(replayed_bin));
}

}  // namespace

ReplayReport replay_flight_dump(const DecodedDump& dump) {
    ReplayReport report;
    const obs::FlightDump& flight = dump.flight;

    if (flight.raw.empty()) {
        report.note = "no raw frames captured: nothing was verified";
        return report;
    }

    const std::uint64_t oldest = flight.raw.front().seq;

    // Pick the replay base. A checkpoint labelled S is usable only if
    // every frame after it is still in the raw ring (S >= oldest-1); the
    // oldest such checkpoint verifies the most frames. When the ring
    // reaches back to frame 1 AND the owner never replaced pipeline
    // state from outside (no external checkpoints: uninterrupted run), a
    // cold-constructed pipeline is the ultimate base and covers
    // everything. With external checkpoints, an *evicted* one could mark
    // a state replacement (a Supervisor restore) the replay would walk
    // straight past — so only a retained checkpoint is a trustworthy
    // base, and replay re-bases at the other retained one on the way.
    const obs::FlightDump::Checkpoint* base = nullptr;
    if (oldest != 1 || flight.external_checkpoints) {
        for (const obs::FlightDump::Checkpoint& c : flight.checkpoints) {
            if (oldest == 1 || c.seq >= oldest - 1) {
                base = &c;
                break;
            }
        }
        if (base == nullptr) {
            report.note =
                flight.checkpoints.empty()
                    ? "no replay base: the dump carries no checkpoint that "
                      "reaches back to the captured frames"
                    : "no replay base: every checkpoint predates the oldest "
                      "captured frame";
            return report;
        }
    }

    const auto fresh_pipeline = [&] {
        return std::make_unique<BlinkRadarPipeline>(dump.configs.radar,
                                                    dump.configs.pipeline);
    };
    const auto restore_from = [&](const obs::FlightDump::Checkpoint& c) {
        std::unique_ptr<BlinkRadarPipeline> pipe = fresh_pipeline();
        state::StateReader reader(c.bytes);
        pipe->restore_state(reader);
        return pipe;
    };

    std::unique_ptr<BlinkRadarPipeline> pipe;
    std::uint64_t base_seq = 0;
    try {
        if (base != nullptr) {
            pipe = restore_from(*base);
            base_seq = base->seq;
        } else {
            pipe = fresh_pipeline();
            report.from_cold = true;
        }
    } catch (const std::exception& e) {
        // A damaged checkpoint (SnapshotError) or configs that fail the
        // pipeline's preconditions (ContractViolation): either way there
        // is no base to replay from.
        report.note = std::string("replay base rejected: ") + e.what();
        return report;
    }
    report.base_seq = base_seq;

    // Walk taps and checkpoints in lockstep with the raw frames (all
    // three are sorted by seq).
    std::size_t tap_i = 0;
    std::size_t ckpt_i = 0;

    for (const obs::FlightDump::RawFrame& raw : flight.raw) {
        if (raw.seq <= base_seq) continue;

        // Re-base wherever the live pipeline's state was replaced or
        // checkpointed: a checkpoint labelled raw.seq-1 is the state in
        // effect before this frame. Self-checkpoints re-base onto what
        // the resume contract guarantees is the identical state; the
        // Supervisor's post-restore checkpoints re-base onto the restored
        // state, reproducing the recovery exactly.
        while (ckpt_i < flight.checkpoints.size() &&
               flight.checkpoints[ckpt_i].seq < raw.seq) {
            const obs::FlightDump::Checkpoint& c = flight.checkpoints[ckpt_i];
            ++ckpt_i;
            if (c.seq != raw.seq - 1 || c.seq <= base_seq) continue;
            try {
                pipe = restore_from(c);
                base_seq = c.seq;
                ++report.rebases;
            } catch (const state::SnapshotError& e) {
                report.note =
                    std::string("checkpoint at seq ") + std::to_string(c.seq) +
                    " rejected during replay: " + e.what();
                return report;
            }
        }

        FrameResult result;
        bool faulted = false;
        try {
            result = pipe->process(raw.frame);
        } catch (const std::exception&) {
            // The incident pipeline may have thrown here too (that is
            // often why the dump exists); the recorded timeline shows
            // whether it did — a crash frame has no tap.
            ++report.replay_faults;
            faulted = true;
        }
        ++report.frames_replayed;

        while (tap_i < flight.taps.size() && flight.taps[tap_i].seq < raw.seq)
            ++tap_i;
        const bool have_tap =
            tap_i < flight.taps.size() && flight.taps[tap_i].seq == raw.seq;
        if (!have_tap) {
            ++report.taps_missing;
            continue;
        }
        if (faulted) {
            // Recorded tap says the frame completed; replay crashed.
            ++report.mismatch_count;
            if (report.mismatches.size() < 16)
                report.mismatches.push_back(
                    ReplayMismatch{raw.seq, "replay_fault", 0.0, 1.0});
            continue;
        }
        compare_tap(report, flight.taps[tap_i], result, *pipe);
        ++report.taps_compared;
    }

    if (report.mismatch_count != 0) {
        report.note = std::to_string(report.mismatch_count) +
                      " field(s) diverged from the recorded taps";
    } else if (report.taps_compared == 0) {
        // A base that covers the ring but leaves no tap to compare (e.g.
        // the newest checkpoint is the newest frame) proves nothing.
        report.note = "no recorded tap was compared: nothing was verified";
    } else {
        report.ok = true;
        report.note =
            "replay verified: every recorded tap reproduced bit-identically";
    }
    return report;
}

}  // namespace blinkradar::core
