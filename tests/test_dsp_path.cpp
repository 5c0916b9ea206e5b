// The pipeline's one (structure-of-arrays) frame path: snapshot/resume
// bit-exactness, rejection of snapshots and flight dumps written by the
// retired scalar frame path (PIPE/FRCF v1, or frame-path byte 0), and
// wire-format equality of the SoA snapshot serialization.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "core/postmortem.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::core {
namespace {

sim::ScenarioConfig reference_scenario(std::uint64_t seed,
                                       Seconds duration = 30.0) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

void expect_bitwise_eq(double a, double b, const char* what,
                       std::size_t frame) {
    std::uint64_t ab = 0, bb = 0;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ab, bb) << what << " diverged at replay frame " << frame
                      << ": " << a << " vs " << b;
}

void expect_identical(const FrameResult& a, const FrameResult& b,
                      std::size_t frame) {
    ASSERT_EQ(a.blink.has_value(), b.blink.has_value())
        << "blink presence diverged at replay frame " << frame;
    if (a.blink) {
        expect_bitwise_eq(a.blink->peak_s, b.blink->peak_s, "blink.peak_s",
                          frame);
        expect_bitwise_eq(a.blink->magnitude, b.blink->magnitude,
                          "blink.magnitude", frame);
    }
    EXPECT_EQ(a.restarted, b.restarted) << "at replay frame " << frame;
    EXPECT_EQ(a.cold_start, b.cold_start) << "at replay frame " << frame;
    expect_bitwise_eq(a.waveform_value, b.waveform_value, "waveform_value",
                      frame);
    EXPECT_EQ(a.health, b.health) << "at replay frame " << frame;
}

std::vector<std::uint8_t> snapshot_of(const BlinkRadarPipeline& pipe) {
    state::StateWriter writer;
    pipe.save_state(writer);
    return writer.finish();
}

/// test_resume-style drill: process [0, split), snapshot, restore into
/// a fresh pipeline, replay the tail on both and require byte-identical
/// results.
void run_resume_drill(std::size_t split) {
    const sim::SimulatedSession s =
        simulate_session(reference_scenario(7, 30.0));
    const PipelineConfig config;
    ASSERT_LT(split, s.frames.size());

    BlinkRadarPipeline original(s.radar, config);
    for (std::size_t i = 0; i < split; ++i) original.process(s.frames[i]);

    const std::vector<std::uint8_t> bytes = snapshot_of(original);
    BlinkRadarPipeline restored(s.radar, config);
    {
        state::StateReader reader(bytes);
        restored.restore_state(reader);
    }

    for (std::size_t i = split; i < s.frames.size(); ++i) {
        const FrameResult a = original.process(s.frames[i]);
        const FrameResult b = restored.process(s.frames[i]);
        expect_identical(a, b, i);
    }
    ASSERT_EQ(original.blinks().size(), restored.blinks().size());
    EXPECT_EQ(original.selected_bin(), restored.selected_bin());
}

TEST(DspPath, SimdSnapshotsRestoreBitIdentically) {
    // Splits inside cold start, right after bin selection, and deep in
    // steady state (SoA window ring partially evicted).
    for (const std::size_t split : {20u, 70u, 600u}) {
        SCOPED_TRACE("split=" + std::to_string(split));
        run_resume_drill(split);
    }
}

/// Assert that `fn` throws a SnapshotError whose message names the
/// retired scalar frame path.
template <typename Fn>
void expect_retired_scalar_rejection(Fn fn) {
    try {
        fn();
        ADD_FAILURE() << "retired scalar-path bytes were accepted";
    } catch (const state::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("scalar"), std::string::npos)
            << e.what();
    }
}

TEST(DspPath, RetiredScalarPathSnapshotIsRejected) {
    const radar::RadarConfig radar;
    const std::uint32_t tag = state::make_tag("PIPE");
    const auto restore = [&](const std::vector<std::uint8_t>& bytes) {
        BlinkRadarPipeline target(radar);
        state::StateReader reader(bytes);
        target.restore_state(reader);
    };
    {
        // PIPE v2 fingerprint carrying the scalar frame-path byte (0).
        state::StateWriter writer;
        writer.begin_section(tag, 2);
        writer.write_size(radar.n_bins());
        writer.write_f64(radar.frame_rate_hz());
        writer.write_u8(static_cast<std::uint8_t>(WaveformMode::kArcDistance));
        writer.write_u8(0);
        writer.end_section();
        const std::vector<std::uint8_t> bytes = writer.finish();
        expect_retired_scalar_rejection([&] { restore(bytes); });
    }
    {
        // PIPE v1: only the scalar-only build ever wrote it.
        state::StateWriter writer;
        writer.begin_section(tag, 1);
        writer.write_size(radar.n_bins());
        writer.write_f64(radar.frame_rate_hz());
        writer.write_u8(static_cast<std::uint8_t>(WaveformMode::kArcDistance));
        writer.end_section();
        const std::vector<std::uint8_t> bytes = writer.finish();
        expect_retired_scalar_rejection([&] { restore(bytes); });
    }
}

TEST(DspPath, RetiredScalarPathDumpIsRejected) {
    const radar::RadarConfig radar;
    const auto load = [](const std::vector<std::uint8_t>& bytes) {
        state::StateReader reader(bytes);
        return load_flight_configs(reader);
    };
    {
        // A real FRCF v2 section with its trailing frame-path byte (the
        // last payload byte, just before the section CRC) rewritten and
        // the CRC re-sealed, so only the byte differs. Earlier builds
        // wrote 2 ("auto", resolved to SoA) or 1 (SoA): both decode.
        state::StateWriter writer;
        writer.defer_crcs();
        save_flight_configs(writer, radar, PipelineConfig{});
        const std::vector<std::uint8_t> written = writer.finish();
        const std::size_t path_byte = written.size() - 5;
        EXPECT_EQ(written[path_byte], 2);
        const auto with_path = [&](std::uint8_t path) {
            std::vector<std::uint8_t> bytes = written;
            bytes[path_byte] = path;
            state::seal_section_crcs(bytes);
            return bytes;
        };
        EXPECT_NO_THROW(load(with_path(2)));
        EXPECT_NO_THROW(load(with_path(1)));
        expect_retired_scalar_rejection([&] { load(with_path(0)); });
        EXPECT_THROW(load(with_path(3)), state::SnapshotError);
    }
    {
        // FRCF v1: only the scalar-only build ever wrote it.
        state::StateWriter writer;
        writer.begin_section(state::make_tag("FRCF"), 1);
        writer.write_f64(radar.carrier_hz);
        writer.end_section();
        const std::vector<std::uint8_t> bytes = writer.finish();
        expect_retired_scalar_rejection([&] { load(bytes); });
    }
}

TEST(DspPath, PlanesSerializationMatchesComplexSpanBytes) {
    Rng rng(5);
    for (const std::size_t n : {0u, 1u, 5u, 151u}) {
        dsp::ComplexSignal aos(n);
        std::vector<double> re(n), im(n);
        for (std::size_t j = 0; j < n; ++j) {
            re[j] = rng.normal(0.0, 1.0);
            im[j] = rng.normal(0.0, 1.0);
            aos[j] = dsp::Complex(re[j], im[j]);
        }
        const std::uint32_t tag = state::make_tag("TEST");
        state::StateWriter wa;
        wa.begin_section(tag, 1);
        wa.write_complex_span(aos);
        wa.end_section();
        state::StateWriter wb;
        wb.begin_section(tag, 1);
        wb.write_complex_planes(re, im);
        wb.end_section();
        const std::vector<std::uint8_t> ba = wa.finish();
        const std::vector<std::uint8_t> bb = wb.finish();
        ASSERT_EQ(ba, bb) << "wire bytes differ at n=" << n;

        // And the SoA reader deinterleaves the complex-span bytes.
        state::StateReader reader(ba);
        ASSERT_EQ(reader.open_section(tag), 1);
        std::vector<double> re2, im2;
        reader.read_complex_planes_into(re2, im2);
        ASSERT_EQ(re2.size(), n);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(re[j], re2[j]);
            EXPECT_EQ(im[j], im2[j]);
        }
    }
}

}  // namespace
}  // namespace blinkradar::core
