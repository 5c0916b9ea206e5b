// Ingest front-end coverage: "BRWF" wire round-trip and corruption
// tolerance (fuzz sweeps that must never throw past the stream
// boundary), per-stream backpressure determinism across shard/thread
// sweeps, the ready-set schedule of signalling BytePipe streams (tick
// for tick against pinned reconnect ticks), admission control, stall
// watchdogs, and the overload drill — producers at 4x the sustainable
// rate must engage the shed ladder in its documented order without
// losing a frame silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "fleet/fleet_engine.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frame_queue.hpp"
#include "ingest/frontend.hpp"
#include "ingest/wire_fault.hpp"
#include "ingest/wire_format.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "obs/trace.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

namespace blinkradar {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kStreamHeaderBytes = 8;
constexpr std::size_t kHelloRecordBytes = 20 + 88 + 4;

std::size_t frame_record_bytes(std::size_t n_bins) {
    return 20 + (12 + 16 * n_bins) + 4;
}

sim::ScenarioConfig ingest_scenario(std::uint64_t seed, Seconds duration) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

std::vector<sim::SimulatedSession> make_sessions(std::size_t n,
                                                 Seconds duration) {
    std::vector<sim::SimulatedSession> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(
            sim::simulate_session(ingest_scenario(500 + i, duration)));
    return out;
}

std::vector<std::uint8_t> encode(const sim::SimulatedSession& sim,
                                 std::uint64_t tag) {
    ingest::WireHello hello;
    hello.radar = sim.radar;
    hello.stream_tag = tag;
    return ingest::WireEncoder::encode_session(hello, sim.frames);
}

void expect_frames_bit_exact(const radar::RadarFrame& a,
                             const radar::RadarFrame& b) {
    EXPECT_EQ(a.timestamp_s, b.timestamp_s);
    ASSERT_EQ(a.bins.size(), b.bins.size());
    for (std::size_t i = 0; i < a.bins.size(); ++i) {
        EXPECT_EQ(a.bins[i].real(), b.bins[i].real());
        EXPECT_EQ(a.bins[i].imag(), b.bins[i].imag());
    }
}

/// Decode everything a byte vector holds, pushing in `chunk`-sized
/// slices. Returns the decoded frames.
radar::FrameSeries decode_all(ingest::WireDecoder& dec,
                              const std::vector<std::uint8_t>& bytes,
                              std::size_t chunk = 4096) {
    radar::FrameSeries frames;
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
        const std::size_t n = std::min(chunk, bytes.size() - off);
        dec.push({bytes.data() + off, n});
        while (auto rec = dec.next())
            if (rec->type == ingest::RecordType::kFrame)
                frames.push_back(std::move(rec->frame));
    }
    return frames;
}

// ------------------------------------------------------------ wire format

TEST(IngestWire, RoundTripIsBitExactAtAnyChunkSize) {
    const auto sims = make_sessions(1, 2.0);
    const auto bytes = encode(sims[0], 77);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4096}}) {
        ingest::WireDecoder dec;
        const radar::FrameSeries frames = decode_all(dec, bytes, chunk);
        ASSERT_EQ(frames.size(), sims[0].frames.size()) << "chunk=" << chunk;
        for (std::size_t i = 0; i < frames.size(); ++i)
            expect_frames_bit_exact(frames[i], sims[0].frames[i]);

        ASSERT_TRUE(dec.has_hello());
        EXPECT_EQ(dec.hello().stream_tag, 77u);
        EXPECT_EQ(dec.hello().radar.carrier_hz, sims[0].radar.carrier_hz);
        EXPECT_EQ(dec.hello().radar.frame_period_s,
                  sims[0].radar.frame_period_s);
        EXPECT_TRUE(dec.saw_bye());
        EXPECT_EQ(dec.stats().total_errors(), 0u);
        EXPECT_EQ(dec.stats().frames_decoded, frames.size());
        EXPECT_EQ(dec.stats().quarantined_bytes, 0u);
        EXPECT_EQ(dec.stats().seq_gaps, 0u);
        EXPECT_EQ(dec.stats().seq_regressions, 0u);
    }
}

TEST(IngestWire, MidFrameEofLeavesTailBufferedWithoutError) {
    const auto sims = make_sessions(1, 1.0);
    auto bytes = encode(sims[0], 0);
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    // Cut in the middle of the 4th frame record.
    const std::size_t cut =
        kStreamHeaderBytes + kHelloRecordBytes + 3 * rec + rec / 2;
    ASSERT_LT(cut, bytes.size());
    bytes.resize(cut);

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), 3u);
    EXPECT_FALSE(dec.saw_bye());
    EXPECT_EQ(dec.stats().total_errors(), 0u);
    EXPECT_GT(dec.buffered_bytes(), 0u);  // the amputated tail
}

TEST(IngestWire, CrcMismatchCostsOneRecordAndResyncs) {
    const auto sims = make_sessions(1, 1.0);
    auto bytes = encode(sims[0], 0);
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    // Flip one payload byte inside the 3rd frame record.
    bytes[kStreamHeaderBytes + kHelloRecordBytes + 2 * rec + 40] ^= 0x10;

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), sims[0].frames.size() - 1);
    const ingest::DecodeStats& st = dec.stats();
    EXPECT_GE(st.errors[static_cast<std::size_t>(
                  ingest::DecodeError::kCrcMismatch)],
              1u);
    EXPECT_GE(st.resyncs, 1u);
    EXPECT_GT(st.quarantined_bytes, 0u);
    EXPECT_EQ(st.seq_gaps, 1u);  // the lost record shows up in seq space
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, GarbagePreambleIsQuarantined) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    std::vector<std::uint8_t> bytes(64, 0xEE);
    bytes.insert(bytes.end(), clean.begin(), clean.end());

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), sims[0].frames.size());
    EXPECT_GE(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kBadStreamMagic)],
              1u);
    EXPECT_EQ(dec.stats().quarantined_bytes, 64u);
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, FrameBeforeHelloIsRejectedPerRecord) {
    const auto sims = make_sessions(1, 1.0);
    const auto full = encode(sims[0], 0);
    // Stream header + records, with the hello record spliced out.
    std::vector<std::uint8_t> bytes(full.begin(),
                                    full.begin() + kStreamHeaderBytes);
    bytes.insert(bytes.end(),
                 full.begin() + kStreamHeaderBytes + kHelloRecordBytes,
                 full.end());

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_TRUE(frames.empty());
    EXPECT_FALSE(dec.has_hello());
    EXPECT_EQ(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kFrameBeforeHello)],
              sims[0].frames.size());
}

TEST(IngestWire, DuplicateHelloIsCountedAndSkipped) {
    const auto sims = make_sessions(1, 1.0);
    auto bytes = encode(sims[0], 0);
    // Replay the hello record just before the bye (a reconnecting
    // producer restarting its stream).
    const std::vector<std::uint8_t> hello_rec(
        bytes.begin() + kStreamHeaderBytes,
        bytes.begin() + kStreamHeaderBytes + kHelloRecordBytes);
    bytes.insert(bytes.end() - 32, hello_rec.begin(), hello_rec.end());

    ingest::WireDecoder dec;
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_EQ(frames.size(), sims[0].frames.size());
    EXPECT_EQ(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kDuplicateHello)],
              1u);
    EXPECT_GE(dec.stats().seq_regressions, 1u);
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, OversizedRecordsAreRejectedByTheCeiling) {
    const auto sims = make_sessions(1, 1.0);
    const auto bytes = encode(sims[0], 0);
    // A ceiling below the frame payload (but >= the hello payload).
    ingest::WireDecoder dec(96);
    const radar::FrameSeries frames = decode_all(dec, bytes);
    EXPECT_TRUE(frames.empty());
    EXPECT_TRUE(dec.has_hello());
    EXPECT_EQ(dec.stats().errors[static_cast<std::size_t>(
                  ingest::DecodeError::kOversizedRecord)],
              sims[0].frames.size());
    EXPECT_TRUE(dec.saw_bye());
}

TEST(IngestWire, DuplicatedAndRemovedRecordsShowInSeqAccounting) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    const std::size_t rec = frame_record_bytes(sims[0].radar.n_bins());
    const std::size_t frame0 = kStreamHeaderBytes + kHelloRecordBytes;

    // Re-deliver frame 2 right after itself (duplicated transport chunk).
    auto dup = clean;
    dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(frame0 + 3 * rec),
               clean.begin() + static_cast<std::ptrdiff_t>(frame0 + 2 * rec),
               clean.begin() + static_cast<std::ptrdiff_t>(frame0 + 3 * rec));
    ingest::WireDecoder d1;
    EXPECT_EQ(decode_all(d1, dup).size(), sims[0].frames.size() + 1);
    EXPECT_EQ(d1.stats().seq_regressions, 1u);

    // Remove frame 2 entirely (records lost in transport).
    auto gap = clean;
    gap.erase(gap.begin() + static_cast<std::ptrdiff_t>(frame0 + 2 * rec),
              gap.begin() + static_cast<std::ptrdiff_t>(frame0 + 3 * rec));
    ingest::WireDecoder d2;
    EXPECT_EQ(decode_all(d2, gap).size(), sims[0].frames.size() - 1);
    EXPECT_EQ(d2.stats().seq_gaps, 1u);
    EXPECT_EQ(d2.stats().total_errors(), 0u);  // clean loss, not corruption
}

// ------------------------------------------------------------- fuzz sweep

TEST(IngestFuzz, FaultInjectorSweepNeverThrowsAndAccountsEveryByte) {
    const auto sims = make_sessions(1, 2.0);
    const auto clean = encode(sims[0], 9);

    ingest::WireFaultConfig fc;
    fc.chunk_bytes = 256;
    fc.truncate_rate = 0.05;
    fc.bitflip_rate = 0.05;
    fc.duplicate_rate = 0.05;
    fc.reorder_rate = 0.05;
    fc.drop_rate = 0.03;
    fc.garbage_rate = 0.05;

    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ingest::WireFaultInjector inj(fc, seed);
        const auto corrupted = inj.corrupt(clean);

        ingest::WireDecoder dec;
        const radar::FrameSeries frames = decode_all(dec, corrupted, 777);
        EXPECT_LE(frames.size(), sims[0].frames.size() + 4);  // dups allowed
        EXPECT_EQ(dec.stats().bytes_in, corrupted.size());
        EXPECT_LE(dec.stats().quarantined_bytes, dec.stats().bytes_in);
    }
}

TEST(IngestFuzz, InjectorScheduleIsSeedDeterministic) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    ingest::WireFaultConfig fc;
    fc.truncate_rate = 0.1;
    fc.bitflip_rate = 0.1;
    fc.duplicate_rate = 0.1;
    fc.reorder_rate = 0.1;
    fc.drop_rate = 0.05;
    fc.garbage_rate = 0.1;

    ingest::WireFaultInjector a(fc, 1234), b(fc, 1234), c(fc, 4321);
    const auto out_a = a.corrupt(clean);
    const auto out_b = b.corrupt(clean);
    const auto out_c = c.corrupt(clean);
    EXPECT_EQ(out_a, out_b);
    EXPECT_NE(out_a, out_c);

    // Bit-identical corruption implies bit-identical decode accounting.
    ingest::WireDecoder da, db;
    decode_all(da, out_a);
    decode_all(db, out_b);
    EXPECT_EQ(da.stats().frames_decoded, db.stats().frames_decoded);
    EXPECT_EQ(da.stats().quarantined_bytes, db.stats().quarantined_bytes);
    EXPECT_EQ(da.stats().errors, db.stats().errors);
}

TEST(IngestFuzz, RandomMutationsNeverThrowPastTheStreamBoundary) {
    const auto sims = make_sessions(1, 1.0);
    const auto clean = encode(sims[0], 0);
    Rng rng(7);

    for (int iter = 0; iter < 60; ++iter) {
        auto bytes = clean;
        const int mutations = rng.uniform_int(1, 8);
        for (int m = 0; m < mutations; ++m) {
            switch (rng.uniform_int(0, 2)) {
                case 0: {  // flip a byte
                    const std::size_t i = static_cast<std::size_t>(
                        rng.uniform_int(0,
                                        static_cast<int>(bytes.size() - 1)));
                    bytes[i] = static_cast<std::uint8_t>(
                        rng.uniform_int(0, 255));
                    break;
                }
                case 1: {  // truncate a suffix
                    const std::size_t keep = static_cast<std::size_t>(
                        rng.uniform_int(0,
                                        static_cast<int>(bytes.size() - 1)));
                    bytes.resize(keep);
                    if (bytes.empty()) bytes.push_back(0);
                    break;
                }
                case 2: {  // insert garbage mid-stream
                    const std::size_t at = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(bytes.size())));
                    const int n = rng.uniform_int(1, 32);
                    std::vector<std::uint8_t> junk;
                    for (int i = 0; i < n; ++i)
                        junk.push_back(static_cast<std::uint8_t>(
                            rng.uniform_int(0, 255)));
                    bytes.insert(bytes.begin() +
                                     static_cast<std::ptrdiff_t>(at),
                                 junk.begin(), junk.end());
                    break;
                }
            }
        }
        ingest::WireDecoder dec;
        decode_all(dec, bytes, 333);  // must not throw for any mutation
        EXPECT_EQ(dec.stats().bytes_in, bytes.size());
    }

    // Pure random garbage, including pathological sizes.
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, std::size_t{19}, std::size_t{4096}}) {
        std::vector<std::uint8_t> junk;
        for (std::size_t i = 0; i < size; ++i)
            junk.push_back(
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        ingest::WireDecoder dec;
        decode_all(dec, junk, 97);
        EXPECT_EQ(dec.stats().frames_decoded, 0u);
    }
}

// ------------------------------------------------------------ frame queue

radar::RadarFrame tiny_frame(double t) {
    radar::RadarFrame f;
    f.timestamp_s = t;
    f.bins.resize(1, dsp::Complex(t, -t));
    return f;
}

TEST(IngestQueue, EveryPolicyAccountsEveryFrame) {
    for (const auto policy : {ingest::BackpressurePolicy::kBlock,
                              ingest::BackpressurePolicy::kDropOldest,
                              ingest::BackpressurePolicy::kDropNewest}) {
        ingest::BoundedFrameQueue q(4, policy);
        for (int i = 0; i < 6; ++i) q.push(tiny_frame(i), 0);

        std::vector<radar::RadarFrame> frames;
        std::vector<std::uint64_t> ages;
        q.pop_into(SIZE_MAX, 3, frames, ages);
        ASSERT_EQ(frames.size(), 4u);
        for (const std::uint64_t age : ages) EXPECT_EQ(age, 3u);

        const ingest::FrameQueueStats st = q.stats();
        switch (policy) {
            case ingest::BackpressurePolicy::kBlock:
                EXPECT_EQ(st.accepted, 4u);
                EXPECT_EQ(st.would_block, 2u);
                EXPECT_EQ(st.dropped(), 0u);
                EXPECT_EQ(frames.front().timestamp_s, 0.0);
                break;
            case ingest::BackpressurePolicy::kDropOldest:
                EXPECT_EQ(st.accepted, 6u);
                EXPECT_EQ(st.dropped_oldest, 2u);
                // The two oldest died; the window slid forward.
                EXPECT_EQ(frames.front().timestamp_s, 2.0);
                EXPECT_EQ(frames.back().timestamp_s, 5.0);
                break;
            case ingest::BackpressurePolicy::kDropNewest:
                EXPECT_EQ(st.accepted, 4u);
                EXPECT_EQ(st.dropped_newest, 2u);
                // What was queued stayed intact.
                EXPECT_EQ(frames.front().timestamp_s, 0.0);
                EXPECT_EQ(frames.back().timestamp_s, 3.0);
                break;
        }
        // No silent loss: everything pushed is accepted, refused, or
        // dropped — and the accepted ones all came back out.
        EXPECT_EQ(st.accepted + st.would_block + st.dropped_newest, 6u);
        EXPECT_EQ(st.accepted - st.dropped_oldest, frames.size());
    }
}

// ------------------------------------------------------- frontend basics

void expect_no_silent_loss(const ingest::IngestFrontend& fe,
                           ingest::StreamId id) {
    const ingest::StreamStats st = fe.stream_stats(id);
    EXPECT_EQ(st.frames_decoded, st.frames_delivered + st.frames_dropped +
                                     st.queued + (st.holding ? 1 : 0))
        << "stream " << id;
}

TEST(IngestFrontend, FileReplayMatchesDirectPipelineBitExactly) {
    const auto sims = make_sessions(1, 4.0);

    core::BlinkRadarPipeline ref_pipe(sims[0].radar);
    std::vector<core::FrameResult> ref;
    for (const radar::RadarFrame& f : sims[0].frames)
        ref.push_back(ref_pipe.process(f));

    const std::string path = "ingest_replay_test.brwf";
    {
        const auto bytes = encode(sims[0], 1);
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    ThreadPool pool(2);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    ingest::IngestFrontend fe(ingest::IngestConfig{}, engine);

    const ingest::Admission adm =
        fe.open_stream(std::make_unique<ingest::FileReplaySource>(path));
    ASSERT_TRUE(adm.admitted());

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 500) fe.pump();
    ASSERT_TRUE(fe.drained());
    ASSERT_TRUE(fe.session_of(adm.id).has_value());
    const fleet::SessionId sid = *fe.session_of(adm.id);

    const auto& got = engine.results(sid);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].waveform_value, ref[i].waveform_value) << i;
        EXPECT_EQ(got[i].health, ref[i].health) << i;
    }
    expect_no_silent_loss(fe, adm.id);
    EXPECT_TRUE(fe.stream_stats(adm.id).saw_bye);

    const fleet::SessionStats final_stats = fe.close_stream(adm.id);
    EXPECT_EQ(final_stats.frames_processed, sims[0].frames.size());
    EXPECT_EQ(fe.stream_count(), 0u);
    std::remove(path.c_str());
}

TEST(IngestFrontend, AdmissionTokenBucketRefusesBurstsThenRefills) {
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    ingest::IngestConfig cfg;
    cfg.admission.capacity = 2.0;
    cfg.admission.refill_per_tick = 0.5;
    ingest::IngestFrontend fe(cfg, engine);

    auto src = [] {
        return std::make_unique<ingest::MemoryByteSource>(
            std::vector<std::uint8_t>{});
    };
    EXPECT_TRUE(fe.open_stream(src()).admitted());
    EXPECT_TRUE(fe.open_stream(src()).admitted());
    EXPECT_EQ(fe.open_stream(src()).outcome,
              ingest::AdmissionOutcome::kRefusedTokens);

    fe.pump();
    fe.pump();  // +1.0 token
    EXPECT_TRUE(fe.open_stream(src()).admitted());
    EXPECT_EQ(fe.open_stream(src()).outcome,
              ingest::AdmissionOutcome::kRefusedTokens);
}

TEST(IngestFrontend, CloseStreamDrainsQueuedFrames) {
    const auto sims = make_sessions(1, 2.0);
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 1;  // almost nothing delivers
    // Park the ladder so the huge backlog can't force drops.
    cfg.governor.widen_at = 1e5;
    cfg.governor.force_drop_at = 2e5;
    cfg.governor.evict_at = 3e5;
    cfg.governor.refuse_at = 4e5;
    cfg.stream.queue_capacity = 256;
    ingest::IngestFrontend fe(cfg, engine);

    const auto adm = fe.open_stream(std::make_unique<ingest::MemoryByteSource>(
        encode(sims[0], 0)));
    ASSERT_TRUE(adm.admitted());
    // A few pumps decode everything (the per-tick read budget spans only
    // part of the stream) while delivering just one frame per tick.
    std::size_t ticks = 0;
    while (fe.stream_stats(adm.id).frames_decoded < sims[0].frames.size() &&
           ticks++ < 50)
        fe.pump();

    const ingest::StreamStats st = fe.stream_stats(adm.id);
    EXPECT_EQ(st.frames_decoded, sims[0].frames.size());
    EXPECT_GT(st.queued, 0u);

    // Drain-then-release, through FleetEngine::close: every decoded
    // frame must be processed, none abandoned in the queue or inbox.
    const fleet::SessionStats final_stats = fe.close_stream(adm.id);
    EXPECT_EQ(final_stats.frames_processed, sims[0].frames.size());
}

TEST(IngestFrontend, CloseStreamFeedsTheHeldFrameAfterQueuedFrames) {
    // Under kBlock the holding slot keeps the frame the full queue
    // refused, so it is newer than every queued frame. close_stream must
    // feed it last, or FrameGuard sees the older queued frames as
    // reorders. Every frame carries a span; the span records come out in
    // processing order and must ascend in wire seq.
    const auto sims = make_sessions(1, 2.0);
    const fs::path trace_path =
        fs::temp_directory_path() / "ingest_close_order_spans.jsonl";
    std::vector<std::uint64_t> seqs;
    std::uint64_t st_queued = 0;
    {
        obs::TraceSink sink(trace_path.string());
        obs::telemetry::SpanCollector spans(&sink);
        ThreadPool pool(1);
        fleet::FleetConfig fcfg;
        fcfg.span_collector = &spans;
        fleet::FleetEngine engine(fcfg, &pool);
        ingest::IngestConfig cfg;
        cfg.governor.budget_frames_per_tick = 1;
        // Park the ladder: the stream must stay kBlock and fully traced.
        cfg.governor.widen_at = 1e5;
        cfg.governor.force_drop_at = 2e5;
        cfg.governor.evict_at = 3e5;
        cfg.governor.refuse_at = 4e5;
        cfg.stream.queue_capacity = 4;
        cfg.telemetry.span_stride = 1;
        ingest::IngestFrontend fe(cfg, engine, nullptr, nullptr, &spans);

        const auto adm =
            fe.open_stream(std::make_unique<ingest::MemoryByteSource>(
                encode(sims[0], 0)));
        ASSERT_TRUE(adm.admitted());
        for (int t = 0; t < 3; ++t) fe.pump();
        const ingest::StreamStats st = fe.stream_stats(adm.id);
        ASSERT_TRUE(st.holding);
        ASSERT_GT(st.queued, 0u);

        st_queued = st.queued;
        const fleet::SessionStats final_stats = fe.close_stream(adm.id);
        EXPECT_EQ(final_stats.frames_processed, st.frames_decoded);
        sink.flush();

        std::ifstream in(trace_path);
        std::string line;
        const char* key = "\"seq\":";
        while (std::getline(in, line)) {
            const std::size_t pos = line.find(key);
            ASSERT_NE(pos, std::string::npos) << line;
            seqs.push_back(std::strtoull(
                line.c_str() + pos + std::strlen(key), nullptr, 10));
        }
    }
    fs::remove(trace_path);
    // Three processed by the pumps, then the queued frames and the held.
    ASSERT_EQ(seqs.size(), 3u + st_queued + 1u);
    for (std::size_t i = 1; i < seqs.size(); ++i)
        EXPECT_LT(seqs[i - 1], seqs[i]) << "span " << i;
}

namespace {
/// A source that stays silent until reconnect() is called, then serves
/// the wrapped bytes — the watchdog drill's stalled transport.
class StallingSource : public ingest::ByteSource {
public:
    explicit StallingSource(std::vector<std::uint8_t> bytes)
        : inner_(std::move(bytes)) {}

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        if (!connected_) return 0;
        return inner_.read(out, max);
    }
    bool exhausted() const override {
        return connected_ && inner_.exhausted();
    }
    void reconnect() override { connected_ = true; }

private:
    ingest::MemoryByteSource inner_;
    bool connected_ = false;
};
}  // namespace

TEST(IngestFrontend, WatchdogReconnectsAStalledStream) {
    const auto sims = make_sessions(1, 1.0);
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    ingest::IngestFrontend fe(ingest::IngestConfig{}, engine);

    const auto adm = fe.open_stream(
        std::make_unique<StallingSource>(encode(sims[0], 0)));
    ASSERT_TRUE(adm.admitted());

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 100) fe.pump();
    ASSERT_TRUE(fe.drained());

    const ingest::StreamStats st = fe.stream_stats(adm.id);
    EXPECT_GE(st.reconnects, 1u);
    EXPECT_EQ(st.frames_decoded, sims[0].frames.size());
    expect_no_silent_loss(fe, adm.id);
}

namespace {
/// A source that cannot signal: serves its bytes, then stays silent
/// (not exhausted) until run_dry(), after which it is exhausted for
/// good. Counts the reconnects it is asked for.
class DryingSource : public ingest::ByteSource {
public:
    explicit DryingSource(std::vector<std::uint8_t> bytes)
        : inner_(std::move(bytes)) {}

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        return inner_.read(out, max);
    }
    bool exhausted() const override { return dry_; }
    void reconnect() override { ++reconnects_; }

    void run_dry() { dry_ = true; }
    std::size_t reconnects() const { return reconnects_; }

private:
    ingest::MemoryByteSource inner_;
    bool dry_ = false;
    std::size_t reconnects_ = 0;
};
}  // namespace

TEST(IngestFrontend, ExhaustedStreamIsNeverReconnected) {
    // Two streams stall past the watchdog threshold, get reconnected,
    // and then finish with nothing left to read: a pipe closed empty
    // (it leaves the poll set) and a source that cannot signal (it is
    // polled every tick). No reconnect can bring either one a byte, so
    // neither is reconnected again, and each stall clock stops where
    // its source ran dry.
    const auto sims = make_sessions(1, 2.0);
    const std::vector<std::uint8_t> bytes = encode(sims[0], 0);
    const std::size_t head = kStreamHeaderBytes + kHelloRecordBytes +
                             2 * frame_record_bytes(sims[0].radar.n_bins());
    ASSERT_LT(head, bytes.size());
    ingest::BytePipe pipe;
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    obs::MetricsRegistry reg;
    ingest::IngestFrontend fe(ingest::IngestConfig{}, engine, &reg);

    const auto pipe_adm = fe.open_stream(pipe.make_source());
    auto drying = std::make_unique<DryingSource>(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + head));
    DryingSource& dry = *drying;
    const auto dry_adm = fe.open_stream(std::move(drying));
    ASSERT_TRUE(pipe_adm.admitted());
    ASSERT_TRUE(dry_adm.admitted());
    pipe.write({bytes.data(), head});

    for (int t = 0; t < 80; ++t) fe.pump();
    ASSERT_GE(fe.stream_stats(pipe_adm.id).reconnects, 1u);
    ASSERT_GE(dry.reconnects(), 1u);

    pipe.close();
    dry.run_dry();
    fe.pump();
    const ingest::StreamStats pipe_at = fe.stream_stats(pipe_adm.id);
    const ingest::StreamStats dry_at = fe.stream_stats(dry_adm.id);
    const std::size_t dry_calls = dry.reconnects();
    const std::uint64_t counted =
        reg.counter("ingest.watchdog.reconnects").value();
    ASSERT_TRUE(pipe_at.exhausted);
    ASSERT_TRUE(dry_at.exhausted);
    EXPECT_EQ(counted, pipe_at.reconnects + dry_at.reconnects);

    for (int t = 0; t < 1500; ++t) {
        fe.pump();
        const ingest::StreamStats p = fe.stream_stats(pipe_adm.id);
        const ingest::StreamStats d = fe.stream_stats(dry_adm.id);
        ASSERT_EQ(p.reconnects, pipe_at.reconnects) << "tick " << t;
        ASSERT_EQ(d.reconnects, dry_at.reconnects) << "tick " << t;
        ASSERT_EQ(p.stall_run, pipe_at.stall_run) << "tick " << t;
        ASSERT_EQ(d.stall_run, dry_at.stall_run) << "tick " << t;
    }
    EXPECT_EQ(dry.reconnects(), dry_calls);
    EXPECT_EQ(reg.counter("ingest.watchdog.reconnects").value(), counted);
    EXPECT_EQ(fe.stream_stats(pipe_adm.id).frames_decoded, 2u);
    EXPECT_EQ(fe.stream_stats(dry_adm.id).frames_decoded, 2u);
}

TEST(IngestFrontend, HeldFrameRetryDropIsCounted) {
    // Stream 1 is blocked and holds the frame its full queue refused,
    // while stream 0 (lower id) takes the whole deliver budget, so
    // stream 1's queue stays full. Once the shed ladder forces
    // drop_oldest on it, the held frame's retry evicts the oldest queued
    // frame: a queue drop like any other, so ingest.frames.dropped
    // counts it (and keeps it after the streams close).
    const auto sims = make_sessions(2, 4.0);
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    obs::MetricsRegistry reg;
    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 1;
    cfg.governor.engage_ticks = 1;
    cfg.stream.queue_capacity = 4;
    ingest::IngestFrontend fe(cfg, engine, &reg);

    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < 2; ++i) {
        const auto adm = fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(encode(sims[i], i)));
        ASSERT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }
    bool forced_while_holding = false;
    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 3000) {
        fe.pump();
        const ingest::StreamStats st = fe.stream_stats(ids[1]);
        forced_while_holding |= st.policy_forced && st.holding;
    }
    ASSERT_TRUE(fe.drained());
    EXPECT_TRUE(forced_while_holding);
    std::uint64_t dropped = 0;
    for (const ingest::StreamId id : ids) {
        dropped += fe.stream_stats(id).frames_dropped;
        expect_no_silent_loss(fe, id);
        fe.close_stream(id);
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(reg.counter("ingest.frames.dropped").value(), dropped);
}

TEST(IngestFrontend, MetricsSurfaceDeliveryAndDecodeAccounting) {
    const auto sims = make_sessions(1, 1.0);
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    obs::MetricsRegistry reg;
    ingest::IngestFrontend fe(ingest::IngestConfig{}, engine, &reg);

    const auto adm = fe.open_stream(std::make_unique<ingest::MemoryByteSource>(
        encode(sims[0], 0)));
    ASSERT_TRUE(adm.admitted());
    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 200) fe.pump();

    EXPECT_EQ(reg.counter("ingest.streams.opened").value(), 1u);
    EXPECT_EQ(reg.counter("ingest.frames.delivered").value(),
              sims[0].frames.size());
    EXPECT_EQ(reg.gauge("ingest.frames.decoded").value(),
              static_cast<double>(sims[0].frames.size()));
    EXPECT_EQ(reg.gauge("ingest.decode.errors").value(), 0.0);
    EXPECT_GT(reg.histogram("ingest.pump_ns").count(), 0u);
    EXPECT_GT(reg.gauge("ingest.bytes_in").value(), 0.0);
}

// -------------------------------------- backpressure determinism sweep

struct SweepStream {
    std::uint64_t decoded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t processed = 0;
    std::vector<core::DetectedBlink> blinks;
};

std::vector<SweepStream> run_backpressure(
    ingest::BackpressurePolicy policy, std::size_t n_shards,
    std::size_t n_threads, const std::vector<sim::SimulatedSession>& sims,
    const std::vector<std::vector<std::uint8_t>>& encoded,
    std::size_t trickle_bytes) {
    ThreadPool pool(n_threads);
    fleet::FleetConfig fcfg;
    fcfg.n_shards = n_shards;
    fleet::FleetEngine engine(fcfg, &pool);

    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 16;
    // Park the shed ladder: this test isolates the queue policies.
    cfg.governor.widen_at = 1e5;
    cfg.governor.force_drop_at = 2e5;
    cfg.governor.evict_at = 3e5;
    cfg.governor.refuse_at = 4e5;
    cfg.stream.queue_capacity = 8;
    cfg.stream.policy = policy;
    cfg.admission.capacity = 16.0;
    ingest::IngestFrontend fe(cfg, engine);

    std::vector<ingest::StreamId> ids;
    for (const auto& bytes : encoded) {
        const auto adm = fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(bytes,
                                                       trickle_bytes));
        EXPECT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 3000) fe.pump();
    EXPECT_TRUE(fe.drained());

    std::vector<SweepStream> out;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ingest::StreamStats st = fe.stream_stats(ids[i]);
        SweepStream row;
        row.decoded = st.frames_decoded;
        row.delivered = st.frames_delivered;
        row.dropped = st.frames_dropped;
        EXPECT_EQ(st.queued, 0u);
        EXPECT_FALSE(st.holding);
        expect_no_silent_loss(fe, ids[i]);
        const fleet::SessionId sid = *fe.session_of(ids[i]);
        row.blinks = engine.blinks(sid);
        row.processed = fe.close_stream(ids[i]).frames_processed;
        out.push_back(std::move(row));
    }
    (void)sims;
    return out;
}

TEST(IngestBackpressure, EightStreamsThreePoliciesBitIdenticalAcrossSweep) {
    const std::size_t kStreams = 8;
    const auto sims = make_sessions(kStreams, 3.0);
    std::vector<std::vector<std::uint8_t>> encoded;
    for (std::size_t i = 0; i < kStreams; ++i)
        encoded.push_back(encode(sims[i], i));
    // Trickle ~3 frames of bytes per tick so queues fill faster than the
    // 16-frame global budget drains them — real backpressure, every run.
    const std::size_t trickle =
        3 * frame_record_bytes(sims[0].radar.n_bins());

    const std::size_t shard_counts[] = {1, 3, 8};
    const std::size_t pool_sizes[] = {1, 2, 7};
    for (const auto policy : {ingest::BackpressurePolicy::kBlock,
                              ingest::BackpressurePolicy::kDropOldest,
                              ingest::BackpressurePolicy::kDropNewest}) {
        const auto baseline =
            run_backpressure(policy, 1, 1, sims, encoded, trickle);

        std::uint64_t total_dropped = 0;
        for (std::size_t s = 0; s < kStreams; ++s) {
            EXPECT_EQ(baseline[s].decoded, sims[s].frames.size());
            EXPECT_EQ(baseline[s].delivered, baseline[s].processed);
            total_dropped += baseline[s].dropped;
        }
        if (policy == ingest::BackpressurePolicy::kBlock)
            EXPECT_EQ(total_dropped, 0u);  // block never loses frames
        else
            EXPECT_GT(total_dropped, 0u);  // pressure really happened

        for (const std::size_t n_shards : shard_counts) {
            for (const std::size_t n_threads : pool_sizes) {
                if (n_shards == 1 && n_threads == 1) continue;
                const auto got = run_backpressure(policy, n_shards,
                                                  n_threads, sims, encoded,
                                                  trickle);
                for (std::size_t s = 0; s < kStreams; ++s) {
                    EXPECT_EQ(got[s].decoded, baseline[s].decoded)
                        << "policy=" << to_string(policy)
                        << " shards=" << n_shards
                        << " threads=" << n_threads << " stream=" << s;
                    EXPECT_EQ(got[s].delivered, baseline[s].delivered);
                    EXPECT_EQ(got[s].dropped, baseline[s].dropped);
                    EXPECT_EQ(got[s].processed, baseline[s].processed);
                    ASSERT_EQ(got[s].blinks.size(),
                              baseline[s].blinks.size());
                    for (std::size_t b = 0; b < got[s].blinks.size(); ++b) {
                        EXPECT_EQ(got[s].blinks[b].peak_s,
                                  baseline[s].blinks[b].peak_s);
                        EXPECT_EQ(got[s].blinks[b].magnitude,
                                  baseline[s].blinks[b].magnitude);
                    }
                }
            }
        }
    }
}

// ------------------------------------------- ready-set sweep (BytePipe)

/// What one pipe sweep run saw, tick by tick and per stream.
struct PipeSweepRun {
    /// Per tick: frames_delivered, backlog, level, the four decoder
    /// gauges, then stall_run, reconnects and holding of each open stream.
    std::vector<std::vector<double>> ticks;
    std::vector<std::vector<std::uint64_t>> reconnect_ticks;  ///< per stream
    std::vector<SweepStream> streams;
    bool held_with_bytes_waiting = false;
    std::uint64_t max_stall = 0;
};

PipeSweepRun run_pipe_sweep(
    std::size_t n_shards, std::size_t n_threads,
    const std::vector<sim::SimulatedSession>& sims,
    const std::vector<std::vector<std::uint8_t>>& encoded) {
    // Stream roles, by id (pipes written between ticks by this thread,
    // so every run sees the same bytes on the same tick):
    //   0  pipe: 2 frames a tick, silent for ticks 16-120, then the rest
    //   1  pipe: hello + 5 frames, silent until tick 230, then the rest
    //   2  pipe: a frame a tick, closed by the front-end after tick 40
    //      with frames queued; its producer writes on into the pipe
    //   3  pipe: the whole session at tick 1, then closed — blocked under
    //      kBlock with a held frame and bytes waiting in the pipe
    //   4  MemoryByteSource, one frame per read (cannot signal)
    //   5  pipe: hello + 3 frames, silent, closed empty at tick 100 — an
    //      exhausted source whose stall clock stands at its threshold
    constexpr std::size_t kStreams = 6;
    constexpr std::size_t kClosedStream = 2;
    const std::size_t frame_bytes = frame_record_bytes(sims[0].radar.n_bins());
    const std::size_t head_bytes = kStreamHeaderBytes + kHelloRecordBytes;

    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    for (std::size_t i = 0; i < kStreams; ++i)
        pipes.push_back(std::make_unique<ingest::BytePipe>());

    ThreadPool pool(n_threads);
    fleet::FleetConfig fcfg;
    fcfg.n_shards = n_shards;
    fleet::FleetEngine engine(fcfg, &pool);
    obs::MetricsRegistry reg;
    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 6;
    cfg.stream.queue_capacity = 8;
    cfg.stream.policy = ingest::BackpressurePolicy::kBlock;
    ingest::IngestFrontend fe(cfg, engine, &reg);

    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < kStreams; ++i) {
        std::unique_ptr<ingest::ByteSource> src =
            i == 4 ? std::make_unique<ingest::MemoryByteSource>(encoded[i],
                                                                frame_bytes)
                   : pipes[i]->make_source();
        const auto adm = fe.open_stream(std::move(src));
        EXPECT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    // Write the next `frames` frame records (the hello goes with the
    // first); once every frame is out, the bye follows and the pipe
    // closes.
    std::vector<std::size_t> written(kStreams, 0);
    const auto write_frames = [&](std::size_t i, std::size_t frames) {
        const std::vector<std::uint8_t>& bytes = encoded[i];
        if (written[i] == bytes.size()) return;
        std::size_t target =
            std::max(written[i], head_bytes) + frames * frame_bytes;
        if (target + frame_bytes > bytes.size()) target = bytes.size();
        written[i] += pipes[i]->write(
            {bytes.data() + written[i], target - written[i]});
        if (written[i] == bytes.size()) pipes[i]->close();
    };

    PipeSweepRun out;
    out.reconnect_ticks.resize(kStreams);
    std::vector<std::uint64_t> reconnects(kStreams, 0);
    bool closed = false;
    for (std::uint64_t t = 1; t <= 600; ++t) {
        if (t <= 15 || t > 120) write_frames(0, 2);
        if (t == 1) write_frames(1, 5);
        if (t >= 230) write_frames(1, 4);
        if (t <= 60) write_frames(kClosedStream, t == 40 ? 8 : 1);
        if (t == 1) write_frames(3, sims[3].frames.size());
        if (t == 1) write_frames(5, 3);
        if (t == 100) pipes[5]->close();

        const ingest::PumpReport rep = fe.pump();
        std::vector<double> row = {
            static_cast<double>(rep.frames_delivered),
            static_cast<double>(rep.backlog),
            static_cast<double>(rep.level),
            reg.gauge("ingest.bytes_in").value(),
            reg.gauge("ingest.frames.decoded").value(),
            reg.gauge("ingest.decode.errors").value(),
            reg.gauge("ingest.decode.quarantined_bytes").value()};
        for (std::size_t i = 0; i < kStreams; ++i) {
            if (i == kClosedStream && closed) continue;
            const ingest::StreamStats st = fe.stream_stats(ids[i]);
            row.push_back(static_cast<double>(st.stall_run));
            row.push_back(static_cast<double>(st.reconnects));
            row.push_back(st.holding ? 1.0 : 0.0);
            if (st.reconnects != reconnects[i])
                out.reconnect_ticks[i].push_back(t);
            reconnects[i] = st.reconnects;
            out.max_stall = std::max(out.max_stall, st.stall_run);
            if (i == 3 && st.holding && pipes[3]->buffered() > 0)
                out.held_with_bytes_waiting = true;
        }
        out.ticks.push_back(std::move(row));

        if (t == 40) {
            EXPECT_GT(fe.stream_stats(ids[kClosedStream]).queued, 0u);
            out.streams.resize(kStreams);
            SweepStream& row2 = out.streams[kClosedStream];
            const ingest::StreamStats st = fe.stream_stats(ids[kClosedStream]);
            row2.decoded = st.frames_decoded;
            row2.dropped = st.frames_dropped;
            row2.blinks = engine.blinks(*fe.session_of(ids[kClosedStream]));
            row2.processed =
                fe.close_stream(ids[kClosedStream]).frames_processed;
            row2.delivered = row2.processed;
            closed = true;
        }
        if (t > 300 && fe.drained()) break;
    }
    EXPECT_TRUE(fe.drained());

    for (std::size_t i = 0; i < kStreams; ++i) {
        if (i == kClosedStream) continue;
        const ingest::StreamStats st = fe.stream_stats(ids[i]);
        SweepStream& row = out.streams[i];
        row.decoded = st.frames_decoded;
        row.delivered = st.frames_delivered;
        row.dropped = st.frames_dropped;
        expect_no_silent_loss(fe, ids[i]);
        row.blinks = engine.blinks(*fe.session_of(ids[i]));
        row.processed = fe.close_stream(ids[i]).frames_processed;
    }
    return out;
}

TEST(IngestReadySet, PipeStreamsBitIdenticalAcrossSweep) {
    const std::size_t kStreams = 6;
    const auto sims = make_sessions(kStreams, 8.0);
    std::vector<std::vector<std::uint8_t>> encoded;
    for (std::size_t i = 0; i < kStreams; ++i)
        encoded.push_back(encode(sims[i], i));

    const PipeSweepRun base = run_pipe_sweep(1, 1, sims, encoded);

    // The schedule reached the cases the ready set must get right.
    EXPECT_TRUE(base.held_with_bytes_waiting);
    EXPECT_GT(base.max_stall, 100u);
    for (std::size_t i : {0u, 1u, 3u, 4u})
        EXPECT_EQ(base.streams[i].decoded, sims[i].frames.size()) << i;
    EXPECT_EQ(base.streams[5].decoded, 3u);
    // Reconnect ticks of the silent streams, as walking every stream on
    // every tick schedules them (stall threshold 50, backoff 4 << n
    // capped at 256, plus the stream's forked jitter).
    EXPECT_EQ(base.reconnect_ticks[0],
              (std::vector<std::uint64_t>{65, 69, 78, 105}));
    EXPECT_EQ(base.reconnect_ticks[1],
              (std::vector<std::uint64_t>{51, 55, 71, 94, 138, 226}));
    // Stream 5 runs dry at its tick-100 close: no reconnect after it.
    EXPECT_EQ(base.reconnect_ticks[5],
              (std::vector<std::uint64_t>{51, 57, 66, 88}));

    const std::size_t shard_counts[] = {1, 3, 8};
    const std::size_t pool_sizes[] = {1, 2, 7};
    for (const std::size_t n_shards : shard_counts) {
        for (const std::size_t n_threads : pool_sizes) {
            if (n_shards == 1 && n_threads == 1) continue;
            const PipeSweepRun got =
                run_pipe_sweep(n_shards, n_threads, sims, encoded);
            ASSERT_EQ(got.ticks.size(), base.ticks.size());
            for (std::size_t t = 0; t < got.ticks.size(); ++t)
                ASSERT_EQ(got.ticks[t], base.ticks[t])
                    << "tick " << t + 1 << " shards=" << n_shards
                    << " threads=" << n_threads;
            EXPECT_EQ(got.reconnect_ticks, base.reconnect_ticks);
            for (std::size_t s = 0; s < kStreams; ++s) {
                EXPECT_EQ(got.streams[s].decoded, base.streams[s].decoded);
                EXPECT_EQ(got.streams[s].delivered,
                          base.streams[s].delivered);
                EXPECT_EQ(got.streams[s].dropped, base.streams[s].dropped);
                EXPECT_EQ(got.streams[s].processed,
                          base.streams[s].processed);
                ASSERT_EQ(got.streams[s].blinks.size(),
                          base.streams[s].blinks.size());
                for (std::size_t b = 0; b < got.streams[s].blinks.size();
                     ++b) {
                    EXPECT_EQ(got.streams[s].blinks[b].peak_s,
                              base.streams[s].blinks[b].peak_s);
                    EXPECT_EQ(got.streams[s].blinks[b].magnitude,
                              base.streams[s].blinks[b].magnitude);
                }
            }
        }
    }
}

// ----------------------------------------------------- overload drill

/// The deterministic slice of an aggregated telemetry snapshot — what
/// the bit-identity sweep compares. Excluded: engine.sessions_stolen
/// (scheduling-dependent), per-shard roll-ups (shape follows n_shards),
/// per-laggard detail (ranked by wall-clock stage time), and pump_ns
/// (wall time). Histograms whose *values* are wall durations (the stage
/// timers) contribute their deterministic frame counts only; the SLO
/// latency and queue-age histograms — tick-derived values — must match
/// bucket for bucket.
std::string telemetry_identity_subset(const obs::MetricsRegistry& out) {
    const auto excluded = [](const std::string& name) {
        if (name == "fleet.engine.sessions_stolen") return true;
        if (name.rfind("fleet.shard", 0) == 0) return true;
        if (name == "ingest.pump_ns") return true;
        if (name.rfind("fleet.s", 0) == 0 && name.size() > 7 &&
            name[7] >= '0' && name[7] <= '9')
            return true;
        return false;
    };
    const auto deterministic_values = [](const std::string& name) {
        return name == "ingest.slo.enqueue_to_result_ns" ||
               name == "ingest.queue_age_ticks";
    };
    std::string s;
    for (const auto& [name, c] : out.counters()) {
        if (excluded(name)) continue;
        s += name;
        s += '=';
        s += std::to_string(c.value());
        s += '\n';
    }
    for (const auto& [name, g] : out.gauges()) {
        if (excluded(name)) continue;
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", g.value());
        s += name;
        s += '=';
        s += buf;
        s += '\n';
    }
    for (const auto& [name, h] : out.histograms()) {
        if (excluded(name)) continue;
        s += name;
        s += " count=";
        s += std::to_string(h.count());
        if (deterministic_values(name)) {
            s += " sum=";
            s += std::to_string(h.sum_ns());
            s += " min=";
            s += std::to_string(h.min_ns());
            s += " max=";
            s += std::to_string(h.max_ns());
            s += " buckets=";
            for (const std::uint64_t b : h.counts()) {
                s += std::to_string(b);
                s += ',';
            }
        }
        s += '\n';
    }
    return s;
}

/// Parse a span JSONL record and assert every hop is present with
/// monotonically non-decreasing timestamps:
/// decode -> enqueue -> admit -> pump -> stage[0..7] -> result.
void expect_span_monotone(const std::string& rec) {
    ASSERT_FALSE(rec.empty());
    std::vector<std::uint64_t> ts;
    for (const char* key : {"\"decode_ns\":", "\"enqueue_ns\":",
                            "\"admit_ns\":", "\"pump_ns\":"}) {
        const std::size_t pos = rec.find(key);
        ASSERT_NE(pos, std::string::npos) << key << " missing in " << rec;
        ts.push_back(
            std::strtoull(rec.c_str() + pos + std::strlen(key), nullptr, 10));
    }
    const std::size_t spos = rec.find("\"stage_ns\":[");
    ASSERT_NE(spos, std::string::npos) << rec;
    const char* p = rec.c_str() + spos + std::strlen("\"stage_ns\":[");
    for (int i = 0; i < 8; ++i) {
        char* end = nullptr;
        ts.push_back(std::strtoull(p, &end, 10));
        ASSERT_NE(p, end) << "stage " << i << " missing in " << rec;
        p = *end == ',' ? end + 1 : end;
    }
    const std::size_t rpos = rec.find("\"result_ns\":");
    ASSERT_NE(rpos, std::string::npos) << rec;
    ts.push_back(std::strtoull(
        rec.c_str() + rpos + std::strlen("\"result_ns\":"), nullptr, 10));
    EXPECT_GT(ts[0], 0u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_GE(ts[i], ts[i - 1]) << "hop " << i << " in " << rec;
}

struct DrillOutcome {
    std::vector<SweepStream> streams;
    std::vector<std::array<std::uint64_t, 3>> shed;  // tick, from, to
    std::vector<std::uint64_t> pump_ns;
    bool refused_at_top = false;
    bool residency_tightened = false;
    fleet::ResidencyPolicy final_residency{};
    ingest::ShedLevel final_level = ingest::ShedLevel::kNormal;
    std::string telemetry;    ///< deterministic aggregated subset
    std::vector<std::string> names;  ///< every aggregated metric name
    std::string span_record;  ///< last completed span JSONL
    std::uint64_t spans_completed = 0;
    bool slo_burned_during_shed = false;
    bool slo_burning_after = false;
    std::uint64_t slo_good = 0;
    std::uint64_t slo_bad = 0;
    std::uint64_t dropped_metric = 0;  ///< ingest.frames.dropped, all closed
};

DrillOutcome run_overload(std::size_t n_shards, std::size_t n_threads,
                          const std::vector<sim::SimulatedSession>& sims,
                          const std::vector<std::vector<std::uint8_t>>&
                              encoded) {
    ThreadPool pool(n_threads);
    obs::telemetry::SpanCollector spans;
    fleet::FleetConfig fcfg;
    fcfg.n_shards = n_shards;
    fcfg.collect_metrics = true;
    fcfg.span_collector = &spans;
    fleet::FleetEngine engine(fcfg, &pool);

    obs::MetricsRegistry reg;
    ingest::IngestConfig cfg;
    cfg.governor.budget_frames_per_tick = 24;
    cfg.governor.engage_ticks = 2;
    cfg.governor.release_ticks = 4;
    cfg.stream.queue_capacity = 64;
    cfg.stream.policy = ingest::BackpressurePolicy::kBlock;
    cfg.admission.capacity = 16.0;
    ingest::IngestFrontend fe(cfg, engine, &reg, nullptr, &spans);

    // Producers at 4x the sustainable rate: the budget sustains 4
    // frames/stream/tick across 6 streams; each source trickles 16.
    const std::size_t trickle =
        16 * frame_record_bytes(sims[0].radar.n_bins());
    std::vector<ingest::StreamId> ids;
    for (const auto& bytes : encoded) {
        const auto adm = fe.open_stream(
            std::make_unique<ingest::MemoryByteSource>(bytes, trickle));
        EXPECT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    DrillOutcome out;
    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 3000) {
        const ingest::PumpReport rep = fe.pump();
        out.pump_ns.push_back(rep.pump_ns);
        if (fe.shed_level() == ingest::ShedLevel::kRefuseAdmissions &&
            !out.refused_at_top) {
            const auto adm = fe.open_stream(
                std::make_unique<ingest::MemoryByteSource>(
                    std::vector<std::uint8_t>{}));
            out.refused_at_top =
                adm.outcome == ingest::AdmissionOutcome::kRefusedShed;
        }
        if (fe.shed_level() >= ingest::ShedLevel::kEvictIdle &&
            engine.residency_policy().evict_idle_after_pumps == 1)
            out.residency_tightened = true;
        if (fe.shed_level() >= ingest::ShedLevel::kWidenSampling &&
            fe.slo() != nullptr && fe.slo()->burning())
            out.slo_burned_during_shed = true;
    }
    EXPECT_TRUE(fe.drained());
    // Idle ticks after the sources dry up walk the ladder back down.
    for (int i = 0; i < 40; ++i) {
        const ingest::PumpReport rep = fe.pump();
        out.pump_ns.push_back(rep.pump_ns);
    }
    out.final_level = fe.shed_level();
    out.final_residency = engine.residency_policy();

    // Telemetry capture, before close_stream tears sessions down.
    out.slo_burning_after = fe.slo()->burning();
    out.slo_good = fe.slo()->good();
    out.slo_bad = fe.slo()->bad();
    fe.publish_telemetry();
    const obs::MetricsRegistry& agg = fe.aggregator().output();
    out.telemetry = telemetry_identity_subset(agg);
    for (const auto& [name, c] : agg.counters()) out.names.push_back(name);
    for (const auto& [name, g] : agg.gauges()) out.names.push_back(name);
    for (const auto& [name, h] : agg.histograms()) out.names.push_back(name);
    out.span_record = spans.last_record();
    out.spans_completed = spans.completed();

    for (const ingest::ShedEvent& e : fe.shed_events())
        out.shed.push_back({e.tick, static_cast<std::uint64_t>(e.from),
                            static_cast<std::uint64_t>(e.to)});

    for (const auto id : ids) {
        const ingest::StreamStats st = fe.stream_stats(id);
        SweepStream row;
        row.decoded = st.frames_decoded;
        row.delivered = st.frames_delivered;
        row.dropped = st.frames_dropped;
        EXPECT_EQ(st.queued, 0u);
        EXPECT_FALSE(st.holding);
        expect_no_silent_loss(fe, id);
        // Under a blocked stream forced to drop_oldest, every drop is a
        // drop_oldest — nothing vanished through an unrecorded path.
        const ingest::FrameQueueStats q = fe.queue_stats(id);
        EXPECT_EQ(q.dropped_newest, 0u);
        const fleet::SessionId sid = *fe.session_of(id);
        row.blinks = engine.blinks(sid);
        row.processed = fe.close_stream(id).frames_processed;
        out.streams.push_back(std::move(row));
    }
    out.dropped_metric = reg.counter("ingest.frames.dropped").value();
    return out;
}

TEST(IngestOverload, ShedLadderEngagesInOrderWithNoSilentLossAndBitIdentity) {
    const std::size_t kStreams = 6;
    const auto sims = make_sessions(kStreams, 8.0);
    std::vector<std::vector<std::uint8_t>> encoded;
    for (std::size_t i = 0; i < kStreams; ++i)
        encoded.push_back(encode(sims[i], i));

    const DrillOutcome base = run_overload(1, 1, sims, encoded);

    // The ladder engaged rung by rung, in its documented order.
    ASSERT_GE(base.shed.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(base.shed[i][1], i) << "transition " << i;
        EXPECT_EQ(base.shed[i][2], i + 1) << "transition " << i;
    }
    // Every step the ladder took was a single rung.
    for (const auto& e : base.shed)
        EXPECT_EQ(std::max(e[1], e[2]) - std::min(e[1], e[2]), 1u);
    // Overload responses actually happened...
    EXPECT_TRUE(base.refused_at_top);
    EXPECT_TRUE(base.residency_tightened);
    std::uint64_t total_dropped = 0;
    for (const auto& s : base.streams) total_dropped += s.dropped;
    EXPECT_GT(total_dropped, 0u);  // forced drop_oldest shed real frames
    // The drop metric counts every queue drop, including the ones a held
    // frame's retry makes once drop_oldest is forced on a blocked stream,
    // and keeps the drops of streams already closed.
    EXPECT_EQ(base.dropped_metric, total_dropped);
    // ...and were fully released once the overload passed.
    EXPECT_EQ(base.final_level, ingest::ShedLevel::kNormal);
    EXPECT_EQ(base.final_residency.max_resident, 0u);
    EXPECT_EQ(base.final_residency.evict_idle_after_pumps, 0u);
    // Delivered frames were all processed; drops are the only loss, and
    // they are counted per stream.
    for (const auto& s : base.streams) {
        EXPECT_EQ(s.delivered, s.processed);
        EXPECT_EQ(s.decoded, s.delivered + s.dropped);
    }

    // p99 engine-pump latency under the 40 ms fleet SLO, even at 4x.
    std::vector<std::uint64_t> lat = base.pump_ns;
    std::sort(lat.begin(), lat.end());
    const std::uint64_t p99 = lat[(lat.size() * 99) / 100];
    EXPECT_LT(p99, 40'000'000u);

    // SLO burn-rate: the error budget burned while the shed ladder was
    // engaged (queued frames aged past the 40 ms objective), and the
    // burn recovered once the overload released.
    EXPECT_TRUE(base.slo_burned_during_shed);
    EXPECT_FALSE(base.slo_burning_after);
    EXPECT_GT(base.slo_bad, 0u);
    EXPECT_GT(base.slo_good, 0u);

    // A sampled frame completed its span: every hop from decode to
    // result present, timestamps monotonically non-decreasing.
    EXPECT_GT(base.spans_completed, 0u);
    expect_span_monotone(base.span_record);

    // The aggregated snapshot's deterministic slice is non-trivial.
    EXPECT_NE(base.telemetry.find("fleet.stage."), std::string::npos);
    EXPECT_NE(base.telemetry.find("ingest.slo.good"), std::string::npos);
    // Every name tools/br_top renders is in the snapshot: the fleet and
    // ingest prefixes are the namespace its dashboard reads.
    const auto has = [&](const std::string& name) {
        return std::find(base.names.begin(), base.names.end(), name) !=
               base.names.end();
    };
    for (const char* name :
         {"fleet.engine.sessions", "fleet.engine.resident",
          "fleet.engine.evicted", "ingest.shed.level", "ingest.backlog",
          "ingest.load", "ingest.pump_ns", "ingest.slo.burn_short",
          "ingest.slo.burn_long", "ingest.slo.burning", "ingest.slo.good",
          "ingest.slo.bad", "ingest.slo.enqueue_to_result_ns"})
        EXPECT_TRUE(has(name)) << name;
    EXPECT_TRUE(std::any_of(base.names.begin(), base.names.end(),
                            [](const std::string& name) {
                                return name.rfind("fleet.stage.", 0) == 0;
                            }));

    // Bit-identical shed schedule and outputs at any shard/thread count.
    const std::size_t shard_counts[] = {3, 8};
    const std::size_t pool_sizes[] = {2, 7};
    for (const std::size_t n_shards : shard_counts) {
        for (const std::size_t n_threads : pool_sizes) {
            const DrillOutcome got =
                run_overload(n_shards, n_threads, sims, encoded);
            EXPECT_EQ(got.shed, base.shed)
                << "shards=" << n_shards << " threads=" << n_threads;
            // Aggregated fleet telemetry is bit-identical on its
            // deterministic slice at any shard/thread count, and the
            // SLO tallies replay exactly.
            EXPECT_EQ(got.telemetry, base.telemetry)
                << "shards=" << n_shards << " threads=" << n_threads;
            EXPECT_EQ(got.slo_good, base.slo_good);
            EXPECT_EQ(got.slo_bad, base.slo_bad);
            EXPECT_EQ(got.slo_burned_during_shed,
                      base.slo_burned_during_shed);
            ASSERT_EQ(got.streams.size(), base.streams.size());
            for (std::size_t s = 0; s < got.streams.size(); ++s) {
                EXPECT_EQ(got.streams[s].decoded, base.streams[s].decoded);
                EXPECT_EQ(got.streams[s].delivered,
                          base.streams[s].delivered);
                EXPECT_EQ(got.streams[s].dropped, base.streams[s].dropped);
                EXPECT_EQ(got.streams[s].processed,
                          base.streams[s].processed);
                ASSERT_EQ(got.streams[s].blinks.size(),
                          base.streams[s].blinks.size());
                for (std::size_t b = 0; b < got.streams[s].blinks.size();
                     ++b)
                    EXPECT_EQ(got.streams[s].blinks[b].peak_s,
                              base.streams[s].blinks[b].peak_s);
            }
        }
    }
}

// ------------------------------------------------------ concurrency (TSan)

TEST(IngestConcurrency, PipeProducersAgainstThePumpDrill) {
    const std::size_t kStreams = 3;
    const auto sims = make_sessions(kStreams, 3.0);

    // Pipes outlive the front-end (sources borrow their buffers).
    std::vector<std::unique_ptr<ingest::BytePipe>> pipes;
    for (std::size_t i = 0; i < kStreams; ++i)
        pipes.push_back(std::make_unique<ingest::BytePipe>(16 * 1024));

    ThreadPool pool(2);
    fleet::FleetConfig fcfg;
    fcfg.record_results = false;
    fleet::FleetEngine engine(fcfg, &pool);
    ingest::IngestConfig cfg;
    cfg.stream.queue_capacity = 32;
    ingest::IngestFrontend fe(cfg, engine);

    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < kStreams; ++i) {
        const auto adm = fe.open_stream(pipes[i]->make_source());
        ASSERT_TRUE(adm.admitted());
        ids.push_back(adm.id);
    }

    // Producer threads push whole sessions through the bounded pipes,
    // living with short writes (the reader applies backpressure).
    std::atomic<std::size_t> producers_done{0};
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < kStreams; ++i) {
        producers.emplace_back([&, i] {
            const auto bytes = encode(sims[i], i);
            std::size_t off = 0;
            while (off < bytes.size()) {
                const std::size_t n = std::min<std::size_t>(
                    4096, bytes.size() - off);
                const std::size_t accepted = pipes[i]->write(
                    std::span<const std::uint8_t>(bytes.data() + off, n));
                off += accepted;
                if (accepted == 0) std::this_thread::yield();
            }
            pipes[i]->close();
            producers_done.fetch_add(1, std::memory_order_release);
        });
    }

    // Keep pumping until every producer has finished, even past the
    // drain budget: a producer blocked on a full pipe needs the pump to
    // keep reading, so stopping early would deadlock the joins below
    // (seen on heavily loaded CI where the pump thread outruns starved
    // producers). The guard against a hang is wall time, not a tick
    // count: a tick with nothing ready costs next to nothing, so a
    // starved producer can take any number of ticks to get scheduled.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while ((producers_done.load(std::memory_order_acquire) < kStreams ||
            !fe.drained()) &&
           std::chrono::steady_clock::now() < give_up)
        fe.pump();
    ASSERT_EQ(producers_done.load(), kStreams);
    for (auto& p : producers) p.join();
    ASSERT_TRUE(fe.drained());

    for (std::size_t i = 0; i < kStreams; ++i) {
        const ingest::StreamStats st = fe.stream_stats(ids[i]);
        EXPECT_EQ(st.frames_decoded, sims[i].frames.size());
        EXPECT_TRUE(st.saw_bye);
        EXPECT_EQ(st.frames_dropped, 0u);  // block policy never drops
        expect_no_silent_loss(fe, ids[i]);
        const fleet::SessionStats final_stats = fe.close_stream(ids[i]);
        EXPECT_EQ(final_stats.frames_processed, sims[i].frames.size());
    }
}

}  // namespace
}  // namespace blinkradar
