// State-snapshot container: format round-trips, compatibility rules, and
// the malformed-input rejection contract (the reader must throw
// SnapshotError — never crash, hang, or read out of bounds — for ANY
// mutation of a valid snapshot; fuzzed below).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/env_config.hpp"
#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"
#include "state/crc32_backends.hpp"
#include "state/snapshot.hpp"

using namespace blinkradar;
using state::StateReader;
using state::StateWriter;

namespace {

constexpr std::uint32_t kTagA = state::make_tag("AAAA");
constexpr std::uint32_t kTagB = state::make_tag("BBBB");

std::vector<std::uint8_t> sample_snapshot(bool defer_crcs = false) {
    StateWriter w;
    if (defer_crcs) w.defer_crcs();
    w.begin_section(kTagA, 1);
    w.write_u8(0x5A);
    w.write_u16(0xBEEF);
    w.write_u32(0xDEADBEEF);
    w.write_u64(0x0123456789ABCDEFull);
    w.write_i64(-42);
    w.write_f64(3.14159);
    w.write_bool(true);
    w.write_size(1234567);
    w.write_complex(dsp::Complex(1.5, -2.5));
    w.end_section();
    w.begin_section(kTagB, 3);
    const double doubles[] = {0.0, -0.0, 1e300, -1e-300};
    w.write_f64_span(doubles);
    const dsp::Complex cplx[] = {{1.0, 2.0}, {-3.0, 4.0}};
    w.write_complex_span(cplx);
    const std::uint8_t raw[] = {1, 2, 3, 4, 5};
    w.write_u8_span(raw);
    w.end_section();
    return w.finish();
}

}  // namespace

TEST(StateSnapshot, RoundTripsEveryScalarType) {
    const std::vector<std::uint8_t> bytes = sample_snapshot();
    StateReader r(bytes);
    EXPECT_TRUE(r.has_section(kTagA));
    EXPECT_TRUE(r.has_section(kTagB));
    EXPECT_FALSE(r.has_section(state::make_tag("ZZZZ")));

    EXPECT_EQ(r.open_section(kTagA), 1);
    EXPECT_EQ(r.read_u8(), 0x5A);
    EXPECT_EQ(r.read_u16(), 0xBEEF);
    EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.read_i64(), -42);
    EXPECT_EQ(r.read_f64(), 3.14159);
    EXPECT_TRUE(r.read_bool());
    EXPECT_EQ(r.read_size(), 1234567u);
    EXPECT_EQ(r.read_complex(), dsp::Complex(1.5, -2.5));
    EXPECT_EQ(r.section_remaining(), 0u);
    r.close_section();

    EXPECT_EQ(r.open_section(kTagB), 3);
    std::vector<double> doubles;
    r.read_f64_into(doubles);
    ASSERT_EQ(doubles.size(), 4u);
    EXPECT_EQ(doubles[2], 1e300);
    EXPECT_TRUE(std::signbit(doubles[1]));
    dsp::ComplexSignal cplx;
    r.read_complex_into(cplx);
    ASSERT_EQ(cplx.size(), 2u);
    EXPECT_EQ(cplx[1], dsp::Complex(-3.0, 4.0));
    std::vector<std::uint8_t> raw;
    r.read_u8_into(raw);
    EXPECT_EQ(raw, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    r.close_section();
}

TEST(StateSnapshot, Crc32MatchesKnownVector) {
    // The canonical IEEE check value: crc32("123456789") = 0xCBF43926.
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                   '6', '7', '8', '9'};
    EXPECT_EQ(state::crc32(digits), 0xCBF43926u);
}

// --------------------------------------------------- CRC-32 backend pinning

namespace {

/// Bit-at-a-time CRC-32 register update: the definition every backend
/// must reproduce, written independently of the library's tables.
std::uint32_t reference_crc32_update(std::uint32_t crc,
                                     std::span<const std::uint8_t> data) {
    for (const std::uint8_t b : data) {
        crc ^= b;
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc;
}

struct NamedBackend {
    const char* name;
    state::detail::Crc32Update update;
};

/// slice8 always; pclmul where this CPU has it.
std::vector<NamedBackend> crc32_backends() {
    std::vector<NamedBackend> out{
        {"slice8", &state::detail::crc32_update_slice8}};
    if (const state::detail::Crc32Update f = state::detail::pclmul_crc32())
        out.push_back({"pclmul", f});
    return out;
}

void expect_backends_match(std::span<const std::uint8_t> data,
                           std::uint32_t init, const std::string& what) {
    const std::uint32_t want = reference_crc32_update(init, data);
    for (const NamedBackend& b : crc32_backends())
        ASSERT_EQ(b.update(init, data), want)
            << b.name << " diverged on " << what << " (" << data.size()
            << " bytes)";
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (std::uint8_t& b : out)
        b = static_cast<std::uint8_t>(rng.engine()() & 0xFFu);
    return out;
}

}  // namespace

TEST(Crc32Backends, EveryLengthAcrossTheFoldBoundaries) {
    // 0-300 crosses the 8-byte slice step, the 16-byte single fold, the
    // 64-byte minimum of the four-lane fold and several multiples of it.
    const std::vector<std::uint8_t> bytes = random_bytes(300, 11);
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        const std::span<const std::uint8_t> data(bytes.data(), n);
        expect_backends_match(data, 0xFFFFFFFFu, "prefix");
        // A non-initial register: the backends must be pure updates.
        expect_backends_match(data, 0x12345678u, "prefix, seeded register");
    }
}

TEST(Crc32Backends, RandomLengthsAtEveryAlignment) {
    const std::vector<std::uint8_t> bytes = random_bytes(8192 + 64, 12);
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 63));
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 8192));
        expect_backends_match(
            std::span<const std::uint8_t>(bytes.data() + offset, len),
            0xFFFFFFFFu, "offset " + std::to_string(offset));
    }
}

TEST(Crc32Backends, RealPipelineSnapshot) {
    // A full 250-frame window: the ~612 KiB container an autosnapshot or
    // eviction checksums, section by section and as one buffer.
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = 12.0;
    sc.seed = 5;
    const sim::SimulatedSession s = sim::simulate_session(sc);
    core::BlinkRadarPipeline pipe(s.radar, {});
    for (const radar::RadarFrame& f : s.frames) pipe.process(f);
    StateWriter w;
    pipe.save_state(w);
    const std::vector<std::uint8_t> bytes = w.finish();
    ASSERT_GT(bytes.size(), 512u * 1024u);
    expect_backends_match(bytes, 0xFFFFFFFFu, "whole pipeline snapshot");
    // And the stored section CRCs verify under the active backend.
    EXPECT_NO_THROW(StateReader{bytes});
}

TEST(Crc32Backends, ActiveBackendHonoursTheScalarOverride) {
    const state::detail::Crc32Update want =
        process_config().simd_backend == "scalar" ||
                state::detail::pclmul_crc32() == nullptr
            ? &state::detail::crc32_update_slice8
            : state::detail::pclmul_crc32();
    EXPECT_EQ(state::detail::active_crc32(), want);
}

TEST(StateSnapshot, SectionsAreNavigableInAnyOrder) {
    const std::vector<std::uint8_t> bytes = sample_snapshot();
    StateReader r(bytes);
    EXPECT_EQ(r.open_section(kTagB), 3);  // written second, read first
    r.close_section();
    EXPECT_EQ(r.open_section(kTagA), 1);
    EXPECT_EQ(r.read_u8(), 0x5A);
    r.close_section();
}

TEST(StateSnapshot, UnknownSectionsAreSkipped) {
    // A reader that only knows AAAA must navigate a snapshot carrying an
    // extra (future) section without complaint.
    StateWriter w;
    w.begin_section(state::make_tag("FUTR"), 9);
    w.write_f64(123.0);
    w.end_section();
    w.begin_section(kTagA, 1);
    w.write_u32(7);
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    StateReader r(bytes);
    EXPECT_EQ(r.open_section(kTagA), 1);
    EXPECT_EQ(r.read_u32(), 7u);
    r.close_section();
}

TEST(StateSnapshot, CloseSectionToleratesUnreadTail) {
    // Forward compatibility: a newer writer appended fields we don't
    // know; close_section() must not reject the leftover payload.
    StateWriter w;
    w.begin_section(kTagA, 2);
    w.write_u32(7);
    w.write_f64(99.0);  // appended-in-v2 field a v1 reader won't touch
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    StateReader r(bytes);
    r.open_section(kTagA);
    EXPECT_EQ(r.read_u32(), 7u);
    EXPECT_EQ(r.section_remaining(), 8u);
    r.close_section();  // must not throw
}

TEST(StateSnapshot, MissingSectionThrows) {
    const std::vector<std::uint8_t> bytes = sample_snapshot();
    StateReader r(bytes);
    EXPECT_THROW(r.open_section(state::make_tag("NOPE")),
                 state::SnapshotError);
}

TEST(StateSnapshot, DuplicateSectionThrows) {
    StateWriter w;
    w.begin_section(kTagA, 1);
    w.end_section();
    w.begin_section(kTagA, 1);
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    EXPECT_THROW(StateReader r(bytes), state::SnapshotError);
}

TEST(StateSnapshot, ReadPastSectionEndThrows) {
    StateWriter w;
    w.begin_section(kTagA, 1);
    w.write_u32(1);
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    StateReader r(bytes);
    r.open_section(kTagA);
    r.read_u32();
    EXPECT_THROW(r.read_u8(), state::SnapshotError);
}

TEST(StateSnapshot, SpanLengthBeyondSectionThrows) {
    // A length prefix claiming more elements than the payload holds must
    // be caught by the bounds check, including when n*8 would overflow.
    StateWriter w;
    w.begin_section(kTagA, 1);
    w.write_u64(UINT64_MAX);  // absurd element count
    w.end_section();
    const std::vector<std::uint8_t> bytes = w.finish();
    StateReader r(bytes);
    r.open_section(kTagA);
    std::vector<double> out;
    EXPECT_THROW(r.read_f64_into(out), state::SnapshotError);
}

TEST(StateSnapshot, EveryTruncationIsRejected) {
    const std::vector<std::uint8_t> bytes = sample_snapshot();
    // Sections are self-delimiting and the container carries no section
    // count, so a prefix ending *exactly* at a section boundary is a
    // valid (shorter) snapshot — that is why publication goes through
    // the atomic write-then-rename, never a truncatable in-place write.
    // Every other prefix must throw: never parse, never crash.
    std::set<std::size_t> boundaries = {8};  // bare container header
    for (std::size_t at = 8; at + 16 <= bytes.size();) {
        std::uint32_t payload_len = 0;  // u32 LE at section offset 8
        for (int b = 3; b >= 0; --b)
            payload_len = (payload_len << 8) |
                          bytes[at + 8 + static_cast<std::size_t>(b)];
        at += 12 + payload_len + 4;
        boundaries.insert(at);
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        if (boundaries.count(len) != 0) continue;
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW(StateReader r(cut), state::SnapshotError)
            << "prefix of " << len << " bytes parsed";
    }
}

TEST(StateSnapshot, EverySingleByteCorruptionIsRejectedOrHarmless) {
    // Flip each byte in turn. Structural bytes and payload alike are CRC
    // covered, so every flip must throw at construction — except the
    // container flags field, which is reserved and unchecked.
    const std::vector<std::uint8_t> bytes = sample_snapshot();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::vector<std::uint8_t> bad = bytes;
        bad[i] ^= 0xFF;
        if (i == 6 || i == 7) continue;  // reserved flags: unvalidated
        EXPECT_THROW(StateReader r(bad), state::SnapshotError)
            << "byte " << i << " flipped without detection";
    }
}

TEST(StateSnapshot, FuzzedMutationsNeverEscapeSnapshotError) {
    // Deterministic fuzz: random byte mutations, truncations, and
    // extensions of a valid snapshot. The contract is narrow — either
    // the reader rejects with SnapshotError at construction, or it
    // constructs and every navigation stays bounds-checked.
    const std::vector<std::uint8_t> base = sample_snapshot();
    Rng rng(20260806);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<std::uint8_t> mutated = base;
        const int mutations = rng.uniform_int(1, 8);
        for (int m = 0; m < mutations; ++m) {
            switch (rng.uniform_int(0, 3)) {
                case 0:  // flip random byte
                    mutated[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(mutated.size()) - 1))] ^=
                        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
                    break;
                case 1:  // truncate
                    mutated.resize(static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(mutated.size()))));
                    break;
                case 2:  // append garbage
                    for (int k = rng.uniform_int(1, 16); k > 0; --k)
                        mutated.push_back(static_cast<std::uint8_t>(
                            rng.uniform_int(0, 255)));
                    break;
                case 3:  // overwrite a random run
                    if (!mutated.empty()) {
                        const auto at = static_cast<std::size_t>(
                            rng.uniform_int(
                                0, static_cast<int>(mutated.size()) - 1));
                        for (std::size_t k = at;
                             k < mutated.size() && k < at + 12; ++k)
                            mutated[k] = static_cast<std::uint8_t>(
                                rng.uniform_int(0, 255));
                    }
                    break;
            }
            if (mutated.empty()) break;
        }
        try {
            StateReader r(mutated);
            // Constructed: CRCs passed, so navigation must behave.
            if (r.has_section(kTagA)) {
                r.open_section(kTagA);
                while (r.section_remaining() > 0) r.read_u8();
                r.close_section();
            }
        } catch (const state::SnapshotError&) {
            // The expected rejection path.
        }
    }
}

TEST(StateSnapshot, FileRoundTripIsAtomic) {
    const std::string path =
        testing::TempDir() + "/blinkradar_state_test.snap";
    const std::vector<std::uint8_t> first = sample_snapshot();
    state::write_snapshot_file(path, first);
    EXPECT_EQ(state::read_snapshot_file(path), first);

    // Overwrite publishes atomically: afterwards the file holds exactly
    // the new bytes and the .tmp staging file is gone.
    StateWriter w;
    w.begin_section(kTagB, 1);
    w.write_u32(99);
    w.end_section();
    const std::vector<std::uint8_t> second = w.finish();
    state::write_snapshot_file(path, second);
    EXPECT_EQ(state::read_snapshot_file(path), second);
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(StateSnapshot, MissingFileThrows) {
    EXPECT_THROW(
        state::read_snapshot_file("/nonexistent/dir/never_here.snap"),
        state::SnapshotError);
    EXPECT_THROW(state::write_snapshot_file(
                     "/nonexistent/dir/never_here.snap", sample_snapshot()),
                 state::SnapshotError);
}

TEST(StateSnapshot, DirectoryPathThrowsSnapshotError) {
    // Opening a directory as a stream succeeds on POSIX, but its size is
    // unknowable: the reader must reject it, not size a buffer from a
    // failed tellg().
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "snapshot_is_a_dir";
    std::filesystem::create_directories(dir);
    EXPECT_THROW(state::read_snapshot_file(dir.string()),
                 state::SnapshotError);
    std::filesystem::remove(dir);
}

TEST(StateSnapshot, DeferredCrcsSealToTheExactEagerBytes) {
    // A deferred writer emits zero CRC placeholders: the container must
    // be rejected as-is, and seal_section_crcs must produce exactly the
    // bytes an eager writer would have.
    const std::vector<std::uint8_t> eager = sample_snapshot();
    std::vector<std::uint8_t> deferred = sample_snapshot(/*defer_crcs=*/true);

    ASSERT_EQ(deferred.size(), eager.size());
    EXPECT_NE(deferred, eager);  // placeholder CRCs differ
    EXPECT_THROW(StateReader{deferred}, state::SnapshotError);

    state::seal_section_crcs(deferred);
    EXPECT_EQ(deferred, eager);
    EXPECT_NO_THROW(StateReader{deferred});

    // Sealing is idempotent, including on eagerly written containers.
    state::seal_section_crcs(deferred);
    EXPECT_EQ(deferred, eager);
}

TEST(StateSnapshot, SealRejectsStructuralDamage) {
    std::vector<std::uint8_t> bytes = sample_snapshot();
    EXPECT_NO_THROW(state::seal_section_crcs(bytes));

    std::vector<std::uint8_t> short_header(bytes.begin(), bytes.begin() + 4);
    EXPECT_THROW(state::seal_section_crcs(short_header),
                 state::SnapshotError);

    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(state::seal_section_crcs(bad_magic), state::SnapshotError);

    // Inflate the first section's payload length past the container.
    std::vector<std::uint8_t> bad_len = bytes;
    bad_len[8 + 8] = 0xFF;
    bad_len[8 + 9] = 0xFF;
    EXPECT_THROW(state::seal_section_crcs(bad_len), state::SnapshotError);

    // Cut mid-section so the section header itself is truncated.
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 8 + 6);
    EXPECT_THROW(state::seal_section_crcs(cut), state::SnapshotError);
}

TEST(StateSnapshot, TagNameFormatsPrintableAndBinaryTags) {
    EXPECT_EQ(state::tag_name(state::make_tag("LEVD")), "LEVD");
    EXPECT_EQ(state::tag_name(0x01020304u), "0x01020304");
}

// --- Concurrent-writer regression tests --------------------------------
//
// write_snapshot_file used to stage every write of a given target at the
// fixed name `path + ".tmp"`: two concurrent writers (two fleet sessions
// spilling, a Supervisor slot racing a flight-recorder dump) interleaved
// their bytes in ONE temp file, and whichever renamed last could publish
// a spliced container. The writer-unique temp names make each in-flight
// write private; these tests fail on the pre-fix code.

TEST(SnapshotConcurrency, ConcurrentWritersToOnePathNeverCorrupt) {
    const std::string dir = testing::TempDir();
    const std::string path = dir + "/blinkradar_concurrent.snap";
    std::remove(path.c_str());

    // Each thread repeatedly publishes its own distinctive payload; all
    // payloads parse, so ANY interleaving of renames is fine — what must
    // never happen is a file that is a byte-mix of two writers.
    const std::size_t kThreads = 8;
    const std::size_t kWrites = 25;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        StateWriter w;
        w.begin_section(kTagA, 1);
        w.write_u64(0xA0A0'0000'0000'0000ull + t);
        for (std::size_t i = 0; i < 64; ++i) w.write_f64(t * 1000.0 + i);
        w.end_section();
        payloads.push_back(w.finish());
    }

    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
            for (std::size_t i = 0; i < kWrites; ++i)
                state::write_snapshot_file(path, payloads[t]);
        });
    for (auto& th : writers) th.join();

    // The published file is exactly one writer's payload, bit for bit.
    const std::vector<std::uint8_t> final_bytes =
        state::read_snapshot_file(path);
    bool matches_one = false;
    for (const auto& p : payloads) matches_one |= (final_bytes == p);
    EXPECT_TRUE(matches_one);
    // And parses cleanly (CRCs intact — no spliced container).
    EXPECT_NO_THROW(state::StateReader{final_bytes});

    // Every temp was renamed or removed; none leak.
    std::size_t leftovers = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().find(
                "blinkradar_concurrent.snap.tmp") != std::string::npos)
            ++leftovers;
    EXPECT_EQ(leftovers, 0u);
    std::remove(path.c_str());
}

TEST(SnapshotConcurrency, OrphanCleanupRemovesOnlyDeadWriterTemps) {
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/blinkradar_orphan_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto touch = [&](const std::string& name) {
        std::ofstream(dir + "/" + name) << "x";
    };
    // Orphan: pid far beyond any real pid space, certainly dead.
    touch("state.snap.tmp.999999999.3");
    // In-flight temp of THIS (live) process: must survive.
#if !defined(_WIN32)
    const std::string own_temp =
        "state.snap.tmp." + std::to_string(::getpid()) + ".1";
    touch(own_temp);
#endif
    // Not temp files at all: must survive.
    touch("state.snap");
    touch("state.snap.tmp");          // legacy fixed name: no pid field
    touch("state.snap.tmp.notapid.2");

    const std::size_t removed = state::cleanup_orphan_temps(dir);
    EXPECT_EQ(removed, 1u);
    EXPECT_FALSE(fs::exists(dir + "/state.snap.tmp.999999999.3"));
#if !defined(_WIN32)
    EXPECT_TRUE(fs::exists(dir + "/" + own_temp));
#endif
    EXPECT_TRUE(fs::exists(dir + "/state.snap"));
    EXPECT_TRUE(fs::exists(dir + "/state.snap.tmp"));
    EXPECT_TRUE(fs::exists(dir + "/state.snap.tmp.notapid.2"));

    // Unreadable / missing directory: best-effort zero, never a throw.
    EXPECT_EQ(state::cleanup_orphan_temps(dir + "/missing"), 0u);
    fs::remove_all(dir);
}

TEST(SnapshotConcurrency, TempNamesAreUniquePerWrite) {
    // The staging name embeds pid + a monotonic counter, so two writes
    // from one process never share a temp either. Observe indirectly:
    // two back-to-back writes both publish (rename wins), and no temp
    // with this target prefix survives.
    const std::string dir = testing::TempDir();
    const std::string path = dir + "/blinkradar_unique.snap";
    state::write_snapshot_file(path, sample_snapshot());
    state::write_snapshot_file(path, sample_snapshot());
    EXPECT_EQ(state::read_snapshot_file(path), sample_snapshot());
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(
                      "blinkradar_unique.snap.tmp"),
                  std::string::npos);
    std::remove(path.c_str());
}
