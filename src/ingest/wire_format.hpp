// Streaming wire format "BRWF": the byte-level protocol radar frame
// producers speak to the ingest front-end.
//
// The snapshot container (src/state) frames *state* for storage; this
// module frames *traffic* for transport, and therefore has to survive a
// hostile channel: truncated writes, bit flips, duplicated or reordered
// transport chunks, garbage preambles, and mid-frame EOF. The decoder is
// incremental (push bytes, pull records), never throws on malformed
// input past its own boundary, classifies every rejection as a typed
// DecodeError, and resynchronises on the record sync marker so one
// corrupted record costs exactly the bytes up to the next intact sync.
//
// Format (all integers little-endian, like the "BRSN" container):
//
//   Stream := StreamHeader Record*
//   StreamHeader := magic "BRWF" (4 bytes) | version u16 | flags u16
//   Record := sync "WREC" u32 | type u16 | version u16 |
//             payload_len u32 | seq u64 | payload bytes | crc32 u32
//
// The record CRC-32 (state::crc32, IEEE 802.3 reflected) covers the 16
// header bytes after the sync word plus the payload, so a corrupted
// length field cannot silently misframe the stream. Its backend
// (PCLMULQDQ folding or slice-by-8) follows BLINKRADAR_SIMD_BACKEND:
// "scalar" forces slice-by-8; the bytes are the same either way. `seq`
// is the producer's record counter; the decoder uses it to tell
// re-delivered / reordered records (which FrameGuard then quarantines
// by timestamp) from fresh ones, and to count transport gaps.
//
// Record types:
//   kHello  - opens a stream: the radar configuration the session needs
//             plus a producer-chosen stream tag. Must precede frames.
//   kFrame  - one radar frame: timestamp f64 | n_bins u32 | interleaved
//             I/Q f64 pairs. Bit-exact round-trip of radar::RadarFrame.
//   kBye    - clean end of stream, carrying the producer's frame count
//             so the consumer can distinguish EOF from amputation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "radar/config.hpp"
#include "radar/frame.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::ingest {

inline constexpr std::array<std::uint8_t, 4> kStreamMagic = {'B', 'R', 'W',
                                                             'F'};
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::uint32_t kRecordSync = state::make_tag("WREC");

enum class RecordType : std::uint16_t {
    kHello = 1,
    kFrame = 2,
    kBye = 3,
};
const char* to_string(RecordType type) noexcept;

/// Stream-opening handshake payload.
struct WireHello {
    radar::RadarConfig radar{};
    /// Producer-chosen identifier (vehicle id, replay file ordinal, ...);
    /// carried through to diagnostics, never interpreted.
    std::uint64_t stream_tag = 0;
};

/// Why a chunk of input was rejected. Every enumerator is a *counted*
/// outcome, not an exception: the decoder's contract is that arbitrary
/// bytes can never throw past next().
enum class DecodeError : std::uint8_t {
    kBadStreamMagic = 0,   ///< leading bytes are not "BRWF"
    kBadStreamVersion,     ///< stream header from a newer writer
    kBadSync,              ///< expected record sync, found other bytes
    kBadRecordVersion,     ///< record version above this reader's ceiling
    kBadRecordType,        ///< unknown record type id
    kOversizedRecord,      ///< payload_len above the configured ceiling
    kCrcMismatch,          ///< record failed its checksum
    kBadPayload,           ///< structurally invalid payload (lengths,
                           ///< non-finite config, bin-count mismatch)
    kFrameBeforeHello,     ///< frame record on an unopened stream
    kDuplicateHello,       ///< second hello on an open stream
    kCount_,               ///< sentinel (array sizing)
};
const char* to_string(DecodeError error) noexcept;

/// Decoder accounting. The "no frame is silently lost" invariant starts
/// here: frames_decoded counts every frame that survived decoding, and
/// every rejected byte lands in quarantined_bytes with its reason in
/// errors[] — the ingest metrics expose all of it.
struct DecodeStats {
    std::uint64_t bytes_in = 0;
    std::uint64_t records_decoded = 0;
    std::uint64_t frames_decoded = 0;
    std::uint64_t byes_decoded = 0;
    std::uint64_t resyncs = 0;             ///< scans forced by bad input
    std::uint64_t quarantined_bytes = 0;   ///< bytes skipped, never parsed
    std::uint64_t seq_regressions = 0;     ///< duplicated/reordered records
    std::uint64_t seq_gaps = 0;            ///< records lost in transport
    std::array<std::uint64_t,
               static_cast<std::size_t>(DecodeError::kCount_)>
        errors{};

    std::uint64_t total_errors() const noexcept;
};

/// Serialises a frame stream into "BRWF" bytes. The encoder is the
/// trusted side: it validates its inputs with contracts (a producer
/// encoding nonsense is a bug, not a runtime condition).
class WireEncoder {
public:
    /// Writes the stream header and the hello record.
    explicit WireEncoder(const WireHello& hello);

    void encode_frame(const radar::RadarFrame& frame);
    void encode_bye();

    /// All bytes encoded so far (header + records, in order).
    const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

    std::uint64_t frames_encoded() const noexcept { return frames_; }

    /// Convenience: one whole session as a single byte vector
    /// (header, hello, every frame, bye).
    static std::vector<std::uint8_t> encode_session(
        const WireHello& hello, const radar::FrameSeries& frames);

private:
    void begin_record(RecordType type, std::uint16_t version,
                      std::uint32_t payload_len);
    void end_record(std::size_t crc_from);

    std::vector<std::uint8_t> buf_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t frames_ = 0;
};

/// One successfully decoded record.
struct DecodedRecord {
    RecordType type = RecordType::kFrame;
    std::uint64_t seq = 0;
    /// Valid when type == kFrame.
    radar::RadarFrame frame;
    /// Valid when type == kHello.
    WireHello hello;
    /// Valid when type == kBye: the producer's total frame count.
    std::uint64_t producer_frames = 0;
};

/// Incremental, corruption-tolerant "BRWF" decoder.
///
/// push() appends transport bytes; next() yields the next decodable
/// record or std::nullopt when the buffer holds no complete record
/// (more bytes needed). Malformed input is counted, quarantined, and
/// skipped via sync-marker resynchronisation — next() never throws for
/// any byte sequence (fuzzed in tests/test_ingest.cpp; ASan/UBSan run
/// the same sweep).
class WireDecoder {
public:
    /// `max_payload_bytes` bounds a single record so a corrupted length
    /// field cannot make the decoder buffer unbounded garbage.
    explicit WireDecoder(std::size_t max_payload_bytes = 1u << 20);

    void push(std::span<const std::uint8_t> bytes);

    std::optional<DecodedRecord> next();

    bool has_hello() const noexcept { return hello_.has_value(); }
    const WireHello& hello() const;

    bool saw_bye() const noexcept { return saw_bye_; }

    const DecodeStats& stats() const noexcept { return stats_; }

    /// Bytes buffered but not yet consumed (backpressure diagnostics).
    std::size_t buffered_bytes() const noexcept {
        return buf_.size() - cursor_;
    }

private:
    enum class Phase : std::uint8_t { kStreamHeader, kRecords };

    std::size_t available() const noexcept { return buf_.size() - cursor_; }
    void note_error(DecodeError e) noexcept;
    /// Skip `n` bytes as quarantined and rescan for the next plausible
    /// start (sync word, or stream magic while still unopened).
    void resync(std::size_t skip_at_least);
    void compact();
    std::optional<DecodedRecord> parse_record();
    bool parse_hello(std::span<const std::uint8_t> payload, WireHello& out);
    bool parse_frame(std::span<const std::uint8_t> payload,
                     radar::RadarFrame& out);

    std::size_t max_payload_;
    std::vector<std::uint8_t> buf_;
    std::size_t cursor_ = 0;  ///< parse position within buf_
    Phase phase_ = Phase::kStreamHeader;
    std::optional<WireHello> hello_;
    bool saw_bye_ = false;
    bool have_seq_ = false;
    std::uint64_t last_seq_ = 0;
    DecodeStats stats_;
};

}  // namespace blinkradar::ingest
