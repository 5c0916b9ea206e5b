// Crash-safe state snapshots: a versioned, little-endian, CRC-checked
// binary container for pipeline state.
//
// BlinkRadar runs unattended on in-vehicle hardware where process
// crashes and watchdog resets are routine. Losing the accumulated
// detector state (background model, selected bin, LEVD noise statistics)
// on every restart blinds the detector for its whole reconvergence
// window; snapshotting that state periodically bounds the loss to one
// snapshot interval. This module owns the wire format only — each
// pipeline stage implements save_state()/restore_state() against the
// StateWriter/StateReader below, and core::Supervisor owns the policy
// (when to snapshot, which slot, how to escalate when restore fails).
//
// Format (all integers little-endian, regardless of host):
//
//   File    := Header Section*
//   Header  := magic "BRSN" (4 bytes) | format_version u16 | flags u16
//   Section := tag u32 | version u16 | reserved u16 (0) |
//              payload_len u32 | payload bytes | crc32 u32
//
// The section CRC-32 (IEEE 802.3, reflected) covers the 12 header bytes
// plus the payload, so a corrupted length field can never send the
// parser off into the weeds unnoticed. Compatibility rules:
//   - unknown section tags are skipped (forward compatible);
//   - a section version above the reader's ceiling is an error the
//     *component* raises (it knows its own ceiling);
//   - components may append fields to a section in later versions and
//     must default them when restoring an older version; close_section()
//     therefore tolerates unread payload tails;
//   - any truncation, length overrun, duplicated tag, or CRC mismatch
//     is rejected at parse time with a descriptive SnapshotError —
//     never undefined behaviour (the reader is fuzzed with mutated
//     snapshots in test_state).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/dsp_types.hpp"

namespace blinkradar::state {

/// Thrown for every malformed-snapshot condition (truncation, CRC
/// mismatch, bad magic, missing/duplicate sections, type mismatches,
/// unsupported versions, file-system failures). Unlike
/// ContractViolation this is a *runtime* condition: snapshots come from
/// disk and may be arbitrarily damaged; callers (the Supervisor) are
/// expected to catch it and fall back.
class SnapshotError : public std::runtime_error {
public:
    explicit SnapshotError(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/// Four-character section tag, e.g. make_tag("LEVD").
constexpr std::uint32_t make_tag(const char (&s)[5]) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

/// Printable form of a tag for error messages ("LEVD" or "0x1A2B3C4D"
/// when not printable).
std::string tag_name(std::uint32_t tag);

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF). Runs on the
/// fastest backend the CPU offers (PCLMULQDQ folding, else slice-by-8;
/// see crc32_backends.hpp); every backend returns the same value.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Serialises state into the container format. Usage: begin_section,
/// write_* calls, end_section — repeated per component — then finish().
class StateWriter {
public:
    StateWriter();

    /// Construct reusing `recycle`'s storage (contents are discarded,
    /// capacity is kept). Steady-state writers — the flight recorder's
    /// periodic replay-base checkpoints — round-robin a spare buffer
    /// through this constructor so serialisation stops allocating once
    /// the buffer has grown to the working-set size.
    explicit StateWriter(std::vector<std::uint8_t>&& recycle);

    void begin_section(std::uint32_t tag, std::uint16_t version);
    void end_section();

    /// Switch end_section() to writing a zero CRC placeholder instead of
    /// computing the real checksum. Checksumming is the largest cost of
    /// serialising large states after the copy itself (~1.6x the bulk
    /// copy with the PCLMUL backend, ~20x with slice-by-8), so hot-path
    /// writers — the flight recorder's periodic in-memory replay-base
    /// checkpoints — defer it and call seal_section_crcs() once, at dump
    /// time, on the rare buffers that actually leave the process. A deferred
    /// container MUST be sealed before it is handed to StateReader.
    void defer_crcs() noexcept { defer_crc_ = true; }

    void write_u8(std::uint8_t v);
    void write_u16(std::uint16_t v);
    void write_u32(std::uint32_t v);
    void write_u64(std::uint64_t v);
    void write_i64(std::int64_t v);
    void write_f64(double v);
    void write_bool(bool v);
    void write_size(std::size_t v) { write_u64(v); }
    void write_complex(const dsp::Complex& v);
    void write_f64_span(std::span<const double> v);
    void write_complex_span(std::span<const dsp::Complex> v);
    void write_u8_span(std::span<const std::uint8_t> v);

    /// Write a structure-of-arrays complex signal (`re`/`im` of equal
    /// length) with the exact wire bytes of write_complex_span on the
    /// interleaved equivalent, so AoS and SoA holders of the same signal
    /// produce identical sections.
    void write_complex_planes(std::span<const double> re,
                              std::span<const double> im);

    /// Seal the container and hand back the bytes. The writer is spent
    /// afterwards; begin a new one for the next snapshot.
    std::vector<std::uint8_t> finish();

private:
    void append_raw_u16(std::uint16_t v);
    void append_raw_u32(std::uint32_t v);
    void append_raw_u64(std::uint64_t v);

    std::vector<std::uint8_t> buf_;
    std::size_t section_header_ = 0;  ///< offset of the open section
    bool in_section_ = false;
    bool finished_ = false;
    bool defer_crc_ = false;
};

/// Recompute and fill in every section CRC of a finished container in
/// place. Idempotent on an already-sealed container; the complement of
/// StateWriter::defer_crcs(). Throws SnapshotError when the container's
/// structure (header, section lengths) does not parse — a deferred
/// buffer can only legitimately come from a StateWriter, so structural
/// damage means the caller handed over the wrong bytes.
void seal_section_crcs(std::span<std::uint8_t> container);

/// Parses and validates a snapshot container. Construction walks every
/// section frame and checks structure and CRCs up front, so a reader
/// that constructs successfully can be navigated without surprises;
/// every read is still bounds-checked against its section payload.
class StateReader {
public:
    explicit StateReader(std::span<const std::uint8_t> bytes);

    bool has_section(std::uint32_t tag) const noexcept;

    /// Position the cursor at the start of `tag`'s payload and return
    /// the section's version. Missing section -> SnapshotError.
    std::uint16_t open_section(std::uint32_t tag);

    /// Finish with the current section. Unread payload is allowed (a
    /// newer writer appended fields this reader does not know).
    void close_section();

    /// Bytes left in the open section's payload.
    std::size_t section_remaining() const;

    std::uint8_t read_u8();
    std::uint16_t read_u16();
    std::uint32_t read_u32();
    std::uint64_t read_u64();
    std::int64_t read_i64();
    double read_f64();
    bool read_bool();
    std::size_t read_size();
    dsp::Complex read_complex();
    void read_f64_into(std::vector<double>& out);
    void read_complex_into(dsp::ComplexSignal& out);
    void read_u8_into(std::vector<std::uint8_t>& out);

    /// Read a complex-span field into structure-of-arrays planes
    /// (deinterleaving); accepts exactly the bytes write_complex_span /
    /// write_complex_planes produce.
    void read_complex_planes_into(std::vector<double>& re,
                                  std::vector<double>& im);

private:
    struct SectionEntry {
        std::uint32_t tag = 0;
        std::uint16_t version = 0;
        std::size_t payload_offset = 0;
        std::size_t payload_len = 0;
    };

    const SectionEntry* find(std::uint32_t tag) const noexcept;
    void need(std::size_t n) const;  ///< throws past the section end

    std::span<const std::uint8_t> bytes_;
    std::vector<SectionEntry> sections_;
    const SectionEntry* open_ = nullptr;
    std::size_t cursor_ = 0;  ///< absolute offset into bytes_
};

/// Crash-safe file write: the bytes land in a writer-unique temp file
/// (`path + ".tmp.<pid>.<counter>"`), are flushed, and are renamed over
/// `path` — a crash mid-write leaves the previous snapshot intact, and
/// concurrent writers to the same path (two fleet sessions, a Supervisor
/// slot racing a flight-recorder dump) can never corrupt each other's
/// in-flight bytes. Throws SnapshotError on any I/O failure.
void write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> bytes);

/// Remove temp files (`*.tmp.<pid>.<counter>`) left in `dir` by writers
/// that died before their rename. Only files whose embedded pid is no
/// longer alive are touched — in-flight temps of this or any live
/// process are kept. Returns the number of files removed; best-effort
/// (I/O errors skip the file, an unreadable dir returns 0).
std::size_t cleanup_orphan_temps(const std::string& dir);

/// Read a whole snapshot file; SnapshotError when unreadable.
std::vector<std::uint8_t> read_snapshot_file(const std::string& path);

}  // namespace blinkradar::state
