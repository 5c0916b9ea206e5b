#include "state/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>

#if !defined(_WIN32)
#include <signal.h>
#include <unistd.h>
#endif

#include "common/contracts.hpp"

namespace blinkradar::state {

namespace {

constexpr std::uint32_t kMagic = make_tag("BRSN");
constexpr std::uint16_t kFormatVersion = 1;
constexpr std::size_t kHeaderLen = 8;        // magic + version + flags
constexpr std::size_t kSectionHeaderLen = 12;  // tag + ver + rsv + len
constexpr std::size_t kCrcLen = 4;

std::uint16_t load_u16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t load_u32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64(const std::uint8_t* p) {
    return static_cast<std::uint64_t>(load_u32(p)) |
           static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

}  // namespace

std::string tag_name(std::uint32_t tag) {
    char chars[4] = {static_cast<char>(tag & 0xFF),
                     static_cast<char>((tag >> 8) & 0xFF),
                     static_cast<char>((tag >> 16) & 0xFF),
                     static_cast<char>((tag >> 24) & 0xFF)};
    bool printable = true;
    for (const char c : chars)
        printable &= std::isprint(static_cast<unsigned char>(c)) != 0;
    if (printable) return std::string(chars, 4);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08X", tag);
    return buf;
}

void seal_section_crcs(std::span<std::uint8_t> container) {
    if (container.size() < kHeaderLen)
        throw SnapshotError("seal: container shorter than its header");
    if (load_u32(container.data()) != kMagic)
        throw SnapshotError("seal: bad container magic");
    std::size_t off = kHeaderLen;
    while (off < container.size()) {
        if (container.size() - off < kSectionHeaderLen + kCrcLen)
            throw SnapshotError("seal: truncated section header");
        const std::uint32_t len = load_u32(container.data() + off + 8);
        if (container.size() - off - kSectionHeaderLen - kCrcLen < len)
            throw SnapshotError("seal: section length overruns container");
        const std::size_t covered = kSectionHeaderLen + len;
        const std::uint32_t crc =
            crc32(std::span<const std::uint8_t>(container.data() + off,
                                                covered));
        std::uint8_t* out = container.data() + off + covered;
        for (int i = 0; i < 4; ++i)
            out[i] = static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
        off += covered + kCrcLen;
    }
}

// ---------------------------------------------------------------- writer

StateWriter::StateWriter() {
    buf_.reserve(4096);
    append_raw_u32(kMagic);
    append_raw_u16(kFormatVersion);
    append_raw_u16(0);  // flags
}

StateWriter::StateWriter(std::vector<std::uint8_t>&& recycle)
    : buf_(std::move(recycle)) {
    buf_.clear();  // keeps capacity: no allocation until past it
    if (buf_.capacity() < 4096) buf_.reserve(4096);
    append_raw_u32(kMagic);
    append_raw_u16(kFormatVersion);
    append_raw_u16(0);  // flags
}

// The scalar appends are hot: a pipeline checkpoint writes a few
// thousand individual integers/doubles besides the bulk spans, and a
// byte-at-a-time push_back loop pays a capacity check per byte. One
// insert per value is a single check plus a fixed-size memcpy. On a
// little-endian host the value's own bytes are already wire order.
void StateWriter::append_raw_u16(std::uint16_t v) {
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(v));
    } else {
        buf_.push_back(static_cast<std::uint8_t>(v & 0xFF));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }
}

void StateWriter::append_raw_u32(std::uint32_t v) {
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(v));
    } else {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
}

void StateWriter::append_raw_u64(std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
}

void StateWriter::begin_section(std::uint32_t tag, std::uint16_t version) {
    BR_EXPECTS(!finished_);
    BR_EXPECTS(!in_section_);
    section_header_ = buf_.size();
    append_raw_u32(tag);
    append_raw_u16(version);
    append_raw_u16(0);  // reserved
    append_raw_u32(0);  // payload_len backpatched by end_section
    in_section_ = true;
}

void StateWriter::end_section() {
    BR_EXPECTS(in_section_);
    const std::size_t payload_len =
        buf_.size() - section_header_ - kSectionHeaderLen;
    BR_EXPECTS(payload_len <= UINT32_MAX);
    const auto len32 = static_cast<std::uint32_t>(payload_len);
    for (int i = 0; i < 4; ++i)
        buf_[section_header_ + 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((len32 >> (8 * i)) & 0xFF);
    const std::uint32_t crc =
        defer_crc_ ? 0u
                   : crc32(std::span<const std::uint8_t>(
                         buf_.data() + section_header_,
                         kSectionHeaderLen + payload_len));
    append_raw_u32(crc);
    in_section_ = false;
}

void StateWriter::write_u8(std::uint8_t v) {
    BR_EXPECTS(in_section_);
    buf_.push_back(v);
}

void StateWriter::write_u16(std::uint16_t v) {
    BR_EXPECTS(in_section_);
    append_raw_u16(v);
}

void StateWriter::write_u32(std::uint32_t v) {
    BR_EXPECTS(in_section_);
    append_raw_u32(v);
}

void StateWriter::write_u64(std::uint64_t v) {
    BR_EXPECTS(in_section_);
    append_raw_u64(v);
}

void StateWriter::write_i64(std::int64_t v) {
    write_u64(static_cast<std::uint64_t>(v));
}

void StateWriter::write_f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    write_u64(bits);
}

void StateWriter::write_bool(bool v) { write_u8(v ? 1 : 0); }

void StateWriter::write_complex(const dsp::Complex& v) {
    write_f64(v.real());
    write_f64(v.imag());
}

void StateWriter::write_f64_span(std::span<const double> v) {
    write_u64(v.size());
    // The wire format is little-endian IEEE-754; on a little-endian host
    // the in-memory representation is already wire order, so the span
    // lands as one bulk append instead of an 8-byte loop per element.
    // Sections of hundreds of kilobytes (the pipeline's frame window)
    // make this the difference between a ~1 ms and a ~50 us checkpoint.
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
    } else {
        for (const double x : v) write_f64(x);
    }
}

void StateWriter::write_complex_span(std::span<const dsp::Complex> v) {
    write_u64(v.size());
    static_assert(sizeof(dsp::Complex) == 2 * sizeof(double));
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        buf_.insert(buf_.end(), p, p + v.size() * sizeof(dsp::Complex));
    } else {
        for (const dsp::Complex& x : v) write_complex(x);
    }
}

void StateWriter::write_complex_planes(std::span<const double> re,
                                       std::span<const double> im) {
    BR_EXPECTS(re.size() == im.size());
    write_u64(re.size());
    // Same wire bytes as write_complex_span on the equivalent interleaved
    // signal. Grow once, interleave a block at a time into a stack
    // buffer and append each block: a pipeline window is ~38k samples,
    // and two inserts per sample paid a capacity check each. (Resizing
    // and interleaving in place measured ~10 MB more peak RSS over a
    // 64-session fleet than appending.) Growth is geometric: a pipeline
    // writes its window one frame (~2.4 KB) per call, and an exact
    // reserve per call reallocated and copied a fresh writer's whole
    // buffer ~250 times per checkpoint.
    if constexpr (std::endian::native == std::endian::little) {
        const std::size_t need = buf_.size() + re.size() * 2 * sizeof(double);
        if (need > buf_.capacity())
            buf_.reserve(std::max(need, 2 * buf_.capacity()));
        constexpr std::size_t kBlock = 256;
        double block[2 * kBlock];
        for (std::size_t j0 = 0; j0 < re.size(); j0 += kBlock) {
            const std::size_t m = std::min(kBlock, re.size() - j0);
            for (std::size_t j = 0; j < m; ++j) {
                block[2 * j] = re[j0 + j];
                block[2 * j + 1] = im[j0 + j];
            }
            const auto* p = reinterpret_cast<const std::uint8_t*>(block);
            buf_.insert(buf_.end(), p, p + m * 2 * sizeof(double));
        }
    } else {
        for (std::size_t j = 0; j < re.size(); ++j) {
            write_f64(re[j]);
            write_f64(im[j]);
        }
    }
}

void StateWriter::write_u8_span(std::span<const std::uint8_t> v) {
    write_u64(v.size());
    BR_EXPECTS(in_section_);
    buf_.insert(buf_.end(), v.begin(), v.end());
}

std::vector<std::uint8_t> StateWriter::finish() {
    BR_EXPECTS(!in_section_);
    BR_EXPECTS(!finished_);
    finished_ = true;
    return std::move(buf_);
}

// ---------------------------------------------------------------- reader

StateReader::StateReader(std::span<const std::uint8_t> bytes)
    : bytes_(bytes) {
    if (bytes_.size() < kHeaderLen)
        throw SnapshotError("snapshot: truncated header (" +
                            std::to_string(bytes_.size()) + " of " +
                            std::to_string(kHeaderLen) + " bytes)");
    if (load_u32(bytes_.data()) != kMagic)
        throw SnapshotError("snapshot: bad magic (not a BRSN snapshot)");
    const std::uint16_t version = load_u16(bytes_.data() + 4);
    if (version != kFormatVersion)
        throw SnapshotError(
            "snapshot: unsupported container version " +
            std::to_string(version) + " (reader supports " +
            std::to_string(kFormatVersion) + ")");

    // Walk and validate every section frame up front.
    std::size_t off = kHeaderLen;
    while (off < bytes_.size()) {
        if (bytes_.size() - off < kSectionHeaderLen + kCrcLen)
            throw SnapshotError(
                "snapshot: truncated section header at offset " +
                std::to_string(off));
        const std::uint32_t tag = load_u32(bytes_.data() + off);
        const std::uint16_t sec_version = load_u16(bytes_.data() + off + 4);
        const std::uint32_t payload_len = load_u32(bytes_.data() + off + 8);
        const std::size_t frame_end =
            off + kSectionHeaderLen + static_cast<std::size_t>(payload_len) +
            kCrcLen;
        if (payload_len > bytes_.size() - off - kSectionHeaderLen - kCrcLen)
            throw SnapshotError("snapshot: section " + tag_name(tag) +
                                " at offset " + std::to_string(off) +
                                " claims " + std::to_string(payload_len) +
                                " payload bytes but only " +
                                std::to_string(bytes_.size() - off -
                                               kSectionHeaderLen - kCrcLen) +
                                " remain (truncated or corrupt length)");
        const std::uint32_t stored_crc =
            load_u32(bytes_.data() + frame_end - kCrcLen);
        const std::uint32_t actual_crc = crc32(bytes_.subspan(
            off, kSectionHeaderLen + static_cast<std::size_t>(payload_len)));
        if (stored_crc != actual_crc)
            throw SnapshotError("snapshot: CRC mismatch in section " +
                                tag_name(tag) + " at offset " +
                                std::to_string(off) + " (stored " +
                                std::to_string(stored_crc) + ", computed " +
                                std::to_string(actual_crc) + ")");
        for (const SectionEntry& s : sections_)
            if (s.tag == tag)
                throw SnapshotError("snapshot: duplicate section " +
                                    tag_name(tag));
        sections_.push_back(SectionEntry{
            tag, sec_version, off + kSectionHeaderLen,
            static_cast<std::size_t>(payload_len)});
        off = frame_end;
    }
}

const StateReader::SectionEntry* StateReader::find(
    std::uint32_t tag) const noexcept {
    for (const SectionEntry& s : sections_)
        if (s.tag == tag) return &s;
    return nullptr;
}

bool StateReader::has_section(std::uint32_t tag) const noexcept {
    return find(tag) != nullptr;
}

std::uint16_t StateReader::open_section(std::uint32_t tag) {
    const SectionEntry* s = find(tag);
    if (s == nullptr)
        throw SnapshotError("snapshot: required section " + tag_name(tag) +
                            " is missing");
    open_ = s;
    cursor_ = s->payload_offset;
    return s->version;
}

void StateReader::close_section() {
    BR_EXPECTS(open_ != nullptr);
    open_ = nullptr;
}

std::size_t StateReader::section_remaining() const {
    BR_EXPECTS(open_ != nullptr);
    return open_->payload_offset + open_->payload_len - cursor_;
}

void StateReader::need(std::size_t n) const {
    if (open_ == nullptr)
        throw SnapshotError("snapshot: read outside any section");
    if (section_remaining() < n)
        throw SnapshotError(
            "snapshot: section " + tag_name(open_->tag) +
            " payload exhausted (need " + std::to_string(n) + " bytes, " +
            std::to_string(section_remaining()) + " remain)");
}

std::uint8_t StateReader::read_u8() {
    need(1);
    return bytes_[cursor_++];
}

std::uint16_t StateReader::read_u16() {
    need(2);
    const std::uint16_t v = load_u16(bytes_.data() + cursor_);
    cursor_ += 2;
    return v;
}

std::uint32_t StateReader::read_u32() {
    need(4);
    const std::uint32_t v = load_u32(bytes_.data() + cursor_);
    cursor_ += 4;
    return v;
}

std::uint64_t StateReader::read_u64() {
    need(8);
    const std::uint64_t v = load_u64(bytes_.data() + cursor_);
    cursor_ += 8;
    return v;
}

std::int64_t StateReader::read_i64() {
    return static_cast<std::int64_t>(read_u64());
}

double StateReader::read_f64() {
    const std::uint64_t bits = read_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool StateReader::read_bool() {
    const std::uint8_t v = read_u8();
    if (v > 1)
        throw SnapshotError("snapshot: section " + tag_name(open_->tag) +
                            " holds invalid bool value " +
                            std::to_string(v));
    return v == 1;
}

std::size_t StateReader::read_size() {
    const std::uint64_t v = read_u64();
    if (v > SIZE_MAX)
        throw SnapshotError("snapshot: size value " + std::to_string(v) +
                            " overflows the host size_t");
    return static_cast<std::size_t>(v);
}

dsp::Complex StateReader::read_complex() {
    const double re = read_f64();
    const double im = read_f64();
    return dsp::Complex(re, im);
}

void StateReader::read_f64_into(std::vector<double>& out) {
    const std::size_t n = read_size();
    need(n * 8 < n ? SIZE_MAX : n * 8);  // overflow-safe bound check
    if constexpr (std::endian::native == std::endian::little) {
        out.resize(n);
        if (n != 0)  // empty vector: data() may be null, memcpy UB
            std::memcpy(out.data(), bytes_.data() + cursor_,
                        n * sizeof(double));
        cursor_ += n * sizeof(double);
        return;
    }
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(read_f64());
}

void StateReader::read_complex_into(dsp::ComplexSignal& out) {
    const std::size_t n = read_size();
    need(n * 16 < n ? SIZE_MAX : n * 16);
    if constexpr (std::endian::native == std::endian::little) {
        out.resize(n);
        if (n != 0)  // empty vector: data() may be null, memcpy UB
            std::memcpy(out.data(), bytes_.data() + cursor_,
                        n * sizeof(dsp::Complex));
        cursor_ += n * sizeof(dsp::Complex);
        return;
    }
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(read_complex());
}

void StateReader::read_complex_planes_into(std::vector<double>& re,
                                           std::vector<double>& im) {
    const std::size_t n = read_size();
    need(n * 16 < n ? SIZE_MAX : n * 16);
    re.resize(n);
    im.resize(n);
    const std::uint8_t* in = bytes_.data() + cursor_;
    for (std::size_t j = 0; j < n; ++j, in += 2 * sizeof(double)) {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&re[j], in, sizeof(double));
            std::memcpy(&im[j], in + sizeof(double), sizeof(double));
        } else {
            const std::uint64_t rb = load_u64(in);
            const std::uint64_t ib = load_u64(in + sizeof(double));
            std::memcpy(&re[j], &rb, sizeof(double));
            std::memcpy(&im[j], &ib, sizeof(double));
        }
    }
    cursor_ += n * 16;
}

void StateReader::read_u8_into(std::vector<std::uint8_t>& out) {
    const std::size_t n = read_size();
    need(n);
    out.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_),
               bytes_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
    cursor_ += n;
}

// --------------------------------------------------------------- file IO

namespace {

std::uint64_t current_pid() noexcept {
#if defined(_WIN32)
    return 0;
#else
    return static_cast<std::uint64_t>(::getpid());
#endif
}

/// True when `pid` names a live process we could be sharing the
/// directory with. Conservative: any error other than "no such
/// process" (e.g. EPERM on a foreign uid's process) counts as alive.
bool pid_alive(std::uint64_t pid) noexcept {
#if defined(_WIN32)
    return true;  // no cheap liveness probe: never reclaim
#else
    if (pid == 0 || pid > static_cast<std::uint64_t>(
                              std::numeric_limits<pid_t>::max()))
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
    return errno != ESRCH;
#endif
}

/// Parse the writer pid out of a temp-file name of the form
/// `<target>.tmp.<pid>.<counter>`; nullopt when the name is not ours.
std::optional<std::uint64_t> temp_file_pid(std::string_view name) {
    const std::size_t mark = name.rfind(".tmp.");
    if (mark == std::string_view::npos) return std::nullopt;
    const std::string_view tail = name.substr(mark + 5);  // "<pid>.<ctr>"
    const std::size_t dot = tail.find('.');
    if (dot == std::string_view::npos || dot == 0 ||
        dot + 1 >= tail.size())
        return std::nullopt;
    std::uint64_t pid = 0;
    const std::string_view pid_text = tail.substr(0, dot);
    auto [p, ec] = std::from_chars(pid_text.data(),
                                   pid_text.data() + pid_text.size(), pid);
    if (ec != std::errc() || p != pid_text.data() + pid_text.size())
        return std::nullopt;
    const std::string_view ctr_text = tail.substr(dot + 1);
    std::uint64_t ctr = 0;
    auto [c, ec2] = std::from_chars(ctr_text.data(),
                                    ctr_text.data() + ctr_text.size(), ctr);
    if (ec2 != std::errc() || c != ctr_text.data() + ctr_text.size())
        return std::nullopt;
    return pid;
}

}  // namespace

void write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> bytes) {
    // The temp name is unique per writer — pid plus a process-wide
    // monotonic counter — never a fixed `path + ".tmp"`: two concurrent
    // writers targeting the same path (two fleet sessions, or a
    // Supervisor slot write racing a flight-recorder dump) would
    // otherwise interleave inside one temp file and publish a corrupt
    // container via the rename.
    static std::atomic<std::uint64_t> g_temp_counter{0};
    const std::uint64_t serial =
        g_temp_counter.fetch_add(1, std::memory_order_relaxed);
    const std::string tmp = path + ".tmp." + std::to_string(current_pid()) +
                            "." + std::to_string(serial);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os.good())
            throw SnapshotError("snapshot: cannot open " + tmp +
                                " for writing");
        os.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os.good()) {
            os.close();
            std::remove(tmp.c_str());
            throw SnapshotError("snapshot: short write to " + tmp);
        }
    }
    // Atomic publish: a crash before the rename leaves the previous
    // snapshot at `path` untouched; after it, the new one is complete.
    // Concurrent writers each rename their own temp — last one wins
    // with a complete file either way.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("snapshot: rename " + tmp + " -> " + path +
                            " failed");
    }
}

std::size_t cleanup_orphan_temps(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return 0;
    std::size_t removed = 0;
    const std::uint64_t self = current_pid();
    for (const fs::directory_entry& entry : it) {
        if (!entry.is_regular_file(ec)) continue;
        const std::string name = entry.path().filename().string();
        const std::optional<std::uint64_t> pid = temp_file_pid(name);
        // Only reclaim another (dead) writer's leavings: our own pid's
        // temps may be in flight on a sibling thread right now, and a
        // live foreign pid is presumed mid-write.
        if (!pid || *pid == self || pid_alive(*pid)) continue;
        if (fs::remove(entry.path(), ec) && !ec) ++removed;
    }
    return removed;
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
    // A directory opens as a stream on POSIX but has no size: tellg()
    // fails with -1, which must not become a vector length.
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (fs::exists(st) && !fs::is_regular_file(st))
        throw SnapshotError("snapshot: " + path + " is not a regular file");
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is.good())
        throw SnapshotError("snapshot: cannot open " + path +
                            " for reading");
    const std::streamsize size = is.tellg();
    if (size < 0)
        throw SnapshotError("snapshot: cannot size " + path);
    is.seekg(0, std::ios::beg);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0 &&
        !is.read(reinterpret_cast<char*>(bytes.data()), size))
        throw SnapshotError("snapshot: short read from " + path);
    return bytes;
}

}  // namespace blinkradar::state
