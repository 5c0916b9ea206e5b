#include <array>

#include "common/env_config.hpp"
#include "state/crc32_backends.hpp"
#include "state/snapshot.hpp"

namespace blinkradar::state {

namespace detail {

namespace {

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320, built at
/// compile time. Row 0 is the classic bytewise table; row k advances a
/// byte through k further zero bytes, so one 8-byte step is eight
/// independent lookups instead of a dependent chain of eight.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr Crc32Tables kTables = make_crc32_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

#if defined(BLINKRADAR_HAVE_PCLMUL_TU)
// Defined in crc32_pclmul.cpp, the only TU built with -mpclmul -msse4.1.
std::uint32_t crc32_update_pclmul(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;
#endif

std::uint32_t crc32_update_bytewise(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
    for (const std::uint8_t b : data)
        crc = kTables[0][(crc ^ b) & 0xFFu] ^ (crc >> 8);
    return crc;
}

std::uint32_t crc32_update_slice8(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = load_le32(p) ^ crc;
        const std::uint32_t hi = load_le32(p + 4);
        crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
              kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
              kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
              kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    return crc32_update_bytewise(crc, {p, n});
}

Crc32Update pclmul_crc32() noexcept {
#if defined(BLINKRADAR_HAVE_PCLMUL_TU) && \
    (defined(__x86_64__) || defined(__i386__))
    static const bool supported = __builtin_cpu_supports("pclmul") &&
                                  __builtin_cpu_supports("sse4.1");
    return supported ? &crc32_update_pclmul : nullptr;
#else
    return nullptr;
#endif
}

Crc32Update active_crc32() noexcept {
    // Resolved from the one-time process config snapshot, so every
    // session agrees on the backend (the bytes are identical anyway).
    static const Crc32Update update = []() -> Crc32Update {
        if (process_config().simd_backend == "scalar")
            return &crc32_update_slice8;
        if (const Crc32Update f = pclmul_crc32()) return f;
        return &crc32_update_slice8;
    }();
    return update;
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data) {
    return detail::active_crc32()(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

}  // namespace blinkradar::state
