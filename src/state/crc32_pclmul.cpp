// PCLMULQDQ folding backend for state::crc32 (see crc32_backends.hpp).
// The only TU built with -mpclmul -msse4.1; crc32.cpp offers it only
// after cpuid confirms both.
//
// Method: Gopal et al., "Fast CRC computation for generic polynomials
// using PCLMULQDQ instruction", Intel 2009, in the bit-reflected domain.
// A 128-bit lane is folded forward by D bits with two 64x64 carry-less
// products against x^(D+32) and x^(D-32) mod P; four lanes fold 64-byte
// blocks, then one lane folds the remaining 16-byte blocks, then the
// 128-bit remainder is reduced to 64 bits and Barrett-reduced to 32.
#include <cstddef>
#include <immintrin.h>

#include "state/crc32_backends.hpp"

namespace blinkradar::state::detail {

namespace {

// Folding constants, reflect33(x^n mod P) for P(x) = 0x104C11DB7, as
// (low qword, high qword) pairs.
__m128i constants(std::uint64_t lo, std::uint64_t hi) noexcept {
    return _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
}
constexpr std::uint64_t kX544 = 0x154442BD4;  // x^(4*128+32): 64-byte fold
constexpr std::uint64_t kX480 = 0x1C6E41596;  // x^(4*128-32)
constexpr std::uint64_t kX160 = 0x1751997D0;  // x^(128+32): 16-byte fold
constexpr std::uint64_t kX96 = 0x0CCAA009E;   // x^(128-32)
constexpr std::uint64_t kX64 = 0x163CD6124;   // x^64
// Barrett reduction: reflect33(P) and reflect33(floor(x^64 / P)).
constexpr std::uint64_t kPoly = 0x1DB710641;
constexpr std::uint64_t kMu = 0x1F7011641;

__m128i load(const std::uint8_t* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Fold `x` forward over 128 bits and absorb the next block `next`.
__m128i fold(__m128i x, __m128i k, __m128i next) noexcept {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Register update over `n` bytes; n >= 64 and a multiple of 16.
std::uint32_t fold_blocks(std::uint32_t crc, const std::uint8_t* p,
                          std::size_t n) noexcept {
    __m128i x1 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    n -= 64;

    __m128i k = constants(kX544, kX480);
    for (; n >= 64; p += 64, n -= 64) {
        x1 = fold(x1, k, load(p));
        x2 = fold(x2, k, load(p + 16));
        x3 = fold(x3, k, load(p + 32));
        x4 = fold(x4, k, load(p + 48));
    }

    k = constants(kX160, kX96);
    x1 = fold(x1, k, x2);
    x1 = fold(x1, k, x3);
    x1 = fold(x1, k, x4);
    for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k, load(p));

    // 128 -> 64 bits: the low qword times x^96 (the high lane of k,
    // hence the 0x10 lane pick) plus the high qword.
    const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k, 0x10));
    // 96 -> 64 bits: the low 32 bits times x^64 mod P.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, mask32),
                                            constants(kX64, 0), 0x00));

    // Barrett reduction 64 -> 32 bits.
    const __m128i b = constants(kPoly, kMu);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), b, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), b, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

std::uint32_t crc32_update_pclmul(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
    // Below one 64-byte block the fold set-up does not pay for itself.
    if (data.size() < 64) return crc32_update_slice8(crc, data);
    const std::size_t folded = data.size() & ~std::size_t{15};
    crc = fold_blocks(crc, data.data(), folded);
    return crc32_update_bytewise(crc, data.subspan(folded));
}

}  // namespace blinkradar::state::detail
