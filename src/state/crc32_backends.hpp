// The backends behind state::crc32. Internal: only snapshot/wire code
// goes through state::crc32; tests include this header to pin every
// backend to a bytewise reference.
//
// Every backend computes the same function, CRC-32/IEEE 802.3 with the
// reflected polynomial 0xEDB88320, as an update of the raw register: it
// takes the running (pre-inverted) value and returns the next one, so
// state::crc32(d) == update(0xFFFFFFFF, d) ^ 0xFFFFFFFF for each of them.
//
//   - pclmul: carry-less-multiply folding (Gopal et al., "Fast CRC
//     computation for generic polynomials using PCLMULQDQ", Intel 2009).
//     Folds 64-byte blocks four lanes wide, then 16-byte blocks, then a
//     Barrett reduction; the bytewise loop finishes the <16-byte tail.
//     Lives in crc32_pclmul.cpp, the only TU built with -mpclmul
//     -msse4.1, and is offered only when cpuid reports both.
//   - slice8: portable slice-by-8 (eight 256-entry tables, one 8-byte
//     step per iteration). Every other host, and x86 without PCLMUL.
//
// state::crc32 picks one backend per process on first use, like
// dsp::active_kernels(): pclmul when available, else slice8. The
// BLINKRADAR_SIMD_BACKEND=scalar override (common::ProcessConfig) that
// forces the scalar DSP kernels also forces slice8.
#pragma once

#include <cstdint>
#include <span>

namespace blinkradar::state::detail {

using Crc32Update = std::uint32_t (*)(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

/// One table lookup per byte: the tail loop of the other backends.
std::uint32_t crc32_update_bytewise(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

/// Portable slice-by-8.
std::uint32_t crc32_update_slice8(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

/// The PCLMULQDQ folding backend, or nullptr when it was not built or
/// the CPU lacks PCLMULQDQ or SSE4.1.
Crc32Update pclmul_crc32() noexcept;

/// The backend state::crc32 uses, fixed for the process on first call.
Crc32Update active_crc32() noexcept;

}  // namespace blinkradar::state::detail
