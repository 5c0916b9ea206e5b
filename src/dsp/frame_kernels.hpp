// Dispatch table for the per-frame DSP kernels of the hot path.
//
// The pipeline's frame path (preprocess -> movement check -> background
// subtraction + rolling variance) is restructured as structure-of-arrays
// I/Q planes processed by the kernels below, each available in scalar,
// AVX2 and NEON flavours (see dsp/simd.hpp). Dispatch is a table of
// function pointers resolved once per process: the default build carries
// the scalar table plus (on x86-64) an AVX2 table compiled in a dedicated
// -mavx2 translation unit and selected only when the CPU reports AVX2.
//
// Bit-exactness contract: all backends return bitwise identical results
// for every kernel. Element-wise kernels perform the identical per-lane
// operation sequence; reductions use a fixed four-stripe accumulator
// layout (element j always lands in partial sum j mod 4, independent of
// the vector width); the AVX2 FFT butterfly is lane-for-lane the scalar
// butterfly. The backend choice (BLINKRADAR_SIMD_BACKEND) is therefore a
// pure speed knob. The interleaved-complex component entry points these
// kernels replace on the frame path (Preprocessor::apply_into,
// LoopbackFilter::process_into, ...) remain as test references; each
// agrees with its kernel bit for bit.
#pragma once

#include <cstddef>

#include "dsp/dsp_types.hpp"

namespace blinkradar::dsp {

struct KernelTable {
    const char* name = "?";  ///< "scalar", "avx2" or "neon"

    /// AoS -> SoA and back (layout shuffles; shared scalar loops).
    void (*deinterleave)(const Complex* in, std::size_t n, double* re,
                         double* im) = nullptr;
    void (*interleave)(const double* re, const double* im, std::size_t n,
                       Complex* out) = nullptr;

    /// Causal FIR over both planes in one call (taps are shared, so each
    /// broadcast tap feeds both components). Output order matches
    /// FirFilter::filter_into exactly: acc += taps[k] * x[n-k], k
    /// ascending. `y` must not alias `x`.
    void (*fir2)(const double* xi, const double* xq, std::size_t n,
                 const double* taps, std::size_t n_taps, double* yi,
                 double* yq) = nullptr;

    /// Centred moving average evaluated from prefix sums (`pi`/`pq` hold
    /// n+1 elements). Interior samples (constant window 2*half+1) are
    /// vectorized; shrinking-window edges use the exact scalar formula of
    /// dsp::moving_average_into.
    void (*smooth_from_prefix)(const double* pi, const double* pq,
                               std::size_t n, std::size_t half, double* oi,
                               double* oq) = nullptr;

    /// Frame-difference energy sum |x - p|^2 with the fixed four-stripe
    /// reduction (see file comment).
    double (*movement_energy)(const double* xi, const double* xq,
                              const double* pi, const double* pq,
                              std::size_t n) = nullptr;

    /// Fused background subtraction + rolling-variance bookkeeping, one
    /// pass over the bins:
    ///   evict: sums -= old frame (skipped when old_i == nullptr),
    ///   subtract: o = x - bg (stored after the old_* loads, so the
    ///             evicted frame may alias the output),
    ///   push: sums += o,
    ///   adapt: bg = (1-alpha)*bg + alpha*x.
    /// Per-bin operation order matches the legacy evict -> process_into
    /// -> push sequence exactly.
    void (*background_var_fused)(const double* xi, const double* xq,
                                 std::size_t n, double alpha, double* bgi,
                                 double* bgq, double* oi, double* oq,
                                 const double* old_i, const double* old_q,
                                 double* sum_i, double* sum_q,
                                 double* sum_sq) = nullptr;

    /// Per-bin scatter variances from the rolling sums, matching
    /// RollingBinVariance::variance bin-for-bin (division by `count`,
    /// clamp to zero via ternary-semantics max).
    void (*variances_from_sums)(const double* sum_i, const double* sum_q,
                                const double* sum_sq, std::size_t n,
                                double count, double* out) = nullptr;

    /// One radix-2 FFT stage over the flat interleaved array `d` (2*n
    /// doubles) with the stage's twiddles; bit-identical to the scalar
    /// butterfly loop on every backend.
    void (*fft_pass)(double* d, const double* stage_tw, std::size_t n,
                     std::size_t len) = nullptr;
};

/// The always-available scalar table.
const KernelTable& scalar_kernels() noexcept;

/// Backend tables; null when the build or the host CPU lacks the backend.
const KernelTable* avx2_kernels() noexcept;
const KernelTable* neon_kernels() noexcept;

/// Best table for this host, resolved once per process. The environment
/// variable BLINKRADAR_SIMD_BACKEND (scalar | avx2 | neon) forces a
/// backend when available (unknown or unavailable values fall back to
/// auto); auto order is avx2 > neon > scalar. Because all backends are
/// bit-identical (see above) this only affects speed.
const KernelTable& active_kernels() noexcept;

}  // namespace blinkradar::dsp
