// The frame-kernel dispatch table (dsp/frame_kernels.hpp) and its
// bit-exactness contract: every backend must produce bitwise identical
// results for every kernel, and the SoA entry points must agree with the
// legacy AoS implementations they replace (bit-exactly for elementwise
// kernels, to rounding for the movement reduction whose stripe order is
// deliberately different from the legacy single accumulator).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/random.hpp"
#include "core/bin_selection.hpp"
#include "core/preprocess.hpp"
#include "dsp/background.hpp"
#include "dsp/dsp_types.hpp"
#include "dsp/fir.hpp"
#include "dsp/frame_kernels.hpp"
#include "dsp/smoothing.hpp"

namespace blinkradar::dsp {
namespace {

std::vector<double> random_vec(Rng& rng, std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.normal(0.0, 1.0);
    return v;
}

void expect_bitwise(const std::vector<double>& a,
                    const std::vector<double>& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t j = 0; j < a.size(); ++j) {
        std::uint64_t ab = 0, bb = 0;
        std::memcpy(&ab, &a[j], sizeof(ab));
        std::memcpy(&bb, &b[j], sizeof(bb));
        ASSERT_EQ(ab, bb) << what << " differs at element " << j << ": "
                          << a[j] << " vs " << b[j];
    }
}

void expect_bitwise(double a, double b, const char* what) {
    std::uint64_t ab = 0, bb = 0;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    ASSERT_EQ(ab, bb) << what << ": " << a << " vs " << b;
}

/// All tables available in this build/host, scalar first.
std::vector<const KernelTable*> all_backends() {
    std::vector<const KernelTable*> t{&scalar_kernels()};
    if (avx2_kernels() != nullptr) t.push_back(avx2_kernels());
    if (neon_kernels() != nullptr) t.push_back(neon_kernels());
    return t;
}

/// Sizes that exercise every remainder-handling path at W = 1, 2 and 4,
/// plus the pipeline's real bin count.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 151};

TEST(SimdKernels, ActiveBackendIsListed) {
    const KernelTable& active = active_kernels();
    bool found = false;
    for (const KernelTable* t : all_backends())
        if (t == &active) found = true;
    EXPECT_TRUE(found) << "active backend: " << active.name;
}

TEST(SimdKernels, InterleaveRoundTripsAllBackends) {
    Rng rng(1);
    for (const KernelTable* t : all_backends()) {
        for (const std::size_t n : kSizes) {
            const std::vector<double> re = random_vec(rng, n);
            const std::vector<double> im = random_vec(rng, n);
            ComplexSignal z(n);
            t->interleave(re.data(), im.data(), n, z.data());
            std::vector<double> re2(n), im2(n);
            t->deinterleave(z.data(), n, re2.data(), im2.data());
            expect_bitwise(re, re2, "re");
            expect_bitwise(im, im2, "im");
        }
    }
}

TEST(SimdKernels, Fir2MatchesAcrossBackends) {
    Rng rng(2);
    const FirFilter fir = FirFilter::low_pass(26, 0.10, 1.0);
    const RealSignal& taps = fir.taps();
    for (const std::size_t n : kSizes) {
        const std::vector<double> xi = random_vec(rng, n);
        const std::vector<double> xq = random_vec(rng, n);
        std::vector<double> ref_i(n), ref_q(n);
        scalar_kernels().fir2(xi.data(), xq.data(), n, taps.data(),
                              taps.size(), ref_i.data(), ref_q.data());
        for (const KernelTable* t : all_backends()) {
            std::vector<double> yi(n), yq(n);
            t->fir2(xi.data(), xq.data(), n, taps.data(), taps.size(),
                    yi.data(), yq.data());
            expect_bitwise(ref_i, yi, t->name);
            expect_bitwise(ref_q, yq, t->name);
        }
    }
}

TEST(SimdKernels, Fir2MatchesLegacyComplexFilter) {
    Rng rng(3);
    const FirFilter fir = FirFilter::low_pass(26, 0.10, 1.0);
    for (const std::size_t n : kSizes) {
        IqPlanes in;
        in.resize(n);
        ComplexSignal aos(n);
        for (std::size_t j = 0; j < n; ++j) {
            in.i[j] = rng.normal(0.0, 1.0);
            in.q[j] = rng.normal(0.0, 1.0);
            aos[j] = Complex(in.i[j], in.q[j]);
        }
        ComplexSignal legacy;
        fir.filter_into(aos, legacy);
        IqPlanes out;
        fir.filter_planes_into(in, out);
        for (std::size_t j = 0; j < n; ++j) {
            expect_bitwise(legacy[j].real(), out.i[j], "fir i");
            expect_bitwise(legacy[j].imag(), out.q[j], "fir q");
        }
    }
}

TEST(SimdKernels, SmoothFromPrefixMatchesAcrossBackendsAndLegacy) {
    Rng rng(4);
    for (const std::size_t n : kSizes) {
        for (const std::size_t window : {1u, 3u, 5u, 7u}) {
            IqPlanes in;
            in.resize(n);
            ComplexSignal aos(n);
            for (std::size_t j = 0; j < n; ++j) {
                in.i[j] = rng.normal(0.0, 1.0);
                in.q[j] = rng.normal(0.0, 1.0);
                aos[j] = Complex(in.i[j], in.q[j]);
            }
            ComplexSignal legacy, legacy_prefix;
            moving_average_into(aos, window, legacy, legacy_prefix);
            IqPlanes out, prefix, ref;
            moving_average_planes_into(in, window, ref, prefix);
            for (std::size_t j = 0; j < n; ++j) {
                expect_bitwise(legacy[j].real(), ref.i[j], "smooth i");
                expect_bitwise(legacy[j].imag(), ref.q[j], "smooth q");
            }
            // Cross-backend: drive the kernel directly with the prefix
            // sums the wrapper built.
            for (const KernelTable* t : all_backends()) {
                out.resize(n);
                t->smooth_from_prefix(prefix.i.data(), prefix.q.data(), n,
                                      window / 2, out.i.data(),
                                      out.q.data());
                expect_bitwise(ref.i, out.i, t->name);
                expect_bitwise(ref.q, out.q, t->name);
            }
        }
    }
}

TEST(SimdKernels, MovementEnergyBitIdenticalAcrossBackends) {
    Rng rng(5);
    for (const std::size_t n : kSizes) {
        const std::vector<double> xi = random_vec(rng, n);
        const std::vector<double> xq = random_vec(rng, n);
        const std::vector<double> pi = random_vec(rng, n);
        const std::vector<double> pq = random_vec(rng, n);
        const double ref = scalar_kernels().movement_energy(
            xi.data(), xq.data(), pi.data(), pq.data(), n);
        for (const KernelTable* t : all_backends()) {
            const double got = t->movement_energy(xi.data(), xq.data(),
                                                  pi.data(), pq.data(), n);
            expect_bitwise(ref, got, t->name);
        }
        // The striped reduction agrees with the legacy single accumulator
        // to rounding only (documented path divergence).
        double legacy = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double di = xi[j] - pi[j];
            const double dq = xq[j] - pq[j];
            legacy += di * di + dq * dq;
        }
        EXPECT_NEAR(ref, legacy, 1e-12 * std::max(1.0, std::abs(legacy)));
    }
}

TEST(SimdKernels, FusedBackgroundMatchesLegacySequenceBitExactly) {
    Rng rng(6);
    const double alpha = 0.0005;
    for (const std::size_t n : kSizes) {
        // Legacy chain: LoopbackFilter + RollingBinVariance over AoS.
        LoopbackFilter legacy_bg(n, alpha);
        core::RollingBinVariance legacy_rv(n);
        // Fused chain: planes + kernel, window of 4 frames then evictions.
        LoopbackFilter fused_bg(n, alpha);
        core::RollingBinVariance fused_rv(n);
        const KernelTable& kern = active_kernels();

        std::vector<IqPlanes> window;
        std::vector<ComplexSignal> window_aos;
        const std::size_t rolling = 4;
        for (std::size_t frame = 0; frame < 10; ++frame) {
            IqPlanes x;
            x.resize(n);
            ComplexSignal aos(n);
            for (std::size_t j = 0; j < n; ++j) {
                x.i[j] = rng.normal(0.0, 1.0);
                x.q[j] = rng.normal(0.0, 1.0);
                aos[j] = Complex(x.i[j], x.q[j]);
            }

            const double* old_i = nullptr;
            const double* old_q = nullptr;
            if (legacy_rv.count() == rolling) {
                const std::size_t evict = window.size() - rolling;
                legacy_rv.evict(window_aos[evict]);
                old_i = window[evict].i.data();
                old_q = window[evict].q.data();
                fused_rv.note_evict();
            }
            ComplexSignal sub_aos;
            legacy_bg.process_into(aos, sub_aos);
            legacy_rv.push(sub_aos);

            IqPlanes sub;
            sub.resize(n);
            fused_bg.begin_soa_frame(x);
            kern.background_var_fused(
                x.i.data(), x.q.data(), n, alpha, fused_bg.bg_i().data(),
                fused_bg.bg_q().data(), sub.i.data(), sub.q.data(), old_i,
                old_q, fused_rv.sum_i_data(), fused_rv.sum_q_data(),
                fused_rv.sum_sq_data());
            fused_rv.note_push();

            for (std::size_t j = 0; j < n; ++j) {
                expect_bitwise(sub_aos[j].real(), sub.i[j], "sub i");
                expect_bitwise(sub_aos[j].imag(), sub.q[j], "sub q");
            }
            std::vector<double> va, vb;
            legacy_rv.variances_into(va);
            fused_rv.variances_into(vb, kern);
            expect_bitwise(va, vb, "variances");

            window.push_back(std::move(x));
            window_aos.push_back(std::move(aos));
        }
    }
}

TEST(SimdKernels, ProcessIntoAndFusedKernelShareOneBackground) {
    // LoopbackFilter holds its estimate once, so frames fed alternately
    // through process_into() and the fused kernel continue one another
    // exactly as a run that feeds every frame through the kernel.
    Rng rng(11);
    const double alpha = 0.05;
    const KernelTable& kern = active_kernels();
    for (const std::size_t n : kSizes) {
        LoopbackFilter mixed(n, alpha);
        LoopbackFilter fused(n, alpha);
        const auto run_kernel = [&](LoopbackFilter& bg, const IqPlanes& x,
                                    IqPlanes& sub) {
            std::vector<double> si(n, 0.0), sq(n, 0.0), ssq(n, 0.0);
            sub.resize(n);
            bg.begin_soa_frame(x);
            kern.background_var_fused(x.i.data(), x.q.data(), n, alpha,
                                      bg.bg_i().data(), bg.bg_q().data(),
                                      sub.i.data(), sub.q.data(), nullptr,
                                      nullptr, si.data(), sq.data(),
                                      ssq.data());
        };
        for (std::size_t frame = 0; frame < 8; ++frame) {
            IqPlanes x;
            x.resize(n);
            ComplexSignal aos(n);
            for (std::size_t j = 0; j < n; ++j) {
                x.i[j] = rng.normal(0.0, 1.0);
                x.q[j] = rng.normal(0.0, 1.0);
                aos[j] = Complex(x.i[j], x.q[j]);
            }
            IqPlanes want;
            run_kernel(fused, x, want);
            IqPlanes got;
            if (frame % 2 == 0) {
                ComplexSignal sub_aos;
                mixed.process_into(aos, sub_aos);
                got.resize(n);
                for (std::size_t j = 0; j < n; ++j) {
                    got.i[j] = sub_aos[j].real();
                    got.q[j] = sub_aos[j].imag();
                }
            } else {
                run_kernel(mixed, x, got);
            }
            expect_bitwise(want.i, got.i, "sub i");
            expect_bitwise(want.q, got.q, "sub q");
            expect_bitwise(fused.bg_i(), mixed.bg_i(), "background i");
            expect_bitwise(fused.bg_q(), mixed.bg_q(), "background q");
        }
    }
}

TEST(SimdKernels, FusedBackgroundToleratesEvictAliasingOutput) {
    // A full ring recycles the evicted frame's slot as the new output:
    // old_i/old_q alias oi/oq. The kernel must read the evicted values
    // before overwriting them.
    Rng rng(7);
    const std::size_t n = 151;
    const double alpha = 0.25;
    for (const KernelTable* t : all_backends()) {
        IqPlanes x, slot, bg;
        x.resize(n);
        slot.resize(n);
        bg.resize(n);
        std::vector<double> si(n), sq(n), ssq(n);
        for (std::size_t j = 0; j < n; ++j) {
            x.i[j] = rng.normal(0.0, 1.0);
            x.q[j] = rng.normal(0.0, 1.0);
            slot.i[j] = rng.normal(0.0, 1.0);
            slot.q[j] = rng.normal(0.0, 1.0);
            bg.i[j] = rng.normal(0.0, 1.0);
            bg.q[j] = rng.normal(0.0, 1.0);
            si[j] = rng.normal(0.0, 1.0);
            sq[j] = rng.normal(0.0, 1.0);
            ssq[j] = rng.normal(2.0, 0.1);
        }
        // Reference: same inputs, evicted frame in a separate buffer.
        IqPlanes old_copy = slot;
        IqPlanes bg_ref = bg;
        IqPlanes out_ref;
        out_ref.resize(n);
        std::vector<double> si_ref = si, sq_ref = sq, ssq_ref = ssq;
        t->background_var_fused(x.i.data(), x.q.data(), n, alpha,
                                bg_ref.i.data(), bg_ref.q.data(),
                                out_ref.i.data(), out_ref.q.data(),
                                old_copy.i.data(), old_copy.q.data(),
                                si_ref.data(), sq_ref.data(),
                                ssq_ref.data());
        // Aliased: the evicted frame IS the output slot.
        t->background_var_fused(x.i.data(), x.q.data(), n, alpha,
                                bg.i.data(), bg.q.data(), slot.i.data(),
                                slot.q.data(), slot.i.data(),
                                slot.q.data(), si.data(), sq.data(),
                                ssq.data());
        expect_bitwise(out_ref.i, slot.i, "aliased out i");
        expect_bitwise(out_ref.q, slot.q, "aliased out q");
        expect_bitwise(si_ref, si, "aliased sum i");
        expect_bitwise(sq_ref, sq, "aliased sum q");
        expect_bitwise(ssq_ref, ssq, "aliased sum sq");
        expect_bitwise(bg_ref.i, bg.i, "aliased bg i");
        expect_bitwise(bg_ref.q, bg.q, "aliased bg q");
    }
}

TEST(SimdKernels, VariancesFromSumsMatchesAcrossBackends) {
    Rng rng(8);
    for (const std::size_t n : kSizes) {
        const std::vector<double> si = random_vec(rng, n);
        const std::vector<double> sq = random_vec(rng, n);
        std::vector<double> ssq = random_vec(rng, n);
        // Mix in values that clamp to zero.
        for (std::size_t j = 0; j < n; j += 2) ssq[j] = -std::abs(ssq[j]);
        for (const double count : {1.0, 4.0, 100.0}) {
            std::vector<double> ref(n);
            scalar_kernels().variances_from_sums(si.data(), sq.data(),
                                                 ssq.data(), n, count,
                                                 ref.data());
            for (const KernelTable* t : all_backends()) {
                std::vector<double> out(n);
                t->variances_from_sums(si.data(), sq.data(), ssq.data(), n,
                                       count, out.data());
                expect_bitwise(ref, out, t->name);
            }
        }
    }
}

TEST(SimdKernels, FftPassBitIdenticalAcrossBackends) {
    Rng rng(9);
    const std::size_t n = 1024;
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::vector<double> data = random_vec(rng, 2 * n);
        const std::vector<double> tw = random_vec(rng, len);  // len/2 pairs
        std::vector<double> ref = data;
        scalar_kernels().fft_pass(ref.data(), tw.data(), n, len);
        for (const KernelTable* t : all_backends()) {
            std::vector<double> d = data;
            t->fft_pass(d.data(), tw.data(), n, len);
            expect_bitwise(ref, d, t->name);
        }
    }
}

TEST(SimdKernels, PreprocessorSoaMatchesAosBitExactly) {
    Rng rng(10);
    core::PipelineConfig config;
    const core::Preprocessor prep(config);
    for (const std::size_t n : {8u, 151u}) {
        radar::RadarFrame frame;
        frame.timestamp_s = 0.25;
        frame.bins.resize(n);
        for (auto& z : frame.bins)
            z = Complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0));
        radar::RadarFrame aos;
        prep.apply_into(frame, aos);
        IqPlanes soa;
        prep.apply_soa(frame, soa);
        ASSERT_EQ(aos.bins.size(), soa.size());
        for (std::size_t j = 0; j < n; ++j) {
            expect_bitwise(aos.bins[j].real(), soa.i[j], "pre i");
            expect_bitwise(aos.bins[j].imag(), soa.q[j], "pre q");
        }
    }
}

}  // namespace
}  // namespace blinkradar::dsp
