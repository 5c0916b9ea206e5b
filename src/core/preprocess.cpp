#include "core/preprocess.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "dsp/frame_kernels.hpp"
#include "dsp/smoothing.hpp"
#include "obs/stage_timer.hpp"

namespace blinkradar::core {

Preprocessor::Preprocessor(const PipelineConfig& config)
    : fir_(dsp::FirFilter::low_pass(config.fir_order,
                                    /*cutoff_hz=*/config.fir_cutoff_norm,
                                    /*sample_rate_hz=*/1.0)),
      smooth_window_(config.smooth_window_bins) {
    BR_EXPECTS(config.fir_cutoff_norm > 0.0 && config.fir_cutoff_norm < 0.5);
    BR_EXPECTS(config.smooth_window_bins >= 1);
}

radar::RadarFrame Preprocessor::apply(const radar::RadarFrame& frame) const {
    radar::RadarFrame out;
    apply_into(frame, out);
    return out;
}

void Preprocessor::apply_into(const radar::RadarFrame& frame,
                              radar::RadarFrame& out) const {
    BR_EXPECTS(!frame.bins.empty());
    BR_EXPECTS(&frame != &out);
    out.timestamp_s = frame.timestamp_s;

    // FIR low-pass along fast time with group-delay compensation.
    fir_.filter_into(frame.bins, filtered_);
    const std::size_t gd = static_cast<std::size_t>(fir_.group_delay_samples());
    const std::size_t n = frame.bins.size();
    aligned_.resize(n);
    std::size_t b = 0;
    for (; b + gd < n; ++b) aligned_[b] = filtered_[b + gd];
    // The shift leaves no filtered samples for the last `gd` bins. Hold
    // them at the nearest filtered value instead of zeroing: a hard zero
    // edge is a fake clutter step that the movement detector and the
    // smoothing stage would otherwise see every frame.
    const dsp::Complex edge =
        b > 0 ? aligned_[b - 1] : dsp::Complex(0.0, 0.0);
    for (; b < n; ++b) aligned_[b] = edge;

    // Smoothing (moving-average) stage of the cascade.
    dsp::moving_average_into(aligned_, smooth_window_, out.bins, prefix_);
}

void Preprocessor::apply_soa(const radar::RadarFrame& frame,
                             dsp::IqPlanes& out,
                             const obs::KernelTimers* timers) const {
    BR_EXPECTS(!frame.bins.empty());
    const dsp::KernelTable& kern = dsp::active_kernels();
    const std::size_t n = frame.bins.size();
    in_planes_.resize(n);
    kern.deinterleave(frame.bins.data(), n, in_planes_.i.data(),
                      in_planes_.q.data());

    {
        obs::StageTimer t(timers ? timers->preprocess_fir : nullptr);
        fir_.filter_planes_into(in_planes_, filtered_planes_);
    }

    // Group-delay alignment: shift both planes by gd with edge hold,
    // mirroring the complex loop in apply_into() element for element.
    const std::size_t gd = static_cast<std::size_t>(fir_.group_delay_samples());
    aligned_planes_.resize(n);
    const std::size_t m = n > gd ? n - gd : 0;
    std::copy(filtered_planes_.i.begin() + static_cast<std::ptrdiff_t>(gd),
              filtered_planes_.i.begin() + static_cast<std::ptrdiff_t>(gd + m),
              aligned_planes_.i.begin());
    std::copy(filtered_planes_.q.begin() + static_cast<std::ptrdiff_t>(gd),
              filtered_planes_.q.begin() + static_cast<std::ptrdiff_t>(gd + m),
              aligned_planes_.q.begin());
    const double edge_i = m > 0 ? aligned_planes_.i[m - 1] : 0.0;
    const double edge_q = m > 0 ? aligned_planes_.q[m - 1] : 0.0;
    std::fill(aligned_planes_.i.begin() + static_cast<std::ptrdiff_t>(m),
              aligned_planes_.i.end(), edge_i);
    std::fill(aligned_planes_.q.begin() + static_cast<std::ptrdiff_t>(m),
              aligned_planes_.q.end(), edge_q);

    {
        obs::StageTimer t(timers ? timers->preprocess_smooth : nullptr);
        dsp::moving_average_planes_into(aligned_planes_, smooth_window_, out,
                                        prefix_planes_);
    }
}

namespace {
constexpr std::uint32_t kPreprocessTag = state::make_tag("PREP");
constexpr std::uint16_t kPreprocessVersion = 1;
}  // namespace

void Preprocessor::save_state(state::StateWriter& writer) const {
    writer.begin_section(kPreprocessTag, kPreprocessVersion);
    writer.end_section();
}

void Preprocessor::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kPreprocessTag);
    if (version > kPreprocessVersion)
        throw state::SnapshotError(
            "PREP: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kPreprocessVersion) + ")");
    reader.close_section();
}

}  // namespace blinkradar::core
