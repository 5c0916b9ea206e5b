#include "dsp/background.hpp"

#include "common/contracts.hpp"

namespace blinkradar::dsp {

LoopbackFilter::LoopbackFilter(std::size_t n_bins, double alpha)
    : bg_i_(n_bins, 0.0),
      bg_q_(n_bins, 0.0),
      alpha_(alpha) {
    BR_EXPECTS(n_bins >= 1);
    BR_EXPECTS(alpha > 0.0 && alpha < 1.0);
}

ComplexSignal LoopbackFilter::process(std::span<const Complex> frame) {
    ComplexSignal out;
    process_into(frame, out);
    return out;
}

void LoopbackFilter::process_into(std::span<const Complex> frame,
                                  ComplexSignal& out) {
    BR_EXPECTS(frame.size() == bg_i_.size());
    BR_EXPECTS(frame.data() != out.data());
    if (!primed_) {
        // Seed the background with the first frame so start-up output is
        // clutter-free immediately instead of after ~1/alpha frames.
        for (std::size_t b = 0; b < frame.size(); ++b) {
            bg_i_[b] = frame[b].real();
            bg_q_[b] = frame[b].imag();
        }
        primed_ = true;
    }
    out.resize(frame.size());
    for (std::size_t b = 0; b < frame.size(); ++b) {
        const double x_i = frame[b].real();
        const double x_q = frame[b].imag();
        out[b] = Complex(x_i - bg_i_[b], x_q - bg_q_[b]);
        bg_i_[b] = (1.0 - alpha_) * bg_i_[b] + alpha_ * x_i;
        bg_q_[b] = (1.0 - alpha_) * bg_q_[b] + alpha_ * x_q;
    }
}

void LoopbackFilter::begin_soa_frame(const IqPlanes& frame) {
    BR_EXPECTS(frame.size() == bg_i_.size());
    if (primed_) return;
    bg_i_ = frame.i;
    bg_q_ = frame.q;
    primed_ = true;
}

void LoopbackFilter::reset() noexcept { primed_ = false; }

namespace {
constexpr std::uint32_t kBackgroundTag = state::make_tag("BKGD");
constexpr std::uint16_t kBackgroundVersion = 1;
}  // namespace

void LoopbackFilter::save_state(state::StateWriter& writer) const {
    writer.begin_section(kBackgroundTag, kBackgroundVersion);
    writer.write_bool(primed_);
    writer.write_complex_planes(bg_i_, bg_q_);
    writer.end_section();
}

void LoopbackFilter::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kBackgroundTag);
    if (version > kBackgroundVersion)
        throw state::SnapshotError(
            "BKGD: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kBackgroundVersion) + ")");
    const bool primed = reader.read_bool();
    RealSignal bg_i;
    RealSignal bg_q;
    reader.read_complex_planes_into(bg_i, bg_q);
    if (bg_i.size() != bg_i_.size())
        throw state::SnapshotError(
            "BKGD: snapshot holds " + std::to_string(bg_i.size()) +
            " bins but the filter is configured for " +
            std::to_string(bg_i_.size()));
    primed_ = primed;
    bg_i_ = std::move(bg_i);
    bg_q_ = std::move(bg_q);
    reader.close_section();
}

}  // namespace blinkradar::dsp
