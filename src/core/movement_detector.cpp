#include "core/movement_detector.hpp"

#include <algorithm>
#include <vector>

#include "common/contracts.hpp"

namespace blinkradar::core {

MovementDetector::MovementDetector(const PipelineConfig& config,
                                   double frame_rate_hz)
    : config_(config) {
    BR_EXPECTS(frame_rate_hz > 0.0);
    BR_EXPECTS(config.movement_threshold_factor > 1.0);
    window_frames_ = static_cast<std::size_t>(
        config.movement_median_window_s * frame_rate_hz);
    BR_ENSURES(window_frames_ >= 8);
    diffs_.reset_capacity(window_frames_);
    sorted_diffs_.reserve(window_frames_);
}

void MovementDetector::reset() {
    previous_soa_.clear();
    diffs_.clear();
    sorted_diffs_.clear();
    last_diff_ = 0.0;
}

double MovementDetector::median_difference() const {
    // The upper-middle order statistic, as std::nth_element(mid) returns.
    return sorted_diffs_[sorted_diffs_.size() / 2];
}

void MovementDetector::rebuild_sorted() {
    sorted_diffs_.clear();
    for (std::size_t i = 0; i < diffs_.size(); ++i)
        sorted_diffs_.push_back(diffs_[i]);
    std::sort(sorted_diffs_.begin(), sorted_diffs_.end());
}

namespace {
constexpr std::uint32_t kMovementTag = state::make_tag("MOVD");
constexpr std::uint16_t kMovementVersion = 1;
}  // namespace

void MovementDetector::save_state(state::StateWriter& writer) const {
    writer.begin_section(kMovementTag, kMovementVersion);
    writer.write_complex_planes(previous_soa_.i, previous_soa_.q);
    writer.write_size(diffs_.size());
    for (std::size_t i = 0; i < diffs_.size(); ++i)
        writer.write_f64(diffs_[i]);
    writer.write_f64(last_diff_);
    writer.end_section();
}

void MovementDetector::restore_state(state::StateReader& reader) {
    const std::uint16_t version = reader.open_section(kMovementTag);
    if (version > kMovementVersion)
        throw state::SnapshotError(
            "MOVD: snapshot section version " + std::to_string(version) +
            " is newer than this build supports (" +
            std::to_string(kMovementVersion) + ")");
    reader.read_complex_planes_into(previous_soa_.i, previous_soa_.q);
    const std::size_t n_diffs = reader.read_size();
    if (n_diffs > diffs_.capacity())
        throw state::SnapshotError(
            "MOVD: snapshot holds " + std::to_string(n_diffs) +
            " window entries but this configuration's window is " +
            std::to_string(diffs_.capacity()));
    diffs_.clear();
    for (std::size_t i = 0; i < n_diffs; ++i)
        diffs_.push_back(reader.read_f64());
    last_diff_ = reader.read_f64();
    rebuild_sorted();
    reader.close_section();
}

bool MovementDetector::push_soa(const dsp::IqPlanes& frame,
                                const dsp::KernelTable& kernels) {
    BR_EXPECTS(!frame.empty());
    if (previous_soa_.size() != frame.size()) {
        previous_soa_ = frame;
        return false;
    }
    const double diff = kernels.movement_energy(
        frame.i.data(), frame.q.data(), previous_soa_.i.data(),
        previous_soa_.q.data(), frame.size());
    previous_soa_.i.assign(frame.i.begin(), frame.i.end());
    previous_soa_.q.assign(frame.q.begin(), frame.q.end());
    return judge_and_record(diff);
}

bool MovementDetector::judge_and_record(double diff) {
    last_diff_ = diff;
    bool triggered = false;
    // Only judge once the median window is at least half full, so the
    // first seconds establish a baseline instead of firing spuriously.
    if (diffs_.size() >= window_frames_ / 2) {
        const double med = median_difference();
        triggered = med > 0.0 &&
                    diff > config_.movement_threshold_factor * med;
    }
    // A triggered frame's difference is *not* pushed into the history —
    // one posture shift spans many frames and would poison the median.
    if (!triggered) {
        if (diffs_.size() == window_frames_) {
            // The ring evicts its oldest entry; drop it from the sorted
            // mirror first (any equal element is interchangeable).
            const auto it = std::lower_bound(sorted_diffs_.begin(),
                                             sorted_diffs_.end(), diffs_[0]);
            sorted_diffs_.erase(it);
        }
        diffs_.push_back(diff);  // ring evicts past the window
        sorted_diffs_.insert(std::upper_bound(sorted_diffs_.begin(),
                                              sorted_diffs_.end(), diff),
                             diff);
    }
    return triggered;
}

}  // namespace blinkradar::core
