#include "obs/telemetry/export.hpp"

#include <cstdio>

namespace blinkradar::obs::telemetry {

SnapshotPublisher::SnapshotPublisher(SnapshotPublisherConfig config)
    : config_(std::move(config)) {}

bool SnapshotPublisher::write_atomic(const std::string& path,
                                     const std::string& body) {
    tmp_path_.assign(path);
    tmp_path_ += ".tmp";
    std::FILE* f = std::fopen(tmp_path_.c_str(), "wb");
    if (f == nullptr) return false;
    const bool wrote =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::remove(tmp_path_.c_str());
        return false;
    }
    if (std::rename(tmp_path_.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path_.c_str());
        return false;
    }
    return true;
}

bool SnapshotPublisher::publish(const MetricsRegistry& registry) {
    const std::size_t back = 1 - front_;
    json_buf_[back].clear();
    append_snapshot_json(registry, json_buf_[back]);
    const bool ok = config_.json_path.empty() ||
                    write_atomic(config_.json_path, json_buf_[back]);
    front_ = back;
    ++publishes_;
    if (!ok) ++failures_;
    return ok;
}

}  // namespace blinkradar::obs::telemetry
