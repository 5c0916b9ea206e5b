#include "ingest/byte_source.hpp"

#include <algorithm>
#include <stdexcept>

namespace blinkradar::ingest {

// -------------------------------------------------------------- ReadyList

void ReadyList::mark(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ids_.push_back(id);
}

void ReadyList::take(std::vector<std::uint64_t>& out) {
    out.clear();
    const std::lock_guard<std::mutex> lock(mutex_);
    out.swap(ids_);
}

// ------------------------------------------------------- MemoryByteSource

MemoryByteSource::MemoryByteSource(std::vector<std::uint8_t> bytes,
                                   std::size_t max_per_read)
    : bytes_(std::move(bytes)), max_per_read_(max_per_read) {}

std::size_t MemoryByteSource::read(std::uint8_t* out, std::size_t max) {
    const std::size_t n = std::min({max, max_per_read_,
                                    bytes_.size() - offset_});
    std::copy_n(bytes_.data() + offset_, n, out);
    offset_ += n;
    return n;
}

// ------------------------------------------------------- FileReplaySource

FileReplaySource::FileReplaySource(std::string path)
    : path_(std::move(path)) {
    file_ = std::fopen(path_.c_str(), "rb");
    if (file_ == nullptr)
        throw std::runtime_error("FileReplaySource: cannot open " + path_);
}

FileReplaySource::~FileReplaySource() {
    if (file_ != nullptr) std::fclose(file_);
}

std::size_t FileReplaySource::read(std::uint8_t* out, std::size_t max) {
    if (file_ == nullptr || eof_) return 0;
    const std::size_t n = std::fread(out, 1, max, file_);
    offset_ += n;
    if (n < max && std::feof(file_)) eof_ = true;
    return n;
}

bool FileReplaySource::exhausted() const { return eof_; }

void FileReplaySource::reconnect() {
    // Re-open and seek back to the last byte actually delivered — the
    // decoder's resynchronisation handles anything the transport mangled,
    // so the source only has to avoid silently skipping bytes.
    if (file_ != nullptr) std::fclose(file_);
    eof_ = false;
    file_ = std::fopen(path_.c_str(), "rb");
    if (file_ == nullptr) return;  // still gone; next watchdog retries
    if (std::fseek(file_, static_cast<long>(offset_), SEEK_SET) != 0) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// --------------------------------------------------------------- BytePipe

class BytePipe::Source : public ByteSource {
public:
    explicit Source(BytePipe* pipe) : pipe_(pipe) {}

    ~Source() override {
        // The ready list belongs to the front-end, which may go before
        // the pipe's producers stop writing.
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        pipe_->ready_ = nullptr;
    }

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        // Any write after this read marks again, so none goes unseen.
        pipe_->marked_ = false;
        const std::size_t n = std::min(max, pipe_->buf_.size());
        std::copy_n(pipe_->buf_.begin(), n, out);
        pipe_->buf_.erase(pipe_->buf_.begin(),
                          pipe_->buf_.begin() +
                              static_cast<std::ptrdiff_t>(n));
        return n;
    }

    bool exhausted() const override {
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        return pipe_->closed_ && pipe_->buf_.empty();
    }

    bool bind_ready(ReadyList& ready, std::uint64_t id) override {
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        pipe_->ready_ = &ready;
        pipe_->ready_id_ = id;
        pipe_->marked_ = false;
        return true;
    }

private:
    BytePipe* pipe_;
};

BytePipe::BytePipe(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

std::size_t BytePipe::write(std::span<const std::uint8_t> bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return 0;
    const std::size_t room = capacity_ - std::min(capacity_, buf_.size());
    const std::size_t n = std::min(room, bytes.size());
    buf_.insert(buf_.end(), bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(n));
    if (n > 0) signal_locked();
    return n;
}

void BytePipe::close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    signal_locked();
}

void BytePipe::signal_locked() {
    if (ready_ == nullptr || marked_) return;
    marked_ = true;
    ready_->mark(ready_id_);
}

std::size_t BytePipe::buffered() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return buf_.size();
}

std::unique_ptr<ByteSource> BytePipe::make_source() {
    return std::make_unique<Source>(this);
}

}  // namespace blinkradar::ingest
