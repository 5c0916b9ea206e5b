// Byte sources the ingest front-end pulls from.
//
// The front-end is pull-based: on a tick it reads up to a per-stream
// byte budget from each ready stream's source, so a slow consumer (full
// frame queue under the `block` policy) simply stops pulling and the
// bytes stay where they are — in the file, or in the pipe where the
// producer sees the pipe fill up and its writes shorten. That is the
// whole backpressure story: no source-side buffering policy to tune.
//
// Which streams are read is decided by an edge signal. A source that
// can tell when new bytes (or EOF) arrive binds to the front-end's
// ReadyList and marks its stream on each such change; the front-end
// then stops reading it once a read comes back empty and reads it again
// after the next mark. A source that cannot signal (the default) never
// leaves the poll set, so it is read on every tick. There is one poll
// loop either way.
//
//   MemoryByteSource  - replays a byte vector (tests, fault sweeps).
//   FileReplaySource  - streams a .brwf file from disk (br_ingest replay).
//   BytePipe          - in-process socket-like stream: any producer
//                       thread write()s, the front-end reads the other
//                       end. Bounded; write() accepts a prefix when the
//                       pipe is nearly full (socket short-write
//                       semantics) and 0 bytes when full. Signals: a
//                       write that lands bytes, and close(), mark the
//                       stream ready.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace blinkradar::ingest {

/// Stream ids whose sources signalled since the front-end last took the
/// list. Thread-safe: producers mark from their own threads, the
/// front-end takes on its driving thread. Duplicates are allowed (the
/// front-end drops ids already in its poll set).
class ReadyList {
public:
    void mark(std::uint64_t id);
    /// Move every marked id into `out` (cleared first) and empty the list.
    void take(std::vector<std::uint64_t>& out);

private:
    std::mutex mutex_;
    std::vector<std::uint64_t> ids_;
};

/// Pull interface the front-end drives. read() returning 0 means
/// "nothing available right now" — only exhausted() distinguishes a
/// stalled source from a finished one.
class ByteSource {
public:
    virtual ~ByteSource() = default;

    /// Pull up to `max` bytes into `out`; returns the count delivered.
    virtual std::size_t read(std::uint8_t* out, std::size_t max) = 0;

    /// True when no byte will ever come again (EOF / closed pipe with an
    /// empty buffer). A false return with read() == 0 is a stall.
    virtual bool exhausted() const = 0;

    /// Watchdog hook: the front-end calls this when the stall watchdog
    /// fires and the backoff expires. Sources that can recover (a replay
    /// source re-opening its file, a transport re-dialling) do so here;
    /// the default is a no-op.
    virtual void reconnect() {}

    /// Edge signal. A source that can tell when read() or exhausted()
    /// may answer differently (bytes arrived, the producer closed) keeps
    /// `ready` and marks `id` on every such change, and returns true.
    /// The front-end then reads it only on ticks after a mark, until a
    /// read comes back empty. The default cannot signal and returns
    /// false: the stream never leaves the poll set and is read on every
    /// tick. The source must stop marking when it is destroyed.
    virtual bool bind_ready(ReadyList& /*ready*/, std::uint64_t /*id*/) {
        return false;
    }
};

/// Replays an in-memory byte vector, optionally capped to `max_per_read`
/// bytes per call to emulate a trickling transport.
class MemoryByteSource : public ByteSource {
public:
    explicit MemoryByteSource(std::vector<std::uint8_t> bytes,
                              std::size_t max_per_read = SIZE_MAX);

    std::size_t read(std::uint8_t* out, std::size_t max) override;
    bool exhausted() const override { return offset_ >= bytes_.size(); }

private:
    std::vector<std::uint8_t> bytes_;
    std::size_t offset_ = 0;
    std::size_t max_per_read_;
};

/// Streams a file from disk in read()-sized slices. reconnect() reopens
/// the file and resumes from the last delivered offset (a replay of the
/// watchdog's recover-in-place semantics).
class FileReplaySource : public ByteSource {
public:
    /// Throws std::runtime_error when the file cannot be opened.
    explicit FileReplaySource(std::string path);
    ~FileReplaySource() override;

    std::size_t read(std::uint8_t* out, std::size_t max) override;
    bool exhausted() const override;
    void reconnect() override;

private:
    std::string path_;
    std::FILE* file_ = nullptr;
    std::size_t offset_ = 0;
    bool eof_ = false;
};

/// Bounded in-process byte pipe: the socket-like stream for producers
/// living in the same process (simulator threads, tests, the TSan
/// drill). Thread-safe; any number of writers, one reader (the
/// front-end). Reader-side pressure surfaces to writers as short or
/// zero-length writes. Its reader end signals: a write that lands
/// bytes, and close(), mark the stream on the bound ReadyList — once
/// per read, so a burst of writes between two reads costs one mark.
class BytePipe {
public:
    explicit BytePipe(std::size_t capacity_bytes = 1u << 20);

    /// Append up to capacity; returns the bytes accepted (0 when full —
    /// the producer's cue to back off or drop at its own layer). Marks
    /// the stream ready when it accepts any byte.
    std::size_t write(std::span<const std::uint8_t> bytes);

    /// Producer is done; the reader sees EOF once the buffer drains.
    /// Marks the stream ready.
    void close();

    std::size_t buffered() const;

    /// The reader end (a ByteSource view sharing this pipe's buffer).
    /// The pipe must outlive the source.
    std::unique_ptr<ByteSource> make_source();

private:
    class Source;

    /// Mark the bound stream unless a mark is already pending since the
    /// last read. Call with mutex_ held.
    void signal_locked();

    mutable std::mutex mutex_;
    std::deque<std::uint8_t> buf_;
    std::size_t capacity_;
    bool closed_ = false;
    ReadyList* ready_ = nullptr;  ///< bound by the reader end
    std::uint64_t ready_id_ = 0;
    bool marked_ = false;  ///< a mark is pending since the last read
};

}  // namespace blinkradar::ingest
