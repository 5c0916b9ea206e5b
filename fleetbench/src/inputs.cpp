// Workload inputs and the bare-pipeline reference.
//
// Every input is a simulated driver (the paper's participant pool,
// scenario seeds derived from --seed) encoded to BRWF wire bytes before
// any timing starts. live_impaired additionally passes the frames through
// radar::FaultInjector (sensor faults) and the encoded records through
// ingest::WireFaultInjector (transport faults), one record at a time, so
// the byte offset at which each source frame is complete is known: that
// frame's due time is when the generator writes those bytes.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/random.hpp"
#include "eval/metrics.hpp"
#include "ingest/wire_fault.hpp"
#include "ingest/wire_format.hpp"
#include "physio/driver_profile.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"

namespace fleetbench {

using namespace br;

Shape shape_for(const Options& opt) {
    Shape s;
    // A traced run spends half its time untraced (the overhead baseline)
    // and half traced, so its paced window is half as long.
    const double window_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    switch (opt.workload) {
        case Workload::kSteadyDrain:
            // 4-minute drives: the 50 cold-start frames are 0.8 %.
            s.distinct = 8;
            s.streams = 64;
            s.session_s = 240.0;
            s.span_stride = 64;
            s.f1_floor = 0.70;
            if (opt.smoke) {
                s.distinct = 2;
                s.streams = 4;
                s.session_s = 8.0;
            }
            break;
        case Workload::kChurnDrain:
            s.distinct = 128;
            s.streams = 256;
            s.session_s = 20.0;
            s.wave = 32;
            s.wave_every_ticks = 25;
            s.burst_frames = 100;
            s.gap_reads = 8;
            s.max_resident = 64;
            s.evict_idle_pumps = 4;
            s.export_every_ticks = 4;
            s.span_stride = 64;
            s.f1_floor = 0.60;
            if (opt.smoke) {
                s.distinct = 2;
                s.streams = 8;
                s.session_s = 6.0;
                s.wave = 4;
                s.wave_every_ticks = 10;
                s.max_resident = 2;
            }
            break;
        case Workload::kLiveImpaired:
            s.distinct = 64;
            s.streams = 256;
            s.session_s = window_s;
            s.warmup_frames = kAutosnapshotFrames;
            s.faults = true;
            // Scraped on a wall-clock cadence: an open loop's tick rate
            // follows the load, so a tick cadence would too.
            s.export_every_s = 1.0;
            s.span_stride = 16;
            s.f1_floor = 0.55;
            if (opt.smoke) {
                s.distinct = 2;
                s.streams = 8;
                s.session_s = std::min(window_s, 3.0);
                s.warmup_frames = 20;
            }
            break;
    }
    if (opt.smoke) s.f1_floor = 0.0;
    return s;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

namespace {

const std::size_t kColdStartFrames = core::PipelineConfig{}.cold_start_frames;

radar::FaultInjectorConfig sensor_faults() {
    radar::FaultInjectorConfig c;
    c.drop_rate = 0.005;
    c.duplicate_rate = 0.005;
    c.timestamp_jitter_std_s = 0.002;
    c.saturation_rate = 0.001;
    c.nan_rate = 0.005;
    c.truncate_rate = 0.002;
    return c;
}

ingest::WireFaultConfig wire_faults() {
    ingest::WireFaultConfig c;
    c.bitflip_rate = 0.001;
    c.truncate_rate = 0.0005;
    c.garbage_rate = 0.001;
    return c;
}

/// Decode `bytes` the way a stream receives them: the header + hello,
/// then each source frame's bytes in turn. fn(frame, k) sees every
/// decoded frame with the source frame k whose bytes completed it.
void decode_chunks(
    const std::vector<std::uint8_t>& bytes, std::size_t hello_end,
    const std::vector<std::size_t>& frame_end,
    const std::function<void(radar::RadarFrame&&, std::size_t)>& fn) {
    ingest::WireDecoder dec;
    const auto drain = [&](std::size_t k) {
        while (auto rec = dec.next())
            if (rec->type == ingest::RecordType::kFrame)
                fn(std::move(rec->frame), k);
    };
    dec.push({bytes.data(), hello_end});
    drain(0);
    std::size_t from = hello_end;
    for (std::size_t k = 0; k < frame_end.size(); ++k) {
        dec.push({bytes.data() + from, frame_end[k] - from});
        from = frame_end[k];
        drain(k);
    }
    // The bye (and anything a held-back chunk released) arrives with
    // the last frame.
    dec.push({bytes.data() + from, bytes.size() - from});
    drain(frame_end.empty() ? 0 : frame_end.size() - 1);
}

EncodedStream make_input(const Options& opt, const Shape& shape,
                         const physio::DriverProfile& driver,
                         std::size_t index) {
    const std::uint64_t base =
        mix_seed(opt.seed, static_cast<std::uint64_t>(opt.workload) * 1000 +
                               index);
    sim::ScenarioConfig sc;
    sc.driver = driver;
    sc.alertness = physio::Alertness::kAwake;
    sc.environment = sim::Environment::kDriving;
    sc.road = vehicle::RoadType::kSmoothHighway;
    // Warm-up frames (live_impaired): past the cold start, then spread
    // evenly over one autosnapshot cycle across the inputs.
    const std::size_t warmup =
        shape.warmup_frames == 0
            ? 0
            : kColdStartFrames + index * shape.warmup_frames / shape.distinct;
    sc.duration_s = shape.session_s +
                    static_cast<double>(warmup) * sc.radar.frame_period_s;
    sc.seed = base;
    sim::SimulatedSession sim = sim::simulate_session(sc);

    EncodedStream in;
    in.radar = sim.radar;
    in.truth = std::move(sim.truth.blinks);
    if (shape.faults) {
        radar::FaultInjector inj(sensor_faults(), mix_seed(base, 1));
        sim.frames = inj.apply(sim.frames);
    }
    in.warmup = std::min(warmup, sim.frames.size());

    ingest::WireHello hello;
    hello.radar = sim.radar;
    hello.stream_tag = index;
    ingest::WireEncoder enc(hello);
    in.hello_end = enc.bytes().size();
    std::vector<std::size_t> record_end;
    record_end.reserve(sim.frames.size());
    for (const radar::RadarFrame& f : sim.frames) {
        enc.encode_frame(f);
        record_end.push_back(enc.bytes().size());
    }
    sim.frames.clear();
    sim.frames.shrink_to_fit();
    const std::size_t frames_end = enc.bytes().size();
    enc.encode_bye();
    std::vector<std::uint8_t> clean = enc.take();

    std::vector<std::uint8_t> out;
    if (!shape.faults) {
        out = std::move(clean);
        in.frame_end = std::move(record_end);
    } else {
        // Damage each frame record separately (in transport-sized
        // chunks), so frame k's bytes end at a known offset.
        ingest::WireFaultInjector inj(wire_faults(), mix_seed(base, 2));
        const std::size_t chunk = inj.config().chunk_bytes;
        out.assign(clean.begin(), clean.begin() + in.hello_end);
        std::size_t from = in.hello_end;
        for (const std::size_t end : record_end) {
            for (std::size_t c = from; c < end; c += chunk)
                inj.apply({clean.data() + c, std::min(chunk, end - c)}, out);
            from = end;
            in.frame_end.push_back(out.size());
        }
        inj.flush(out);
        if (!in.frame_end.empty()) in.frame_end.back() = out.size();
        out.insert(out.end(), clean.begin() + frames_end, clean.end());
    }
    decode_chunks(out, in.hello_end, in.frame_end,
                  [&](radar::RadarFrame&&, std::size_t k) {
                      in.decodable_after.push_back(
                          static_cast<std::uint32_t>(k));
                  });
    in.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(out));
    return in;
}

}  // namespace

std::vector<EncodedStream> make_inputs(const Options& opt, const Shape& shape,
                                       ThreadPool& pool) {
    // A fixed participant pool (the paper's twelve drivers); the workload
    // seed drives everything else: blink timing, motion, noise, faults.
    Rng rng(2022);
    const std::vector<physio::DriverProfile> drivers =
        physio::sample_participants(12, rng);
    std::vector<EncodedStream> inputs(shape.distinct);
    pool.parallel_for(shape.distinct, [&](std::size_t i) {
        inputs[i] = make_input(opt, shape, drivers[i % drivers.size()], i);
    });
    return inputs;
}

void for_each_decoded(const EncodedStream& in,
                      const std::function<void(radar::RadarFrame&&)>& fn) {
    decode_chunks(*in.bytes, in.hello_end, in.frame_end,
                  [&](radar::RadarFrame&& f, std::size_t) {
                      fn(std::move(f));
                  });
}

void build_reference(std::vector<EncodedStream>& inputs, ThreadPool& pool) {
    pool.parallel_for(inputs.size(), [&](std::size_t i) {
        EncodedStream& in = inputs[i];
        core::BlinkRadarPipeline pipe(in.radar);
        in.ref_blinks.clear();
        in.ref_quarantined.clear();
        for_each_decoded(in, [&](radar::RadarFrame&& f) {
            const core::FrameResult r = pipe.process(f);
            if (r.blink) in.ref_blinks.push_back(*r.blink);
            in.ref_quarantined.push_back(
                r.quality == core::FrameVerdict::kQuarantined ? 1 : 0);
        });
    });
}

namespace {

class ScriptedSource final : public ingest::ByteSource {
public:
    ScriptedSource(std::shared_ptr<const std::vector<std::uint8_t>> bytes,
                   std::vector<std::size_t> releases, std::size_t gap_reads)
        : bytes_(std::move(bytes)),
          releases_(std::move(releases)),
          gap_reads_(gap_reads) {}

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        if (wait_ > 0) {
            --wait_;
            return 0;
        }
        const std::size_t limit = releases_[step_];
        const std::size_t n = std::min(max, limit - cursor_);
        std::memcpy(out, bytes_->data() + cursor_, n);
        cursor_ += n;
        if (cursor_ == limit && step_ + 1 < releases_.size()) {
            ++step_;
            // The hello opens the stream; silence only follows bursts.
            wait_ = step_ == 1 ? 0 : gap_reads_;
        }
        return n;
    }

    bool exhausted() const override { return cursor_ >= bytes_->size(); }

private:
    std::shared_ptr<const std::vector<std::uint8_t>> bytes_;
    std::vector<std::size_t> releases_;
    std::size_t gap_reads_;
    std::size_t step_ = 0;
    std::size_t cursor_ = 0;
    std::size_t wait_ = 0;
};

}  // namespace

std::unique_ptr<ingest::ByteSource> make_scripted_source(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes,
    std::vector<std::size_t> releases, std::size_t gap_reads) {
    return std::make_unique<ScriptedSource>(std::move(bytes),
                                            std::move(releases), gap_reads);
}

std::vector<std::size_t> release_points(const EncodedStream& in,
                                        std::size_t burst_frames) {
    std::vector<std::size_t> r{in.hello_end};
    if (burst_frames != 0)
        for (std::size_t k = burst_frames; k < in.offered(); k += burst_frames)
            r.push_back(in.frame_end[k - 1]);
    r.push_back(in.bytes->size());
    return r;
}

namespace {

bool same_blink(const core::DetectedBlink& a, const core::DetectedBlink& b) {
    return std::memcmp(&a.peak_s, &b.peak_s, sizeof(double)) == 0 &&
           std::memcmp(&a.duration_s, &b.duration_s, sizeof(double)) == 0 &&
           std::memcmp(&a.magnitude, &b.magnitude, sizeof(double)) == 0 &&
           std::memcmp(&a.strength, &b.strength, sizeof(double)) == 0;
}

}  // namespace

std::string check_sessions(const std::vector<SessionOutcome>& sessions,
                           const std::vector<EncodedStream>& inputs,
                           bool perturb_reference) {
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        const SessionOutcome& out = sessions[s];
        const EncodedStream& in = inputs[out.input];
        std::vector<core::DetectedBlink> ref = in.ref_blinks;
        if (perturb_reference && s == 0) {
            // Self-test: a reference one ulp off must be caught.
            if (ref.empty())
                ref.push_back({});
            else
                ref[0].peak_s = std::nextafter(ref[0].peak_s, 1e9);
        }
        std::ostringstream why;
        why << "session " << s << " (input " << out.input << "): ";
        if (!out.error.empty()) {
            why << out.error;
            return why.str();
        }
        if (out.cold_restarts != 0) {
            why << out.cold_restarts << " cold restarts";
            return why.str();
        }
        if (out.frames_consumed != in.decoded()) {
            why << "consumed " << out.frames_consumed
                << " frames, reference decoded " << in.decoded();
            return why.str();
        }
        if (!out.quarantined.empty() && out.quarantined != in.ref_quarantined) {
            why << "guard verdicts differ from the reference";
            return why.str();
        }
        if (out.blinks.size() != ref.size()) {
            why << out.blinks.size() << " blinks, reference " << ref.size();
            return why.str();
        }
        for (std::size_t b = 0; b < ref.size(); ++b)
            if (!same_blink(out.blinks[b], ref[b])) {
                why << "blink " << b << " differs from the reference";
                return why.str();
            }
    }
    return "";
}

double Accuracy::recall() const {
    return truth == 0 ? 0.0
                      : static_cast<double>(matched) /
                            static_cast<double>(truth);
}

double Accuracy::precision() const {
    return detected == 0 ? 0.0
                         : static_cast<double>(matched) /
                               static_cast<double>(detected);
}

double Accuracy::f1() const {
    const double p = precision(), r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

Accuracy score_sessions(const std::vector<SessionOutcome>& sessions,
                        const std::vector<EncodedStream>& inputs) {
    Accuracy acc;
    for (const SessionOutcome& s : sessions) {
        if (!s.error.empty()) continue;
        const eval::MatchResult m =
            eval::match_blinks(inputs[s.input].truth, s.blinks);
        acc.truth += m.true_blinks;
        acc.detected += m.detected;
        acc.matched += m.matched;
    }
    return acc;
}

double now_s() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

double status_kb(const char* key) {
    std::ifstream f("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(f, line))
        if (line.compare(0, n, key) == 0)
            return std::strtod(line.c_str() + n, nullptr);
    return 0.0;
}

}  // namespace

RssProbe::RssProbe() {
    malloc_trim(0);
    base_mb_ = status_kb("VmRSS:") / 1024.0;
    std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM
}

double RssProbe::growth_mb() const {
    return status_kb("VmHWM:") / 1024.0 - base_mb_;
}

}  // namespace fleetbench
