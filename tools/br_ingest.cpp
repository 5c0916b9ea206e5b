// br_ingest: encode, inspect, and replay "BRWF" ingest wire streams.
//
//   br_ingest encode <out.brwf> [--seed N] [--duration S] [--tag N]
//       simulate one driver session and serialise it to the wire format
//   br_ingest inspect <in.brwf> [--max-payload N]
//       decode a capture and print record/error accounting
//   br_ingest replay <in.brwf>... [--policy P] [--queue N] [--budget N]
//                                 [--corrupt SEED] [--metrics-out PATH]
//       feed the file(s) through the streaming front-end into a
//       FleetEngine and print per-stream + per-session accounting;
//       --queue (per-stream queue capacity) and --budget (frames per
//       tick) take N >= 1;
//       --corrupt runs each stream through the wire fault injector
//       first (the overload/corruption drill in CLI form);
//       --metrics-out writes the final aggregated telemetry registry
//       as obs-v1 JSON on exit (readable with tools/br_top)
//
// Exit status: 0 on success, 1 when a replay failed to drain or an
// inspected capture held no decodable frames, 2 on usage errors.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fleet/fleet_engine.hpp"
#include "ingest/byte_source.hpp"
#include "ingest/frontend.hpp"
#include "ingest/wire_fault.hpp"
#include "ingest/wire_format.hpp"
#include "obs/metrics.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace blinkradar;

int usage() {
    std::fprintf(
        stderr,
        "usage: br_ingest encode <out.brwf> [--seed N] [--duration S] "
        "[--tag N]\n"
        "       br_ingest inspect <in.brwf> [--max-payload N]\n"
        "       br_ingest replay <in.brwf>... [--policy block|drop_oldest|"
        "drop_newest]\n"
        "                 [--queue N] [--budget N] [--corrupt SEED] "
        "[--metrics-out PATH]\n");
    return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
    try {
        std::size_t pos = 0;
        out = std::stoull(s, &pos);
        return pos == s.size();
    } catch (const std::exception&) {
        return false;
    }
}

bool parse_f64(const std::string& s, double& out) {
    try {
        std::size_t pos = 0;
        out = std::stod(s, &pos);
        return pos == s.size();
    } catch (const std::exception&) {
        return false;
    }
}

std::vector<std::uint8_t> read_file(const std::string& path, bool& ok) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "br_ingest: cannot read %s\n", path.c_str());
        ok = false;
        return {};
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ok = true;
    return bytes;
}

int cmd_encode(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    const std::string out_path = args[0];
    std::uint64_t seed = 1;
    double duration = 10.0;
    std::uint64_t tag = 0;
    for (std::size_t i = 1; i < args.size(); i += 2) {
        if (i + 1 >= args.size()) return usage();
        if (args[i] == "--seed") {
            if (!parse_u64(args[i + 1], seed)) return usage();
        } else if (args[i] == "--duration") {
            if (!parse_f64(args[i + 1], duration)) return usage();
        } else if (args[i] == "--tag") {
            if (!parse_u64(args[i + 1], tag)) return usage();
        } else {
            return usage();
        }
    }

    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    const sim::SimulatedSession session = sim::simulate_session(sc);

    ingest::WireHello hello;
    hello.radar = session.radar;
    hello.stream_tag = tag;
    const auto bytes =
        ingest::WireEncoder::encode_session(hello, session.frames);

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "br_ingest: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("encoded %zu frames (%.1f s, seed %" PRIu64
                ") -> %s (%zu bytes)\n",
                session.frames.size(), duration, seed, out_path.c_str(),
                bytes.size());
    return 0;
}

void print_decode_stats(const ingest::DecodeStats& st) {
    std::printf("  bytes in            %" PRIu64 "\n", st.bytes_in);
    std::printf("  records decoded     %" PRIu64 " (%" PRIu64
                " frames, %" PRIu64 " byes)\n",
                st.records_decoded, st.frames_decoded, st.byes_decoded);
    std::printf("  resyncs             %" PRIu64 "\n", st.resyncs);
    std::printf("  quarantined bytes   %" PRIu64 "\n", st.quarantined_bytes);
    std::printf("  seq regressions     %" PRIu64 ", gaps %" PRIu64 "\n",
                st.seq_regressions, st.seq_gaps);
    std::printf("  decode errors       %" PRIu64 "\n", st.total_errors());
    for (std::size_t e = 0; e < st.errors.size(); ++e)
        if (st.errors[e] != 0)
            std::printf("    %-22s %" PRIu64 "\n",
                        ingest::to_string(
                            static_cast<ingest::DecodeError>(e)),
                        st.errors[e]);
}

int cmd_inspect(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    std::size_t max_payload = 1u << 20;
    for (std::size_t i = 1; i < args.size(); i += 2) {
        if (i + 1 >= args.size() || args[i] != "--max-payload")
            return usage();
        std::uint64_t v = 0;
        if (!parse_u64(args[i + 1], v)) return usage();
        max_payload = static_cast<std::size_t>(v);
    }
    bool ok = false;
    const auto bytes = read_file(args[0], ok);
    if (!ok) return 2;

    ingest::WireDecoder dec(max_payload);
    dec.push(bytes);
    std::uint64_t first_seq = 0, last_seq = 0;
    bool any = false;
    double t0 = 0.0, t1 = 0.0;
    while (auto rec = dec.next()) {
        if (rec->type != ingest::RecordType::kFrame) continue;
        if (!any) {
            first_seq = rec->seq;
            t0 = rec->frame.timestamp_s;
            any = true;
        }
        last_seq = rec->seq;
        t1 = rec->frame.timestamp_s;
    }

    std::printf("%s:\n", args[0].c_str());
    if (dec.has_hello()) {
        const ingest::WireHello& h = dec.hello();
        std::printf("  hello: tag %" PRIu64 ", %zu bins, %.1f Hz frames, "
                    "carrier %.2f GHz\n",
                    h.stream_tag, h.radar.n_bins(),
                    h.radar.frame_rate_hz(), h.radar.carrier_hz / 1e9);
    } else {
        std::printf("  hello: MISSING\n");
    }
    if (any)
        std::printf("  frames: seq %" PRIu64 "..%" PRIu64
                    " (t %.3f..%.3f s)\n",
                    first_seq, last_seq, t0, t1);
    std::printf("  bye: %s\n", dec.saw_bye() ? "yes" : "no");
    if (dec.buffered_bytes() != 0)
        std::printf("  trailing partial record: %zu bytes\n",
                    dec.buffered_bytes());
    print_decode_stats(dec.stats());
    return dec.stats().frames_decoded != 0 ? 0 : 1;
}

int cmd_replay(const std::vector<std::string>& args) {
    std::vector<std::string> paths;
    ingest::IngestConfig cfg;
    bool corrupt = false;
    std::uint64_t corrupt_seed = 0;
    std::string metrics_out;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--policy") {
            if (++i >= args.size()) return usage();
            if (args[i] == "block")
                cfg.stream.policy = ingest::BackpressurePolicy::kBlock;
            else if (args[i] == "drop_oldest")
                cfg.stream.policy = ingest::BackpressurePolicy::kDropOldest;
            else if (args[i] == "drop_newest")
                cfg.stream.policy = ingest::BackpressurePolicy::kDropNewest;
            else
                return usage();
        } else if (args[i] == "--queue") {
            if (++i >= args.size()) return usage();
            std::uint64_t v = 0;
            if (!parse_u64(args[i], v) || v == 0) return usage();
            cfg.stream.queue_capacity = static_cast<std::size_t>(v);
        } else if (args[i] == "--budget") {
            if (++i >= args.size()) return usage();
            std::uint64_t v = 0;
            if (!parse_u64(args[i], v) || v == 0) return usage();
            cfg.governor.budget_frames_per_tick =
                static_cast<std::size_t>(v);
        } else if (args[i] == "--corrupt") {
            if (++i >= args.size()) return usage();
            corrupt = true;
            if (!parse_u64(args[i], corrupt_seed)) return usage();
        } else if (args[i] == "--metrics-out") {
            if (++i >= args.size()) return usage();
            metrics_out = args[i];
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.empty()) return usage();
    cfg.admission.capacity =
        std::max<double>(cfg.admission.capacity, paths.size());

    ThreadPool pool(2);
    fleet::FleetConfig fcfg;
    obs::MetricsRegistry reg;
    if (!metrics_out.empty()) {
        fcfg.collect_metrics = true;
        cfg.telemetry.json_path = metrics_out;
    }
    fleet::FleetEngine engine(fcfg, &pool);
    ingest::IngestFrontend fe(cfg, engine,
                              metrics_out.empty() ? nullptr : &reg);

    std::vector<ingest::StreamId> ids;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::unique_ptr<ingest::ByteSource> src;
        if (corrupt) {
            bool ok = false;
            auto bytes = read_file(paths[i], ok);
            if (!ok) return 2;
            ingest::WireFaultConfig fc;
            fc.truncate_rate = 0.02;
            fc.bitflip_rate = 0.02;
            fc.duplicate_rate = 0.02;
            fc.reorder_rate = 0.02;
            fc.drop_rate = 0.01;
            fc.garbage_rate = 0.02;
            ingest::WireFaultInjector inj(fc, corrupt_seed + i);
            src = std::make_unique<ingest::MemoryByteSource>(
                inj.corrupt(bytes));
        } else {
            src = std::make_unique<ingest::FileReplaySource>(paths[i]);
        }
        const ingest::Admission adm = fe.open_stream(std::move(src));
        if (!adm.admitted()) {
            std::fprintf(stderr, "br_ingest: %s refused admission\n",
                         paths[i].c_str());
            return 1;
        }
        ids.push_back(adm.id);
    }

    std::size_t ticks = 0;
    while (!fe.drained() && ticks++ < 1'000'000) fe.pump();
    const bool drained = fe.drained();

    if (!metrics_out.empty()) {
        // Final aggregated registry (fleet roll-up + ingest series),
        // written atomically in the obs-v1 JSON schema.
        fe.publish_telemetry();
        std::printf("metrics snapshot: %s\n", metrics_out.c_str());
    }

    std::printf("replayed %zu stream(s) in %zu ticks, peak shed level %d\n",
                paths.size(), ticks,
                static_cast<int>(fe.shed_events().empty()
                                     ? ingest::ShedLevel::kNormal
                                     : fe.shed_events().back().to));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ingest::StreamStats st = fe.stream_stats(ids[i]);
        std::printf("stream %" PRIu64 " (%s):\n", ids[i],
                    paths[i].c_str());
        std::printf("  decoded %" PRIu64 "  delivered %" PRIu64
                    "  dropped %" PRIu64 "  policy %s%s\n",
                    st.frames_decoded, st.frames_delivered,
                    st.frames_dropped, ingest::to_string(st.policy),
                    st.policy_forced ? " (forced)" : "");
        std::printf("  bytes %" PRIu64 "  reconnects %" PRIu64
                    "  bye %s\n",
                    st.bytes_read, st.reconnects,
                    st.saw_bye ? "yes" : "no");
        print_decode_stats(fe.decode_stats(ids[i]));
        const fleet::SessionStats fs = fe.close_stream(ids[i]);
        std::printf("  session: processed %" PRIu64 ", blinks %" PRIu64
                    ", warm restores %" PRIu64 ", cold restarts %" PRIu64
                    "\n",
                    fs.frames_processed, fs.blinks, fs.warm_restores,
                    fs.cold_restarts);
    }
    if (!drained)
        std::fprintf(stderr, "br_ingest: replay did not drain\n");
    return drained ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "encode") return cmd_encode(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "replay") return cmd_replay(args);
    return usage();
}
