// Fault drill: watch the pipeline degrade gracefully and recover.
//
// Simulates one driving session, runs it through a FaultInjector with a
// harsh mid-session fault schedule (frame drops + jitter + NaN bursts),
// and narrates the FrameGuard's health transitions: OK -> DEGRADED ->
// SIGNAL_LOST -> RECOVERING -> OK, with the guard's repair/bridge/
// quarantine counters at the end.
//
// Every knob of the drill is a flag (defaults reproduce the canonical
// drill exactly), so a failure seen in the wild can be replayed:
//
//   fault_drill [--seed N] [--fault-seed N] [--duration S]
//               [--drop-rate R] [--nan-rate R] [--jitter F]
//
//   --seed N        scenario seed (default 21)
//   --fault-seed N  fault-injector seed (default 2024)
//   --duration S    session length in seconds (default 90; the storm
//                   covers the middle third, with a 2 s total outage
//                   starting 5 s into it)
//   --drop-rate R   storm frame-drop probability (default 0.10)
//   --nan-rate R    storm per-frame NaN-burst probability (default 0.05)
//   --jitter F      storm timestamp jitter, as a fraction of the frame
//                   period (default 0.25)
//   --dump PATH     flight-recorder dump written after the drill
//                   (default /tmp/fault_drill.brfr)
//   --metrics-out PATH
//                   write the final metrics registry as an obs-v1 JSON
//                   snapshot on exit (default: metrics off)
//
// The whole drill runs with the flight recorder attached, so the dump is
// a complete black box of the storm: inspect or bit-exactly replay it
// with the printed br_inspect command.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/pipeline.hpp"
#include "core/postmortem.hpp"
#include "eval/metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/export.hpp"
#include "physio/driver_profile.hpp"
#include "radar/impairments.hpp"
#include "sim/scenario.hpp"

using namespace blinkradar;

namespace {

struct DrillOptions {
    std::uint64_t scenario_seed = 21;
    std::uint64_t fault_seed = 2024;
    double duration_s = 90.0;
    double drop_rate = 0.10;
    double nan_rate = 0.05;
    double jitter_periods = 0.25;
    std::string dump_path = "/tmp/fault_drill.brfr";
    std::string metrics_out;  ///< final registry JSON; empty = off
};

[[noreturn]] void usage_and_exit(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--fault-seed N] [--duration S]\n"
                 "          [--drop-rate R] [--nan-rate R] [--jitter F]\n"
                 "          [--dump PATH] [--metrics-out PATH]\n",
                 argv0);
    std::exit(2);
}

DrillOptions parse_options(int argc, char** argv) {
    DrillOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") usage_and_exit(argv[0]);
        if (i + 1 >= argc) usage_and_exit(argv[0]);
        const char* value = argv[++i];
        try {
            if (flag == "--seed")
                opt.scenario_seed = std::stoull(value);
            else if (flag == "--fault-seed")
                opt.fault_seed = std::stoull(value);
            else if (flag == "--duration")
                opt.duration_s = std::stod(value);
            else if (flag == "--drop-rate")
                opt.drop_rate = std::stod(value);
            else if (flag == "--nan-rate")
                opt.nan_rate = std::stod(value);
            else if (flag == "--jitter")
                opt.jitter_periods = std::stod(value);
            else if (flag == "--dump")
                opt.dump_path = value;
            else if (flag == "--metrics-out")
                opt.metrics_out = value;
            else
                usage_and_exit(argv[0]);
        } catch (const std::exception&) {
            std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0],
                         value, flag.c_str());
            std::exit(2);
        }
    }
    if (opt.duration_s <= 0.0 || opt.drop_rate < 0.0 || opt.drop_rate > 1.0 ||
        opt.nan_rate < 0.0 || opt.nan_rate > 1.0 || opt.jitter_periods < 0.0)
        usage_and_exit(argv[0]);
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const DrillOptions opt = parse_options(argc, argv);

    Rng rng(7);
    sim::ScenarioConfig sc;
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = opt.duration_s;
    sc.seed = opt.scenario_seed;
    const sim::SimulatedSession session = sim::simulate_session(sc);

    // Clean first third, a harsh fault storm in the middle third
    // (including one total outage), clean final third.
    radar::FaultInjectorConfig faults;
    faults.drop_rate = opt.drop_rate;
    faults.timestamp_jitter_std_s =
        opt.jitter_periods * session.radar.frame_period_s;
    faults.nan_rate = opt.nan_rate;
    radar::FaultInjector injector(faults, opt.fault_seed);

    radar::FrameSeries stream;
    stream.reserve(session.frames.size());
    const Seconds storm_begin = sc.duration_s / 3.0;
    const Seconds storm_end = 2.0 * sc.duration_s / 3.0;
    for (const radar::RadarFrame& f : session.frames) {
        const bool in_storm =
            f.timestamp_s >= storm_begin && f.timestamp_s < storm_end;
        const bool in_outage =
            f.timestamp_s >= storm_begin + 5.0 &&
            f.timestamp_s < storm_begin + 7.0;  // 2 s of nothing at all
        if (in_outage) continue;
        if (in_storm)
            injector.apply(f, stream);
        else
            stream.push_back(f);
    }

    std::printf("=== Fault drill: seed %llu, fault seed %llu, "
                "drop %.2f / nan %.2f / jitter %.2f ===\n",
                static_cast<unsigned long long>(opt.scenario_seed),
                static_cast<unsigned long long>(opt.fault_seed),
                opt.drop_rate, opt.nan_rate, opt.jitter_periods);
    std::printf("=== %zu clean frames -> %zu on the wire ===\n",
                session.frames.size(), stream.size());
    // The drill runs a standalone pipeline (no Supervisor feeding
    // autosnapshots), so it widens the raw ring to ~41 s and opts into
    // self-checkpointing to keep the dump replayable even though the
    // 90 s session outruns the ring.
    obs::FlightRecorderConfig rec_cfg;
    rec_cfg.raw_ring_frames = 1024;
    rec_cfg.checkpoint_interval_frames = 512;
    obs::FlightRecorder recorder(rec_cfg);
    obs::MetricsRegistry metrics;
    core::BlinkRadarPipeline pipeline(
        session.radar, {}, opt.metrics_out.empty() ? nullptr : &metrics,
        &recorder);
    core::HealthState last = core::HealthState::kOk;
    for (const radar::RadarFrame& f : stream) {
        const core::FrameResult r = pipeline.process(f);
        if (r.health != last) {
            std::printf("  t=%6.2f s  health %s -> %s\n", f.timestamp_s,
                        core::to_string(last), core::to_string(r.health));
            last = r.health;
        }
    }

    const core::GuardStats& g = pipeline.guard_stats();
    const eval::MatchResult match =
        eval::match_blinks(session.truth.blinks, pipeline.blinks());
    std::printf("\nguard: %llu quarantined, %llu samples repaired, "
                "%llu gap frames bridged, %llu signal losses, "
                "%llu warm restarts\n",
                static_cast<unsigned long long>(g.frames_quarantined),
                static_cast<unsigned long long>(g.samples_repaired),
                static_cast<unsigned long long>(g.frames_bridged),
                static_cast<unsigned long long>(g.signal_lost_events),
                static_cast<unsigned long long>(g.warm_restarts));
    std::printf("blinks: %zu/%zu detected through the storm "
                "(final health: %s)\n",
                match.matched, match.true_blinks,
                core::to_string(pipeline.health()));

    if (!opt.metrics_out.empty()) {
        // Reuse the telemetry exporter: atomic replace, obs-v1 schema.
        obs::telemetry::SnapshotPublisherConfig pc;
        pc.json_path = opt.metrics_out;
        obs::telemetry::SnapshotPublisher pub(pc);
        if (pub.publish(metrics))
            std::printf("metrics snapshot: %s\n", opt.metrics_out.c_str());
        else
            std::fprintf(stderr, "fault_drill: failed to write %s\n",
                         opt.metrics_out.c_str());
    }

    core::write_flight_dump_file(opt.dump_path, recorder, session.radar, {},
                                 "fault_drill");
    std::printf("\nflight dump written to %s — inspect or bit-exactly "
                "replay the drill with:\n  br_inspect %s --replay\n",
                opt.dump_path.c_str(), opt.dump_path.c_str());
    return 0;
}
