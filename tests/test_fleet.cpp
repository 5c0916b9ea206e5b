// Fleet engine coverage: the determinism contract (a fleet run is
// bit-identical to sequential, for any shard count and pool size), the
// evict/rehydrate lifecycle (in-memory and spilled), the per-session
// recovery ladder, and the concurrent control-plane drill the TSan CI
// leg runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/random.hpp"
#include "core/pipeline.hpp"
#include "core/recovery_ladder.hpp"
#include "fleet/fleet_engine.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

namespace blinkradar {
namespace {

namespace fs = std::filesystem;

sim::ScenarioConfig fleet_scenario(std::uint64_t seed, Seconds duration) {
    sim::ScenarioConfig sc;
    Rng rng(42);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.duration_s = duration;
    sc.seed = seed;
    return sc;
}

/// Simulate `n` independent driver sessions (distinct seeds).
std::vector<sim::SimulatedSession> make_sessions(std::size_t n,
                                                 Seconds duration) {
    std::vector<sim::SimulatedSession> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(sim::simulate_session(fleet_scenario(100 + i, duration)));
    return out;
}

void expect_result_eq(const core::FrameResult& a, const core::FrameResult& b,
                      std::size_t session, std::size_t frame) {
    ASSERT_EQ(a.blink.has_value(), b.blink.has_value())
        << "session " << session << " frame " << frame;
    if (a.blink) {
        EXPECT_EQ(a.blink->peak_s, b.blink->peak_s);
        EXPECT_EQ(a.blink->duration_s, b.blink->duration_s);
        EXPECT_EQ(a.blink->magnitude, b.blink->magnitude);
        EXPECT_EQ(a.blink->strength, b.blink->strength);
    }
    EXPECT_EQ(a.waveform_value, b.waveform_value)
        << "session " << session << " frame " << frame;
    EXPECT_EQ(a.restarted, b.restarted);
    EXPECT_EQ(a.cold_start, b.cold_start);
    EXPECT_EQ(a.health, b.health);
    EXPECT_EQ(a.quality, b.quality);
    EXPECT_EQ(a.repaired_samples, b.repaired_samples);
    EXPECT_EQ(a.bridged_frames, b.bridged_frames);
}

void expect_blinks_eq(const std::vector<core::DetectedBlink>& a,
                      const std::vector<core::DetectedBlink>& b,
                      std::size_t session) {
    ASSERT_EQ(a.size(), b.size()) << "session " << session;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].peak_s, b[i].peak_s);
        EXPECT_EQ(a[i].duration_s, b[i].duration_s);
        EXPECT_EQ(a[i].magnitude, b[i].magnitude);
        EXPECT_EQ(a[i].strength, b[i].strength);
    }
}

TEST(Fleet, BitIdenticalToSequentialForAnyShardAndPoolSize) {
    const std::size_t kSessions = 6;
    const auto sims = make_sessions(kSessions, 20.0);

    // Sequential reference: a plain pipeline per session, frames in
    // order — exactly what the fleet must reproduce bit-for-bit.
    std::vector<std::vector<core::FrameResult>> ref(kSessions);
    std::vector<std::vector<core::DetectedBlink>> ref_blinks(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
        core::BlinkRadarPipeline pipe(sims[s].radar);
        for (const radar::RadarFrame& f : sims[s].frames)
            ref[s].push_back(pipe.process(f));
        ref_blinks[s] = pipe.blinks();
    }

    const std::size_t shard_counts[] = {1, 3, 8};
    const std::size_t pool_sizes[] = {1, 2, 7};
    for (const std::size_t n_shards : shard_counts) {
        for (const std::size_t n_threads : pool_sizes) {
            ThreadPool pool(n_threads);
            fleet::FleetConfig cfg;
            cfg.n_shards = n_shards;
            fleet::FleetEngine engine(cfg, &pool);

            std::vector<fleet::SessionId> ids;
            for (std::size_t s = 0; s < kSessions; ++s)
                ids.push_back(engine.create_session(sims[s].radar));

            // Feed in interleaved 1-second chunks with a pump per
            // chunk, the streaming shape a gateway actually sees.
            const std::size_t chunk = 25;
            std::size_t offset = 0;
            for (;;) {
                bool any = false;
                for (std::size_t s = 0; s < kSessions; ++s) {
                    const auto& frames = sims[s].frames;
                    if (offset >= frames.size()) continue;
                    any = true;
                    const std::size_t end =
                        std::min(offset + chunk, frames.size());
                    for (std::size_t i = offset; i < end; ++i)
                        engine.feed(ids[s], frames[i]);
                }
                if (!any) break;
                offset += chunk;
                engine.pump();
            }

            for (std::size_t s = 0; s < kSessions; ++s) {
                const auto& got = engine.results(ids[s]);
                ASSERT_EQ(got.size(), ref[s].size())
                    << "shards=" << n_shards << " threads=" << n_threads;
                for (std::size_t i = 0; i < got.size(); ++i)
                    expect_result_eq(got[i], ref[s][i], s, i);
                expect_blinks_eq(engine.blinks(ids[s]), ref_blinks[s], s);
                EXPECT_EQ(engine.stats(ids[s]).frames_processed,
                          ref[s].size());
                EXPECT_EQ(engine.stats(ids[s]).cold_restarts, 0u);
            }

            // Every queued frame was drained by exactly one worker.
            std::size_t drained = 0;
            for (const auto& st : engine.last_pump_stats())
                drained += st.sessions_drained;
            EXPECT_GT(drained, 0u);
        }
    }
}

TEST(Fleet, EvictRehydrateMidRunIsBitIdentical) {
    const auto sims = make_sessions(3, 16.0);

    std::vector<std::vector<core::FrameResult>> ref(sims.size());
    for (std::size_t s = 0; s < sims.size(); ++s) {
        core::BlinkRadarPipeline pipe(sims[s].radar);
        for (const radar::RadarFrame& f : sims[s].frames)
            ref[s].push_back(pipe.process(f));
    }

    for (const bool spill : {false, true}) {
        const std::string dir = "fleet_spill_test_dir";
        fs::remove_all(dir);

        ThreadPool pool(3);
        fleet::FleetConfig cfg;
        cfg.n_shards = 2;
        if (spill) cfg.spill_dir = dir;
        fleet::FleetEngine engine(cfg, &pool);

        std::vector<fleet::SessionId> ids;
        for (const auto& sim : sims)
            ids.push_back(engine.create_session(sim.radar));

        // First half, then evict everything (serialise + destroy the
        // pipelines), then the second half — rehydration must splice
        // the stream back together bit-exactly.
        for (std::size_t s = 0; s < sims.size(); ++s) {
            const std::size_t half = sims[s].frames.size() / 2;
            for (std::size_t i = 0; i < half; ++i)
                engine.feed(ids[s], sims[s].frames[i]);
        }
        engine.pump();
        for (const auto id : ids) {
            engine.evict(id);
            EXPECT_FALSE(engine.is_resident(id));
        }
        EXPECT_EQ(engine.resident_count(), 0u);
        if (spill) {
            for (const auto id : ids)
                EXPECT_TRUE(fs::exists(dir + "/session-" +
                                       std::to_string(id) + ".snap"));
        }

        for (std::size_t s = 0; s < sims.size(); ++s) {
            const std::size_t half = sims[s].frames.size() / 2;
            for (std::size_t i = half; i < sims[s].frames.size(); ++i)
                engine.feed(ids[s], sims[s].frames[i]);
        }
        engine.pump();
        EXPECT_EQ(engine.resident_count(), ids.size());

        for (std::size_t s = 0; s < sims.size(); ++s) {
            const auto& got = engine.results(ids[s]);
            ASSERT_EQ(got.size(), ref[s].size()) << "spill=" << spill;
            for (std::size_t i = 0; i < got.size(); ++i)
                expect_result_eq(got[i], ref[s][i], s, i);
            EXPECT_EQ(engine.stats(ids[s]).evictions, 1u);
            EXPECT_EQ(engine.stats(ids[s]).rehydrations, 1u);
        }

        // close() removes the spill file.
        if (spill) {
            const std::string path =
                dir + "/session-" + std::to_string(ids[0]) + ".snap";
            engine.close(ids[0]);
            EXPECT_FALSE(fs::exists(path));
        }
        fs::remove_all(dir);
    }
}

TEST(Fleet, SmallPumpsDrainInlineBitIdentical) {
    // One frame per session per pump: every pump is small enough to
    // drain on the calling thread, shard by shard into its own slot.
    const auto sims = make_sessions(4, 8.0);
    std::vector<std::vector<core::FrameResult>> ref(sims.size());
    for (std::size_t s = 0; s < sims.size(); ++s) {
        core::BlinkRadarPipeline pipe(sims[s].radar);
        for (const radar::RadarFrame& f : sims[s].frames)
            ref[s].push_back(pipe.process(f));
    }

    ThreadPool pool(3);
    fleet::FleetConfig cfg;
    cfg.n_shards = 3;
    fleet::FleetEngine engine(cfg, &pool);
    std::vector<fleet::SessionId> ids;
    for (const auto& sim : sims) ids.push_back(engine.create_session(sim.radar));

    std::vector<std::uint64_t> per_shard(cfg.n_shards, 0);
    for (const auto id : ids) ++per_shard[id % cfg.n_shards];
    for (std::size_t i = 0; i < sims[0].frames.size(); ++i) {
        for (std::size_t s = 0; s < sims.size(); ++s)
            engine.feed(ids[s], sims[s].frames[i]);
        ASSERT_EQ(engine.pump(), sims.size());
        const auto& st = engine.last_pump_stats();
        ASSERT_EQ(st.size(), cfg.n_shards);
        for (std::size_t t = 0; t < st.size(); ++t) {
            EXPECT_EQ(st[t].sessions_drained, per_shard[t]) << "shard " << t;
            EXPECT_EQ(st[t].frames_processed, per_shard[t]);
            EXPECT_EQ(st[t].sessions_stolen, 0u);
        }
    }
    for (std::size_t s = 0; s < sims.size(); ++s) {
        const auto& got = engine.results(ids[s]);
        ASSERT_EQ(got.size(), ref[s].size());
        for (std::size_t i = 0; i < got.size(); ++i)
            expect_result_eq(got[i], ref[s][i], s, i);
    }
}

TEST(Fleet, RepeatedEvictRehydrateAcrossAutosnapshotsIsBitIdentical) {
    // Eviction writes into the autosnapshot's buffer and rehydration
    // hands the restored bytes' buffer back to the autosnapshot; cycling
    // both across autosnapshot boundaries must not change a result.
    const auto sims = make_sessions(2, 12.0);
    std::vector<std::vector<core::FrameResult>> ref(sims.size());
    for (std::size_t s = 0; s < sims.size(); ++s) {
        core::BlinkRadarPipeline pipe(sims[s].radar);
        for (const radar::RadarFrame& f : sims[s].frames)
            ref[s].push_back(pipe.process(f));
    }

    for (const bool spill : {false, true}) {
        const std::string dir = "fleet_recycle_test_dir";
        fs::remove_all(dir);
        ThreadPool pool(2);
        fleet::FleetConfig cfg;
        cfg.n_shards = 2;
        cfg.snapshot_interval_frames = 40;
        if (spill) cfg.spill_dir = dir;
        fleet::FleetEngine engine(cfg, &pool);
        std::vector<fleet::SessionId> ids;
        for (const auto& sim : sims)
            ids.push_back(engine.create_session(sim.radar));

        const std::size_t kChunk = 70;  // not a multiple of the interval
        std::size_t cycles = 0;
        for (std::size_t off = 0; off < sims[0].frames.size(); off += kChunk) {
            for (std::size_t s = 0; s < sims.size(); ++s)
                for (std::size_t i = off;
                     i < std::min(off + kChunk, sims[s].frames.size()); ++i)
                    engine.feed(ids[s], sims[s].frames[i]);
            engine.pump();
            for (const auto id : ids) engine.evict(id);
            ++cycles;
        }
        for (std::size_t s = 0; s < sims.size(); ++s) {
            const auto& got = engine.results(ids[s]);
            ASSERT_EQ(got.size(), ref[s].size()) << "spill=" << spill;
            for (std::size_t i = 0; i < got.size(); ++i)
                expect_result_eq(got[i], ref[s][i], s, i);
            EXPECT_EQ(engine.stats(ids[s]).evictions, cycles);
            EXPECT_EQ(engine.stats(ids[s]).rehydrations, cycles - 1);
            EXPECT_EQ(engine.stats(ids[s]).cold_restarts, 0u);
        }
        fs::remove_all(dir);
    }
}

TEST(Fleet, RecoveryLadderIsDeterministicAcrossSchedules) {
    // Guard off: a bin-count-mismatched frame throws out of process(),
    // driving the full ladder (retry -> warm restores -> cold restart).
    const auto sims = make_sessions(2, 12.0);

    auto run = [&](std::size_t n_shards, std::size_t n_threads) {
        ThreadPool pool(n_threads);
        fleet::FleetConfig cfg;
        cfg.n_shards = n_shards;
        cfg.pipeline.guard.enabled = false;
        cfg.snapshot_interval_frames = 25;  // small: warm restores exist
        fleet::FleetEngine engine(cfg, &pool);

        std::vector<fleet::SessionId> ids;
        for (const auto& sim : sims)
            ids.push_back(engine.create_session(sim.radar));

        for (std::size_t s = 0; s < sims.size(); ++s) {
            const auto& frames = sims[s].frames;
            for (std::size_t i = 0; i < frames.size(); ++i) {
                if (s == 0 && i == 100) {  // poison frame mid-stream
                    radar::RadarFrame bad = frames[i];
                    bad.bins.resize(bad.bins.size() / 2);
                    engine.feed(ids[s], bad);
                } else {
                    engine.feed(ids[s], frames[i]);
                }
            }
        }
        engine.pump();

        struct Outcome {
            fleet::SessionStats stats;
            std::vector<core::FrameResult> results;
        };
        std::vector<Outcome> out;
        for (const auto id : ids)
            out.push_back({engine.stats(id), engine.results(id)});
        return out;
    };

    const auto a = run(1, 1);  // strictly sequential
    const auto b = run(8, 7);  // heavily parallel

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].stats.retries, b[s].stats.retries);
        EXPECT_EQ(a[s].stats.warm_restores, b[s].stats.warm_restores);
        EXPECT_EQ(a[s].stats.cold_restarts, b[s].stats.cold_restarts);
        EXPECT_EQ(a[s].stats.frames_dropped, b[s].stats.frames_dropped);
        EXPECT_EQ(a[s].stats.frames_processed, b[s].stats.frames_processed);
        ASSERT_EQ(a[s].results.size(), b[s].results.size());
        for (std::size_t i = 0; i < a[s].results.size(); ++i)
            expect_result_eq(a[s].results[i], b[s].results[i], s, i);
    }
    // The poisoned session climbed the whole ladder; the clean one is
    // untouched.
    EXPECT_GE(a[0].stats.retries, 1u);
    EXPECT_EQ(a[0].stats.warm_restores, core::kMaxWarmRestores);
    EXPECT_EQ(a[0].stats.cold_restarts, 1u);
    EXPECT_EQ(a[0].stats.frames_dropped, 1u);
    EXPECT_EQ(a[1].stats.cold_restarts, 0u);
    EXPECT_EQ(a[1].stats.frames_dropped, 0u);
}

TEST(Fleet, PerSessionMetricPrefixesNeverCollide) {
    const auto sims = make_sessions(2, 6.0);
    ThreadPool pool(2);
    fleet::FleetConfig cfg;
    cfg.collect_metrics = true;
    fleet::FleetEngine engine(cfg, &pool);

    std::vector<fleet::SessionId> ids;
    for (const auto& sim : sims)
        ids.push_back(engine.create_session(sim.radar));
    for (std::size_t s = 0; s < sims.size(); ++s)
        for (const radar::RadarFrame& f : sims[s].frames)
            engine.feed(ids[s], f);
    engine.pump();

    obs::MetricsRegistry merged;
    engine.merge_metrics(merged);
    // Per-session ids keep every series distinct: each session's frame
    // counter survives the merge with its own exact value.
    for (std::size_t s = 0; s < sims.size(); ++s) {
        const std::string name = "fleet.s" + std::to_string(ids[s]) +
                                 ".pipeline.frames";
        EXPECT_EQ(merged.counter(name).value(), sims[s].frames.size());
    }
}

// The TSan drill: several control threads drive disjoint sessions
// through the full lifecycle against one shared engine. Nothing here
// asserts about outputs beyond sanity — the point is that TSan sees
// create/feed/pump/evict/close racing and finds no data race.
TEST(Fleet, ConcurrentControlPlaneDrill) {
    const std::size_t kThreads = 4;
    const auto sims = make_sessions(kThreads, 6.0);

    ThreadPool pool(3);
    fleet::FleetConfig cfg;
    cfg.n_shards = 3;
    cfg.record_results = false;
    fleet::FleetEngine engine(cfg, &pool);

    std::vector<std::thread> drivers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        drivers.emplace_back([&, t] {
            const fleet::SessionId id =
                engine.create_session(sims[t].radar);
            const auto& frames = sims[t].frames;
            const std::size_t chunk = 30;
            for (std::size_t off = 0; off < frames.size(); off += chunk) {
                const std::size_t end =
                    std::min(off + chunk, frames.size());
                for (std::size_t i = off; i < end; ++i)
                    engine.feed(id, frames[i]);
                engine.pump();
                if ((off / chunk) % 3 == 1) engine.evict(id);
            }
            engine.pump();
            EXPECT_EQ(engine.stats(id).frames_processed, frames.size());
            engine.close(id);
        });
    }
    for (auto& d : drivers) d.join();
    EXPECT_EQ(engine.session_count(), 0u);
}

TEST(Fleet, ConstructionSweepsOrphanSpillTemps) {
    const std::string dir = "fleet_orphan_test_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);
    // A temp left by a "writer" whose pid can no longer exist.
    const std::string orphan = dir + "/session-0.snap.tmp.999999999.7";
    std::ofstream(orphan) << "stale";
    ASSERT_TRUE(fs::exists(orphan));

    fleet::FleetConfig cfg;
    cfg.spill_dir = dir;
    ThreadPool pool(1);
    fleet::FleetEngine engine(cfg, &pool);
    EXPECT_FALSE(fs::exists(orphan));
    fs::remove_all(dir);
}

TEST(Fleet, CloseDrainsQueuedFramesBeforeRelease) {
    // close() on a session with a non-empty inbox must process those
    // frames, not abandon them — the stats it returns are final.
    const auto sims = make_sessions(1, 4.0);
    core::BlinkRadarPipeline ref_pipe(sims[0].radar);
    for (const radar::RadarFrame& f : sims[0].frames) ref_pipe.process(f);

    ThreadPool pool(2);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    const fleet::SessionId id = engine.create_session(sims[0].radar);
    for (const radar::RadarFrame& f : sims[0].frames) engine.feed(id, f);

    // No pump: everything is still queued when close arrives.
    const fleet::SessionStats st = engine.close(id);
    EXPECT_EQ(st.frames_processed, sims[0].frames.size());
    EXPECT_EQ(st.blinks, ref_pipe.blinks().size());
    EXPECT_EQ(engine.session_count(), 0u);
}

TEST(Fleet, CloseDuringConcurrentPumpLosesNothing) {
    // The close-during-pump regression: whichever of pump() and close()
    // wins the lock, the final stats must account for every fed frame.
    const auto sims = make_sessions(1, 6.0);
    for (int round = 0; round < 4; ++round) {
        ThreadPool pool(2);
        fleet::FleetConfig cfg;
        cfg.n_shards = 2;
        cfg.record_results = false;
        fleet::FleetEngine engine(cfg, &pool);
        const fleet::SessionId id = engine.create_session(sims[0].radar);
        for (const radar::RadarFrame& f : sims[0].frames)
            engine.feed(id, f);

        fleet::SessionStats st;
        std::thread pumper([&] { engine.pump(); });
        std::thread closer([&] { st = engine.close(id); });
        pumper.join();
        closer.join();
        EXPECT_EQ(st.frames_processed, sims[0].frames.size())
            << "round " << round;
        EXPECT_EQ(engine.session_count(), 0u);
    }
}

TEST(Fleet, ResidencyCapEvictsLeastRecentlyActiveFirst) {
    const auto sims = make_sessions(4, 4.0);
    ThreadPool pool(2);
    fleet::FleetConfig cfg;
    cfg.residency.max_resident = 2;
    fleet::FleetEngine engine(cfg, &pool);

    std::vector<fleet::SessionId> ids;
    for (const auto& sim : sims)
        ids.push_back(engine.create_session(sim.radar));

    // Pump 1 touches sessions 0 and 1; 2 and 3 sit at their creation
    // stamp and are the LRU pair the cap evicts.
    engine.feed(ids[0], sims[0].frames[0]);
    engine.feed(ids[1], sims[1].frames[0]);
    engine.pump();
    EXPECT_TRUE(engine.is_resident(ids[0]));
    EXPECT_TRUE(engine.is_resident(ids[1]));
    EXPECT_FALSE(engine.is_resident(ids[2]));
    EXPECT_FALSE(engine.is_resident(ids[3]));
    EXPECT_EQ(engine.engine_stats().budget_evictions, 2u);

    // Pump 2 touches 2 and 3 (rehydrating them); the roles swap.
    engine.feed(ids[2], sims[2].frames[0]);
    engine.feed(ids[3], sims[3].frames[0]);
    engine.pump();
    EXPECT_FALSE(engine.is_resident(ids[0]));
    EXPECT_FALSE(engine.is_resident(ids[1]));
    EXPECT_TRUE(engine.is_resident(ids[2]));
    EXPECT_TRUE(engine.is_resident(ids[3]));
    EXPECT_EQ(engine.engine_stats().budget_evictions, 4u);
    EXPECT_EQ(engine.resident_count(), 2u);
}

TEST(Fleet, IdleTimerEvictsSessionsThatStopFeeding) {
    const auto sims = make_sessions(2, 4.0);
    ThreadPool pool(1);
    fleet::FleetConfig cfg;
    cfg.residency.evict_idle_after_pumps = 2;
    fleet::FleetEngine engine(cfg, &pool);

    const fleet::SessionId busy = engine.create_session(sims[0].radar);
    const fleet::SessionId idle = engine.create_session(sims[1].radar);

    // `idle` feeds once, then goes quiet; `busy` feeds every pump.
    engine.feed(idle, sims[1].frames[0]);
    for (std::size_t p = 0; p < 4; ++p) {
        engine.feed(busy, sims[0].frames[p]);
        engine.pump();
    }
    EXPECT_TRUE(engine.is_resident(busy));
    EXPECT_FALSE(engine.is_resident(idle));
    EXPECT_EQ(engine.engine_stats().idle_evictions, 1u);
    EXPECT_EQ(engine.stats(idle).evictions, 1u);

    // An evicted-idle session rehydrates transparently when it speaks
    // again, bit-identically (same frame stream, same pipeline state).
    engine.feed(idle, sims[1].frames[1]);
    engine.pump();
    EXPECT_TRUE(engine.is_resident(idle));
    EXPECT_EQ(engine.stats(idle).frames_processed, 2u);
    EXPECT_EQ(engine.stats(idle).rehydrations, 1u);
}

TEST(Fleet, UnknownSessionIdIsAContractViolation) {
    ThreadPool pool(1);
    fleet::FleetEngine engine(fleet::FleetConfig{}, &pool);
    const auto sims = make_sessions(1, 2.0);
    EXPECT_THROW(engine.feed(7, sims[0].frames.front()), ContractViolation);
    EXPECT_THROW(engine.stats(7), ContractViolation);
    EXPECT_THROW(engine.evict(7), ContractViolation);
}

}  // namespace
}  // namespace blinkradar
