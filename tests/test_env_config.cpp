// Process-config snapshot semantics: the environment is resolved into
// one immutable ProcessConfig on first use, later setenv calls are
// invisible to production code (that is the point — per-construction
// getenv raced runtime setenv), and the test-only reload hook re-runs
// the resolution. Regression for the per-construction std::getenv reads
// the fleet engine flushed out: these tests fail against the old code,
// where a setenv between two pipeline constructions changed the second
// pipeline's config.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/env_config.hpp"

namespace blinkradar {
namespace {

TEST(EnvConfig, FirstUseFreezesTheSnapshot) {
    ::setenv("BLINKRADAR_SIMD_BACKEND", "scalar", 1);
    reload_process_config_for_testing();
    EXPECT_EQ(process_config().simd_backend, "scalar");

    // A later setenv is deliberately NOT observed: every component in
    // the process must agree on one config.
    ::setenv("BLINKRADAR_SIMD_BACKEND", "avx2", 1);
    EXPECT_EQ(process_config().simd_backend, "scalar");

    // The explicit test hook re-resolves.
    reload_process_config_for_testing();
    EXPECT_EQ(process_config().simd_backend, "avx2");

    ::unsetenv("BLINKRADAR_SIMD_BACKEND");
    reload_process_config_for_testing();
    EXPECT_EQ(process_config().simd_backend, "");
}

TEST(EnvConfig, UnsetVariablesReadAsEmpty) {
    ::unsetenv("BLINKRADAR_SIMD_BACKEND");
    ::unsetenv("BLINKRADAR_THREADS");
    ::unsetenv("BLINKRADAR_TRACE");
    reload_process_config_for_testing();
    const ProcessConfig& cfg = process_config();
    EXPECT_EQ(cfg.simd_backend, "");
    EXPECT_EQ(cfg.threads, "");
    EXPECT_EQ(cfg.trace_path, "");
}

TEST(EnvConfig, AllVariablesAreCapturedInOnePass) {
    ::setenv("BLINKRADAR_SIMD_BACKEND", "scalar", 1);
    ::setenv("BLINKRADAR_THREADS", "5", 1);
    ::setenv("BLINKRADAR_TRACE", "/tmp/t.jsonl", 1);
    reload_process_config_for_testing();
    const ProcessConfig& cfg = process_config();
    EXPECT_EQ(cfg.simd_backend, "scalar");
    EXPECT_EQ(cfg.threads, "5");
    EXPECT_EQ(cfg.trace_path, "/tmp/t.jsonl");
    ::unsetenv("BLINKRADAR_SIMD_BACKEND");
    ::unsetenv("BLINKRADAR_THREADS");
    ::unsetenv("BLINKRADAR_TRACE");
    reload_process_config_for_testing();
}

// TSan target: concurrent readers all see one identical snapshot (the
// resolved strings never mutate after the guarded first resolution).
TEST(EnvConfig, ConcurrentReadersObserveOneSnapshot) {
    ::setenv("BLINKRADAR_THREADS", "3", 1);
    reload_process_config_for_testing();
    const std::size_t kThreads = 8;
    std::vector<std::string> seen(kThreads);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kThreads; ++t)
        readers.emplace_back(
            [&, t] { seen[t] = process_config().threads; });
    for (auto& th : readers) th.join();
    for (const std::string& s : seen) EXPECT_EQ(s, "3");
    ::unsetenv("BLINKRADAR_THREADS");
    reload_process_config_for_testing();
}

}  // namespace
}  // namespace blinkradar
