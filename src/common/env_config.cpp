#include "common/env_config.hpp"

#include <cstdlib>
#include <mutex>

namespace blinkradar {

namespace {

std::mutex g_mutex;
ProcessConfig g_config;
bool g_resolved = false;

std::string env_or_empty(const char* name) {
    const char* value = std::getenv(name);
    return value != nullptr ? std::string(value) : std::string();
}

ProcessConfig resolve_from_environment() {
    ProcessConfig config;
    config.simd_backend = env_or_empty("BLINKRADAR_SIMD_BACKEND");
    config.threads = env_or_empty("BLINKRADAR_THREADS");
    config.trace_path = env_or_empty("BLINKRADAR_TRACE");
    return config;
}

}  // namespace

const ProcessConfig& process_config() {
    // Mutex (not a magic static) so the test-only reload below can
    // replace the snapshot; the lock is only ever taken at
    // construction-time call sites, never on a frame path.
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_resolved) {
        g_config = resolve_from_environment();
        g_resolved = true;
    }
    return g_config;
}

void reload_process_config_for_testing() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_config = resolve_from_environment();
    g_resolved = true;
}

}  // namespace blinkradar
