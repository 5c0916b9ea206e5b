// Rung bounds of the recovery ladder (retry -> warm restore -> cold
// restart), shared by core::Supervisor and the fleet engine's
// per-session ladder so the two escalate after the same number of
// failures. A successful frame resets the fleet's counters; the
// Supervisor resets its warm-restore count after a clean streak.
#pragma once

#include <cstddef>

namespace blinkradar::core {

/// Same-frame retries before a throwing frame escalates to a warm
/// restore.
inline constexpr std::size_t kMaxFrameRetries = 1;

/// Consecutive warm restores before the ladder cold restarts.
inline constexpr std::size_t kMaxWarmRestores = 3;

}  // namespace blinkradar::core
