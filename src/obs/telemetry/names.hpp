// The two metric namespaces the telemetry plane publishes.
//
// tools/br_top reads "fleet.*" and "ingest.*" names verbatim, so the
// prefixes are constants rather than options: a different prefix would
// blank its dashboard without an error. The fleet engine gives session
// `id` the per-session prefix "fleet.s<id>.", which the Aggregator
// strips when it rolls sessions up; the ingest front-end and its SLO
// tracker ("ingest.slo.*") write under the ingest prefix.
#pragma once

#include <string_view>

namespace blinkradar::obs::telemetry {

inline constexpr std::string_view kFleetPrefix = "fleet.";
inline constexpr std::string_view kIngestPrefix = "ingest.";

}  // namespace blinkradar::obs::telemetry
