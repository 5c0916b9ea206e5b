// Drowsiness monitor: the paper's end application. Calibrates a per-user
// model from labelled awake/drowsy recordings, then monitors a drive in
// which the driver fatigues halfway through, raising an alarm whenever a
// one-minute window classifies as drowsy.
//
// The monitoring legs run through an instrumented pipeline: a metrics
// summary (frames, blinks, stage latencies) prints at the end, and
// setting BLINKRADAR_TRACE=/path/to/trace.jsonl additionally traces
// every radar frame as one span record (obs/telemetry/span.hpp) in that
// file.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/drowsy.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry/span.hpp"
#include "obs/trace.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

using namespace blinkradar;

namespace {

/// Run the pipeline over a recorded session and return long-blink window
/// rates (the drowsiness feature; see core/drowsy.hpp). `metrics`
/// (optional) instruments the run; with `spans` as well, every frame is
/// traced as one span of stream `scenario.seed`.
std::vector<double> recorded_rates(
    const sim::ScenarioConfig& scenario, Seconds window_s,
    obs::MetricsRegistry* metrics = nullptr,
    obs::telemetry::SpanCollector* spans = nullptr) {
    const sim::SimulatedSession session = sim::simulate_session(scenario);
    core::BlinkRadarPipeline pipeline(session.radar, core::PipelineConfig{},
                                      metrics, nullptr, spans);
    for (std::size_t i = 0; i < session.frames.size(); ++i) {
        if (spans == nullptr) {
            pipeline.process(session.frames[i]);
            continue;
        }
        radar::RadarFrame frame = session.frames[i];
        frame.span_id = spans->mint(scenario.seed, i);
        pipeline.process(frame);
    }
    return core::window_blink_rates(pipeline.blinks(), scenario.duration_s,
                                    window_s, /*min_duration_s=*/0.75);
}

/// Print the monitor's observability roll-up.
void print_metrics_summary(const obs::MetricsRegistry& registry) {
    std::printf("\nPipeline metrics (monitoring legs):\n");
    for (const auto& [name, c] : registry.counters())
        if (c.value() > 0)
            std::printf("  %-32s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(c.value()));
    std::printf("  stage latencies (mean / p99 us):\n");
    for (const auto& [name, h] : registry.histograms())
        if (h.count() > 0)
            std::printf("  %-32s %8.2f / %8.2f\n", name.c_str(),
                        h.mean_ns() / 1e3, h.quantile_ns(0.99) / 1e3);
}

}  // namespace

int main() {
    Rng rng(7);
    const physio::DriverProfile driver =
        physio::sample_participants(1, rng).front();
    constexpr Seconds kWindow = 60.0;

    sim::ScenarioConfig base;
    base.driver = driver;
    base.road = vehicle::RoadType::kSmoothHighway;

    // --- Calibration: one labelled recording per state -------------------
    std::printf("Calibrating drowsiness model for driver %s...\n",
                driver.id.c_str());
    sim::ScenarioConfig calib = base;
    calib.duration_s = 4 * 60.0;
    calib.alertness = physio::Alertness::kAwake;
    calib.seed = 101;
    const std::vector<double> awake_rates = recorded_rates(calib, kWindow);
    calib.alertness = physio::Alertness::kDrowsy;
    calib.seed = 102;
    const std::vector<double> drowsy_rates = recorded_rates(calib, kWindow);

    core::DrowsinessDetector detector;
    detector.train(awake_rates, drowsy_rates);
    std::printf("  awake mean %.1f, drowsy mean %.1f long-blinks/min "
                "=> threshold %.1f\n\n",
                detector.awake_mean(), detector.drowsy_mean(),
                detector.threshold_rate());

    // --- Monitoring: the driver fatigues halfway through the drive ------
    constexpr Seconds kHalf = 5 * 60.0;
    std::printf("Monitoring a %.0f-minute drive (driver becomes drowsy "
                "after %.0f min)...\n",
                2 * kHalf / 60.0, kHalf / 60.0);

    // Observability: roll up both monitoring legs into one registry;
    // BLINKRADAR_TRACE (if set) gets one span record per frame.
    obs::MetricsRegistry registry;
    const std::unique_ptr<obs::TraceSink> trace = obs::TraceSink::from_env();
    std::unique_ptr<obs::telemetry::SpanCollector> spans;
    if (trace) {
        spans = std::make_unique<obs::telemetry::SpanCollector>(trace.get());
        std::printf("  (tracing frames to %s)\n", trace->path().c_str());
    }

    int alarms_first_half = 0, alarms_second_half = 0;
    auto monitor_half = [&](physio::Alertness state, std::uint64_t seed,
                            Seconds t_offset, int& alarms) {
        sim::ScenarioConfig leg = base;
        leg.alertness = state;
        leg.duration_s = kHalf;
        leg.seed = seed;
        const std::vector<double> rates =
            recorded_rates(leg, kWindow, &registry, spans.get());
        for (std::size_t w = 0; w < rates.size(); ++w) {
            const core::DrowsinessLabel label = detector.classify(rates[w]);
            const bool drowsy = label == core::DrowsinessLabel::kDrowsy;
            if (drowsy) ++alarms;
            std::printf("  [%4.1f min] long-blink rate %5.1f/min -> %s%s\n",
                        (t_offset + (w + 1) * kWindow) / 60.0, rates[w],
                        drowsy ? "DROWSY" : "awake",
                        drowsy ? "  *** ALARM: pull over! ***" : "");
        }
    };
    monitor_half(physio::Alertness::kAwake, 201, 0.0, alarms_first_half);
    monitor_half(physio::Alertness::kDrowsy, 202, kHalf, alarms_second_half);

    std::printf("\nAlarms: %d in the alert half, %d in the drowsy half.\n",
                alarms_first_half, alarms_second_half);
    print_metrics_summary(registry);
    if (trace)
        std::printf("Trace: %zu frames written to %s\n",
                    trace->lines_written(), trace->path().c_str());
    return 0;
}
