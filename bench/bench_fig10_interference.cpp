// Fig. 10 reproduction:
//  (a) head movement traces an arc in I/Q space (phase rotation at nearly
//      constant radius) while a blink moves the sample radially;
//  (b) the eye-region bin's 2-D I/Q variance towers over noise bins even
//      without blinks, thanks to the embedded respiration/BCG
//      interference — the signal BlinkRadar exploits for bin discovery.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/bin_selection.hpp"
#include "core/preprocess.hpp"
#include "dsp/background.hpp"
#include "dsp/circle_fit.hpp"
#include "dsp/stats.hpp"
#include "eval/report.hpp"
#include "physio/blink.hpp"
#include "physio/driver_profile.hpp"
#include "sim/scenario.hpp"

using namespace blinkradar;

int main() {
    eval::banner(std::cout,
                 "Fig. 10a: head-movement arc vs blink radial excursion");

    sim::ScenarioConfig sc;
    Rng rng(31);
    sc.driver = physio::sample_participants(1, rng).front();
    sc.environment = sim::Environment::kLaboratory;
    sc.include_body_events = false;
    sc.head_motion.shift_rate_per_min = 0.0;
    sc.duration_s = 60.0;
    sc.seed = 23;
    const sim::SimulatedSession session = sim::simulate_session(sc);
    const radar::RadarConfig& cfg = session.radar;

    const core::PipelineConfig pc;
    const core::Preprocessor pre(pc);
    dsp::LoopbackFilter background(cfg.n_bins(), pc.background_alpha);
    const std::size_t eye_bin = static_cast<std::size_t>(0.40 / cfg.bin_spacing_m);

    dsp::ComplexSignal quiet, blinking;
    // Fig. 10b's window: the first 250 frames, tracked the way the
    // pipeline tracks its selection window.
    core::RollingBinVariance window(cfg.n_bins());
    for (const radar::RadarFrame& f : session.frames) {
        const dsp::ComplexSignal sub = background.process(pre.apply(f).bins);
        const double closure =
            physio::eyelid_closure_at(session.truth.blinks, f.timestamp_s);
        if (closure == 0.0)
            quiet.push_back(sub[eye_bin]);
        else
            blinking.push_back(sub[eye_bin]);
        if (window.count() < 250) window.push(sub);
    }

    // Head movement only: samples should hug a circle (small residual);
    // the blink samples should sit radially displaced from it.
    const dsp::CircleFit arc = dsp::fit_circle_pratt(quiet);
    double blink_radial = 0.0;
    for (const dsp::Complex& z : blinking) {
        const double dx = z.real() - arc.center_x;
        const double dy = z.imag() - arc.center_y;
        blink_radial =
            std::max(blink_radial,
                     std::abs(std::sqrt(dx * dx + dy * dy) - arc.radius));
    }
    std::printf("head-movement arc: radius %.3f, rms residual %.4f "
                "(%.1f%% of radius)\n",
                arc.radius, arc.rms_residual,
                100.0 * arc.rms_residual / arc.radius);
    std::printf("largest blink radial excursion: %.4f (%.1fx the arc rms)\n",
                blink_radial, blink_radial / arc.rms_residual);

    eval::banner(std::cout, "Fig. 10b: eye-bin variance vs noise bins");
    std::vector<double> variances;
    window.variances_into(variances);
    double noise_floor = 0.0;
    std::size_t n = 0;
    for (std::size_t b = static_cast<std::size_t>(1.2 / cfg.bin_spacing_m);
         b < variances.size() - 15; ++b) {
        noise_floor += variances[b];
        ++n;
    }
    noise_floor /= static_cast<double>(n);
    std::printf("eye-region bin variance : %.3e\n", variances[eye_bin]);
    std::printf("noise-bin variance      : %.3e\n", noise_floor);
    std::printf("ratio                   : %.0fx\n",
                variances[eye_bin] / noise_floor);

    const bool ok = arc.rms_residual < 0.05 * arc.radius &&
                    blink_radial > 3.0 * arc.rms_residual &&
                    variances[eye_bin] > 50.0 * noise_floor;
    std::printf("\n%s\n",
                ok ? "MATCH: interference forms a thin arc, blinks leave it "
                     "radially, and the eye bin's 2-D variance dominates "
                     "(Fig. 10)."
                   : "MISMATCH!");
    return ok ? 0 : 1;
}
