// Vehicle vibration synthesis.
//
// Vibration enters the radar geometry as a *common-mode* change in the
// distance between the windshield-mounted radar and the driver's body
// (the cabin's rigid interior — seats, steering wheel — shakes with the
// radar and is barely affected). The paper's Section VIII names this the
// key road-condition challenge. The model is band-limited Gaussian noise
// plus discrete bump transients plus slow sway for maneuvers.
#pragma once

#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"
#include "vehicle/road.hpp"

namespace blinkradar::vehicle {

/// Precomputed vibration displacement trajectory for one session.
class VibrationModel {
public:
    /// \param spec     road vibration character.
    /// \param duration_s session length.
    /// \param sample_rate_hz trajectory sampling rate (the radar frame
    ///        rate is sufficient: vibration beyond Nyquist is aliased in
    ///        reality too — the radar samples at 25 fps).
    VibrationModel(RoadVibrationSpec spec, Seconds duration_s,
                   double sample_rate_hz, Rng rng);

    /// Radar-to-body radial displacement due to vibration at time t.
    Meters displacement(Seconds t) const;

    /// RMS of the generated trajectory (diagnostics / tests).
    Meters rms() const;

private:
    RoadVibrationSpec spec_;
    double sample_rate_hz_;
    std::vector<double> trajectory_;
};

}  // namespace blinkradar::vehicle
