#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/frame_guard.hpp"
#include "radar/config.hpp"

namespace blinkradar::core {
namespace {

radar::RadarFrame make_frame(Seconds t, std::size_t n_bins,
                             double value = 0.01) {
    radar::RadarFrame f;
    f.timestamp_s = t;
    f.bins.assign(n_bins, dsp::Complex(value, -value));
    return f;
}

class FrameGuardTest : public ::testing::Test {
protected:
    radar::RadarConfig radar_;
    std::size_t n_bins_ = 0;

    void SetUp() override { n_bins_ = radar_.n_bins(); }

    FrameGuard make_guard(FrameGuardConfig config = {}) {
        return FrameGuard(radar_, config);
    }
};

TEST_F(FrameGuardTest, CleanStreamPassesThroughUntouched) {
    FrameGuard guard = make_guard();
    for (int i = 0; i < 200; ++i) {
        const radar::RadarFrame f = make_frame(0.040 * i, n_bins_);
        const GuardDecision d = guard.admit(f);
        EXPECT_EQ(d.verdict, FrameVerdict::kClean);
        ASSERT_EQ(d.frames.size(), 1u);
        // Zero-copy: the span points straight at the caller's frame.
        EXPECT_EQ(d.frames.data(), &f);
        EXPECT_FALSE(d.warm_restart);
    }
    EXPECT_EQ(guard.health(), HealthState::kOk);
    EXPECT_EQ(guard.stats().frames_quarantined, 0u);
    EXPECT_EQ(guard.fault_rate(), 0.0);
}

TEST_F(FrameGuardTest, WrongBinCountIsQuarantined) {
    FrameGuard guard = make_guard();
    guard.admit(make_frame(0.0, n_bins_));
    const GuardDecision d = guard.admit(make_frame(0.040, n_bins_ / 2));
    EXPECT_EQ(d.verdict, FrameVerdict::kQuarantined);
    EXPECT_TRUE(d.frames.empty());
    EXPECT_EQ(guard.stats().frames_quarantined, 1u);
}

TEST_F(FrameGuardTest, NonMonotonicTimestampsAreQuarantined) {
    FrameGuard guard = make_guard();
    guard.admit(make_frame(1.000, n_bins_));
    // Exact duplicate timestamp and an out-of-order frame both rejected.
    EXPECT_EQ(guard.admit(make_frame(1.000, n_bins_)).verdict,
              FrameVerdict::kQuarantined);
    EXPECT_EQ(guard.admit(make_frame(0.960, n_bins_)).verdict,
              FrameVerdict::kQuarantined);
    // Time moving forward again is accepted.
    EXPECT_EQ(guard.admit(make_frame(1.040, n_bins_)).verdict,
              FrameVerdict::kClean);
}

TEST_F(FrameGuardTest, NonFiniteTimestampIsQuarantined) {
    FrameGuard guard = make_guard();
    radar::RadarFrame f = make_frame(0.0, n_bins_);
    f.timestamp_s = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(guard.admit(f).verdict, FrameVerdict::kQuarantined);
}

TEST_F(FrameGuardTest, IsolatedNanSamplesAreRepairedBySampleHold) {
    FrameGuard guard = make_guard();
    guard.admit(make_frame(0.0, n_bins_, 0.02));
    radar::RadarFrame f = make_frame(0.040, n_bins_, 0.03);
    f.bins[5] = dsp::Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
    f.bins[9] = dsp::Complex(0.0, std::numeric_limits<double>::infinity());
    const GuardDecision d = guard.admit(f);
    EXPECT_EQ(d.verdict, FrameVerdict::kRepaired);
    EXPECT_EQ(d.repaired_samples, 2u);
    ASSERT_EQ(d.frames.size(), 1u);
    // Repaired samples hold the previous frame's value; the rest pass.
    EXPECT_EQ(d.frames[0].bins[5], dsp::Complex(0.02, -0.02));
    EXPECT_EQ(d.frames[0].bins[9], dsp::Complex(0.02, -0.02));
    EXPECT_EQ(d.frames[0].bins[0], dsp::Complex(0.03, -0.03));
    for (const dsp::Complex& s : d.frames[0].bins) {
        EXPECT_TRUE(std::isfinite(s.real()));
        EXPECT_TRUE(std::isfinite(s.imag()));
    }
    EXPECT_EQ(guard.stats().samples_repaired, 2u);
}

TEST_F(FrameGuardTest, MostlyNanFrameIsQuarantinedWhole) {
    FrameGuard guard = make_guard();
    guard.admit(make_frame(0.0, n_bins_));
    radar::RadarFrame f = make_frame(0.040, n_bins_);
    for (std::size_t b = 0; b < f.bins.size() / 2; ++b)
        f.bins[b] =
            dsp::Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
    EXPECT_EQ(guard.admit(f).verdict, FrameVerdict::kQuarantined);
}

TEST_F(FrameGuardTest, ShortGapIsBridgedWithHeldFrames) {
    FrameGuard guard = make_guard();
    guard.admit(make_frame(0.000, n_bins_, 0.05));
    guard.admit(make_frame(0.040, n_bins_, 0.06));
    // Three frames went missing: 0.080, 0.120, 0.160 -> next at 0.200.
    const GuardDecision d = guard.admit(make_frame(0.200, n_bins_, 0.07));
    EXPECT_EQ(d.verdict, FrameVerdict::kBridged);
    EXPECT_EQ(d.bridged_frames, 3u);
    ASSERT_EQ(d.frames.size(), 4u);
    // Held frames carry the last good samples, timestamps spaced across
    // the real gap, strictly increasing into the real frame.
    Seconds prev = 0.040;
    for (std::size_t i = 0; i + 1 < d.frames.size(); ++i) {
        EXPECT_EQ(d.frames[i].bins[0], dsp::Complex(0.06, -0.06));
        EXPECT_GT(d.frames[i].timestamp_s, prev);
        prev = d.frames[i].timestamp_s;
    }
    EXPECT_EQ(d.frames.back().timestamp_s, 0.200);
    EXPECT_EQ(d.frames.back().bins[0], dsp::Complex(0.07, -0.07));
    EXPECT_EQ(guard.stats().gaps_bridged, 1u);
    EXPECT_EQ(guard.stats().frames_bridged, 3u);
}

TEST_F(FrameGuardTest, LongGapTriggersWarmRestartAndRecovering) {
    FrameGuardConfig config;
    config.max_bridge_gap_s = 0.5;
    FrameGuard guard = make_guard(config);
    guard.admit(make_frame(0.000, n_bins_));
    guard.admit(make_frame(0.040, n_bins_));
    const GuardDecision d = guard.admit(make_frame(2.0, n_bins_));
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(d.bridged_frames, 0u);  // too stale to bridge honestly
    ASSERT_EQ(d.frames.size(), 1u);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);
    EXPECT_EQ(guard.stats().warm_restarts, 1u);
    // Downstream reports convergence -> back to OK.
    guard.notify_converged();
    EXPECT_EQ(guard.health(), HealthState::kOk);
}

TEST_F(FrameGuardTest, SustainedFaultsDegradeThenRecover) {
    FrameGuard guard = make_guard();
    Seconds t = 0.0;
    const auto feed_clean = [&](int n) {
        for (int i = 0; i < n; ++i) {
            guard.admit(make_frame(t, n_bins_));
            t += 0.040;
        }
    };
    feed_clean(100);
    ASSERT_EQ(guard.health(), HealthState::kOk);
    // A stretch with ~20% short frames pushes the fault rate over the
    // degraded threshold without losing the signal.
    for (int i = 0; i < 50; ++i) {
        guard.admit(make_frame(t, i % 5 == 0 ? n_bins_ / 3 : n_bins_));
        t += 0.040;
    }
    EXPECT_EQ(guard.health(), HealthState::kDegraded);
    // Once the stream cleans up the window drains and health recovers.
    feed_clean(200);
    EXPECT_EQ(guard.health(), HealthState::kOk);
}

TEST_F(FrameGuardTest, ConsecutiveQuarantinesMeanSignalLost) {
    FrameGuardConfig config;
    config.lost_after_quarantines = 5;
    FrameGuard guard = make_guard(config);
    guard.admit(make_frame(0.0, n_bins_));
    for (int i = 0; i < 6; ++i)
        guard.admit(make_frame(0.040 * (i + 1), 3));  // wrong bin count
    EXPECT_EQ(guard.health(), HealthState::kSignalLost);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);
    // First valid frame flips to RECOVERING and requests a warm restart.
    const GuardDecision d = guard.admit(make_frame(0.32, n_bins_));
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
    guard.notify_converged();
    // The fault window is still hot, so convergence lands in DEGRADED,
    // not OK — and drains to OK as clean frames continue.
    EXPECT_EQ(guard.health(), HealthState::kDegraded);
    for (int i = 0; i < 300; ++i)
        guard.admit(make_frame(0.36 + 0.040 * i, n_bins_));
    EXPECT_EQ(guard.health(), HealthState::kOk);
}

// ---------------------------------------------------------------------
// Health-machine transition matrix. Every reachable edge of the
// OK/DEGRADED/SIGNAL_LOST/RECOVERING automaton is pinned by one test
// below; the unreachable cells are structural and noted here:
//
//   from \ to    OK         DEGRADED    SIGNAL_LOST   RECOVERING
//   OK           self(1)    rate(1)     quar.run(2)   long gap(3)*
//   DEGRADED     rate(1)    self(1)     quar.run(4)   long gap(5)*
//   SIGNAL_LOST  —          —           self(6)       valid frame(6,7)
//   RECOVERING   conv.(9)   conv.(9)    quar.run(10)  self(8), gap(11)
//
//   (*) A long gap raises SIGNAL_LOST and, because the same admit()
//   delivers a valid frame, immediately hands back RECOVERING with the
//   warm-restart flag set — externally a one-frame OK/DEGRADED ->
//   RECOVERING edge that still counts a signal_lost_event.
//   SIGNAL_LOST -> OK/DEGRADED is impossible by construction: leaving
//   signal loss always passes through RECOVERING (the detector must
//   reconverge first). RECOVERING -> OK/DEGRADED happens only through
//   notify_converged(), which is a no-op in every other state (12).
// ---------------------------------------------------------------------

class FrameGuardTransitionTest : public FrameGuardTest {
protected:
    static constexpr Seconds kPeriod = 0.040;
    Seconds t_ = 0.0;  ///< timestamp of the next nominal-cadence frame

    GuardDecision feed_clean(FrameGuard& guard) {
        const GuardDecision d = guard.admit(make_frame(t_, n_bins_));
        t_ += kPeriod;
        return d;
    }
    void feed_clean(FrameGuard& guard, int n) {
        for (int i = 0; i < n; ++i) feed_clean(guard);
    }
    /// Structurally invalid frame (bad bin count): always quarantined,
    /// never advances the guard's last-valid timestamp.
    GuardDecision feed_quarantined(FrameGuard& guard) {
        return guard.admit(make_frame(t_, 3));
    }
    void feed_quarantined(FrameGuard& guard, int n) {
        for (int i = 0; i < n; ++i) feed_quarantined(guard);
    }
    /// Valid frame arriving `dt` after the previous valid frame.
    GuardDecision feed_after_gap(FrameGuard& guard, Seconds dt) {
        t_ += dt - kPeriod;
        return feed_clean(guard);
    }
};

TEST_F(FrameGuardTransitionTest, MatrixOkToDegradedAndBackWithHysteresis) {
    // Edge (1): OK -> DEGRADED at fault_rate > threshold, DEGRADED -> OK
    // only below half the threshold, with both self-loops in between.
    FrameGuard guard = make_guard();
    feed_clean(guard, 120);  // fill the 100-frame health window
    ASSERT_EQ(guard.health(), HealthState::kOk);
    feed_quarantined(guard, 3);  // rate 0.03: at, not over, the threshold
    EXPECT_EQ(guard.health(), HealthState::kOk);
    feed_quarantined(guard, 1);  // rate 0.04 > 0.03
    EXPECT_EQ(guard.health(), HealthState::kDegraded);
    // Hysteresis: clean frames drain the window; health must hold
    // DEGRADED through the whole [half-threshold, threshold] band and
    // flip back exactly when the rate clears 0.5 * 0.03.
    bool recovered = false;
    for (int i = 0; i < 200; ++i) {
        feed_clean(guard);
        if (!recovered && guard.health() == HealthState::kOk) {
            recovered = true;
            EXPECT_LT(guard.fault_rate(), 0.5 * 0.03);
        } else if (!recovered) {
            EXPECT_EQ(guard.health(), HealthState::kDegraded);
            EXPECT_GE(guard.fault_rate(), 0.5 * 0.03);
        }
    }
    EXPECT_TRUE(recovered);
    EXPECT_EQ(guard.health(), HealthState::kOk);
    EXPECT_EQ(guard.stats().signal_lost_events, 0u);
}

TEST_F(FrameGuardTransitionTest, MatrixOkToSignalLostViaQuarantineRun) {
    // Edge (2): the run of consecutive quarantines, counted exactly.
    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard guard = make_guard(config);
    feed_clean(guard, 120);
    feed_quarantined(guard, 11);
    EXPECT_NE(guard.health(), HealthState::kSignalLost) << "one short";
    feed_quarantined(guard, 1);
    EXPECT_EQ(guard.health(), HealthState::kSignalLost);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);
    // A valid frame in the middle resets the consecutive count.
    FrameGuard guard2 = make_guard(config);
    t_ = 0.0;
    feed_clean(guard2, 120);
    feed_quarantined(guard2, 11);
    feed_clean(guard2);
    feed_quarantined(guard2, 11);
    EXPECT_NE(guard2.health(), HealthState::kSignalLost);
}

TEST_F(FrameGuardTransitionTest, MatrixOkLongGapLandsInRecoveringSameFrame) {
    // Edge (3): a gap beyond max_bridge_gap_s is signal loss, but the
    // frame that reveals it is itself valid — one admit() walks
    // OK -> SIGNAL_LOST -> RECOVERING and requests the warm restart.
    FrameGuard guard = make_guard();
    feed_clean(guard, 50);
    ASSERT_EQ(guard.health(), HealthState::kOk);
    const GuardDecision d = feed_after_gap(guard, 1.0);  // > 0.6 s
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(d.bridged_frames, 0u);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);
    EXPECT_EQ(guard.stats().warm_restarts, 1u);
    // The boundary is consumed: the next frame carries no restart.
    EXPECT_FALSE(feed_clean(guard).warm_restart);
}

TEST_F(FrameGuardTransitionTest, MatrixDegradedToSignalLostViaQuarantineRun) {
    // Edge (4): the quarantine run fires from DEGRADED exactly as from OK.
    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard guard = make_guard(config);
    feed_clean(guard, 120);
    feed_quarantined(guard, 4);
    feed_clean(guard);  // break the run, keep the window hot
    ASSERT_EQ(guard.health(), HealthState::kDegraded);
    feed_quarantined(guard, 12);
    EXPECT_EQ(guard.health(), HealthState::kSignalLost);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);
}

TEST_F(FrameGuardTransitionTest, MatrixDegradedLongGapLandsInRecovering) {
    // Edge (5): signal loss by gap out of DEGRADED.
    FrameGuard guard = make_guard();
    feed_clean(guard, 120);
    feed_quarantined(guard, 4);
    ASSERT_EQ(guard.health(), HealthState::kDegraded);
    const GuardDecision d = feed_after_gap(guard, 1.0);
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);
}

TEST_F(FrameGuardTransitionTest, MatrixSignalLostHoldsUntilValidFrame) {
    // Edges (6)+(7): SIGNAL_LOST self-loops under further quarantines
    // (without recounting the event) and leaves only via a valid frame,
    // which flips to RECOVERING with the warm-restart flag.
    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard guard = make_guard(config);
    feed_clean(guard, 50);
    feed_quarantined(guard, 12);
    ASSERT_EQ(guard.health(), HealthState::kSignalLost);
    feed_quarantined(guard, 25);
    EXPECT_EQ(guard.health(), HealthState::kSignalLost);
    EXPECT_EQ(guard.stats().signal_lost_events, 1u);  // not recounted
    const GuardDecision d = feed_clean(guard);
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
    EXPECT_EQ(guard.stats().warm_restarts, 1u);
}

TEST_F(FrameGuardTransitionTest, MatrixWarmRestartBoundarySuppressesBridging) {
    // The warm-restart boundary frame: the held baseline is stale and
    // about to be discarded, so a bridgeable-length gap at the boundary
    // must NOT emit synthetic frames.
    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard guard = make_guard(config);
    feed_clean(guard, 50);
    feed_quarantined(guard, 12);
    ASSERT_EQ(guard.health(), HealthState::kSignalLost);
    // 0.2 s < max_bridge_gap_s (0.6 s): bridgeable in normal operation.
    const GuardDecision d = feed_after_gap(guard, 0.2);
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(d.bridged_frames, 0u);
    ASSERT_EQ(d.frames.size(), 1u);  // only the real frame
    EXPECT_EQ(guard.stats().frames_bridged, 0u);
    // Once past the boundary, the same gap bridges again.
    const GuardDecision later = feed_after_gap(guard, 0.2);
    EXPECT_FALSE(later.warm_restart);
    EXPECT_GT(later.bridged_frames, 0u);
}

TEST_F(FrameGuardTransitionTest, MatrixRecoveringHoldsUntilConvergence) {
    // Edge (8): clean frames alone never promote RECOVERING — the
    // downstream detector owns the convergence signal.
    FrameGuard guard = make_guard();
    feed_clean(guard, 50);
    feed_after_gap(guard, 1.0);
    ASSERT_EQ(guard.health(), HealthState::kRecovering);
    feed_clean(guard, 150);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
}

TEST_F(FrameGuardTransitionTest, MatrixRecoveringConvergesToOkOrDegradedByWindow) {
    // Edge (9), both arms. A gap-driven loss keeps the fault window
    // clean -> convergence lands in OK.
    FrameGuard guard = make_guard();
    feed_clean(guard, 120);
    feed_after_gap(guard, 1.0);
    ASSERT_EQ(guard.health(), HealthState::kRecovering);
    guard.notify_converged();
    EXPECT_EQ(guard.health(), HealthState::kOk);

    // A quarantine-driven loss leaves the window hot -> DEGRADED.
    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard guard2 = make_guard(config);
    t_ = 0.0;
    feed_clean(guard2, 120);
    feed_quarantined(guard2, 12);
    feed_clean(guard2);
    ASSERT_EQ(guard2.health(), HealthState::kRecovering);
    guard2.notify_converged();
    EXPECT_EQ(guard2.health(), HealthState::kDegraded);
}

TEST_F(FrameGuardTransitionTest, MatrixRecoveringRelapsesToSignalLost) {
    // Edge (10): a fresh quarantine run during reconvergence drops the
    // stream back to SIGNAL_LOST and counts a second event.
    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard guard = make_guard(config);
    feed_clean(guard, 50);
    feed_quarantined(guard, 12);
    feed_clean(guard);
    ASSERT_EQ(guard.health(), HealthState::kRecovering);
    feed_quarantined(guard, 12);
    EXPECT_EQ(guard.health(), HealthState::kSignalLost);
    EXPECT_EQ(guard.stats().signal_lost_events, 2u);
}

TEST_F(FrameGuardTransitionTest, MatrixRecoveringSecondGapRestartsAgain) {
    // Edge (11): another long gap while still reconverging is a new loss
    // event and a new warm-restart boundary.
    FrameGuard guard = make_guard();
    feed_clean(guard, 50);
    ASSERT_TRUE(feed_after_gap(guard, 1.0).warm_restart);
    ASSERT_EQ(guard.health(), HealthState::kRecovering);
    const GuardDecision d = feed_after_gap(guard, 1.0);
    EXPECT_TRUE(d.warm_restart);
    EXPECT_EQ(guard.health(), HealthState::kRecovering);
    EXPECT_EQ(guard.stats().signal_lost_events, 2u);
    EXPECT_EQ(guard.stats().warm_restarts, 2u);
}

TEST_F(FrameGuardTransitionTest, MatrixNotifyConvergedIsNoOpElsewhere) {
    // (12): notify_converged() must only act in RECOVERING.
    FrameGuard ok = make_guard();
    feed_clean(ok, 50);
    ok.notify_converged();
    EXPECT_EQ(ok.health(), HealthState::kOk);

    FrameGuard degraded = make_guard();
    t_ = 0.0;
    feed_clean(degraded, 120);
    feed_quarantined(degraded, 4);
    ASSERT_EQ(degraded.health(), HealthState::kDegraded);
    degraded.notify_converged();
    EXPECT_EQ(degraded.health(), HealthState::kDegraded);

    FrameGuardConfig config;
    config.lost_after_quarantines = 12;
    FrameGuard lost = make_guard(config);
    t_ = 0.0;
    feed_clean(lost, 50);
    feed_quarantined(lost, 12);
    ASSERT_EQ(lost.health(), HealthState::kSignalLost);
    lost.notify_converged();
    EXPECT_EQ(lost.health(), HealthState::kSignalLost);
}

}  // namespace
}  // namespace blinkradar::core
