//! Property tests for the robustness state machines: the safe-state
//! watchdog's trip → park → backoff-doubling → cap cycle, and the
//! degradation ladder's non-oscillation guarantee under square-wave
//! (flapping) faults.
//!
//! Both machines are pure `tick(anomalous) -> transition` counters with
//! fixed tuning, so the properties drive them with generated input
//! patterns and check the invariants the chaos table relies on:
//! engagements only after a full anomaly streak, hold lengths that double
//! exactly until the ceiling, and hysteresis that keeps a flapping fault
//! from ping-ponging a rung boundary.

use harmonia::governor::{Ladder, LadderTransition, Rung, Watchdog, WatchdogTransition};
use harmonia_types::HwConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A persistently-anomalous stream trips the watchdog after exactly
    /// `THRESHOLD` intervals, parks for the advertised hold, and each
    /// re-engagement doubles the hold until it saturates at `MAX_HOLD` —
    /// never past it, and never skipping a doubling step.
    #[test]
    fn watchdog_trip_park_backoff_doubles_to_cap(engagements in 2usize..10) {
        let threshold = Watchdog::THRESHOLD;
        let max_hold = Watchdog::MAX_HOLD;
        let mut wd = Watchdog::new(HwConfig::min_hd7970());
        let mut expected_hold = Watchdog::BASE_HOLD;
        for engagement in 0..engagements {
            // Trip: exactly `threshold` anomalies engage, none earlier.
            for i in 0..threshold {
                prop_assert!(!wd.engaged(), "engagement {engagement}: early at streak {i}");
                let t = wd.tick(true);
                if i + 1 < threshold {
                    prop_assert_eq!(t, WatchdogTransition::None);
                } else {
                    prop_assert_eq!(t, WatchdogTransition::Engaged);
                }
            }
            // Park: the hold is the expected power-of-two multiple of the
            // base, and the watchdog stays engaged until it runs out.
            prop_assert_eq!(wd.hold(), expected_hold, "engagement {}", engagement);
            for _ in 0..expected_hold - 1 {
                prop_assert_eq!(wd.tick(true), WatchdogTransition::None);
                prop_assert!(wd.engaged());
            }
            prop_assert_eq!(wd.tick(true), WatchdogTransition::Released);
            prop_assert!(!wd.engaged());
            // Backoff: doubles, capped.
            expected_hold = (expected_hold * 2).min(max_hold);
            prop_assert!(wd.hold() <= max_hold, "hold must never exceed the cap");
        }
    }

    /// A square-wave fault — `burst` anomalous intervals alternating with
    /// `quiet` clean intervals — can demote the ladder but never makes it
    /// oscillate: once demoted, a clean half-period shorter than the
    /// promotion hold never climbs back, so there are zero promotions and
    /// the rung is monotonically non-increasing.
    #[test]
    fn ladder_square_wave_never_oscillates(
        // At least one demotion streak, so the first burst demotes.
        burst in Ladder::DEMOTE_THRESHOLD..Ladder::SAFE_DEMOTE_THRESHOLD + 2,
        // The non-oscillation precondition: the clean half-period is
        // shorter than the smallest possible promotion hold.
        quiet in 0..Ladder::BASE_HOLD,
        cycles in 4u64..40,
    ) {
        let mut ladder = Ladder::default();
        let mut min_rung_index = Rung::Full.index();
        for cycle in 0..cycles {
            for _ in 0..burst {
                let t = ladder.tick(true);
                prop_assert!(
                    !matches!(t, LadderTransition::Promoted { .. }),
                    "cycle {cycle}: promotion during an anomaly burst"
                );
            }
            for _ in 0..quiet {
                let t = ladder.tick(false);
                prop_assert!(
                    !matches!(t, LadderTransition::Promoted { .. }),
                    "cycle {cycle}: clean half-period {quiet} beat hold {}",
                    ladder.hold()
                );
            }
            // Monotone: the rung only ever moves down.
            prop_assert!(
                ladder.rung().index() >= min_rung_index,
                "cycle {cycle}: rung climbed back up"
            );
            min_rung_index = min_rung_index.max(ladder.rung().index());
        }
        prop_assert_eq!(ladder.promotions(), 0, "square wave must never promote");
        // The first burst crosses the demote threshold, so the ladder must
        // actually have left the top rung — the property is not vacuous.
        prop_assert!(ladder.rung() != Rung::Full, "ladder never demoted");
        prop_assert!(ladder.demotions() > 0);
    }
}
