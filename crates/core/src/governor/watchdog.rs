//! Safe-state fallback watchdog shared by the hardened governors.
//!
//! Real governor firmware (AMD PowerTune, NVIDIA's power capping) never
//! trusts its own inputs unconditionally: when telemetry goes implausible
//! or the power cap is violated repeatedly, the hardware drops to a known
//! safe DPM state and only re-engages the adaptive policy cautiously. This
//! module reproduces that discipline for the simulated stack:
//!
//! * [`Watchdog::tick`] consumes one anomaly verdict per observation
//!   interval. After [`WatchdogConfig::threshold`] *consecutive* anomalous
//!   intervals it engages: decisions pin to the safe state for a hold
//!   period, after which normal governing resumes.
//! * Each engagement doubles the next hold (exponential backoff, capped at
//!   [`WatchdogConfig::max_hold`]); a sustained clean streak resets the
//!   backoff to its base.
//!
//! What counts as "anomalous" is the governor's business —
//! [`HarmoniaGovernor`](crate::governor::HarmoniaGovernor) feeds counter
//! plausibility and throughput collapse, while
//! [`CappedGovernor`](crate::governor::CappedGovernor) feeds cap-violation
//! and actuation-mismatch verdicts. The safe state itself mirrors
//! [`PowerTuneGovernor`](crate::governor::PowerTuneGovernor)'s DPM table:
//! all compute units at a low DPM clock with the memory bus untouched.

use crate::sanitize::DEFAULT_MAX_BW_GBPS;
use harmonia_types::{ComputeConfig, GridSpec, HwConfig, MegaHertz, MemoryConfig};

/// The safe PowerTune-equivalent state fallback decisions pin to: all 32
/// CUs at the 500 MHz DPM clock, memory at full speed. Matching the DPM
/// table keeps the fallback a state real firmware could actually enter.
///
/// This is the HD7970 instance; governors built for another catalog device
/// set [`WatchdogConfig::safe`] from
/// [`DeviceSpec::safe_state`](harmonia_types::DeviceSpec::safe_state),
/// which derives the equivalent mid-ladder DPM state on that device's grid.
pub fn safe_state() -> HwConfig {
    HwConfig::new(
        ComputeConfig::new_on(&GridSpec::HD7970, 32, MegaHertz(500))
            .expect("DPM state is on the grid"),
        MemoryConfig::max_hd7970(),
    )
}

/// What an [`AnomalyCheck`](crate::governor::AnomalyCheck) reads of its
/// tuning. A [`WatchdogLayer`](crate::governor::WatchdogLayer) takes it
/// inside its [`WatchdogConfig`]; a
/// [`DegradeLayer`](crate::governor::DegradeLayer) takes it alone, since
/// the ladder's hold lengths and terminal state are its own.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Whether the observed configuration is checked against the decided
    /// one. Leave off for governors whose decisions are legitimately
    /// overridden downstream (e.g. wrapped by a power-cap decorator).
    pub check_actuation: bool,
    /// Throughput-collapse ratio: an interval whose VALU rate falls below
    /// `collapse_ratio × peak` is anomalous. Zero disables the check.
    pub collapse_ratio: f64,
    /// Achieved-bandwidth ceiling (GB/s) of the counter-plausibility check:
    /// the governed device's bus plus margin
    /// ([`max_bw_gbps_on`](crate::sanitize::max_bw_gbps_on)).
    pub max_bw_gbps: f64,
}

/// Tuning for a [`Watchdog`] and the anomaly check it drives.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Consecutive anomalous intervals before fallback engages.
    pub threshold: u32,
    /// Intervals the first engagement holds the safe state.
    pub base_hold: u64,
    /// Backoff ceiling for the hold length.
    pub max_hold: u64,
    /// Consecutive clean (disengaged) intervals that reset the backoff.
    pub clean_reset: u32,
    /// The configuration decisions pin to while engaged.
    pub safe: HwConfig,
    /// What the anomaly check reads.
    pub check: CheckConfig,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            base_hold: 4,
            max_hold: 64,
            clean_reset: 16,
            safe: safe_state(),
            check: CheckConfig {
                check_actuation: false,
                collapse_ratio: 0.02,
                max_bw_gbps: DEFAULT_MAX_BW_GBPS,
            },
        }
    }
}

/// What a [`Watchdog::tick`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogTransition {
    /// No state change.
    None,
    /// The anomaly streak crossed the threshold: fallback just engaged.
    Engaged,
    /// The hold expired: fallback just released.
    Released,
}

/// Consecutive-anomaly counter with safe-state hold and exponential
/// backoff (see module docs).
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    streak: u32,
    clean: u32,
    engaged: bool,
    hold: u64,
    remaining: u64,
    engagements: u64,
}

impl Watchdog {
    /// A disengaged watchdog with the base hold.
    pub fn new(config: WatchdogConfig) -> Self {
        let hold = config.base_hold.max(1);
        Self {
            config,
            streak: 0,
            clean: 0,
            engaged: false,
            hold,
            remaining: 0,
            engagements: 0,
        }
    }

    /// Whether fallback is currently engaged.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// The safe state decisions pin to while engaged.
    pub fn safe(&self) -> HwConfig {
        self.config.safe
    }

    /// The configured tuning.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Total fallback engagements so far.
    pub fn engagements(&self) -> u64 {
        self.engagements
    }

    /// The hold length (intervals) the *next* engagement would use; while
    /// engaged, the intervals left before release.
    pub fn hold(&self) -> u64 {
        if self.engaged {
            self.remaining
        } else {
            self.hold
        }
    }

    /// Advances one observation interval with its anomaly verdict.
    pub fn tick(&mut self, anomalous: bool) -> WatchdogTransition {
        if self.engaged {
            // Anomalies while pinned to the safe state are expected (the
            // fault may persist); the hold runs out regardless and backoff
            // doubling handles recurrence after release.
            self.remaining = self.remaining.saturating_sub(1);
            if self.remaining == 0 {
                self.engaged = false;
                self.streak = 0;
                self.clean = 0;
                return WatchdogTransition::Released;
            }
            return WatchdogTransition::None;
        }
        if anomalous {
            self.clean = 0;
            self.streak += 1;
            if self.streak >= self.config.threshold {
                self.engaged = true;
                self.streak = 0;
                self.remaining = self.hold;
                self.hold = (self.hold * 2).min(self.config.max_hold.max(1));
                self.engagements += 1;
                return WatchdogTransition::Engaged;
            }
        } else {
            self.streak = 0;
            self.clean = self.clean.saturating_add(1);
            if self.clean >= self.config.clean_reset {
                self.hold = self.config.base_hold.max(1);
            }
        }
        WatchdogTransition::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wd() -> Watchdog {
        Watchdog::new(WatchdogConfig::default())
    }

    #[test]
    fn safe_state_is_a_valid_grid_point() {
        assert!(harmonia_types::ConfigSpace::hd7970().contains(safe_state()));
        assert_eq!(safe_state().compute.cu_count(), 32);
        assert_eq!(safe_state().compute.freq().value(), 500);
    }

    #[test]
    fn device_safe_states_match_the_hd7970_convention() {
        use harmonia_types::DeviceSpec;
        // The catalog's hd7970 safe state is the same config as the legacy
        // free function, and every device's safe state sits on its own grid.
        assert_eq!(DeviceSpec::hd7970().safe_state(), safe_state());
        for name in DeviceSpec::catalog() {
            let spec = DeviceSpec::lookup(name).expect(name);
            let safe = spec.safe_state();
            assert!(
                harmonia_types::ConfigSpace::for_grid(spec.grid()).contains(safe),
                "{}: safe state must be on the device grid",
                spec.name
            );
            assert_eq!(safe.compute.cu_count(), spec.grid().cu_max);
            assert!(safe.compute.freq() < spec.grid().cu_freq_max);
        }
    }

    #[test]
    fn engages_only_after_consecutive_threshold() {
        let mut w = wd();
        assert_eq!(w.tick(true), WatchdogTransition::None);
        assert_eq!(w.tick(true), WatchdogTransition::None);
        // A clean interval breaks the streak.
        assert_eq!(w.tick(false), WatchdogTransition::None);
        assert_eq!(w.tick(true), WatchdogTransition::None);
        assert_eq!(w.tick(true), WatchdogTransition::None);
        assert_eq!(w.tick(true), WatchdogTransition::Engaged);
        assert!(w.engaged());
    }

    #[test]
    fn hold_expires_and_releases() {
        let mut w = wd();
        for _ in 0..3 {
            w.tick(true);
        }
        assert!(w.engaged());
        // base_hold = 4: three more ticks stay engaged, the fourth releases.
        assert_eq!(w.tick(true), WatchdogTransition::None);
        assert_eq!(w.tick(false), WatchdogTransition::None);
        assert_eq!(w.tick(false), WatchdogTransition::None);
        assert_eq!(w.tick(false), WatchdogTransition::Released);
        assert!(!w.engaged());
    }

    #[test]
    fn backoff_doubles_up_to_cap_and_resets_after_clean_streak() {
        let mut w = wd();
        let engage_and_release = |w: &mut Watchdog| {
            while !w.engaged() {
                w.tick(true);
            }
            let held = w.hold();
            while w.engaged() {
                w.tick(true);
            }
            held
        };
        let h1 = engage_and_release(&mut w);
        let h2 = engage_and_release(&mut w);
        let h3 = engage_and_release(&mut w);
        assert_eq!(h1, 4);
        assert_eq!(h2, 8);
        assert_eq!(h3, 16);
        // A long clean run resets the backoff to base.
        for _ in 0..16 {
            w.tick(false);
        }
        assert_eq!(engage_and_release(&mut w), 4);
    }

    #[test]
    fn backoff_caps_at_max_hold() {
        let mut w = Watchdog::new(WatchdogConfig {
            max_hold: 8,
            ..WatchdogConfig::default()
        });
        for _ in 0..10 {
            while !w.engaged() {
                w.tick(true);
            }
            while w.engaged() {
                w.tick(true);
            }
        }
        assert!(w.hold() <= 8);
        assert!(w.engagements() >= 10);
    }
}
