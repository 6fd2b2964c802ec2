//! Safe-state fallback: the all-or-nothing hardening decorator.
//!
//! Real governor firmware (AMD PowerTune, NVIDIA's power capping) never
//! trusts its own inputs unconditionally: when telemetry goes implausible
//! or the power cap is violated repeatedly, the hardware drops to a known
//! safe DPM state and only re-engages the adaptive policy cautiously. This
//! module reproduces that discipline for the simulated stack:
//!
//! * [`Watchdog::tick`] consumes one anomaly verdict per observation
//!   interval. After [`Watchdog::THRESHOLD`] *consecutive* anomalous
//!   intervals it engages: decisions pin to the safe state for a hold
//!   period, after which normal governing resumes.
//! * Each engagement doubles the next hold (exponential backoff, capped at
//!   [`Watchdog::MAX_HOLD`]); a sustained clean streak resets the
//!   backoff to its base.
//!
//! [`WatchdogGovernor`] wires the state machine to an anomaly check, the
//! inner governor and telemetry. Its counter check judges counter
//! plausibility and throughput collapse; its cap check judges cap
//! violations and granted-vs-ran actuation mismatches. The safe state is
//! the governed device's
//! [`DeviceSpec::safe_state`](harmonia_types::DeviceSpec::safe_state),
//! which mirrors [`PowerTuneGovernor`](crate::governor::PowerTuneGovernor)'s
//! DPM table: all compute units at a low DPM clock with the memory bus
//! untouched.

use crate::governor::stack::{AnomalyCheck, DecisionLedger, PolicyStats};
use crate::governor::Governor;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds, Watts};

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
    safe: HwConfig,
    streak: u32,
    clean: u64,
    engaged: bool,
    hold: u64,
    remaining: u64,
}

impl Watchdog {
    /// Consecutive anomalous intervals before fallback engages.
    pub const THRESHOLD: u32 = 3;
    /// Intervals the first engagement holds the safe state.
    pub const BASE_HOLD: u64 = 4;
    /// Backoff ceiling for the hold length.
    pub const MAX_HOLD: u64 = 64;
    /// Consecutive clean (disengaged) intervals that reset the backoff.
    pub const CLEAN_RESET: u64 = 16;

    /// A disengaged watchdog with the base hold, pinning `safe` while
    /// engaged.
    pub fn new(safe: HwConfig) -> Self {
        Self {
            safe,
            streak: 0,
            clean: 0,
            engaged: false,
            hold: Self::BASE_HOLD,
            remaining: 0,
        }
    }

    /// Whether fallback is currently engaged.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// The safe state decisions pin to while engaged.
    pub fn safe(&self) -> HwConfig {
        self.safe
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
            if self.streak >= Self::THRESHOLD {
                self.engaged = true;
                self.streak = 0;
                self.remaining = self.hold;
                self.hold = (self.hold * 2).min(Self::MAX_HOLD);
                return WatchdogTransition::Engaged;
            }
        } else {
            self.streak = 0;
            self.clean = self.clean.saturating_add(1);
            if self.clean >= Self::CLEAN_RESET {
                self.hold = Self::BASE_HOLD;
            }
        }
        WatchdogTransition::None
    }
}

/// The safe-state fallback decorator: one [`Watchdog`] driven by one
/// anomaly check. While engaged, decisions pin to the safe state and the
/// inner governor's `decide` is bypassed; the counter check also withholds
/// tainted samples from the inner governor's learning loops.
pub struct WatchdogGovernor<'a, G> {
    inner: G,
    watchdog: Watchdog,
    check: AnomalyCheck<'a>,
    stats: PolicyStats,
    trace: TraceHandle,
}

impl<'a, G: Governor> WatchdogGovernor<'a, G> {
    /// The counter-plausibility watchdog over `inner`: implausible counters
    /// (achieved bandwidth above `max_bw_gbps`, the device's ceiling from
    /// [`max_bw_gbps_on`](crate::sanitize::max_bw_gbps_on)), dead samples
    /// and throughput collapses count as anomalous intervals, and suspect
    /// samples never reach the inner learning loops. Engaging pins `safe`.
    pub fn counters(inner: G, safe: HwConfig, max_bw_gbps: f64) -> Self {
        Self::with_check(inner, safe, AnomalyCheck::counters(max_bw_gbps, None))
    }

    /// The power-envelope watchdog over `inner`: cap-violation streaks
    /// under `power`'s projection and mismatches between what ran and what
    /// the enclosing clamp granted (its `ledger`, see
    /// [`CappedGovernor::checked`](super::CappedGovernor::checked)) count
    /// as anomalous intervals; the inner governor still observes every
    /// sample. Engaging pins `safe`.
    pub fn cap(
        inner: G,
        safe: HwConfig,
        power: &'a PowerModel,
        cap: Watts,
        ledger: DecisionLedger,
    ) -> Self {
        Self::with_check(inner, safe, AnomalyCheck::Cap { power, cap, ledger })
    }

    fn with_check(inner: G, safe: HwConfig, check: AnomalyCheck<'a>) -> Self {
        Self {
            inner,
            watchdog: Watchdog::new(safe),
            check,
            stats: PolicyStats::new(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Shares `stats` so fallback engagements are counted into an external
    /// handle (registry-built stacks report through
    /// [`Policy::stats`](super::Policy)).
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }
}

impl<G: Governor> Governor for WatchdogGovernor<'_, G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        // While fallback is engaged the inner policy is bypassed entirely.
        if self.watchdog.engaged() {
            self.watchdog.safe()
        } else {
            self.inner.decide(kernel, iteration)
        }
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        self.inner.condition(kernel, iteration, cfg, time, counters)
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        let engaged_before = self.watchdog.engaged();
        let what = self.check.verdict(kernel, cfg, counters, engaged_before);
        if let Some(what) = what {
            self.trace.emit(|| TraceEvent::FaultDetected {
                kernel: kernel.name.to_string(),
                iteration,
                what: what.to_string(),
            });
        }
        match self.watchdog.tick(what.is_some()) {
            WatchdogTransition::Engaged => {
                self.stats.engage_fallback();
                let safe = self.watchdog.safe();
                let hold = self.watchdog.hold();
                self.trace.emit(|| TraceEvent::FallbackEngaged {
                    kernel: kernel.name.to_string(),
                    iteration,
                    safe: safe.into(),
                    hold,
                });
            }
            WatchdogTransition::Released => {
                self.stats.release_fallback();
                self.trace.emit(|| TraceEvent::FallbackReleased {
                    kernel: kernel.name.to_string(),
                    iteration,
                });
            }
            WatchdogTransition::None => {}
        }
        // Quarantine: an anomalous sample is garbage, and one observed
        // while (or just before) fallback was engaged was produced under
        // the pinned safe state — neither may reach the learning loops.
        if self.check.quarantines() && (engaged_before || what.is_some()) {
            return;
        }
        self.inner.observe(kernel, iteration, cfg, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::BaselineGovernor;
    use crate::sanitize::DEFAULT_MAX_BW_GBPS;
    use harmonia_types::{ComputeConfig, DeviceSpec, GridSpec, MegaHertz, MemoryConfig};

    /// The HD7970's safe state: 32 CUs at the 500 MHz DPM clock.
    fn safe() -> HwConfig {
        DeviceSpec::lookup("hd7970")
            .expect("catalog device")
            .safe_state()
    }

    fn wd() -> Watchdog {
        Watchdog::new(safe())
    }

    fn garbage() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            valu_busy_pct: f64::NAN,
            ..CounterSample::default()
        }
    }

    fn clean() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            valu_busy_pct: 60.0,
            valu_utilization_pct: 90.0,
            mem_unit_busy_pct: 30.0,
            ic_activity: 0.4,
            norm_vgpr: 0.4,
            norm_sgpr: 0.3,
            valu_insts: 1_000_000,
            dram_bytes: 1e7,
            achieved_bw_gbps: 80.0,
            occupancy_fraction: 0.8,
            l2_hit_rate: 0.5,
            ..CounterSample::default()
        }
    }

    #[test]
    fn safe_state_is_a_valid_grid_point() {
        assert!(harmonia_types::ConfigSpace::for_grid(&GridSpec::HD7970).contains(safe()));
        assert_eq!(safe().compute.cu_count(), 32);
        assert_eq!(safe().compute.freq().value(), 500);
    }

    #[test]
    fn device_safe_states_match_the_hd7970_convention() {
        // The catalog's hd7970 safe state is PowerTune's DPM state (32 CUs
        // at 500 MHz, memory at full speed), and every device's safe state
        // sits on its own grid.
        let dpm = HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, 32, MegaHertz(500))
                .expect("DPM state is on the grid"),
            MemoryConfig::max_on(&GridSpec::HD7970),
        );
        assert_eq!(safe(), dpm);
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
        // BASE_HOLD = 4: three more ticks stay engaged, the fourth releases.
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
        let mut w = wd();
        let mut engagements = 0;
        for _ in 0..10 {
            while !w.engaged() {
                if w.tick(true) == WatchdogTransition::Engaged {
                    engagements += 1;
                }
            }
            assert!(w.hold() <= Watchdog::MAX_HOLD);
            while w.engaged() {
                w.tick(true);
            }
        }
        assert_eq!(w.hold(), Watchdog::MAX_HOLD);
        assert!(engagements >= 10);
    }

    #[test]
    fn watchdog_governor_engages_after_threshold_and_pins_safe_state() {
        let stats = PolicyStats::new();
        let mut g =
            WatchdogGovernor::counters(BaselineGovernor::new(), safe(), DEFAULT_MAX_BW_GBPS)
                .with_stats(&stats);
        let k = KernelProfile::builder("k").build();
        let boost = HwConfig::max_hd7970();
        for i in 0..3 {
            assert_eq!(g.decide(&k, i), boost);
            g.observe(&k, i, boost, &garbage());
        }
        assert_eq!(stats.fallback_engagements(), 1);
        assert_eq!(g.decide(&k, 3), safe());
        // BASE_HOLD = 4: the hold runs out after four engaged intervals.
        for i in 3..7 {
            let cfg = g.decide(&k, i);
            g.observe(&k, i, cfg, &clean());
        }
        assert_eq!(g.decide(&k, 7), boost, "released after the hold expires");
    }

    #[test]
    fn watchdog_governor_is_name_transparent() {
        let g = WatchdogGovernor::counters(BaselineGovernor::new(), safe(), DEFAULT_MAX_BW_GBPS);
        assert_eq!(g.name(), "baseline");
    }
}
