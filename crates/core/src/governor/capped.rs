//! A composable power-cap decorator for governors.
//!
//! The paper's motivation is a *fixed board/package power envelope*
//! (Section 1). [`CappedGovernor`] wraps any inner [`Governor`] and clamps
//! its decisions to a power budget: after the inner policy chooses a
//! configuration, the decorator projects its card power using the most
//! recently observed activity and, while over budget, steps down the
//! tunable that buys the most power per step. The inner policy still
//! receives the real counters, so Harmonia-under-a-cap keeps learning.
//!
//! Safe-state fallback is not built in: build a
//! [`WatchdogGovernor`](crate::governor::WatchdogGovernor) *inside* this
//! decorator with [`CappedGovernor::checked`] (the registry's
//! `hardened:capped` spec does), which hands it the clamp's
//! [`DecisionLedger`] so its actuation check compares against the
//! post-clamp grant.

use crate::governor::stack::{DecisionLedger, PolicyStats};
use crate::governor::{Governor, KernelMap};
use crate::runtime::activity_of;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds, Tunable, Watts};
use std::cell::OnceCell;

/// Wraps a governor and enforces a card-power budget on its decisions.
pub struct CappedGovernor<'a, G> {
    inner: G,
    power: &'a PowerModel,
    cap: Watts,
    /// `inner@capW`, rendered on first request after each cap change — a
    /// fleet re-targets every device's cap every tick but reads the names
    /// once, into the final report.
    name: OnceCell<String>,
    /// Last observed activity per kernel, used to project power.
    activity: KernelMap<Activity>,
    trace: TraceHandle,
    /// The ledger post-clamp grants are written to, when the clamp was
    /// built [`checked`](Self::checked).
    ledger: Option<DecisionLedger>,
    /// Cap-violation accounting (shared with the stack's stats handle when
    /// registry-built).
    stats: PolicyStats,
    /// Sanitizer reject total at the previous observation (shared stats) —
    /// a rising count means current telemetry is being substituted.
    last_rejects: u64,
}

impl<'a, G: Governor> CappedGovernor<'a, G> {
    /// Wraps `inner`, limiting projected card power to `cap`.
    pub fn new(inner: G, power: &'a PowerModel, cap: Watts) -> Self {
        Self {
            inner,
            power,
            cap,
            name: OnceCell::new(),
            activity: KernelMap::default(),
            trace: TraceHandle::disabled(),
            ledger: None,
            stats: PolicyStats::new(),
            last_rejects: 0,
        }
    }

    /// Wraps the governor `build` makes from this clamp's
    /// [`DecisionLedger`], limiting projected card power to `cap`. The clamp
    /// writes every post-clamp grant to the ledger, so a check built with it
    /// compares each observed configuration against what was actually
    /// granted.
    pub fn checked(
        build: impl FnOnce(DecisionLedger) -> G,
        power: &'a PowerModel,
        cap: Watts,
    ) -> Self {
        let ledger = DecisionLedger::new();
        Self {
            ledger: Some(ledger.clone()),
            ..Self::new(build(ledger), power, cap)
        }
    }

    /// Shares `stats` so cap violations are counted into an external handle
    /// (registry-built stacks report through
    /// [`Policy::stats`](crate::governor::Policy)).
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }

    /// The wrapped governor.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// The budget currently enforced.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Re-targets the budget without rebuilding the stack. Subsequent
    /// decisions clamp against the new cap and the reported name follows
    /// it; learned activity, the ledger, and the violation accounting are
    /// preserved. This is the fleet re-balance hook: a cluster governor
    /// re-partitions a global envelope across devices every tick, and each
    /// device's decorator picks up its new share here.
    pub fn set_cap(&mut self, cap: Watts) {
        self.cap = cap;
        self.name.take();
    }

    /// Observed intervals whose projected card power exceeded the cap
    /// (5% enforcement tolerance).
    pub fn cap_violations(&self) -> u64 {
        self.stats.cap_violations()
    }

    /// The clamp half of [`Governor::decide`]: grants `want` (the inner
    /// policy's choice for this invocation), stepped down under the cap
    /// for the kernel's projected activity, and records the grant. A
    /// caller that already holds the inner decision, such as a fleet
    /// session that decided through its own plan handle, clamps it here
    /// without asking the inner governor again.
    pub fn grant(&mut self, kernel: &KernelProfile, iteration: u64, want: HwConfig) -> HwConfig {
        // Without an observation yet, assume a fully busy card on this
        // device's own bus — the conservative projection for cap
        // enforcement.
        let activity = self
            .activity
            .get(&kernel.name)
            .copied()
            .unwrap_or_else(|| Activity::streaming_on(self.power.grid(), 1.0, 1.0));
        let granted = self.clamp(want, &activity);
        if granted != want {
            self.trace.emit(|| TraceEvent::CapClamp {
                kernel: kernel.name.to_string(),
                iteration,
                wanted: want.into(),
                granted: granted.into(),
            });
        }
        if let Some(ledger) = &self.ledger {
            ledger.grant(&kernel.name, granted);
        }
        granted
    }

    /// Clamps `cfg` under the cap for the given activity estimate. Steps
    /// run along the power model's device grid, so the decorator clamps
    /// catalog devices on their own lattices.
    fn clamp(&self, cfg: HwConfig, activity: &Activity) -> HwConfig {
        let grid = self.power.grid();
        let mut cfg = cfg;
        // Bounded by the total grid depth; each iteration removes one step.
        for _ in 0..grid.descent_bound() {
            if self.power.card_pwr(cfg, activity) <= self.cap {
                break;
            }
            // Greedy: take the single downward step that saves the most
            // projected power.
            let mut best: Option<(HwConfig, f64)> = None;
            for t in Tunable::ALL {
                if let Some(down) = cfg.step_down_on(grid, t) {
                    let p = self.power.card_pwr(down, activity).value();
                    if best.as_ref().is_none_or(|(_, bp)| p < *bp) {
                        best = Some((down, p));
                    }
                }
            }
            match best {
                Some((next, _)) => cfg = next,
                None => break, // grid floor: nothing left to shed
            }
        }
        cfg
    }
}

impl<G: Governor> Governor for CappedGovernor<'_, G> {
    fn name(&self) -> &str {
        self.name
            .get_or_init(|| format!("{}@{:.0}W", self.inner.name(), self.cap.value()))
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        let want = self.inner.decide(kernel, iteration);
        self.grant(kernel, iteration, want)
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
        let activity = activity_of(counters);
        // An interval under sanitizer pressure (rejects were recorded since
        // the last observation) did not produce a usable measurement: the
        // sample in hand is a substituted stand-in recorded at an *earlier*
        // operating point. Projecting stand-in activity at this interval's
        // configuration manufactures phantom violations (and can equally
        // hide real ones), so the accounting only trusts quiet intervals.
        let rejects = self.stats.sanitizer_rejects();
        let pressure = rejects > self.last_rejects;
        self.last_rejects = rejects;
        // NaN projections (glitched telemetry) fail the comparison and are
        // not counted — a stacked counter watchdog catches implausible
        // samples, and a stacked sanitizer rejects physically impossible
        // ones before they reach this accounting. A violation while a park
        // below is engaged (either watchdog's fallback or the ladder's safe
        // rung) also counts as one while parked.
        let projected = self.power.card_pwr(cfg, &activity).value();
        if projected > self.cap.value() * 1.05 && !pressure {
            self.stats.count_cap_violation();
        }
        // A dead read (timer ran, every dynamic counter zero) is a failed
        // measurement, not an idle kernel: learning "zero activity" from it
        // would un-clamp the next grant to full boost and break the cap for
        // real. Likewise a substituted sample: it describes another
        // interval's activity. And a sample whose projection is not finite
        // (a NaN counter) would make every later projection NaN, which
        // never fits under the cap and walks the grant to the grid floor.
        // Only finite samples from quiet intervals may teach the clamp.
        if !pressure && projected.is_finite() && !crate::sanitize::dead_sample(counters) {
            *self.activity.slot(&kernel.name, || activity) = activity;
        }
        self.inner.observe(kernel, iteration, cfg, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::BaselineGovernor;
    use crate::predictor::SensitivityPredictor;
    use harmonia_sim::{IntervalModel, TimingModel};
    use harmonia_types::DeviceSpec;
    use harmonia_workloads::suite;

    #[test]
    fn name_mentions_cap() {
        let power = PowerModel::hd7970();
        let g = CappedGovernor::new(BaselineGovernor::new(), &power, Watts(185.0));
        assert_eq!(g.name(), "baseline@185W");
        assert_eq!(g.inner().name(), "baseline");
    }

    #[test]
    fn generous_cap_never_interferes() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let k = suite::stencil().kernels[0].clone();
        let mut g = CappedGovernor::new(BaselineGovernor::new(), &power, Watts(500.0));
        for i in 0..4 {
            let cfg = g.decide(&k, i);
            assert_eq!(cfg, HwConfig::max_hd7970());
            let c = model.simulate(cfg, &k, i);
            g.observe(&k, i, cfg, &c.counters);
        }
    }

    #[test]
    fn tight_cap_is_enforced_every_decision() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let k = suite::maxflops().kernels[0].clone();
        let cap = Watts(170.0);
        let mut g = CappedGovernor::new(BaselineGovernor::new(), &power, cap);
        for i in 0..6 {
            let cfg = g.decide(&k, i);
            let c = model.simulate(cfg, &k, i);
            let activity = activity_of(&c.counters);
            // Enforced against the projected activity (after warm-up the
            // projection is the real activity of the previous invocation).
            if i > 0 {
                assert!(
                    power.card_pwr(cfg, &activity) <= cap + Watts(10.0),
                    "iteration {i} exceeded the cap"
                );
            }
            g.observe(&k, i, cfg, &c.counters);
        }
    }

    #[test]
    fn capped_harmonia_beats_capped_baseline_perf() {
        // Under the same envelope, the coordinated policy should find a
        // faster operating point than boost-then-clamp.
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let rt = crate::runtime::Runtime::new(&model, &power);
        let app = suite::maxflops();
        let cap = Watts(185.0);
        let base = rt.run(
            &app,
            &mut CappedGovernor::new(BaselineGovernor::new(), &power, cap),
        );
        let hm = rt.run(
            &app,
            &mut CappedGovernor::new(
                crate::governor::HarmoniaGovernor::new(SensitivityPredictor::paper_table3()),
                &power,
                cap,
            ),
        );
        assert!(
            hm.total_time <= base.total_time,
            "capped Harmonia {} vs capped baseline {}",
            hm.total_time,
            base.total_time
        );
    }

    #[test]
    fn set_cap_retargets_the_clamp_and_the_name() {
        let power = PowerModel::hd7970();
        let k = suite::maxflops().kernels[0].clone();
        let mut g = CappedGovernor::new(BaselineGovernor::new(), &power, Watts(500.0));
        assert_eq!(g.cap(), Watts(500.0));
        // Generous budget: the clamp never engages.
        assert_eq!(g.decide(&k, 0), HwConfig::max_hd7970());
        // Tighten mid-session: the very next decision is clamped and the
        // reported name follows the new budget.
        g.set_cap(Watts(150.0));
        assert_eq!(g.cap(), Watts(150.0));
        assert_eq!(g.name(), "baseline@150W");
        assert_ne!(g.decide(&k, 1), HwConfig::max_hd7970());
    }

    #[test]
    fn a_nan_sample_does_not_teach_the_clamp() {
        let device = DeviceSpec::lookup("hd7970").expect("catalog device");
        let power = PowerModel::for_device(&device);
        let model = IntervalModel::new(device.gpu);
        let k = suite::maxflops().kernels[0].clone();
        let mut g = CappedGovernor::new(BaselineGovernor::new(), &power, Watts(185.0));
        let clocks = |cfg: HwConfig| (cfg.compute.cu_count(), cfg.compute.freq().value());
        // The fully busy projection used before any observation.
        let first = g.decide(&k, 0);
        assert_eq!(clocks(first), (32, 600));
        let clean = model.simulate(first, &k, 0).counters;
        let mut glitched = clean;
        glitched.valu_busy_pct = f64::NAN;
        g.observe(&k, 0, first, &glitched);
        assert_eq!(
            g.decide(&k, 1),
            first,
            "a NaN sample must leave the projection as it was"
        );
        g.observe(&k, 1, first, &clean);
        assert_eq!(clocks(g.decide(&k, 2)), (32, 800));
    }

    #[test]
    fn post_clamp_grant_lands_in_the_ledger() {
        let power = PowerModel::hd7970();
        let mut handed = None;
        let k = suite::maxflops().kernels[0].clone();
        // A cap this tight forces a clamp below boost on the conservative
        // warm-up projection.
        let mut g = CappedGovernor::checked(
            |ledger| {
                handed = Some(ledger);
                BaselineGovernor::new()
            },
            &power,
            Watts(150.0),
        );
        let granted = g.decide(&k, 0);
        assert_ne!(granted, HwConfig::max_hd7970());
        let ledger = handed.expect("the clamp hands its ledger to the build");
        assert_eq!(ledger.granted(&k.name), Some(granted));
    }
}
