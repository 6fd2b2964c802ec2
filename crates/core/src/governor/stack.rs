//! Composable governor middleware: tower-style decorator layers over
//! `dyn Governor`.
//!
//! Cross-cutting hardening used to live *inside* the governors — both
//! [`HarmoniaGovernor`](super::HarmoniaGovernor) and
//! [`CappedGovernor`](super::CappedGovernor) carried an `Option<Watchdog>`
//! with copy-pasted transition handling, and counter sanitization was bolted
//! onto the runtime. This module extracts those concerns into
//! [`GovernorLayer`] decorators that wrap any [`Governor`] and compose
//! freely:
//!
//! * [`WatchdogLayer`] — the safe-state fallback state machine
//!   ([`Watchdog`]), written once. What counts as anomalous is pluggable
//!   via [`AnomalyCheck`]: [`CounterCheck`] judges counter plausibility and
//!   throughput collapse, [`CapCheck`] judges power-cap violations.
//! * [`SanitizeLayer`] — per-kernel counter sanitization
//!   ([`CounterSanitizer`]), applied through the
//!   [`Governor::condition`] hook so the *conditioned* measurement feeds
//!   the runtime's power accounting exactly where the old
//!   `Runtime::with_sanitizer` stage ran.
//!
//! Layers are name-transparent (`name()` forwards inward) so report and
//! trace bytes do not change when a stack replaces a hand-hardened
//! governor. Named stacks are assembled by the
//! [`PolicySpec`](super::PolicySpec) registry.
//!
//! Two pieces of shared state thread through a stack:
//!
//! * [`DecisionLedger`] — the per-kernel *granted* configuration, written
//!   by whichever layer decided last (the outermost cap decorator
//!   overwrites the watchdog's pre-clamp decision), read by actuation
//!   checks.
//! * [`PolicyStats`] — cloneable atomic counters (cap violations,
//!   violations while parked, fallback engagements, sanitizer rejects,
//!   ladder rung residency and shifts), one allocation per stack, that
//!   stay readable after the stack is boxed into a `dyn Governor`.

use crate::governor::watchdog::{CheckConfig, Watchdog, WatchdogConfig, WatchdogTransition};
use crate::governor::{Governor, KernelMap};
use crate::sanitize::{self, CounterSanitizer, SanitizerConfig};
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds, Watts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A boxed dynamic governor — the currency [`GovernorLayer`]s trade in.
pub type BoxGovernor<'a> = Box<dyn Governor + 'a>;

/// A middleware blueprint: consumes an inner governor and returns the
/// decorated stack. Mirrors tower's `Layer<S>`, specialized to boxed
/// governors so heterogeneous stacks compose without generic bloat.
pub trait GovernorLayer<'a> {
    /// Wraps `inner` in this layer's decorator.
    fn layer(self, inner: BoxGovernor<'a>) -> BoxGovernor<'a>;
}

// ---------------------------------------------------------------------------
// Shared stack state
// ---------------------------------------------------------------------------

/// Cloneable handle to the per-kernel *granted* (post-decision, post-clamp)
/// configuration. Every decorator that decides writes its output here, so
/// the outermost writer — the cap clamp, when present — wins, and actuation
/// checks deeper in the stack compare against what was actually granted.
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    inner: Arc<Mutex<KernelMap<HwConfig>>>,
}

impl DecisionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `cfg` as the granted configuration for `kernel`.
    pub fn grant(&self, kernel: &str, cfg: HwConfig) {
        *self
            .inner
            .lock()
            .expect("ledger poisoned")
            .slot(kernel, || cfg) = cfg;
    }

    /// The most recently granted configuration for `kernel`.
    pub fn granted(&self, kernel: &str) -> Option<HwConfig> {
        self.inner.lock().expect("ledger poisoned").get(kernel).copied()
    }
}

/// Cloneable atomic counters exposing a stack's hardening activity after it
/// has been boxed into a `dyn Governor`. All handles cloned from one
/// `PolicyStats` share the same counters, which live in one allocation.
#[derive(Debug, Clone, Default)]
pub struct PolicyStats {
    counters: Arc<Counters>,
}

/// The counters behind a [`PolicyStats`] handle.
#[derive(Debug, Default)]
struct Counters {
    cap_violations: AtomicU64,
    violations_while_fallback: AtomicU64,
    fallback_engagements: AtomicU64,
    sanitizer_rejects: AtomicU64,
    /// Observation intervals spent on each degradation-ladder rung, indexed
    /// by `Rung::index()` (full / cg-only / freq-only / safe-state).
    rung_residency: [AtomicU64; 4],
    rung_demotions: AtomicU64,
    rung_promotions: AtomicU64,
}

impl PolicyStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observed intervals whose projected card power exceeded the cap
    /// (5% enforcement tolerance), fallback engaged or not.
    pub fn cap_violations(&self) -> u64 {
        self.counters.cap_violations.load(Ordering::Relaxed)
    }

    /// Cap violations observed while safe-state fallback was engaged.
    pub fn violations_while_fallback(&self) -> u64 {
        self.counters
            .violations_while_fallback
            .load(Ordering::Relaxed)
    }

    /// Total safe-state fallback engagements across all watchdog layers.
    pub fn fallback_engagements(&self) -> u64 {
        self.counters.fallback_engagements.load(Ordering::Relaxed)
    }

    /// Total counter readings rejected and substituted by sanitize layers.
    pub fn sanitizer_rejects(&self) -> u64 {
        self.counters.sanitizer_rejects.load(Ordering::Relaxed)
    }

    /// Observation intervals spent on each ladder rung, indexed by
    /// `Rung::index()`. All zero for stacks without a
    /// [`DegradeLayer`](super::DegradeLayer).
    pub fn rung_residency(&self) -> [u64; 4] {
        self.counters
            .rung_residency
            .each_ref()
            .map(|n| n.load(Ordering::Relaxed))
    }

    /// Total ladder demotions (one rung down each).
    pub fn rung_demotions(&self) -> u64 {
        self.counters.rung_demotions.load(Ordering::Relaxed)
    }

    /// Total ladder promotions (one rung up each).
    pub fn rung_promotions(&self) -> u64 {
        self.counters.rung_promotions.load(Ordering::Relaxed)
    }

    pub(crate) fn count_cap_violation(&self) {
        self.counters.cap_violations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_violation_while_fallback(&self) {
        self.counters
            .violations_while_fallback
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_fallback_engagement(&self) {
        self.counters
            .fallback_engagements
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_sanitizer_rejects(&self, total: u64) {
        self.counters
            .sanitizer_rejects
            .store(total, Ordering::Relaxed);
    }

    pub(crate) fn count_rung_residency(&self, index: usize) {
        self.counters.rung_residency[index].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_rung_demotion(&self) {
        self.counters.rung_demotions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_rung_promotion(&self) {
        self.counters
            .rung_promotions
            .fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Anomaly checks
// ---------------------------------------------------------------------------

/// The pluggable "what counts as anomalous" half of a [`WatchdogLayer`].
/// The layer owns the [`Watchdog`] state machine and transition telemetry;
/// the check owns the domain judgement.
pub trait AnomalyCheck {
    /// Judges one observation interval. Returns the anomaly label to report
    /// via [`TraceEvent::FaultDetected`], or `None` for a clean interval.
    ///
    /// `granted` is the ledger's post-decision configuration for the kernel
    /// (for actuation-mismatch checks) and `engaged_before` whether
    /// fallback was already engaged when the interval was observed —
    /// checks that learn from clean intervals (peak-rate tracking) or gate
    /// on actuation must respect it.
    fn verdict(
        &mut self,
        kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        config: &CheckConfig,
        granted: Option<HwConfig>,
        engaged_before: bool,
    ) -> Option<&'static str>;

    /// Whether anomalous (or fallback-tainted) samples must be withheld
    /// from the inner governor's learning loops. Counter anomalies
    /// quarantine — the sample is garbage or was produced under the pinned
    /// safe state; cap violations do not — the inner policy must keep
    /// learning from real counters to steer back under the envelope.
    fn quarantines(&self) -> bool;
}

/// Counter-plausibility anomaly check: implausible or dead samples and
/// throughput collapse relative to the kernel's best clean rate, plus an
/// optional granted-vs-ran actuation check. Quarantines.
#[derive(Debug, Default)]
pub struct CounterCheck {
    /// Best clean VALU rate per kernel, for the collapse check.
    peak_rate: KernelMap<f64>,
}

impl CounterCheck {
    /// A check with no throughput history yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnomalyCheck for CounterCheck {
    fn verdict(
        &mut self,
        kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        config: &CheckConfig,
        granted: Option<HwConfig>,
        engaged_before: bool,
    ) -> Option<&'static str> {
        let rate_now = if counters.duration.value() > 0.0 {
            counters.valu_insts as f64 / counters.duration.value()
        } else {
            0.0
        };
        let peak = self.peak_rate.get(&kernel.name).copied().unwrap_or(0.0);
        let plausible = sanitize::counters_plausible(counters, config.max_bw_gbps);
        let what: Option<&'static str> = if !plausible {
            Some("implausible counters")
        } else if sanitize::dead_sample(counters) {
            Some("dead counter sample")
        } else if config.collapse_ratio > 0.0
            && peak > 0.0
            && rate_now < config.collapse_ratio * peak
        {
            Some("throughput collapse")
        } else if config.check_actuation
            && !engaged_before
            && granted.is_some_and(|g| g != cfg)
        {
            Some("actuation mismatch")
        } else {
            None
        };
        if what.is_none() && !engaged_before && rate_now.is_finite() && rate_now > peak {
            *self.peak_rate.slot(&kernel.name, || rate_now) = rate_now;
        }
        what
    }

    fn quarantines(&self) -> bool {
        true
    }
}

/// Power-envelope anomaly check: projected card power over the cap (with
/// the 5% enforcement tolerance), plus an optional granted-vs-ran actuation
/// check. Does not quarantine — the inner policy keeps learning so it can
/// steer back under the envelope.
pub struct CapCheck<'a> {
    power: &'a PowerModel,
    cap: Watts,
    stats: PolicyStats,
}

impl<'a> CapCheck<'a> {
    /// A check enforcing `cap` under `power`'s projection, accounting
    /// violations-while-parked into `stats`.
    pub fn new(power: &'a PowerModel, cap: Watts, stats: PolicyStats) -> Self {
        Self { power, cap, stats }
    }
}

impl AnomalyCheck for CapCheck<'_> {
    fn verdict(
        &mut self,
        _kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        config: &CheckConfig,
        granted: Option<HwConfig>,
        engaged_before: bool,
    ) -> Option<&'static str> {
        let activity = Activity {
            valu_activity: counters.valu_activity(),
            dram_bytes_per_sec: counters.dram_bytes_per_sec(),
            dram_traffic_fraction: counters.ic_activity,
        };
        // NaN projections (glitched telemetry) fail the comparison and are
        // not counted — the counter watchdog catches implausible samples.
        let over = self.power.card_pwr(cfg, &activity).value() > self.cap.value() * 1.05;
        if over {
            if engaged_before {
                self.stats.count_violation_while_fallback();
            }
            Some("cap violation")
        } else if config.check_actuation
            && !engaged_before
            && granted.is_some_and(|g| g != cfg)
        {
            Some("actuation mismatch")
        } else {
            None
        }
    }

    fn quarantines(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// WatchdogLayer
// ---------------------------------------------------------------------------

/// Blueprint for the safe-state fallback decorator: one [`Watchdog`] state
/// machine plus a pluggable [`AnomalyCheck`]. While engaged, decisions pin
/// to the safe state and the inner governor's `decide` is bypassed;
/// quarantining checks also withhold tainted samples from the inner
/// governor's learning loops.
pub struct WatchdogLayer<'a> {
    config: WatchdogConfig,
    check: Box<dyn AnomalyCheck + 'a>,
    ledger: DecisionLedger,
    stats: PolicyStats,
}

impl<'a> WatchdogLayer<'a> {
    /// A watchdog judging anomalies with `check`.
    pub fn with_check(config: WatchdogConfig, check: Box<dyn AnomalyCheck + 'a>) -> Self {
        Self {
            config,
            check,
            ledger: DecisionLedger::new(),
            stats: PolicyStats::new(),
        }
    }

    /// The counter-plausibility watchdog ([`CounterCheck`]): implausible
    /// counters, dead samples, and throughput collapses count as anomalous
    /// intervals, and suspect samples never reach the inner learning loops.
    pub fn counters(config: WatchdogConfig) -> Self {
        Self::with_check(config, Box::new(CounterCheck::new()))
    }

    /// The power-envelope watchdog ([`CapCheck`]): cap-violation streaks
    /// and granted-vs-ran actuation mismatches count as anomalous
    /// intervals; the inner governor still observes every sample.
    pub fn cap(config: WatchdogConfig, power: &'a PowerModel, cap: Watts, stats: &PolicyStats) -> Self {
        Self::with_check(config, Box::new(CapCheck::new(power, cap, stats.clone())))
            .with_stats(stats)
    }

    /// Shares `stats` so fallback engagements are counted into an external
    /// handle (registry-built stacks report through
    /// [`Policy::stats`](super::Policy)).
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }

    /// The ledger this layer's decisions are recorded in. Hand it to an
    /// outer [`CappedGovernor`](super::CappedGovernor) (via `with_ledger`)
    /// so the post-clamp grant overwrites the pre-clamp decision and the
    /// actuation check compares against what was actually granted.
    pub fn ledger(&self) -> DecisionLedger {
        self.ledger.clone()
    }
}

impl<'a> GovernorLayer<'a> for WatchdogLayer<'a> {
    fn layer(self, inner: BoxGovernor<'a>) -> BoxGovernor<'a> {
        Box::new(WatchdogGovernor {
            inner,
            watchdog: Watchdog::new(self.config),
            check: self.check,
            ledger: self.ledger,
            stats: self.stats,
            trace: TraceHandle::disabled(),
        })
    }
}

/// The decorator produced by [`WatchdogLayer`].
struct WatchdogGovernor<'a> {
    inner: BoxGovernor<'a>,
    watchdog: Watchdog,
    check: Box<dyn AnomalyCheck + 'a>,
    ledger: DecisionLedger,
    stats: PolicyStats,
    trace: TraceHandle,
}

impl Governor for WatchdogGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        // While fallback is engaged the inner policy is bypassed entirely.
        let cfg = if self.watchdog.engaged() {
            self.watchdog.safe()
        } else {
            self.inner.decide(kernel, iteration)
        };
        self.ledger.grant(&kernel.name, cfg);
        cfg
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
        let granted = self.ledger.granted(&kernel.name);
        let what = self.check.verdict(
            kernel,
            cfg,
            counters,
            &self.watchdog.config().check,
            granted,
            engaged_before,
        );
        if let Some(what) = what {
            self.trace.emit(|| TraceEvent::FaultDetected {
                kernel: kernel.name.to_string(),
                iteration,
                what: what.to_string(),
            });
        }
        match self.watchdog.tick(what.is_some()) {
            WatchdogTransition::Engaged => {
                self.stats.count_fallback_engagement();
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

// ---------------------------------------------------------------------------
// SanitizeLayer
// ---------------------------------------------------------------------------

/// Blueprint for the counter-sanitization decorator: every raw measurement
/// is finite/range-checked, outlier-filtered, and substituted from the last
/// good reading *before* the runtime accounts power/energy from it and
/// before any inner governor observes it (the [`Governor::condition`]
/// hook).
#[derive(Debug, Clone, Default)]
pub struct SanitizeLayer<'a> {
    config: SanitizerConfig,
    stats: PolicyStats,
    power: Option<&'a PowerModel>,
}

impl<'a> SanitizeLayer<'a> {
    /// A sanitize layer with the given tuning.
    pub fn new(config: SanitizerConfig) -> Self {
        Self {
            config,
            stats: PolicyStats::new(),
            power: None,
        }
    }

    /// Shares `stats` so rejects are counted into an external handle.
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }

    /// Arms the sanitizer's power-aware plausibility check (see
    /// [`CounterSanitizer::with_power`]).
    pub fn with_power(mut self, power: &'a PowerModel) -> Self {
        self.power = Some(power);
        self
    }
}

impl<'a> GovernorLayer<'a> for SanitizeLayer<'a> {
    fn layer(self, inner: BoxGovernor<'a>) -> BoxGovernor<'a> {
        let mut sanitizer = CounterSanitizer::new(self.config);
        if let Some(power) = self.power {
            sanitizer = sanitizer.with_power(power);
        }
        Box::new(SanitizeGovernor {
            inner,
            sanitizer,
            stats: self.stats,
            trace: TraceHandle::disabled(),
        })
    }
}

/// The decorator produced by [`SanitizeLayer`].
struct SanitizeGovernor<'a> {
    inner: BoxGovernor<'a>,
    sanitizer: CounterSanitizer<'a>,
    stats: PolicyStats,
    trace: TraceHandle,
}

impl Governor for SanitizeGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        self.inner.decide(kernel, iteration)
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        let (time, counters) =
            self.sanitizer
                .sanitize(&kernel.name, iteration, cfg, time, counters, &self.trace);
        self.stats.record_sanitizer_rejects(self.sanitizer.rejects());
        self.inner.condition(kernel, iteration, cfg, time, counters)
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        self.inner.observe(kernel, iteration, cfg, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::BaselineGovernor;

    fn kernel() -> KernelProfile {
        KernelProfile::builder("k").build()
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
    fn watchdog_layer_engages_after_threshold_and_pins_safe_state() {
        let stats = PolicyStats::new();
        let mut g = WatchdogLayer::counters(WatchdogConfig::default())
            .with_stats(&stats)
            .layer(Box::new(BaselineGovernor::new()));
        let k = kernel();
        let boost = HwConfig::max_hd7970();
        for i in 0..3 {
            assert_eq!(g.decide(&k, i), boost);
            g.observe(&k, i, boost, &garbage());
        }
        assert_eq!(stats.fallback_engagements(), 1);
        assert_eq!(g.decide(&k, 3), crate::governor::safe_state());
        // base_hold = 4: the hold runs out after four engaged intervals.
        for i in 3..7 {
            let cfg = g.decide(&k, i);
            g.observe(&k, i, cfg, &clean());
        }
        assert_eq!(g.decide(&k, 7), boost, "released after the hold expires");
    }

    #[test]
    fn watchdog_layer_is_name_transparent() {
        let g = WatchdogLayer::counters(WatchdogConfig::default())
            .layer(Box::new(BaselineGovernor::new()));
        assert_eq!(g.name(), "baseline");
    }

    #[test]
    fn sanitize_layer_conditions_measurements() {
        let mut g = SanitizeLayer::new(SanitizerConfig::default())
            .layer(Box::new(BaselineGovernor::new()));
        let k = kernel();
        let cfg = HwConfig::max_hd7970();
        let (t, c) = g.condition(&k, 0, cfg, Seconds(0.01), clean());
        assert_eq!(t, Seconds(0.01));
        assert_eq!(c, clean());
        let (_, c) = g.condition(&k, 1, cfg, Seconds(0.01), garbage());
        assert!(c.valu_busy_pct.is_finite(), "NaN must not pass the layer");
    }

    #[test]
    fn sanitize_layer_reports_rejects_through_stats() {
        let stats = PolicyStats::new();
        let mut g = SanitizeLayer::new(SanitizerConfig::default())
            .with_stats(&stats)
            .layer(Box::new(BaselineGovernor::new()));
        let k = kernel();
        let cfg = HwConfig::max_hd7970();
        g.condition(&k, 0, cfg, Seconds(0.01), clean());
        assert_eq!(stats.sanitizer_rejects(), 0);
        g.condition(&k, 1, cfg, Seconds(0.01), garbage());
        assert!(stats.sanitizer_rejects() > 0);
    }

    #[test]
    fn ledger_records_latest_grant() {
        let ledger = DecisionLedger::new();
        assert_eq!(ledger.granted("k"), None);
        let boost = HwConfig::max_hd7970();
        ledger.grant("k", boost);
        assert_eq!(ledger.granted("k"), Some(boost));
        let safe = crate::governor::safe_state();
        ledger.grant("k", safe);
        assert_eq!(ledger.granted("k"), Some(safe));
    }
}
