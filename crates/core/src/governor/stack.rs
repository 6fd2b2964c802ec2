//! What the hardening decorators share, and the sanitizing decorator.
//!
//! A hardened stack is built from plain decorators, each a [`Governor`]
//! made by a constructor that takes its inner governor:
//! [`CappedGovernor`](super::CappedGovernor) (the cap clamp),
//! [`WatchdogGovernor`](super::WatchdogGovernor) (safe-state fallback),
//! [`DegradeGovernor`](super::DegradeGovernor) (the degradation ladder) and
//! [`SanitizeGovernor`] (counter sanitization through the
//! [`Governor::condition`] hook, so the *conditioned* measurement feeds the
//! runtime's power accounting). Decorators are name-transparent (`name()`
//! forwards inward), so report and trace bytes name the policy, not its
//! hardening. Named stacks are assembled by the
//! [`PolicySpec`](super::PolicySpec) registry.
//!
//! The decorators share three things:
//!
//! * the anomaly check a watchdog or the ladder runs, one of a closed set
//!   of two: counter plausibility or the power envelope;
//! * [`DecisionLedger`] — the per-kernel configuration the cap clamp
//!   granted. The clamp is its only writer, and it hands the ledger to the
//!   checks it wraps ([`CappedGovernor::checked`](super::CappedGovernor::checked)):
//!   a check verifies actuation exactly when it holds that ledger;
//! * [`PolicyStats`] — cloneable atomic counters (cap violations,
//!   violations while parked, fallback engagements, sanitizer rejects,
//!   ladder rung residency and shifts), one allocation per stack, that
//!   stay readable after the stack is boxed into a `dyn Governor`.

use crate::governor::{Governor, KernelMap};
use crate::runtime::activity_of;
use crate::sanitize::{self, CounterSanitizer};
use crate::telemetry::TraceHandle;
use harmonia_power::PowerModel;
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds, Watts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A boxed dynamic governor: what the registry builds.
pub type BoxGovernor<'a> = Box<dyn Governor + 'a>;

// ---------------------------------------------------------------------------
// Shared stack state
// ---------------------------------------------------------------------------

/// Cloneable handle to the per-kernel configuration the cap clamp granted
/// (post-clamp). Only a [`CappedGovernor`](super::CappedGovernor) makes
/// one and writes it, and it hands it to the checks it wraps, so an
/// actuation check deeper in the stack compares against what was actually
/// granted.
#[derive(Debug, Clone)]
pub struct DecisionLedger {
    inner: Arc<Mutex<KernelMap<HwConfig>>>,
}

impl DecisionLedger {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Self {
            inner: Arc::default(),
        }
    }

    /// Records `cfg` as the granted configuration for `kernel`.
    pub(crate) fn grant(&self, kernel: &str, cfg: HwConfig) {
        *self
            .inner
            .lock()
            .expect("ledger poisoned")
            .slot(kernel, || cfg) = cfg;
    }

    /// The most recently granted configuration for `kernel`.
    pub(crate) fn granted(&self, kernel: &str) -> Option<HwConfig> {
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
    /// Safe-state parks engaged right now: either watchdog's fallback or
    /// the ladder's safe rung.
    parked: AtomicU64,
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

    /// Cap violations observed while the stack was parked at its safe
    /// state: either watchdog's fallback or the ladder's safe rung engaged.
    pub fn violations_while_fallback(&self) -> u64 {
        self.counters
            .violations_while_fallback
            .load(Ordering::Relaxed)
    }

    /// Total safe-state fallback engagements across the stack's watchdogs
    /// and the ladder's safe rung.
    pub fn fallback_engagements(&self) -> u64 {
        self.counters.fallback_engagements.load(Ordering::Relaxed)
    }

    /// Total counter readings rejected and substituted by the sanitizer.
    pub fn sanitizer_rejects(&self) -> u64 {
        self.counters.sanitizer_rejects.load(Ordering::Relaxed)
    }

    /// Observation intervals spent on each ladder rung, indexed by
    /// `Rung::index()`. All zero for stacks without a
    /// [`DegradeGovernor`](super::DegradeGovernor).
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

    /// Counts one cap violation, and one while parked if a park is engaged.
    /// The clamp calls it before the parks below it observe the interval,
    /// so a park counts from the interval after it engaged.
    pub(crate) fn count_cap_violation(&self) {
        self.counters.cap_violations.fetch_add(1, Ordering::Relaxed);
        if self.counters.parked.load(Ordering::Relaxed) > 0 {
            self.counters
                .violations_while_fallback
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A park engaged: counts the engagement and holds the stack parked
    /// until the matching [`release_fallback`](Self::release_fallback).
    pub(crate) fn engage_fallback(&self) {
        self.counters
            .fallback_engagements
            .fetch_add(1, Ordering::Relaxed);
        self.counters.parked.fetch_add(1, Ordering::Relaxed);
    }

    /// A park released.
    pub(crate) fn release_fallback(&self) {
        self.counters.parked.fetch_sub(1, Ordering::Relaxed);
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

/// Throughput-collapse ratio of the counter check: an interval whose VALU
/// rate falls below this fraction of the kernel's best clean rate is
/// anomalous.
const COLLAPSE_RATIO: f64 = 0.02;

/// What a watchdog or the ladder judges anomalous: one of two checks. The
/// decorator owns the state machine and the transition telemetry; the
/// check owns the domain judgement. A check holding the enclosing clamp's
/// ledger also flags an interval that ran at another configuration than
/// the clamp granted ("actuation mismatch").
pub(crate) enum AnomalyCheck<'a> {
    /// Counter plausibility: implausible or dead samples and throughput
    /// collapse relative to the kernel's best clean rate. Quarantines.
    Counters {
        /// Achieved-bandwidth ceiling (GB/s) of the plausibility check.
        max_bw_gbps: f64,
        /// Best clean VALU rate per kernel, for the collapse check.
        peak_rate: KernelMap<f64>,
        ledger: Option<DecisionLedger>,
    },
    /// Power envelope: projected card power over the cap (with the 5%
    /// enforcement tolerance). Does not quarantine — the inner policy keeps
    /// learning so it can steer back under the envelope.
    Cap {
        power: &'a PowerModel,
        cap: Watts,
        ledger: DecisionLedger,
    },
}

impl AnomalyCheck<'_> {
    /// The counter check with no throughput history yet.
    pub(crate) fn counters(max_bw_gbps: f64, ledger: Option<DecisionLedger>) -> Self {
        Self::Counters {
            max_bw_gbps,
            peak_rate: KernelMap::default(),
            ledger,
        }
    }

    /// Judges one observation interval. Returns the anomaly label to report
    /// via `TraceEvent::FaultDetected`, or `None` for a clean interval.
    ///
    /// `engaged_before` is whether the decorator was already parked when the
    /// interval was observed: a parked interval teaches the counter check no
    /// peak rate and is not checked for actuation.
    pub(crate) fn verdict(
        &mut self,
        kernel: &KernelProfile,
        cfg: HwConfig,
        counters: &CounterSample,
        engaged_before: bool,
    ) -> Option<&'static str> {
        let mismatch = |ledger: Option<&DecisionLedger>| {
            !engaged_before
                && ledger
                    .and_then(|l| l.granted(&kernel.name))
                    .is_some_and(|g| g != cfg)
        };
        match self {
            Self::Counters {
                max_bw_gbps,
                peak_rate,
                ledger,
            } => {
                let rate_now = if counters.duration.value() > 0.0 {
                    counters.valu_insts as f64 / counters.duration.value()
                } else {
                    0.0
                };
                let peak = peak_rate.get(&kernel.name).copied().unwrap_or(0.0);
                let what = if !sanitize::counters_plausible(counters, *max_bw_gbps) {
                    Some("implausible counters")
                } else if sanitize::dead_sample(counters) {
                    Some("dead counter sample")
                } else if peak > 0.0 && rate_now < COLLAPSE_RATIO * peak {
                    Some("throughput collapse")
                } else if mismatch(ledger.as_ref()) {
                    Some("actuation mismatch")
                } else {
                    None
                };
                if what.is_none() && !engaged_before && rate_now.is_finite() && rate_now > peak {
                    *peak_rate.slot(&kernel.name, || rate_now) = rate_now;
                }
                what
            }
            Self::Cap { power, cap, ledger } => {
                // NaN projections (glitched telemetry) fail the comparison
                // and are not counted — the counter watchdog catches
                // implausible samples.
                if power.card_pwr(cfg, &activity_of(counters)).value() > cap.value() * 1.05 {
                    Some("cap violation")
                } else if mismatch(Some(ledger)) {
                    Some("actuation mismatch")
                } else {
                    None
                }
            }
        }
    }

    /// Whether anomalous (or fallback-tainted) samples must be withheld
    /// from the inner governor's learning loops. Counter anomalies
    /// quarantine — the sample is garbage or was produced under the pinned
    /// safe state; cap violations do not — the inner policy must keep
    /// learning from real counters to steer back under the envelope.
    pub(crate) fn quarantines(&self) -> bool {
        matches!(self, Self::Counters { .. })
    }
}

// ---------------------------------------------------------------------------
// SanitizeGovernor
// ---------------------------------------------------------------------------

/// The counter-sanitization decorator: every raw measurement is
/// finite/range-checked, outlier-filtered, and substituted from the last
/// good reading *before* the runtime accounts power/energy from it and
/// before any inner governor observes it (the [`Governor::condition`]
/// hook).
pub struct SanitizeGovernor<'a, G> {
    inner: G,
    sanitizer: CounterSanitizer<'a>,
    stats: PolicyStats,
    trace: TraceHandle,
}

impl<'a, G: Governor> SanitizeGovernor<'a, G> {
    /// Sanitizes `inner`'s measurements against `max_bw_gbps`, the
    /// device's achieved-bandwidth ceiling
    /// ([`max_bw_gbps_on`](crate::sanitize::max_bw_gbps_on)).
    pub fn new(inner: G, max_bw_gbps: f64) -> Self {
        Self {
            inner,
            sanitizer: CounterSanitizer::new(max_bw_gbps),
            stats: PolicyStats::new(),
            trace: TraceHandle::disabled(),
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
        self.sanitizer = self.sanitizer.with_power(power);
        self
    }
}

impl<G: Governor> Governor for SanitizeGovernor<'_, G> {
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
    fn sanitize_governor_conditions_measurements() {
        let mut g = SanitizeGovernor::new(BaselineGovernor::new(), sanitize::DEFAULT_MAX_BW_GBPS);
        assert_eq!(g.name(), "baseline", "name-transparent");
        let k = kernel();
        let cfg = HwConfig::max_hd7970();
        let (t, c) = g.condition(&k, 0, cfg, Seconds(0.01), clean());
        assert_eq!(t, Seconds(0.01));
        assert_eq!(c, clean());
        let (_, c) = g.condition(&k, 1, cfg, Seconds(0.01), garbage());
        assert!(c.valu_busy_pct.is_finite(), "NaN must not pass the sanitizer");
    }

    #[test]
    fn sanitize_governor_reports_rejects_through_stats() {
        let stats = PolicyStats::new();
        let mut g = SanitizeGovernor::new(BaselineGovernor::new(), sanitize::DEFAULT_MAX_BW_GBPS)
            .with_stats(&stats);
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
        let floor = HwConfig::min_hd7970();
        ledger.grant("k", floor);
        assert_eq!(ledger.granted("k"), Some(floor));
    }
}
