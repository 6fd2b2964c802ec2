//! Graceful-degradation ladder: stepwise fallback instead of the
//! watchdog's all-or-nothing park.
//!
//! The [`WatchdogGovernor`](super::WatchdogGovernor) answers every anomaly
//! streak the same way: pin the safe state and bypass the whole policy.
//! That throws away the CG/FG machinery even when a *partial* failure —
//! a flaky fine-grain probe, a stuck counter the sanitizer is already
//! holding — could be ridden out at reduced capability.
//! [`DegradeGovernor`] replaces the binary park with a [`Ladder`] of named
//! [`Rung`]s:
//!
//! ```text
//!   Full (CG + FG)  ──demote──▶  CG-only  ──▶  freq-only  ──▶  safe-state
//!        ◀──promote (hysteresis: `hold` consecutive clean intervals)──
//! ```
//!
//! Each demotion steps one rung down after
//! [`Ladder::DEMOTE_THRESHOLD`] consecutive anomalous intervals (the
//! terminal step into the safe state demands the longer
//! [`Ladder::SAFE_DEMOTE_THRESHOLD`] streak) and *doubles* the promotion
//! hold (exponential backoff, capped at [`Ladder::MAX_HOLD`]), so a
//! flapping fault settles onto a low rung instead of oscillating.
//! Promotion climbs one rung at a time and requires `hold` consecutive
//! clean intervals per step; a long clean streak at the top rung resets
//! the backoff. The thresholds and holds are the watchdog's, so a ladder
//! leaves full capability exactly when the parked watchdog would have
//! engaged. Anomalies are judged by the same counter check the watchdog
//! uses, widened with sanitizer-reject pressure (new rejects recorded into
//! the shared [`PolicyStats`] since the previous interval count as
//! anomalous — the sanitizer's escalation path lands here). The two
//! sources carry different weight ([`LadderSignal`]): a check verdict is
//! *harmful* and can demote any rung, while sanitizer pressure alone is
//! only *suspect* — it demotes the capability rungs (whose learning loops
//! would otherwise ingest substituted samples) but holds at
//! [`Rung::FreqOnly`] rather than taking the terminal park, because a fault
//! the sanitizer is already containing is no reason to surrender the last
//! knob.
//!
//! Rung residency, demotions, and promotions are exported through
//! [`PolicyStats`]; every shift emits [`TraceEvent::RungShift`], and the
//! safe-state boundary additionally emits the watchdog's
//! `FallbackEngaged`/`FallbackReleased` pair so existing safe-residency
//! accounting (chaos tables, trace summaries) reads the ladder's bottom
//! rung exactly like a parked watchdog.

use crate::governor::stack::{AnomalyCheck, DecisionLedger, PolicyStats};
use crate::governor::{Governor, Watchdog};
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds};

/// A named capability level of the degradation ladder, ordered from full
/// capability (index 0) to the pinned safe state (index 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Full Harmonia: coarse-grain + fine-grain tuning.
    Full,
    /// Coarse-grain tuning only; the (probe-heavy) FG loop is disabled.
    CgOnly,
    /// Compute-DVFS-only: CU frequency is the single remaining knob.
    FreqOnly,
    /// Pinned safe state (the device's low DPM clock on every CU, memory
    /// untouched).
    SafeState,
}

impl Rung {
    /// All rungs, top to bottom.
    pub const ALL: [Rung; 4] = [Rung::Full, Rung::CgOnly, Rung::FreqOnly, Rung::SafeState];

    /// Stable index into per-rung arrays ([`PolicyStats::rung_residency`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable rung name (trace events, reports).
    pub fn label(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::CgOnly => "cg-only",
            Rung::FreqOnly => "freq-only",
            Rung::SafeState => "safe-state",
        }
    }

    /// One rung down (toward the safe state); `None` at the bottom.
    pub fn down(self) -> Option<Rung> {
        match self {
            Rung::Full => Some(Rung::CgOnly),
            Rung::CgOnly => Some(Rung::FreqOnly),
            Rung::FreqOnly => Some(Rung::SafeState),
            Rung::SafeState => None,
        }
    }

    /// One rung up (toward full capability); `None` at the top.
    pub fn up(self) -> Option<Rung> {
        match self {
            Rung::Full => None,
            Rung::CgOnly => Some(Rung::Full),
            Rung::FreqOnly => Some(Rung::CgOnly),
            Rung::SafeState => Some(Rung::FreqOnly),
        }
    }
}

/// How bad one observation interval looked, from the ladder's point of
/// view.
///
/// The split matters at the terminal rung: a [`Suspect`](LadderSignal)
/// interval (the sanitizer substituted a lying sample, but the substitute
/// is plausible and the decision loop is still functioning) holds
/// [`Rung::FreqOnly`] in place — it earns no promotion credit, but it is
/// not evidence that the last remaining knob must be discarded. Only
/// [`Harmful`](LadderSignal) intervals (implausible counters, actuation
/// mismatch, performance collapse) grow the terminal-demotion streak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderSignal {
    /// Interval looked healthy.
    Clean,
    /// Telemetry was untrustworthy but already contained (sanitizer
    /// substitution); degraded rungs may still be demoted, the terminal
    /// park may not.
    Suspect,
    /// The current rung demonstrably failed to contain the fault.
    Harmful,
}

/// What one [`Ladder::tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderTransition {
    /// No rung change this interval.
    None,
    /// Stepped one rung down; `hold` clean intervals are now required
    /// before the first promotion back up.
    Demoted { from: Rung, to: Rung, hold: u64 },
    /// Stepped one rung up after the hold was served cleanly.
    Promoted { from: Rung, to: Rung },
}

/// The ladder state machine: anomaly streaks demote, clean streaks
/// promote, with hysteresis (promotion hold) and exponential backoff
/// (hold doubles per demotion). Pure state — the [`DegradeGovernor`]
/// wires it to checks, governors, and telemetry.
#[derive(Debug)]
pub struct Ladder {
    rung: Rung,
    /// Consecutive anomalous intervals at the current rung.
    streak: u32,
    /// Consecutive clean intervals at the current rung.
    clean: u64,
    /// Next demotion's promotion hold (doubles per demotion).
    hold: u64,
    /// Clean intervals required per promotion step, fixed at demotion
    /// time. A square-wave fault whose clean half-period is shorter than
    /// this can never promote — the non-oscillation property.
    required: u64,
    demotions: u64,
    promotions: u64,
}

/// A ladder at [`Rung::Full`] with fresh backoff.
impl Default for Ladder {
    fn default() -> Self {
        Self {
            rung: Rung::Full,
            streak: 0,
            clean: 0,
            hold: Self::BASE_HOLD,
            required: Self::BASE_HOLD,
            demotions: 0,
            promotions: 0,
        }
    }
}

impl Ladder {
    /// Consecutive anomalous intervals before demoting one rung: the
    /// watchdog's engagement threshold.
    pub const DEMOTE_THRESHOLD: u32 = Watchdog::THRESHOLD;
    /// Consecutive anomalous intervals before the *terminal* demotion
    /// ([`Rung::FreqOnly`] → [`Rung::SafeState`]). The park discards all
    /// remaining control authority, so it demands twice the streak of the
    /// intermediate steps — this is what keeps the ladder's safe-state
    /// residency strictly below a binary watchdog's under faults the
    /// degraded rungs can ride out.
    pub const SAFE_DEMOTE_THRESHOLD: u32 = 2 * Self::DEMOTE_THRESHOLD;
    /// Clean intervals required for the first promotion (doubles per
    /// demotion — exponential backoff): the watchdog's base hold.
    pub const BASE_HOLD: u64 = Watchdog::BASE_HOLD;
    /// Backoff ceiling for the promotion hold: the watchdog's.
    pub const MAX_HOLD: u64 = Watchdog::MAX_HOLD;
    /// Consecutive clean intervals at [`Rung::Full`] that reset the
    /// backoff to [`BASE_HOLD`](Self::BASE_HOLD): the watchdog's.
    pub const CLEAN_RESET: u64 = Watchdog::CLEAN_RESET;

    /// The current rung.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// Clean intervals currently required per promotion step.
    ///
    /// Reads `required`, not the `hold` field: `hold` is the *next*
    /// backoff value, fixed into `required` at demotion time.
    #[allow(clippy::misnamed_getters)]
    pub fn hold(&self) -> u64 {
        self.required
    }

    /// Total demotions so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Total promotions so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Advances one observation interval with the full three-valued
    /// signal. [`LadderSignal::Suspect`] behaves like
    /// [`LadderSignal::Harmful`] on every rung except [`Rung::FreqOnly`],
    /// where it freezes the ladder: the clean streak resets (no promotion
    /// on lying telemetry) but the demotion streak does not grow (no
    /// parking on contained noise).
    pub fn signal(&mut self, signal: LadderSignal) -> LadderTransition {
        match signal {
            LadderSignal::Clean => self.tick(false),
            LadderSignal::Harmful => self.tick(true),
            LadderSignal::Suspect => {
                if self.rung == Rung::FreqOnly {
                    self.clean = 0;
                    LadderTransition::None
                } else {
                    self.tick(true)
                }
            }
        }
    }

    /// Advances one observation interval with the binary signal
    /// (`anomalous` maps to [`LadderSignal::Harmful`]).
    pub fn tick(&mut self, anomalous: bool) -> LadderTransition {
        if anomalous {
            self.clean = 0;
            self.streak += 1;
            let threshold = if self.rung == Rung::FreqOnly {
                Self::SAFE_DEMOTE_THRESHOLD
            } else {
                Self::DEMOTE_THRESHOLD
            };
            if self.streak >= threshold {
                self.streak = 0;
                if let Some(to) = self.rung.down() {
                    let from = self.rung;
                    self.rung = to;
                    self.required = self.hold;
                    self.hold = (self.hold.saturating_mul(2)).min(Self::MAX_HOLD);
                    self.demotions += 1;
                    return LadderTransition::Demoted {
                        from,
                        to,
                        hold: self.required,
                    };
                }
            }
            return LadderTransition::None;
        }
        self.streak = 0;
        self.clean = self.clean.saturating_add(1);
        if self.rung == Rung::Full {
            if self.clean >= Self::CLEAN_RESET {
                self.hold = Self::BASE_HOLD;
            }
            return LadderTransition::None;
        }
        if self.clean >= self.required {
            let from = self.rung;
            let to = from.up().expect("below Full");
            self.rung = to;
            self.clean = 0;
            self.promotions += 1;
            return LadderTransition::Promoted { from, to };
        }
        LadderTransition::None
    }
}

/// The graceful-degradation decorator: routes decisions to the active
/// rung's governor and walks the [`Ladder`] on every observation.
pub struct DegradeGovernor<G> {
    full: G,
    cg: G,
    freq: G,
    safe: HwConfig,
    ladder: Ladder,
    check: AnomalyCheck<'static>,
    stats: PolicyStats,
    /// Sanitizer reject total at the previous observation, for the
    /// new-rejects-this-interval pressure signal.
    last_rejects: u64,
    trace: TraceHandle,
}

impl<G: Governor> DegradeGovernor<G> {
    /// A ladder stepping down from `full` through `cg` and `freq` to
    /// `safe`, the device's safe state. Its counter check judges achieved
    /// bandwidth against `max_bw_gbps`, the device's ceiling
    /// ([`max_bw_gbps_on`](crate::sanitize::max_bw_gbps_on)), and what ran
    /// against what the enclosing clamp granted (its `ledger`, see
    /// [`CappedGovernor::checked`](super::CappedGovernor::checked)).
    pub fn new(
        full: G,
        cg: G,
        freq: G,
        safe: HwConfig,
        max_bw_gbps: f64,
        ledger: DecisionLedger,
    ) -> Self {
        Self {
            full,
            cg,
            freq,
            safe,
            ladder: Ladder::default(),
            check: AnomalyCheck::counters(max_bw_gbps, Some(ledger)),
            stats: PolicyStats::new(),
            last_rejects: 0,
            trace: TraceHandle::disabled(),
        }
    }

    /// Shares `stats` so rung residency/demotions/promotions and fallback
    /// engagements are counted into an external handle.
    pub fn with_stats(mut self, stats: &PolicyStats) -> Self {
        self.stats = stats.clone();
        self
    }

    /// The governor owning the given rung, or `None` at the safe state.
    fn rung_governor(&mut self, rung: Rung) -> Option<&mut G> {
        match rung {
            Rung::Full => Some(&mut self.full),
            Rung::CgOnly => Some(&mut self.cg),
            Rung::FreqOnly => Some(&mut self.freq),
            Rung::SafeState => None,
        }
    }
}

impl<G: Governor> Governor for DegradeGovernor<G> {
    fn name(&self) -> &str {
        // Name-transparent to the Full-rung policy, like every other
        // decorator: reports keep the inner governor's identity.
        self.full.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.full.set_trace(trace.clone());
        self.cg.set_trace(trace.clone());
        self.freq.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        let safe = self.safe;
        match self.rung_governor(self.ladder.rung()) {
            Some(g) => g.decide(kernel, iteration),
            None => safe,
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
        match self.rung_governor(self.ladder.rung()) {
            Some(g) => g.condition(kernel, iteration, cfg, time, counters),
            None => (time, counters),
        }
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        let rung_before = self.ladder.rung();
        self.stats.count_rung_residency(rung_before.index());
        let engaged_before = rung_before == Rung::SafeState;
        let verdict = self.check.verdict(kernel, cfg, counters, engaged_before);
        // Sanitizer pressure: rejects recorded into the shared stats since
        // the last interval mean the conditioned sample we just saw was
        // (partly) substituted — the counters are lying even though the
        // substitute passes plausibility. That is *suspect* (the
        // substitution contained the damage), not *harmful*: it demotes the
        // capability rungs whose learning loops would ingest the
        // substitutes, but it can never justify the terminal park.
        let rejects = self.stats.sanitizer_rejects();
        let pressure = verdict.is_none() && rejects > self.last_rejects;
        self.last_rejects = rejects;
        let what = verdict.or(pressure.then_some("sanitizer pressure"));
        if let Some(what) = what {
            self.trace.emit(|| TraceEvent::FaultDetected {
                kernel: kernel.name.to_string(),
                iteration,
                what: what.to_string(),
            });
        }
        let signal = if verdict.is_some() {
            LadderSignal::Harmful
        } else if pressure {
            LadderSignal::Suspect
        } else {
            LadderSignal::Clean
        };
        match self.ladder.signal(signal) {
            LadderTransition::Demoted { from, to, hold } => {
                self.stats.count_rung_demotion();
                self.trace.emit(|| TraceEvent::RungShift {
                    kernel: kernel.name.to_string(),
                    iteration,
                    from: from.label().to_string(),
                    to: to.label().to_string(),
                    hold,
                });
                if to == Rung::SafeState {
                    // The bottom rung is the watchdog's park: reuse its
                    // event pair so safe-residency accounting is uniform.
                    self.stats.engage_fallback();
                    let safe = self.safe;
                    self.trace.emit(|| TraceEvent::FallbackEngaged {
                        kernel: kernel.name.to_string(),
                        iteration,
                        safe: safe.into(),
                        hold,
                    });
                }
            }
            LadderTransition::Promoted { from, to } => {
                self.stats.count_rung_promotion();
                self.trace.emit(|| TraceEvent::RungShift {
                    kernel: kernel.name.to_string(),
                    iteration,
                    from: from.label().to_string(),
                    to: to.label().to_string(),
                    hold: 0,
                });
                if from == Rung::SafeState {
                    self.stats.release_fallback();
                    self.trace.emit(|| TraceEvent::FallbackReleased {
                        kernel: kernel.name.to_string(),
                        iteration,
                    });
                }
            }
            LadderTransition::None => {}
        }
        // Quarantine exactly like the counter watchdog: anomalous samples
        // are garbage and safe-state samples were produced under the pin —
        // neither may reach any rung's learning loops.
        if engaged_before || what.is_some() {
            return;
        }
        // The sample was produced under `rung_before`'s decision: only
        // that rung's governor learns from it.
        if let Some(g) = self.rung_governor(rung_before) {
            g.observe(kernel, iteration, cfg, counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{BaselineGovernor, CappedGovernor};
    use crate::sanitize::DEFAULT_MAX_BW_GBPS;
    use harmonia_power::PowerModel;
    use harmonia_types::{DeviceSpec, Watts};

    fn ladder() -> Ladder {
        Ladder::default()
    }

    fn drive(l: &mut Ladder, anomalous: bool, n: u64) {
        for _ in 0..n {
            l.tick(anomalous);
        }
    }

    #[test]
    fn demotes_one_rung_per_threshold_streak() {
        let mut l = ladder();
        drive(&mut l, true, 2);
        assert_eq!(l.rung(), Rung::Full, "below threshold");
        assert_eq!(
            l.tick(true),
            LadderTransition::Demoted {
                from: Rung::Full,
                to: Rung::CgOnly,
                hold: 4
            }
        );
        drive(&mut l, true, 3);
        assert_eq!(l.rung(), Rung::FreqOnly);
        // The terminal park demands a doubled streak.
        drive(&mut l, true, 3);
        assert_eq!(l.rung(), Rung::FreqOnly, "below safe_demote_threshold");
        drive(&mut l, true, 3);
        assert_eq!(l.rung(), Rung::SafeState);
        // Bottom rung: further anomalies change nothing.
        drive(&mut l, true, 10);
        assert_eq!(l.rung(), Rung::SafeState);
        assert_eq!(l.demotions(), 3);
    }

    #[test]
    fn backoff_doubles_per_demotion_and_caps() {
        let mut l = ladder();
        drive(&mut l, true, 3);
        assert_eq!(l.hold(), 4);
        drive(&mut l, true, 3);
        assert_eq!(l.hold(), 8);
        drive(&mut l, true, 6); // terminal step: safe_demote_threshold
        assert_eq!(l.hold(), 16);
        // Climb back up, then demote repeatedly: the hold saturates.
        drive(&mut l, false, 16 + 16 + 16);
        assert_eq!(l.rung(), Rung::Full);
        for _ in 0..4 {
            drive(&mut l, true, 3);
        }
        assert_eq!(l.rung(), Rung::SafeState);
        assert_eq!(l.hold(), 64, "capped at max_hold");
    }

    #[test]
    fn suspect_pressure_never_takes_the_terminal_park() {
        let mut l = ladder();
        // Suspect intervals demote the capability rungs like harm does...
        for _ in 0..6 {
            l.signal(LadderSignal::Suspect);
        }
        assert_eq!(l.rung(), Rung::FreqOnly);
        // ...but at freq-only they hold: no amount of contained noise
        // surrenders the last knob, and no promotion credit accrues.
        for _ in 0..100 {
            assert_eq!(l.signal(LadderSignal::Suspect), LadderTransition::None);
        }
        assert_eq!(l.rung(), Rung::FreqOnly, "suspect never parks");
        assert_eq!(l.promotions(), 0);
        // Demonstrated harm still does, at the doubled terminal threshold.
        for _ in 0..6 {
            l.signal(LadderSignal::Harmful);
        }
        assert_eq!(l.rung(), Rung::SafeState);
    }

    #[test]
    fn suspect_blocks_promotion_without_growing_the_streak() {
        let mut l = ladder();
        drive(&mut l, true, 6); // -> FreqOnly, required hold 8
        assert_eq!(l.rung(), Rung::FreqOnly);
        // Alternate clean and suspect: the clean streak never reaches the
        // hold, so the rung neither promotes nor parks.
        for _ in 0..40 {
            l.signal(LadderSignal::Clean);
            l.signal(LadderSignal::Suspect);
        }
        assert_eq!(l.rung(), Rung::FreqOnly);
        assert_eq!(l.promotions(), 0, "suspect intervals reset promotion credit");
    }

    #[test]
    fn promotion_requires_full_hold_per_step() {
        let mut l = ladder();
        drive(&mut l, true, 6); // -> FreqOnly, required hold 8
        assert_eq!(l.rung(), Rung::FreqOnly);
        drive(&mut l, false, 7);
        assert_eq!(l.rung(), Rung::FreqOnly, "7 clean < hold 8");
        assert_eq!(
            l.tick(false),
            LadderTransition::Promoted {
                from: Rung::FreqOnly,
                to: Rung::CgOnly
            }
        );
        drive(&mut l, false, 8);
        assert_eq!(l.rung(), Rung::Full);
        assert_eq!(l.promotions(), 2);
    }

    #[test]
    fn clean_streak_at_full_resets_backoff() {
        let mut l = ladder();
        drive(&mut l, true, 6); // two demotions, hold now 8
        drive(&mut l, false, 16); // promote back to Full
        assert_eq!(l.rung(), Rung::Full);
        drive(&mut l, false, 16); // clean_reset at Full
        drive(&mut l, true, 3);
        assert_eq!(l.hold(), 4, "backoff reset to base_hold");
    }

    #[test]
    fn square_wave_never_oscillates_once_demoted() {
        // Fault pattern: 3 anomalous, 3 clean, repeating. The first burst
        // demotes (hold 4 > clean half-period 3), and no later clean burst
        // is ever long enough to promote.
        let mut l = ladder();
        let mut promoted = 0;
        for cycle in 0..50 {
            for _ in 0..3 {
                l.tick(true);
            }
            for _ in 0..3 {
                if matches!(l.tick(false), LadderTransition::Promoted { .. }) {
                    promoted += 1;
                }
            }
            assert!(l.rung() != Rung::Full, "cycle {cycle}: demoted for good");
        }
        assert_eq!(promoted, 0, "hysteresis holds against the square wave");
        // Bursts of 3 never reach the terminal threshold of 6, so the
        // flapping fault settles one rung above the park.
        assert_eq!(l.rung(), Rung::FreqOnly, "flapping settles off the floor");
    }

    #[test]
    fn degrade_governor_routes_decisions_by_rung() {
        let device = DeviceSpec::lookup("hd7970").expect("catalog device");
        let power = PowerModel::for_device(&device);
        let safe = device.safe_state();
        let stats = PolicyStats::new();
        // Under a clamp too generous to bind, which only hands the ladder
        // its ledger.
        let mut g = CappedGovernor::checked(
            |ledger| {
                let baseline = BaselineGovernor::new;
                let (full, cg, freq) = (baseline(), baseline(), baseline());
                DegradeGovernor::new(full, cg, freq, safe, DEFAULT_MAX_BW_GBPS, ledger)
                    .with_stats(&stats)
            },
            &power,
            Watts(1000.0),
        );
        let k = KernelProfile::builder("k").build();
        // A failed read: the timer ran, every dynamic counter is zero.
        let dead = CounterSample {
            duration: Seconds(0.01),
            ..CounterSample::default()
        };
        // Drive all the way down: 3 + 3 anomalies through the intermediate
        // rungs, then the doubled terminal streak of 6.
        for i in 0..12 {
            let cfg = g.decide(&k, i);
            g.observe(&k, i, cfg, &dead);
        }
        assert_eq!(g.decide(&k, 12), safe);
        assert_eq!(stats.rung_demotions(), 3);
        assert_eq!(stats.fallback_engagements(), 1, "bottom rung counts as park");
        let residency = stats.rung_residency();
        assert_eq!(residency[Rung::Full.index()], 3);
        assert_eq!(residency[Rung::CgOnly.index()], 3);
        assert_eq!(residency[Rung::FreqOnly.index()], 6);
    }
}
