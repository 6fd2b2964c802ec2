//! The monitoring/decision runtime (Section 5.1).
//!
//! [`Runtime::run`] executes an [`Application`] under a [`Governor`]: for
//! every kernel invocation it asks the governor for a configuration, runs
//! the timing model, evaluates the power model over the resulting activity,
//! accumulates energy and time, and feeds the counters back to the
//! governor — the paper's monitoring block operating at kernel boundaries.
//!
//! The returned [`RunReport`] is aggregate-only. Per-invocation records
//! live in the streams a run can write: the decision trace
//! (`KernelStart`/`KernelEnd`, when a [`TraceHandle`] is enabled) and the
//! session trace (`Decision`/`Sample`, when a [`Recorder`] is attached).
//! Residency and per-invocation views are derived from the decision trace
//! ([`telemetry::summarize`](crate::telemetry::summarize)).

use crate::governor::Governor;
use crate::metrics::{KernelReport, RunReport};
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel, PowerTrace};
use harmonia_rr::{Actuation, Recorder, Replayer, SessionEvent};
use harmonia_sim::faults::{ActuationOutcome, FaultKind, FaultPlan};
use harmonia_sim::{CounterSample, TimingModel};
use harmonia_types::{HwConfig, Joules, Seconds, Session};
use harmonia_workloads::Application;

/// DAQ sampling rate for the telemetry power trace (the paper's 1 kHz).
const POWER_SAMPLE_HZ: f64 = 1000.0;

/// The power model's input for one counter sample: VALU activity, DRAM
/// bytes per second, and the interconnect activity as the DRAM traffic
/// fraction. Every projection from counters to watts converts through
/// here.
#[inline]
pub fn activity_of(counters: &CounterSample) -> Activity {
    Activity {
        valu_activity: counters.valu_activity(),
        dram_bytes_per_sec: counters.dram_bytes_per_sec(),
        dram_traffic_fraction: counters.ic_activity,
    }
}

/// Retry/backoff policy for the reliable-actuation shim
/// ([`Runtime::with_actuator`]).
///
/// Transient DPM faults (denied or delayed DVFS requests) are retried with
/// exponential backoff: retry *k* (1-based) waits `base_backoff_us << (k-1)`
/// virtual microseconds. The shim times out when either the retry count or
/// the cumulative backoff budget is exhausted, holding the last-known-good
/// configuration. The backoff delays are bookkeeping for the timeout
/// budget, not simulated time — DPM transition latency sits far below the
/// kernel-boundary granularity the runtime models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in virtual microseconds.
    pub base_backoff_us: u64,
    /// Cumulative backoff budget; exceeding it is a timeout.
    pub timeout_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff_us: 50,
            timeout_us: 2_000,
        }
    }
}

/// Executes applications on a timing model and power model under a governor.
pub struct Runtime<'a> {
    model: &'a dyn TimingModel,
    power: &'a PowerModel,
    telemetry: TraceHandle,
    /// Actuator-fault plan: DVFS denials/delays/neighbor transitions and
    /// thermal throttling applied between the decision and the invocation.
    faults: Option<&'a FaultPlan>,
    /// Session recorder: decisions, actuation outcomes, raw samples,
    /// sanitizer substitutions, and run totals, in execution order.
    recorder: Option<Recorder>,
    /// Session replayer: actuation outcomes come from the trace instead of
    /// the fault plan (samples are served by a `ReplayModel`).
    replay: Option<Replayer>,
    /// Reliable-actuation shim: retry transient DPM faults with backoff
    /// instead of accepting the first perturbed outcome.
    actuator: Option<RetryPolicy>,
}

impl<'a> Runtime<'a> {
    /// Creates a runtime over the given models, configured from the
    /// process environment — equivalent to
    /// [`from_session`](Self::from_session) with [`Session::from_env`]:
    /// decision telemetry is disabled unless `HARMONIA_TRACE=1`.
    pub fn new(model: &'a dyn TimingModel, power: &'a PowerModel) -> Self {
        Self::from_session(model, power, &Session::from_env())
    }

    /// Creates a runtime configured by an explicit [`Session`]: decision
    /// telemetry is enabled iff `session.trace()`.
    pub fn from_session(
        model: &'a dyn TimingModel,
        power: &'a PowerModel,
        session: &Session,
    ) -> Self {
        Self {
            model,
            power,
            telemetry: if session.trace() {
                TraceHandle::new()
            } else {
                TraceHandle::disabled()
            },
            faults: None,
            recorder: None,
            replay: None,
            actuator: None,
        }
    }

    /// Applies `plan`'s actuator faults between the governor's decision and
    /// each invocation: transitions may be denied, land a step away, or be
    /// throttled, and the governor observes the configuration that actually
    /// ran. An empty plan leaves the runtime byte-identical to the clean
    /// path. Counter faults belong on the model side
    /// ([`FaultyModel`](harmonia_sim::FaultyModel), same plan).
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Records the session into `recorder`: every governor decision,
    /// actuator-fault outcome, raw composite sample, sanitizer substitution,
    /// and the run totals, in execution order — the full-nondeterminism
    /// record a [`Replayer`] re-executes bit-exactly. The caller typically
    /// records the `SessionStart` header itself before running (the runtime
    /// does not know the registry policy name). Zero-cost when absent.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Replays actuator-fault outcomes from a recorded session instead of
    /// rolling them from a fault plan; takes precedence over
    /// [`with_faults`](Self::with_faults). Counter samples are replayed on
    /// the model side: pair this with a
    /// [`ReplayModel`](harmonia_rr::ReplayModel) sharing the same
    /// [`Replayer`] cursor.
    pub fn with_replay(mut self, replay: Replayer) -> Self {
        self.replay = Some(replay);
        self
    }

    /// Turns DPM faults into a deterministic retry-with-backoff state
    /// machine instead of accepting the first perturbed outcome. Transient
    /// faults (denied/delayed requests) are retried under `policy` and
    /// resolve to [`ActuationOutcome::Retried`] on success or
    /// [`ActuationOutcome::TimedOut`] (configuration held at last-good)
    /// when the budget runs out; a partial transition (neighbor landing)
    /// is rolled back to last-good
    /// ([`ActuationOutcome::RolledBack`]); a thermal clamp is terminal and
    /// resolves [`ActuationOutcome::Applied`] at the clamped point. Every
    /// perturbed attempt emits telemetry, and the terminal verdict is
    /// recorded in the session trace (v2 vocabulary). Without
    /// [`with_faults`](Self::with_faults) the shim never engages, keeping
    /// default-path traces byte-identical.
    pub fn with_actuator(mut self, policy: RetryPolicy) -> Self {
        self.actuator = Some(policy);
        self
    }

    /// Installs an explicit decision-telemetry handle. The same handle is
    /// passed to the governor of every subsequent [`run`](Self::run), so
    /// runtime events (kernel boundaries, power samples) and governor events
    /// (CG/FG decisions) interleave in one stream.
    pub fn with_telemetry(mut self, telemetry: TraceHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The decision-telemetry handle in use.
    pub fn telemetry(&self) -> &TraceHandle {
        &self.telemetry
    }

    /// The timing model in use.
    pub fn model(&self) -> &dyn TimingModel {
        self.model
    }

    /// The power model in use.
    pub fn power(&self) -> &PowerModel {
        self.power
    }

    /// Drives one invocation's configuration transition through the retry
    /// state machine to an [`Actuation::Resolved`] verdict. `None` when the
    /// first attempt applied cleanly — the overwhelmingly common case, and
    /// the one that must leave the session trace untouched.
    fn resolve_actuation(
        &self,
        plan: &FaultPlan,
        policy: RetryPolicy,
        kernel: &str,
        decided: HwConfig,
        previous: Option<HwConfig>,
        iteration: u64,
    ) -> Option<Actuation> {
        let mut kinds: Vec<FaultKind> = Vec::new();
        let mut attempts: u32 = 0;
        let mut backoff_spent: u64 = 0;
        loop {
            let ordinal = attempts;
            attempts += 1;
            let Some((kind, actual)) = plan.actuate_attempt_on(
                &self.model.gpu().grid,
                kernel,
                decided,
                previous,
                iteration,
                ordinal,
            ) else {
                // This attempt went through cleanly.
                return (!kinds.is_empty()).then(|| Actuation::Resolved {
                    outcome: ActuationOutcome::Retried(attempts - 1),
                    attempts,
                    kinds,
                    actual: decided,
                });
            };
            kinds.push(kind);
            self.telemetry.emit(|| TraceEvent::ActuationAttempt {
                kernel: kernel.to_string(),
                iteration,
                attempt: ordinal,
                kind: kind.label().to_string(),
                wanted: decided.into(),
                actual: actual.into(),
            });
            match kind {
                // A thermal clamp is the platform's last word: the
                // transition completed, at the ceiling it imposed.
                FaultKind::ThermalThrottle => {
                    return Some(Actuation::Resolved {
                        outcome: ActuationOutcome::Applied,
                        attempts,
                        kinds,
                        actual,
                    });
                }
                // A neighbor landing is a *partial* application: part of
                // the multi-tunable transition applied, part did not.
                // Retrying from an unknown intermediate state is worse
                // than restoring a coherent one, so roll back to the
                // last-known-good configuration. At session start there
                // is no last-good anchor and the partial point stands.
                FaultKind::DvfsNeighbor => {
                    return Some(Actuation::Resolved {
                        outcome: ActuationOutcome::RolledBack,
                        attempts,
                        kinds,
                        actual: previous.unwrap_or(actual),
                    });
                }
                // Denied or delayed requests are transient: back off and
                // retry until either budget runs dry.
                _ => {
                    let retries = attempts - 1;
                    // Delay before retry k (1-based) is base << (k-1); the
                    // next retry is number `retries + 1`.
                    let delay = policy.base_backoff_us.checked_shl(retries).unwrap_or(u64::MAX);
                    let over_budget = retries >= policy.max_retries
                        || backoff_spent.saturating_add(delay) > policy.timeout_us;
                    if over_budget {
                        return Some(Actuation::Resolved {
                            outcome: ActuationOutcome::TimedOut,
                            attempts,
                            kinds,
                            actual,
                        });
                    }
                    backoff_spent = backoff_spent.saturating_add(delay);
                }
            }
        }
    }

    /// Runs `app` to completion under `governor` and reports.
    pub fn run(&self, app: &Application, governor: &mut dyn Governor) -> RunReport {
        let mut total_time = Seconds(0.0);
        let mut card_energy = Joules(0.0);
        let mut gpu_energy = Joules(0.0);
        let mut mem_energy = Joules(0.0);
        // Resolve each kernel position to a run-local slot once: positions
        // that list the same kernel share a slot, and per-kernel state is
        // then indexed instead of looked up by name on every invocation.
        // Each slot's report and the session trace share the profile's
        // name allocation via refcount bumps.
        let mut per_kernel: Vec<KernelReport> = Vec::with_capacity(app.kernels.len());
        let slots: Vec<usize> = app
            .kernels
            .iter()
            .map(|k| {
                per_kernel
                    .iter()
                    .position(|r| *r.kernel == *k.name)
                    .unwrap_or_else(|| {
                        per_kernel.push(KernelReport {
                            kernel: k.name.clone(),
                            invocations: 0,
                            total_time: Seconds(0.0),
                            card_energy: Joules(0.0),
                        });
                        per_kernel.len() - 1
                    })
            })
            .collect();

        governor.set_trace(self.telemetry.clone());
        self.telemetry.emit(|| TraceEvent::RunStart {
            app: app.name.clone(),
            governor: governor.name().to_string(),
        });
        // The virtual DAQ accumulates segments only while telemetry is
        // enabled; sampled at POWER_SAMPLE_HZ after the run.
        let mut daq = self.telemetry.enabled().then(PowerTrace::new);
        // Configuration each kernel slot actually ran at last, for actuator
        // faults that hold the previous state; only a fault plan needs it.
        let mut last_actual: Vec<Option<HwConfig>> = match self.faults {
            Some(_) => vec![None; per_kernel.len()],
            None => Vec::new(),
        };

        for iteration in 0..app.iterations {
            for (kernel, &slot) in app.kernels.iter().zip(&slots) {
                let decided = governor.decide(kernel, iteration);
                if let Some(rec) = &self.recorder {
                    rec.record(SessionEvent::Decision {
                        kernel: kernel.name.clone(),
                        iteration,
                        cfg: decided.into(),
                    });
                }
                // Between decision and invocation sits the only actuation
                // nondeterminism: either a replayed outcome (trace playback)
                // or a fault-plan roll (live) — single-shot, or driven
                // through the retry shim. Both paths record and emit
                // identically, so a replayed session re-produces the
                // recording bit for bit.
                let actuation = match (&self.replay, self.faults) {
                    // A replayed fault that landed on the decision is clean.
                    (Some(rep), _) => rep
                        .actuation_event_for(&self.model.gpu().grid, &kernel.name, iteration)
                        .filter(
                            |a| !matches!(a, Actuation::Fault { actual, .. } if *actual == decided),
                        ),
                    (None, Some(plan)) if !plan.is_empty() => {
                        let previous = last_actual[slot];
                        match self.actuator {
                            Some(policy) => self.resolve_actuation(
                                plan,
                                policy,
                                &kernel.name,
                                decided,
                                previous,
                                iteration,
                            ),
                            None => plan
                                .actuate_attempt_on(
                                    &self.model.gpu().grid,
                                    &kernel.name,
                                    decided,
                                    previous,
                                    iteration,
                                    0,
                                )
                                .filter(|&(_, actual)| actual != decided)
                                .map(|(kind, actual)| Actuation::Fault { kind, actual }),
                        }
                    }
                    _ => None,
                };
                let cfg = match actuation {
                    None => decided,
                    Some(Actuation::Fault { kind, actual }) => {
                        self.telemetry.emit(|| TraceEvent::FaultInjected {
                            kernel: kernel.name.to_string(),
                            iteration,
                            kind: kind.label().to_string(),
                            wanted: decided.into(),
                            actual: actual.into(),
                        });
                        if let Some(rec) = &self.recorder {
                            rec.record(SessionEvent::Actuation {
                                kernel: kernel.name.clone(),
                                iteration,
                                kind,
                                wanted: decided.into(),
                                actual: actual.into(),
                            });
                        }
                        actual
                    }
                    Some(Actuation::Resolved {
                        outcome,
                        attempts,
                        kinds,
                        actual,
                    }) => {
                        self.telemetry.emit(|| TraceEvent::ActuationResolved {
                            kernel: kernel.name.to_string(),
                            iteration,
                            outcome: outcome.label().to_string(),
                            attempts,
                            wanted: decided.into(),
                            actual: actual.into(),
                        });
                        if let Some(rec) = &self.recorder {
                            rec.record(SessionEvent::ActuationResolved {
                                kernel: kernel.name.clone(),
                                iteration,
                                outcome,
                                attempts,
                                kinds,
                                wanted: decided.into(),
                                actual: actual.into(),
                            });
                        }
                        actual
                    }
                };
                if let Some(last) = last_actual.get_mut(slot) {
                    *last = Some(cfg);
                }
                self.telemetry.emit(|| TraceEvent::KernelStart {
                    kernel: kernel.name.to_string(),
                    iteration,
                    cfg: cfg.into(),
                });
                let result = self.model.simulate(cfg, kernel, iteration);
                if let Some(rec) = &self.recorder {
                    rec.record(SessionEvent::Sample {
                        kernel: kernel.name.clone(),
                        iteration,
                        cfg: cfg.into(),
                        time_s: result.time.value(),
                        counters: result.counters,
                        stepped_waves: result.fast_forward.stepped_waves,
                        fast_forwarded_waves: result.fast_forward.fast_forwarded_waves,
                    });
                }
                // The governor stack conditions the raw measurement first
                // (identity unless a sanitize layer is stacked): power and
                // energy are accounted from what the stack accepted, never
                // from readings it rejected.
                let (time, counters) =
                    governor.condition(kernel, iteration, cfg, result.time, result.counters);
                if let Some(rec) = &self.recorder {
                    // Sanitizer substitutions are part of the session record;
                    // bitwise comparison so a NaN-for-NaN identity pass
                    // records nothing.
                    if time.value().to_bits() != result.time.value().to_bits()
                        || !harmonia_rr::counters_eq(&counters, &result.counters)
                    {
                        rec.record(SessionEvent::Conditioned {
                            kernel: kernel.name.clone(),
                            iteration,
                            time_s: time.value(),
                            counters,
                        });
                    }
                }
                let breakdown = self.power.breakdown(cfg, &activity_of(&counters));

                let dt = time;
                total_time += dt;
                card_energy += breakdown.card_pwr() * dt;
                gpu_energy += breakdown.gpu_pwr() * dt;
                mem_energy += breakdown.mem_pwr() * dt;
                self.telemetry.emit(|| TraceEvent::KernelEnd {
                    kernel: kernel.name.to_string(),
                    iteration,
                    cfg: cfg.into(),
                    time_s: dt.value(),
                    card_w: breakdown.card_pwr().value(),
                    gpu_w: breakdown.gpu_pwr().value(),
                    mem_w: breakdown.mem_pwr().value(),
                    counters,
                });
                if !result.fast_forward.is_exact() {
                    self.telemetry.emit(|| TraceEvent::FastForward {
                        kernel: kernel.name.to_string(),
                        iteration,
                        stepped_waves: result.fast_forward.stepped_waves,
                        fast_forwarded_waves: result.fast_forward.fast_forwarded_waves,
                    });
                }
                if let Some(daq) = &mut daq {
                    daq.push(dt, breakdown);
                }

                let report = &mut per_kernel[slot];
                report.invocations += 1;
                report.total_time += dt;
                report.card_energy += breakdown.card_pwr() * dt;

                governor.observe(kernel, iteration, cfg, &counters);
            }
        }

        if let Some(daq) = &daq {
            for s in daq.sample(POWER_SAMPLE_HZ) {
                self.telemetry.emit(|| TraceEvent::PowerSample {
                    at_s: s.at.value(),
                    card_w: s.card.value(),
                    gpu_w: s.gpu.value(),
                    mem_w: s.mem.value(),
                });
            }
        }
        self.telemetry.emit(|| TraceEvent::RunEnd {
            app: app.name.clone(),
            governor: governor.name().to_string(),
            total_time_s: total_time.value(),
            card_energy_j: card_energy.value(),
        });
        if let Some(rec) = &self.recorder {
            rec.record(SessionEvent::SessionEnd {
                total_time_s: total_time.value(),
                card_energy_j: card_energy.value(),
                gpu_energy_j: gpu_energy.value(),
                mem_energy_j: mem_energy.value(),
            });
        }

        // Reports of the kernels that ran, in name order.
        per_kernel.retain(|r| r.invocations > 0);
        per_kernel.sort_unstable_by(|a, b| a.kernel.cmp(&b.kernel));
        RunReport {
            app: app.name.clone(),
            governor: governor.name().to_string(),
            total_time,
            card_energy,
            gpu_energy,
            mem_energy,
            per_kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{BaselineGovernor, HarmoniaGovernor, OracleGovernor};
    use crate::predictor::SensitivityPredictor;
    use harmonia_sim::IntervalModel;
    use harmonia_types::Tunable;
    use harmonia_workloads::suite;

    fn harness() -> (IntervalModel, PowerModel) {
        (IntervalModel::default(), PowerModel::hd7970())
    }

    #[test]
    fn baseline_runs_everything_at_boost() {
        let (model, power) = harness();
        let trace = TraceHandle::new();
        let rt = Runtime::new(&model, &power).with_telemetry(trace.clone());
        let app = suite::stencil();
        let report = rt.run(&app, &mut BaselineGovernor::new());
        assert_eq!(report.governor, "baseline");
        let events = trace.events();
        assert!(crate::telemetry::matches_run(&events, &report));
        let summary = crate::telemetry::summarize(&events);
        assert_eq!(summary.invocations, app.total_invocations());
        assert!((summary.residency.fraction(Tunable::CuFreq, 1000) - 1.0).abs() < 1e-12);
        assert!(report.total_time.value() > 0.0);
        assert!(report.card_energy.value() > 0.0);
        // Energy decomposes.
        let parts = report.gpu_energy.value() + report.mem_energy.value();
        assert!(parts < report.card_energy.value());
    }

    #[test]
    fn matches_run_fails_on_a_missing_or_one_ulp_off_kernel_end() {
        use crate::telemetry::matches_run;
        let (model, power) = harness();
        let traced_run = |app: &Application| {
            let trace = TraceHandle::new();
            let report = Runtime::new(&model, &power)
                .with_telemetry(trace.clone())
                .run(app, &mut BaselineGovernor::new());
            (trace.events(), report)
        };
        let kernel_ends = |events: &[TraceEvent]| -> Vec<usize> {
            (0..events.len())
                .filter(|&i| matches!(events[i], TraceEvent::KernelEnd { .. }))
                .collect()
        };

        // Dropping any one invocation's KernelEnd changes a count.
        let sort = suite::sort();
        let (events, report) = traced_run(&sort);
        assert!(matches_run(&events, &report));
        let ends = kernel_ends(&events);
        assert_eq!(ends.len() as u64, sort.total_invocations());
        for &i in &ends {
            let mut missing = events.clone();
            missing.remove(i);
            assert!(!matches_run(&missing, &report), "KernelEnd #{i} dropped");
        }

        // One iteration runs each kernel once, so each per-kernel sum is a
        // single invocation's time: one ulp either way shows.
        let once = Application::new("Sort.Once", sort.kernels.clone(), 1);
        let (events, report) = traced_run(&once);
        assert!(matches_run(&events, &report));
        for i in kernel_ends(&events) {
            for ulp in [1, -1] {
                let mut off = events.clone();
                let TraceEvent::KernelEnd { time_s, .. } = &mut off[i] else {
                    unreachable!("KernelEnd at #{i}")
                };
                *time_s = f64::from_bits(time_s.to_bits().wrapping_add_signed(ulp));
                assert!(!matches_run(&off, &report), "KernelEnd #{i} {ulp:+} ulp");
            }
        }
    }

    #[test]
    fn per_kernel_reports_cover_all_kernels() {
        let (model, power) = harness();
        let rt = Runtime::new(&model, &power);
        let app = suite::sort();
        let report = rt.run(&app, &mut BaselineGovernor::new());
        assert_eq!(report.per_kernel.len(), app.kernels.len());
        for k in &app.kernels {
            let kr = report.kernel_report(&k.name).unwrap();
            assert_eq!(kr.invocations, app.iterations);
        }
    }

    #[test]
    fn harmonia_beats_baseline_ed2_on_stress_kernels() {
        let (model, power) = harness();
        let rt = Runtime::new(&model, &power);
        // Train the predictor on the simulator, as the evaluation pipeline
        // does — the published Table 3 coefficients describe the authors'
        // silicon, not this model.
        let data = crate::dataset::TrainingSet::collect(&model);
        let predictor = SensitivityPredictor::fit(&data).expect("fit");
        for app in [suite::maxflops(), suite::sort(), suite::bpt()] {
            let base = rt.run(&app, &mut BaselineGovernor::new());
            let mut hm = HarmoniaGovernor::new(predictor.clone());
            let harmonia = rt.run(&app, &mut hm);
            assert!(
                harmonia.ed2() < base.ed2() * 1.02,
                "{}: harmonia ED² {} vs baseline {}",
                app.name,
                harmonia.ed2(),
                base.ed2()
            );
        }
    }

    #[test]
    fn oracle_is_at_least_as_good_as_baseline() {
        let (model, power) = harness();
        let rt = Runtime::new(&model, &power);
        for app in [suite::maxflops(), suite::stencil()] {
            let base = rt.run(&app, &mut BaselineGovernor::new());
            let mut oracle = OracleGovernor::new(&model, &power);
            let orc = rt.run(&app, &mut oracle);
            assert!(
                orc.ed2() <= base.ed2() * 1.0001,
                "{}: oracle ED² {} vs baseline {}",
                app.name,
                orc.ed2(),
                base.ed2()
            );
        }
    }

    #[test]
    fn retry_actuator_resolves_transient_faults_and_replays_bit_exactly() {
        use harmonia_rr::{decode, Recorder, ReplayModel, Replayer};
        use harmonia_sim::faults::FaultSpec;

        let (model, power) = harness();
        let app = suite::sort();
        // Heavy transient pressure plus occasional partial transitions so
        // every outcome class shows up deterministically from the seed.
        let plan = FaultPlan::new(0xACDC)
            .with(FaultSpec::new(FaultKind::DvfsDeny, 0.4))
            .with(FaultSpec::new(FaultKind::DvfsNeighbor, 0.1));
        let recorder = Recorder::new();
        let rt = Runtime::new(&model, &power)
            .with_faults(&plan)
            .with_actuator(RetryPolicy::default())
            .with_recorder(recorder.clone());
        let live = rt.run(&app, &mut BaselineGovernor::new());
        let events = recorder.events();
        let resolved: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::ActuationResolved { .. }))
            .collect();
        assert!(
            !resolved.is_empty(),
            "a 40% transient fault rate must engage the retry shim"
        );
        // The v2 stream round-trips through the codec.
        let bytes = recorder.encode();
        assert_eq!(decode(&bytes).expect("decodes"), events);

        // Replay: resolved actuations come from the trace, samples from a
        // replay model, and the re-recording matches bit for bit.
        let replayer = Replayer::new(events.clone());
        let replay_model = ReplayModel::new(replayer.clone(), *model.gpu());
        let re_recorder = Recorder::new();
        let rt2 = Runtime::new(&replay_model, &power)
            .with_replay(replayer.clone())
            .with_recorder(re_recorder.clone());
        let replayed = rt2.run(&app, &mut BaselineGovernor::new());
        assert!(replayer.error().is_none(), "{:?}", replayer.error());
        assert_eq!(re_recorder.events(), events, "replay must re-record bit-exactly");
        assert_eq!(
            replayed.card_energy.value().to_bits(),
            live.card_energy.value().to_bits()
        );
    }

    #[test]
    fn retry_actuator_times_out_deterministically_under_a_sure_deny() {
        use harmonia_sim::faults::FaultSpec;

        let (model, power) = harness();
        let app = suite::stencil();
        let plan = FaultPlan::new(7).with(FaultSpec::new(FaultKind::DvfsDeny, 1.0));
        let recorder = harmonia_rr::Recorder::new();
        let policy = RetryPolicy { max_retries: 2, base_backoff_us: 50, timeout_us: 2_000 };
        let rt = Runtime::new(&model, &power)
            .with_faults(&plan)
            .with_actuator(policy)
            .with_recorder(recorder.clone());
        rt.run(&app, &mut BaselineGovernor::new());
        let mut timed_out = 0;
        for e in recorder.events() {
            if let SessionEvent::ActuationResolved { outcome, attempts, kinds, .. } = e {
                assert_eq!(outcome, ActuationOutcome::TimedOut);
                assert_eq!(attempts, 1 + policy.max_retries);
                assert_eq!(kinds.len(), attempts as usize);
                timed_out += 1;
            }
        }
        assert!(timed_out > 0, "p=1.0 denial must time out every invocation");
    }
}
