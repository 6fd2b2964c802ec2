//! Decision-trace observability for the monitoring/decision runtime.
//!
//! The paper's claims (Figures 10–18) are statements about *governor
//! behaviour over time* — CG retunes, FG probes and reverts, residencies,
//! power splits — yet aggregate run reports cannot show *why* a decision was
//! made. This module adds a structured, zero-cost-when-disabled event trace:
//!
//! * [`TraceEvent`] — typed events covering kernel boundaries (with the full
//!   [`CounterSample`]), sensitivity predictions and bin assignments, CG
//!   retunes, every FG probe/accept/revert with the blamed tunable,
//!   revert-guard and known-bad-list hits, sweep-cache statistics, and 1 kHz
//!   power-trace samples;
//! * [`TraceHandle`] — a cheap cloneable handle over a bounded ring buffer
//!   ([`TraceBuffer`]). A disabled handle is a `None`: emitting through it is
//!   a single branch and the event is never even constructed, so traced and
//!   untraced runs execute identical decision logic;
//! * [`to_jsonl`]/[`from_jsonl`] — the line-oriented export, byte-stable
//!   for deterministic models (golden-trace tests);
//! * [`TraceSummary`] — decision counts, residencies, and convergence
//!   iterations (Section 7 / Figure 18) derived purely from the event
//!   stream;
//! * [`config_sequence`]/[`matches_run`] — replay: the per-invocation
//!   configuration sequence recovered from the trace, and the check that
//!   its kernel boundaries fold to a live [`RunReport`]'s aggregates.
//!
//! The trace is the run's per-invocation record: a [`RunReport`] carries
//! aggregates only, and every per-invocation view (configurations, powers,
//! residency) is read from `KernelStart`/`KernelEnd` events.
//!
//! The runtime emits kernel/power events, [`HarmoniaGovernor`] emits
//! CG/FG/guard events, and [`OracleGovernor`] emits sweep-cache statistics;
//! see `harmonia-experiments trace <app>` for the CLI entry point.
//!
//! [`HarmoniaGovernor`]: crate::governor::HarmoniaGovernor
//! [`OracleGovernor`]: crate::governor::OracleGovernor

use crate::binning::SensitivityBin;
use crate::metrics::{Residency, RunReport};
use harmonia_sim::CounterSample;
use harmonia_types::{Joules, Seconds, Tunable, Watts};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Environment variable that globally enables runtime tracing
/// (`HARMONIA_TRACE=1`); used by the CI matrix leg that asserts traced and
/// untraced runs agree. Re-exported from [`harmonia_types::session`], where
/// the parsing lives.
pub use harmonia_types::session::TRACE_ENV;

/// Default ring-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A hardware operating point in trace-friendly form: the three raw tunable
/// values, shared with the session trace (`harmonia_rr::CfgPoint`).
pub use harmonia_types::ConfigPoint;

/// One structured event of the decision trace.
///
/// Externally tagged on serialization: `{"KernelStart":{...}}` — one JSON
/// object per line in the JSONL export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A runtime run began.
    RunStart {
        /// Application name.
        app: String,
        /// Governor name.
        governor: String,
    },
    /// A kernel invocation is about to run at `cfg` (the governor's
    /// decision for this invocation).
    KernelStart {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Decided configuration.
        cfg: ConfigPoint,
    },
    /// A kernel invocation finished; carries the full counter sample the
    /// monitoring block observed.
    KernelEnd {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Configuration the invocation ran at.
        cfg: ConfigPoint,
        /// Execution time in seconds.
        time_s: f64,
        /// Average card power over the invocation (W).
        card_w: f64,
        /// Average GPU chip power (W).
        gpu_w: f64,
        /// Average memory power (W).
        mem_w: f64,
        /// The performance counters produced by the invocation.
        counters: CounterSample,
    },
    /// The timing model detected steady state and extrapolated the tail of
    /// the invocation instead of stepping it (adaptive fidelity; see
    /// `harmonia_sim::event::FastForwardPolicy`). Emitted right after the
    /// invocation's `KernelEnd`.
    FastForward {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Waves played out event by event before convergence.
        stepped_waves: u64,
        /// Waves extrapolated at the converged steady-state rate.
        fast_forwarded_waves: u64,
    },
    /// The CG block predicted sensitivities and binned them.
    Prediction {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Predicted CU-count sensitivity.
        cu: f64,
        /// Predicted CU-frequency sensitivity.
        freq: f64,
        /// Predicted memory-bandwidth sensitivity.
        bandwidth: f64,
        /// Bin assigned to the CU-count sensitivity.
        cu_bin: SensitivityBin,
        /// Bin assigned to the CU-frequency sensitivity.
        freq_bin: SensitivityBin,
        /// Bin assigned to the bandwidth sensitivity.
        bw_bin: SensitivityBin,
    },
    /// A coarse-grain retune: the bins changed and CG jumped the tunables.
    CgRetune {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Configuration before the jump.
        from: ConfigPoint,
        /// Configuration chosen by the jump.
        to: ConfigPoint,
        /// Bin driving the CU count.
        cu_bin: SensitivityBin,
        /// Bin driving the CU frequency.
        freq_bin: SensitivityBin,
        /// Bin driving the memory frequency.
        bw_bin: SensitivityBin,
    },
    /// The revert guard fired: a sensitivity shift right after a downward
    /// actuation was judged an artifact and the previous configuration was
    /// restored.
    RevertGuard {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The (perturbing) configuration being abandoned.
        from: ConfigPoint,
        /// The restored pre-change configuration.
        to: ConfigPoint,
    },
    /// The FG loop probed: a decrement (or climb-continuation) move.
    FgProbe {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Configuration before the move.
        from: ConfigPoint,
        /// Configuration after the move.
        to: ConfigPoint,
        /// Tunables stepped down by this move.
        moved_down: Vec<Tunable>,
        /// Tunables stepped up by this move (recovery climbs).
        moved_up: Vec<Tunable>,
    },
    /// The FG loop accepted the previous move: throughput was preserved at
    /// the probed configuration.
    FgAccept {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The accepted configuration.
        cfg: ConfigPoint,
        /// The throughput proxy observed there (VALU instruction rate).
        rate: f64,
    },
    /// The FG loop reverted: throughput degraded, the blamed tunables are
    /// stepped back up.
    FgRevert {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The degrading configuration.
        from: ConfigPoint,
        /// The configuration after the increment move.
        to: ConfigPoint,
        /// The tunables blamed for the degradation (empty when the
        /// degradation had no probe to blame, e.g. a CG misprediction).
        blamed: Vec<Tunable>,
    },
    /// The FG loop converged: no further moves until the next CG retune.
    FgConverged {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The best (lowest-power, performance-preserving) state settled on.
        cfg: ConfigPoint,
    },
    /// A downward probe was skipped because the target configuration is on
    /// the known-bad list for the current phase regime.
    KnownBadSkip {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The configuration that was not re-probed.
        cfg: ConfigPoint,
    },
    /// A power-cap decorator clamped the inner governor's decision.
    CapClamp {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// What the inner policy wanted.
        wanted: ConfigPoint,
        /// What the cap allowed.
        granted: ConfigPoint,
    },
    /// The reactive PowerTune governor shifted DPM state.
    DpmShift {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Compute clock before the shift (MHz).
        from_mhz: u32,
        /// Compute clock after the shift (MHz).
        to_mhz: u32,
    },
    /// The runtime's fault shim perturbed actuation: the governor decided
    /// `wanted` but the invocation actually ran at `actual`.
    FaultInjected {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Fault-kind label (see `harmonia_sim::faults::FaultKind::label`).
        kind: String,
        /// The configuration the governor decided on.
        wanted: ConfigPoint,
        /// The configuration the hardware actually ran at.
        actual: ConfigPoint,
    },
    /// The counter sanitizer rejected a field value and substituted a
    /// trusted one.
    SanitizerReject {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The rejected counter field.
        field: String,
        /// The rejected raw value (formatted, so non-finite values survive
        /// the JSONL round trip).
        value: String,
        /// The substituted value (always finite).
        substitute: f64,
    },
    /// A governor watchdog judged this observation interval anomalous.
    FaultDetected {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// What looked wrong.
        what: String,
    },
    /// A watchdog's anomaly streak crossed its threshold: the governor fell
    /// back to the safe PowerTune-equivalent state.
    FallbackEngaged {
        /// Kernel whose observation tripped the watchdog.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// The safe state decisions are pinned to.
        safe: ConfigPoint,
        /// Intervals the fallback will hold before re-engagement is tried.
        hold: u64,
    },
    /// The watchdog's hold expired: normal governing re-engages (with the
    /// next hold doubled, up to the backoff cap).
    FallbackReleased {
        /// Kernel observed when the hold expired.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
    },
    /// The degradation ladder moved between rungs (demotion on sustained
    /// anomalies, promotion after a clean hold).
    RungShift {
        /// Kernel whose observation drove the shift.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Rung label before the shift (see `governor::Rung::label`).
        from: String,
        /// Rung label after the shift.
        to: String,
        /// Clean intervals required at the new rung before promotion is
        /// tried (the backoff hold); zero on promotions.
        hold: u64,
    },
    /// One attempt of the runtime's retrying actuator shim: the requested
    /// DPM transition was perturbed and the shim re-issued (or gave up on)
    /// the request.
    ActuationAttempt {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Attempt ordinal (0 = the original request).
        attempt: u32,
        /// Fault-kind label that perturbed this attempt.
        kind: String,
        /// The configuration the governor decided on.
        wanted: ConfigPoint,
        /// The configuration this attempt landed on.
        actual: ConfigPoint,
    },
    /// The retrying actuator shim resolved one invocation's actuation with
    /// a terminal outcome (see `harmonia_sim::faults::ActuationOutcome`).
    ActuationResolved {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Outcome label (`applied` / `retried` / `timed-out` /
        /// `rolled-back`).
        outcome: String,
        /// Total attempts consumed (1 = clean first try).
        attempts: u32,
        /// The configuration the governor decided on.
        wanted: ConfigPoint,
        /// The configuration the invocation actually ran at.
        actual: ConfigPoint,
    },
    /// The counter sanitizer escalated: it served held (last-good) samples
    /// for too many consecutive invocations and stopped masking, so the
    /// watchdog sees the failed reads.
    SanitizerEscalated {
        /// Kernel name.
        kernel: String,
        /// Outer application iteration.
        iteration: u64,
        /// Consecutive wholesale holds served before escalation.
        held: u32,
    },
    /// Sweep-engine cache statistics, emitted after an exhaustive sweep.
    CacheStats {
        /// Lookups served from memory.
        hits: u64,
        /// Lookups that ran the underlying model.
        misses: u64,
        /// Distinct simulation points stored.
        entries: u64,
        /// Entries per cache shard (occupancy distribution).
        shards: Vec<u64>,
    },
    /// One 1 kHz sample of the virtual DAQ power trace.
    PowerSample {
        /// Timestamp since run start (s).
        at_s: f64,
        /// Card power (W).
        card_w: f64,
        /// GPU chip power (W).
        gpu_w: f64,
        /// Memory power (W).
        mem_w: f64,
    },
    /// The runtime run finished.
    RunEnd {
        /// Application name.
        app: String,
        /// Governor name.
        governor: String,
        /// Total execution time (s).
        total_time_s: f64,
        /// Total card energy (J).
        card_energy_j: f64,
    },
}

/// A bounded ring buffer of trace events. When full, the oldest event is
/// dropped and counted — decision traces keep their most recent window.
#[derive(Debug)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            recorded: 0,
        }
    }

    /// Appends an event, evicting the oldest when at capacity.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.recorded += 1;
        self.events.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (buffered + dropped). A saturated ring under
    /// chaos runs shows up as `recorded > len`, not silent truncation.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.iter().cloned().collect()
    }
}

/// A cheap, cloneable, thread-safe handle to a shared [`TraceBuffer`].
///
/// The disabled handle carries no buffer at all: [`TraceHandle::emit`]
/// reduces to one `Option` branch and the event-constructing closure is
/// never called, so instrumented code paths cost nothing measurable when
/// tracing is off.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Mutex<TraceBuffer>>>,
}

impl TraceHandle {
    /// A handle that records nothing (the zero-cost default).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle over a fresh buffer of [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::bounded(DEFAULT_CAPACITY)
    }

    /// An enabled handle over a fresh buffer of `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(TraceBuffer::new(capacity)))),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `f` (not called when disabled).
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if let Some(buffer) = &self.inner {
            let ev = f();
            buffer.lock().expect("trace buffer poisoned").push(ev);
        }
    }

    /// A snapshot of the buffered events, oldest first (empty when
    /// disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |b| {
            b.lock().expect("trace buffer poisoned").snapshot()
        })
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace buffer poisoned").len())
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace buffer poisoned").dropped())
    }

    /// Total events ever recorded through this handle's buffer.
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace buffer poisoned").recorded())
    }

    /// Summarizes the buffered events (see [`summarize`]).
    pub fn summary(&self) -> TraceSummary {
        let mut s = summarize(&self.events());
        s.dropped = self.dropped();
        s.recorded = self.recorded();
        s
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Serializes events as JSONL: one compact JSON object per line. Output is
/// byte-stable for identical event streams (struct-order keys, shortest
/// round-trip float formatting).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("trace events always serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL decision trace produced by [`to_jsonl`].
///
/// # Errors
///
/// Returns the offending line number and parser message on malformed input.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: TraceEvent = serde_json::from_str(line)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// The per-invocation configuration sequence recorded in the trace, in
/// execution order: `(kernel, iteration, configuration)` from every
/// [`TraceEvent::KernelStart`].
pub fn config_sequence(events: &[TraceEvent]) -> Vec<(String, u64, ConfigPoint)> {
    events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::KernelStart { kernel, iteration, cfg } => {
                Some((kernel.clone(), *iteration, *cfg))
            }
            _ => None,
        })
        .collect()
}

/// Whether the trace of one run accounts for `report` bit for bit: its
/// `KernelEnd` events, folded in run order, give each kernel's invocation
/// count, total time and card energy, and the run's total time and card,
/// GPU and memory energy. The runtime accounts the report and the events
/// from the same times and powers, so a dropped or duplicated `KernelEnd`
/// always fails the check, and an altered time or power fails it unless
/// the change is lost in rounding a sum (one ulp on one of many
/// invocations can be).
pub fn matches_run(events: &[TraceEvent], report: &RunReport) -> bool {
    let mut kernels: Vec<(&str, u64, Seconds, Joules)> = Vec::new();
    let mut total_time = Seconds(0.0);
    let [mut card_energy, mut gpu_energy, mut mem_energy] = [Joules(0.0); 3];
    for ev in events {
        let TraceEvent::KernelEnd {
            kernel,
            time_s,
            card_w,
            gpu_w,
            mem_w,
            ..
        } = ev
        else {
            continue;
        };
        let dt = Seconds(*time_s);
        let energy = Watts(*card_w) * dt;
        total_time += dt;
        card_energy += energy;
        gpu_energy += Watts(*gpu_w) * dt;
        mem_energy += Watts(*mem_w) * dt;
        let slot = match kernels.iter().position(|k| k.0 == kernel) {
            Some(slot) => slot,
            None => {
                kernels.push((kernel, 0, Seconds(0.0), Joules(0.0)));
                kernels.len() - 1
            }
        };
        let k = &mut kernels[slot];
        k.1 += 1;
        k.2 += dt;
        k.3 += energy;
    }
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    kernels.len() == report.per_kernel.len()
        && same(total_time.value(), report.total_time.value())
        && same(card_energy.value(), report.card_energy.value())
        && same(gpu_energy.value(), report.gpu_energy.value())
        && same(mem_energy.value(), report.mem_energy.value())
        && kernels.iter().all(|&(kernel, invocations, time, energy)| {
            report.kernel_report(kernel).is_some_and(|k| {
                k.invocations == invocations
                    && same(k.total_time.value(), time.value())
                    && same(k.card_energy.value(), energy.value())
            })
        })
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// Aggregate view of a decision trace: decision counts, power-state
/// residency, and convergence (Section 7 / Figure 18).
#[derive(Debug, Clone, Default, Serialize)]
pub struct TraceSummary {
    /// Events summarized.
    pub events: u64,
    /// Events evicted from the ring buffer before the summary.
    pub dropped: u64,
    /// Total events ever recorded (buffered + dropped); zero when the
    /// summary was built from a raw slice rather than a handle.
    pub recorded: u64,
    /// Kernel invocations (KernelEnd events).
    pub invocations: u64,
    /// Invocations whose timing model fast-forwarded part of the run.
    pub fast_forwards: u64,
    /// Sensitivity predictions made.
    pub predictions: u64,
    /// Coarse-grain retunes.
    pub cg_retunes: u64,
    /// Revert-guard activations.
    pub revert_guards: u64,
    /// FG probe moves.
    pub fg_probes: u64,
    /// FG accepts (throughput preserved at a probed point).
    pub fg_accepts: u64,
    /// FG reverts (blamed increments).
    pub fg_reverts: u64,
    /// FG convergence events.
    pub fg_converged: u64,
    /// Downward probes skipped by the known-bad list.
    pub known_bad_skips: u64,
    /// Power-cap clamps.
    pub cap_clamps: u64,
    /// DPM state shifts.
    pub dpm_shifts: u64,
    /// Actuation faults injected by the runtime's fault shim.
    pub faults_injected: u64,
    /// Counter fields rejected (and substituted) by the sanitizer.
    pub sanitizer_rejects: u64,
    /// Anomalous intervals flagged by governor watchdogs.
    pub faults_detected: u64,
    /// Safe-state fallback engagements.
    pub fallbacks_engaged: u64,
    /// Safe-state fallback releases.
    pub fallbacks_released: u64,
    /// Degradation-ladder rung shifts (demotions + promotions).
    pub rung_shifts: u64,
    /// Individual retry attempts made by the retrying actuator shim.
    pub actuation_attempts: u64,
    /// Invocations whose actuation the retrying shim resolved with a
    /// non-clean outcome (retried / timed out / rolled back).
    pub actuations_resolved: u64,
    /// Sanitizer hold-bound escalations (stale-sample masking stopped).
    pub sanitizer_escalations: u64,
    /// Kernel invocations completed while a fallback was engaged
    /// (safe-state residency in invocation counts).
    pub fallback_invocations: u64,
    /// Virtual-DAQ power samples.
    pub power_samples: u64,
    /// Last reported sweep-cache hits.
    pub cache_hits: u64,
    /// Last reported sweep-cache misses.
    pub cache_misses: u64,
    /// Last reported sweep-cache entries.
    pub cache_entries: u64,
    /// Number of invocation-to-invocation configuration changes (per
    /// kernel).
    pub config_changes: u64,
    /// Last application iteration at which any kernel's configuration still
    /// changed — the convergence metric of Figure 18.
    pub settle_iteration: u64,
    /// Time-weighted power-state residency over the traced run (from
    /// KernelEnd events), the series behind Figures 15–16.
    pub residency: Residency,
}

/// Builds a [`TraceSummary`] from an event stream.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary {
        events: events.len() as u64,
        ..TraceSummary::default()
    };
    let mut last_cfg: HashMap<&str, ConfigPoint> = HashMap::new();
    let mut fallback_active = false;
    for ev in events {
        match ev {
            TraceEvent::KernelStart { kernel, iteration, cfg } => {
                if let Some(prev) = last_cfg.insert(kernel, *cfg) {
                    if prev != *cfg {
                        s.config_changes += 1;
                        s.settle_iteration = s.settle_iteration.max(*iteration);
                    }
                }
            }
            TraceEvent::KernelEnd { cfg, time_s, .. } => {
                s.invocations += 1;
                if fallback_active {
                    s.fallback_invocations += 1;
                }
                s.residency.record(*cfg, Seconds(*time_s));
            }
            TraceEvent::FastForward { .. } => s.fast_forwards += 1,
            TraceEvent::Prediction { .. } => s.predictions += 1,
            TraceEvent::CgRetune { .. } => s.cg_retunes += 1,
            TraceEvent::RevertGuard { .. } => s.revert_guards += 1,
            TraceEvent::FgProbe { .. } => s.fg_probes += 1,
            TraceEvent::FgAccept { .. } => s.fg_accepts += 1,
            TraceEvent::FgRevert { .. } => s.fg_reverts += 1,
            TraceEvent::FgConverged { .. } => s.fg_converged += 1,
            TraceEvent::KnownBadSkip { .. } => s.known_bad_skips += 1,
            TraceEvent::CapClamp { .. } => s.cap_clamps += 1,
            TraceEvent::DpmShift { .. } => s.dpm_shifts += 1,
            TraceEvent::FaultInjected { .. } => s.faults_injected += 1,
            TraceEvent::SanitizerReject { .. } => s.sanitizer_rejects += 1,
            TraceEvent::FaultDetected { .. } => s.faults_detected += 1,
            TraceEvent::FallbackEngaged { .. } => {
                s.fallbacks_engaged += 1;
                fallback_active = true;
            }
            TraceEvent::FallbackReleased { .. } => {
                s.fallbacks_released += 1;
                fallback_active = false;
            }
            TraceEvent::RungShift { .. } => s.rung_shifts += 1,
            TraceEvent::ActuationAttempt { .. } => s.actuation_attempts += 1,
            TraceEvent::ActuationResolved { .. } => s.actuations_resolved += 1,
            TraceEvent::SanitizerEscalated { .. } => s.sanitizer_escalations += 1,
            TraceEvent::PowerSample { .. } => s.power_samples += 1,
            TraceEvent::CacheStats { hits, misses, entries, .. } => {
                s.cache_hits = *hits;
                s.cache_misses = *misses;
                s.cache_entries = *entries;
            }
            TraceEvent::RunStart { .. } | TraceEvent::RunEnd { .. } => {}
        }
    }
    s
}

/// Residency accumulated from the trace over an application-iteration
/// window `lo..hi` — the windowed series of Figure 15.
pub fn residency_between(events: &[TraceEvent], lo: u64, hi: u64) -> Residency {
    let mut residency = Residency::new();
    for ev in events {
        if let TraceEvent::KernelEnd { iteration, cfg, time_s, .. } = ev {
            if (lo..hi).contains(iteration) {
                residency.record(*cfg, Seconds(*time_s));
            }
        }
    }
    residency
}

/// The Figure 18 convergence metric: the last application iteration at
/// which any kernel's decided configuration still changed.
pub fn settle_iteration(events: &[TraceEvent]) -> u64 {
    summarize(events).settle_iteration
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(cu: u32, f: u32, m: u32) -> ConfigPoint {
        ConfigPoint { cu, cu_mhz: f, mem_mhz: m }
    }

    fn start(kernel: &str, iteration: u64, cfg: ConfigPoint) -> TraceEvent {
        TraceEvent::KernelStart {
            kernel: kernel.into(),
            iteration,
            cfg,
        }
    }

    fn end(kernel: &str, iteration: u64, cfg: ConfigPoint, time_s: f64) -> TraceEvent {
        TraceEvent::KernelEnd {
            kernel: kernel.into(),
            iteration,
            cfg,
            time_s,
            card_w: 200.0,
            gpu_w: 140.0,
            mem_w: 40.0,
            counters: CounterSample::default(),
        }
    }

    #[test]
    fn disabled_handle_records_nothing_and_never_builds_events() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        let mut called = false;
        h.emit(|| {
            called = true;
            TraceEvent::RunStart {
                app: "a".into(),
                governor: "g".into(),
            }
        });
        assert!(!called, "closure must not run when tracing is disabled");
        assert!(h.events().is_empty());
        assert!(h.is_empty());
    }

    #[test]
    fn enabled_handle_buffers_in_order() {
        let h = TraceHandle::new();
        assert!(h.enabled());
        h.emit(|| start("k", 0, pt(32, 1000, 1375)));
        h.emit(|| start("k", 1, pt(32, 1000, 1225)));
        let evs = h.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(h.len(), 2);
        assert_eq!(evs[0], start("k", 0, pt(32, 1000, 1375)));
        assert_eq!(evs[1], start("k", 1, pt(32, 1000, 1225)));
    }

    #[test]
    fn ring_buffer_drops_oldest_at_capacity() {
        let h = TraceHandle::bounded(2);
        for i in 0..5 {
            h.emit(|| start("k", i, pt(32, 1000, 1375)));
        }
        let evs = h.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(h.dropped(), 3);
        assert_eq!(evs[0], start("k", 3, pt(32, 1000, 1375)));
        assert_eq!(evs[1], start("k", 4, pt(32, 1000, 1375)));
    }

    #[test]
    fn an_overflowing_ring_reports_its_drops_through_the_summary() {
        let h = TraceHandle::bounded(3);
        for i in 0..5 {
            h.emit(|| end("k", i, pt(32, 1000, 1375), 1.0));
        }
        let s = h.summary();
        assert_eq!((s.events, s.dropped, s.recorded), (3, 2, 5));
        assert_eq!(s.invocations, 3, "the summary covers the kept window");
        // A raw slice knows nothing of the ring it came from.
        assert_eq!(summarize(&h.events()).dropped, 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = TraceHandle::new();
        let b = a.clone();
        b.emit(|| start("k", 0, pt(32, 1000, 1375)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn residency_records_the_traces_raw_clocks() {
        // A point off the HD7970 grid (another device's clocks) counts like
        // any other: reading a trace does not re-validate its points.
        let foreign = pt(80, 1530, 877);
        let events = vec![
            start("k", 0, foreign),
            end("k", 0, foreign, 2.0),
            end("k", 1, pt(32, 1000, 1375), 2.0),
        ];
        let residency = summarize(&events).residency;
        assert_eq!(residency.fraction(Tunable::MemFreq, 877), 0.5);
        assert_eq!(residency.fraction(Tunable::CuCount, 80), 0.5);
        let early = residency_between(&events, 0, 1);
        assert_eq!(early.distribution(Tunable::CuFreq), vec![(1530, 1.0)]);
    }

    #[test]
    fn jsonl_round_trips_and_is_line_oriented() {
        let events = vec![
            TraceEvent::RunStart {
                app: "Graph500".into(),
                governor: "harmonia".into(),
            },
            start("k", 0, pt(32, 1000, 1375)),
            end("k", 0, pt(32, 1000, 1375), 0.001),
            TraceEvent::CacheStats {
                hits: 10,
                misses: 2,
                entries: 2,
                shards: vec![1, 1],
            },
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let back = from_jsonl(&text).expect("round trip");
        assert_eq!(back, events);
    }

    #[test]
    fn jsonl_is_byte_stable() {
        let ev = vec![end("k", 3, pt(16, 700, 925), 0.0125)];
        assert_eq!(to_jsonl(&ev), to_jsonl(&ev.clone()));
    }

    #[test]
    fn from_jsonl_reports_bad_lines() {
        let err = from_jsonl("{\"Nope\":{}}\n").unwrap_err();
        assert!(err.contains("line 1"), "got: {err}");
    }

    #[test]
    fn summary_counts_and_residency() {
        let events = vec![
            start("k", 0, pt(32, 1000, 1375)),
            end("k", 0, pt(32, 1000, 1375), 1.0),
            TraceEvent::Prediction {
                kernel: "k".into(),
                iteration: 0,
                cu: 0.9,
                freq: 0.5,
                bandwidth: 0.1,
                cu_bin: SensitivityBin::High,
                freq_bin: SensitivityBin::Med,
                bw_bin: SensitivityBin::Low,
            },
            TraceEvent::CgRetune {
                kernel: "k".into(),
                iteration: 0,
                from: pt(32, 1000, 1375),
                to: pt(32, 1000, 775),
                cu_bin: SensitivityBin::High,
                freq_bin: SensitivityBin::Med,
                bw_bin: SensitivityBin::Low,
            },
            start("k", 1, pt(32, 1000, 775)),
            end("k", 1, pt(32, 1000, 775), 3.0),
        ];
        let s = summarize(&events);
        assert_eq!(s.invocations, 2);
        assert_eq!(s.predictions, 1);
        assert_eq!(s.cg_retunes, 1);
        assert_eq!(s.config_changes, 1);
        assert_eq!(s.settle_iteration, 1);
        assert!((s.residency.fraction(Tunable::MemFreq, 775) - 0.75).abs() < 1e-12);
        assert!((s.residency.fraction(Tunable::MemFreq, 1375) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn windowed_residency_selects_iterations() {
        let events = vec![
            end("k", 0, pt(32, 1000, 1375), 1.0),
            end("k", 1, pt(32, 1000, 775), 1.0),
            end("k", 2, pt(32, 1000, 775), 1.0),
        ];
        let early = residency_between(&events, 0, 1);
        assert!((early.fraction(Tunable::MemFreq, 1375) - 1.0).abs() < 1e-12);
        let late = residency_between(&events, 1, 3);
        assert!((late.fraction(Tunable::MemFreq, 775) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_matches_config_sequence() {
        let events = vec![
            start("a", 0, pt(32, 1000, 1375)),
            start("b", 0, pt(32, 1000, 775)),
            start("a", 1, pt(32, 900, 1375)),
        ];
        let seq = config_sequence(&events);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq[2], ("a".to_string(), 1, pt(32, 900, 1375)));
    }
}
