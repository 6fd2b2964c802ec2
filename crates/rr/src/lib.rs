//! Full-session deterministic record/replay.
//!
//! Harmonia's runs are deterministic *given their stochastic draws*: fault
//! rolls, measurement noise, and actuator outcomes are all derived from
//! seeds, so a session is reproducible only by re-deriving every draw from
//! the same seed under the same code. This crate makes a session
//! reproducible from its **artifact** instead: a compact, versioned binary
//! trace captures every value that crosses the nondeterminism boundary —
//! the composite counter samples the monitoring block saw (noise and
//! counter faults baked in), the actuator-fault outcomes the DPM shim
//! applied, and the sanitizer's hold-last-good substitutions — so the
//! session re-executes bit-exactly with the model's stochastic sources
//! swapped for trace playback.
//!
//! * [`SessionEvent`] — the recorded event vocabulary; equality is
//!   **bitwise** on floats (NaN-carrying power-glitch samples compare
//!   equal to themselves), which is what replay guarantees demand.
//! * [`Recorder`] / [`Replayer`] — the pair threaded through
//!   `harmonia::Runtime` (`with_recorder`/`with_replay`); on replay the
//!   [`ReplayModel`] serves the recorded samples in place of a
//!   [`harmonia_sim::TimingModel`].
//! * [`codec`] — the versioned binary format ([`codec::encode`] /
//!   [`codec::decode`], typed [`CodecError`]s, future versions rejected).
//! * [`differ`] — semantic first-divergence reporting between two sessions
//!   ([`differ::first_divergence`]), replacing byte-compares with an
//!   actionable "first divergent event + context" failure.
//!
//! What is **not** recorded: governor decisions are re-derived live during
//! replay (they are pure functions of the observed counters), but each
//! decision *is* written to the trace so the differ can localize a
//! divergence to the exact invocation that first disagreed.

pub mod codec;
pub mod differ;
pub mod model;

pub use codec::{decode, encode, CodecError, FORMAT_VERSION};
pub use differ::{diff_report, first_divergence, Divergence};
pub use model::ReplayModel;

use harmonia_sim::model::FastForwardStats;
use harmonia_sim::{ActuationOutcome, CounterSample, FaultKind, SimResult};
use harmonia_types::{GridSpec, HwConfig, Seconds};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A hardware configuration as recorded in a session trace: the raw
/// `(CU count, compute MHz, memory MHz)` triple. The same type as the
/// telemetry layer's `ConfigPoint`; replay validates it on the replaying
/// device's grid ([`to_hw_on`](harmonia_types::ConfigPoint::to_hw_on)).
pub use harmonia_types::ConfigPoint as CfgPoint;

/// One recorded event of a session trace, in execution order.
///
/// Equality is bitwise on every float field (via [`f64::to_bits`]): a
/// power-glitch sample whose duration is NaN must compare equal between a
/// recording and its replay, and two samples differing only in NaN payload
/// must not.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// Session header: what ran, under which registry policy, and (for
    /// provenance) the fault-plan seed in effect (0 when no plan).
    SessionStart {
        /// Application name (exact suite name; replay re-resolves it).
        app: String,
        /// Registry policy name (`PolicySpec` round-trip form).
        policy: String,
        /// Fault-plan seed the session ran under; 0 for clean sessions.
        fault_seed: u64,
    },
    /// The governor's decision for one kernel invocation — deterministic,
    /// but recorded so the differ can name the invocation where a replay
    /// first disagreed.
    Decision {
        /// Kernel name, shared with the kernel's profile.
        kernel: Arc<str>,
        /// Outer application iteration (the kernel's phase position).
        iteration: u64,
        /// The configuration the governor asked for.
        cfg: CfgPoint,
    },
    /// An actuator fault fired between decision and invocation: the DPM
    /// shim ran the kernel at `actual` instead of `wanted`. Recorded only
    /// when `actual != wanted`, mirroring the runtime's fault telemetry.
    Actuation {
        /// Kernel name, shared with the kernel's profile.
        kernel: Arc<str>,
        /// Outer application iteration.
        iteration: u64,
        /// Which actuator fault fired.
        kind: FaultKind,
        /// The governor's decision.
        wanted: CfgPoint,
        /// The configuration that actually took effect.
        actual: CfgPoint,
    },
    /// The reliable-actuation shim resolved this invocation's configuration
    /// transition through its retry/backoff state machine. Recorded only
    /// when at least one attempt was perturbed — a clean first-attempt
    /// apply records nothing, so sessions run without the shim (or without
    /// faults) keep their byte-identical v1 traces.
    ActuationResolved {
        /// Kernel name, shared with the kernel's profile.
        kernel: Arc<str>,
        /// Outer application iteration.
        iteration: u64,
        /// Terminal outcome of the retry state machine.
        outcome: ActuationOutcome,
        /// Total attempts made (1 is the initial attempt).
        attempts: u32,
        /// Fault kinds hit, in attempt order.
        kinds: Vec<FaultKind>,
        /// The governor's decision.
        wanted: CfgPoint,
        /// The configuration that actually took effect.
        actual: CfgPoint,
    },
    /// The composite model output for one invocation — the counter sample
    /// the monitoring block saw, with noise and counter faults already
    /// baked in. This is the stochastic source replay substitutes.
    Sample {
        /// Kernel name, shared with the kernel's profile.
        kernel: Arc<str>,
        /// Outer application iteration.
        iteration: u64,
        /// Configuration the invocation ran at.
        cfg: CfgPoint,
        /// Simulated execution time in seconds.
        time_s: f64,
        /// The full performance-counter tuple.
        counters: CounterSample,
        /// Waves stepped exactly (adaptive-fidelity accounting).
        stepped_waves: u64,
        /// Waves fast-forwarded analytically.
        fast_forwarded_waves: u64,
    },
    /// The governor stack's sanitizer rewrote the raw measurement
    /// (hold-last-good substitution). Recorded only when the conditioned
    /// value differs bitwise from the raw sample.
    Conditioned {
        /// Kernel name, shared with the kernel's profile.
        kernel: Arc<str>,
        /// Outer application iteration.
        iteration: u64,
        /// Conditioned execution time in seconds.
        time_s: f64,
        /// Conditioned counter tuple.
        counters: CounterSample,
    },
    /// Session footer: the energy/time totals the run reported.
    SessionEnd {
        /// Total execution time in seconds (the paper's D).
        total_time_s: f64,
        /// Total card energy in joules (the paper's E).
        card_energy_j: f64,
        /// GPU chip share of the energy (J).
        gpu_energy_j: f64,
        /// Memory share of the energy (J).
        mem_energy_j: f64,
    },
}

/// Bitwise float equality: NaN == NaN (same payload), -0.0 != 0.0.
pub(crate) fn f64_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// The counter tuple flattened to its bit pattern, in codec field order.
/// Shared by the bitwise comparison and the field-naming differ.
pub(crate) fn counter_bits(c: &CounterSample) -> [u64; 16] {
    [
        c.duration.value().to_bits(),
        c.valu_busy_pct.to_bits(),
        c.valu_utilization_pct.to_bits(),
        c.mem_unit_busy_pct.to_bits(),
        c.mem_unit_stalled_pct.to_bits(),
        c.write_unit_stalled_pct.to_bits(),
        c.norm_vgpr.to_bits(),
        c.norm_sgpr.to_bits(),
        c.ic_activity.to_bits(),
        c.valu_insts,
        c.vfetch_insts,
        c.vwrite_insts,
        c.dram_bytes.to_bits(),
        c.achieved_bw_gbps.to_bits(),
        c.occupancy_fraction.to_bits(),
        c.l2_hit_rate.to_bits(),
    ]
}

/// Counter field names in [`counter_bits`] order, for divergence messages.
pub(crate) const COUNTER_FIELDS: [&str; 16] = [
    "duration",
    "valu_busy_pct",
    "valu_utilization_pct",
    "mem_unit_busy_pct",
    "mem_unit_stalled_pct",
    "write_unit_stalled_pct",
    "norm_vgpr",
    "norm_sgpr",
    "ic_activity",
    "valu_insts",
    "vfetch_insts",
    "vwrite_insts",
    "dram_bytes",
    "achieved_bw_gbps",
    "occupancy_fraction",
    "l2_hit_rate",
];

/// Bitwise equality over the whole counter tuple.
pub fn counters_eq(a: &CounterSample, b: &CounterSample) -> bool {
    counter_bits(a) == counter_bits(b)
}

impl PartialEq for SessionEvent {
    fn eq(&self, other: &Self) -> bool {
        use SessionEvent::*;
        match (self, other) {
            (
                SessionStart { app: a1, policy: p1, fault_seed: s1 },
                SessionStart { app: a2, policy: p2, fault_seed: s2 },
            ) => a1 == a2 && p1 == p2 && s1 == s2,
            (
                Decision { kernel: k1, iteration: i1, cfg: c1 },
                Decision { kernel: k2, iteration: i2, cfg: c2 },
            ) => k1 == k2 && i1 == i2 && c1 == c2,
            (
                Actuation { kernel: k1, iteration: i1, kind: f1, wanted: w1, actual: a1 },
                Actuation { kernel: k2, iteration: i2, kind: f2, wanted: w2, actual: a2 },
            ) => k1 == k2 && i1 == i2 && f1 == f2 && w1 == w2 && a1 == a2,
            (
                ActuationResolved {
                    kernel: k1,
                    iteration: i1,
                    outcome: o1,
                    attempts: t1,
                    kinds: f1,
                    wanted: w1,
                    actual: a1,
                },
                ActuationResolved {
                    kernel: k2,
                    iteration: i2,
                    outcome: o2,
                    attempts: t2,
                    kinds: f2,
                    wanted: w2,
                    actual: a2,
                },
            ) => k1 == k2 && i1 == i2 && o1 == o2 && t1 == t2 && f1 == f2 && w1 == w2 && a1 == a2,
            (
                Sample {
                    kernel: k1,
                    iteration: i1,
                    cfg: c1,
                    time_s: t1,
                    counters: n1,
                    stepped_waves: s1,
                    fast_forwarded_waves: f1,
                },
                Sample {
                    kernel: k2,
                    iteration: i2,
                    cfg: c2,
                    time_s: t2,
                    counters: n2,
                    stepped_waves: s2,
                    fast_forwarded_waves: f2,
                },
            ) => {
                k1 == k2
                    && i1 == i2
                    && c1 == c2
                    && f64_eq(*t1, *t2)
                    && counters_eq(n1, n2)
                    && s1 == s2
                    && f1 == f2
            }
            (
                Conditioned { kernel: k1, iteration: i1, time_s: t1, counters: n1 },
                Conditioned { kernel: k2, iteration: i2, time_s: t2, counters: n2 },
            ) => k1 == k2 && i1 == i2 && f64_eq(*t1, *t2) && counters_eq(n1, n2),
            (
                SessionEnd { total_time_s: t1, card_energy_j: c1, gpu_energy_j: g1, mem_energy_j: m1 },
                SessionEnd { total_time_s: t2, card_energy_j: c2, gpu_energy_j: g2, mem_energy_j: m2 },
            ) => f64_eq(*t1, *t2) && f64_eq(*c1, *c2) && f64_eq(*g1, *g2) && f64_eq(*m1, *m2),
            _ => false,
        }
    }
}

impl Eq for SessionEvent {}

impl SessionEvent {
    /// Short stable label of the event variant.
    pub fn label(&self) -> &'static str {
        match self {
            SessionEvent::SessionStart { .. } => "session-start",
            SessionEvent::Decision { .. } => "decision",
            SessionEvent::Actuation { .. } => "actuation",
            SessionEvent::ActuationResolved { .. } => "actuation-resolved",
            SessionEvent::Sample { .. } => "sample",
            SessionEvent::Conditioned { .. } => "conditioned",
            SessionEvent::SessionEnd { .. } => "session-end",
        }
    }

    /// The kernel this event belongs to, when it has one.
    pub fn kernel(&self) -> Option<&str> {
        match self {
            SessionEvent::Decision { kernel, .. }
            | SessionEvent::Actuation { kernel, .. }
            | SessionEvent::ActuationResolved { kernel, .. }
            | SessionEvent::Sample { kernel, .. }
            | SessionEvent::Conditioned { kernel, .. } => Some(kernel),
            _ => None,
        }
    }

    /// Names the fields where `self` and `other` differ (bitwise for
    /// floats), as `field: self-value != other-value` strings. Empty when
    /// equal; a single variant-mismatch entry when the kinds differ.
    pub fn field_diffs(&self, other: &Self) -> Vec<String> {
        use SessionEvent::*;
        let mut out = Vec::new();
        match (self, other) {
            (
                SessionStart { app: a1, policy: p1, fault_seed: s1 },
                SessionStart { app: a2, policy: p2, fault_seed: s2 },
            ) => {
                if a1 != a2 {
                    push_diff(&mut out, "app", a1.clone(), a2.clone());
                }
                if p1 != p2 {
                    push_diff(&mut out, "policy", p1.clone(), p2.clone());
                }
                if s1 != s2 {
                    push_diff(&mut out, "fault_seed", s1.to_string(), s2.to_string());
                }
            }
            (
                Decision { kernel: k1, iteration: i1, cfg: c1 },
                Decision { kernel: k2, iteration: i2, cfg: c2 },
            ) => {
                if k1 != k2 {
                    push_diff(&mut out, "kernel", k1.to_string(), k2.to_string());
                }
                if i1 != i2 {
                    push_diff(&mut out, "iteration", i1.to_string(), i2.to_string());
                }
                if c1 != c2 {
                    push_diff(&mut out, "cfg", c1.to_string(), c2.to_string());
                }
            }
            (
                Actuation { kernel: k1, iteration: i1, kind: f1, wanted: w1, actual: a1 },
                Actuation { kernel: k2, iteration: i2, kind: f2, wanted: w2, actual: a2 },
            ) => {
                if k1 != k2 {
                    push_diff(&mut out, "kernel", k1.to_string(), k2.to_string());
                }
                if i1 != i2 {
                    push_diff(&mut out, "iteration", i1.to_string(), i2.to_string());
                }
                if f1 != f2 {
                    push_diff(&mut out, "kind", f1.label().to_string(), f2.label().to_string());
                }
                if w1 != w2 {
                    push_diff(&mut out, "wanted", w1.to_string(), w2.to_string());
                }
                if a1 != a2 {
                    push_diff(&mut out, "actual", a1.to_string(), a2.to_string());
                }
            }
            (
                ActuationResolved {
                    kernel: k1,
                    iteration: i1,
                    outcome: o1,
                    attempts: t1,
                    kinds: f1,
                    wanted: w1,
                    actual: a1,
                },
                ActuationResolved {
                    kernel: k2,
                    iteration: i2,
                    outcome: o2,
                    attempts: t2,
                    kinds: f2,
                    wanted: w2,
                    actual: a2,
                },
            ) => {
                if k1 != k2 {
                    push_diff(&mut out, "kernel", k1.to_string(), k2.to_string());
                }
                if i1 != i2 {
                    push_diff(&mut out, "iteration", i1.to_string(), i2.to_string());
                }
                if o1 != o2 {
                    push_diff(&mut out, "outcome", outcome_string(*o1), outcome_string(*o2));
                }
                if t1 != t2 {
                    push_diff(&mut out, "attempts", t1.to_string(), t2.to_string());
                }
                if f1 != f2 {
                    push_diff(&mut out, "kinds", kinds_string(f1), kinds_string(f2));
                }
                if w1 != w2 {
                    push_diff(&mut out, "wanted", w1.to_string(), w2.to_string());
                }
                if a1 != a2 {
                    push_diff(&mut out, "actual", a1.to_string(), a2.to_string());
                }
            }
            (
                Sample {
                    kernel: k1,
                    iteration: i1,
                    cfg: c1,
                    time_s: t1,
                    counters: n1,
                    stepped_waves: s1,
                    fast_forwarded_waves: ff1,
                },
                Sample {
                    kernel: k2,
                    iteration: i2,
                    cfg: c2,
                    time_s: t2,
                    counters: n2,
                    stepped_waves: s2,
                    fast_forwarded_waves: ff2,
                },
            ) => {
                if k1 != k2 {
                    push_diff(&mut out, "kernel", k1.to_string(), k2.to_string());
                }
                if i1 != i2 {
                    push_diff(&mut out, "iteration", i1.to_string(), i2.to_string());
                }
                if c1 != c2 {
                    push_diff(&mut out, "cfg", c1.to_string(), c2.to_string());
                }
                if !f64_eq(*t1, *t2) {
                    push_diff(&mut out, "time_s", format!("{t1:e}"), format!("{t2:e}"));
                }
                diff_counters(n1, n2, &mut out);
                if s1 != s2 {
                    push_diff(&mut out, "stepped_waves", s1.to_string(), s2.to_string());
                }
                if ff1 != ff2 {
                    push_diff(&mut out, "fast_forwarded_waves", ff1.to_string(), ff2.to_string());
                }
            }
            (
                Conditioned { kernel: k1, iteration: i1, time_s: t1, counters: n1 },
                Conditioned { kernel: k2, iteration: i2, time_s: t2, counters: n2 },
            ) => {
                if k1 != k2 {
                    push_diff(&mut out, "kernel", k1.to_string(), k2.to_string());
                }
                if i1 != i2 {
                    push_diff(&mut out, "iteration", i1.to_string(), i2.to_string());
                }
                if !f64_eq(*t1, *t2) {
                    push_diff(&mut out, "time_s", format!("{t1:e}"), format!("{t2:e}"));
                }
                diff_counters(n1, n2, &mut out);
            }
            (
                SessionEnd { total_time_s: t1, card_energy_j: c1, gpu_energy_j: g1, mem_energy_j: m1 },
                SessionEnd { total_time_s: t2, card_energy_j: c2, gpu_energy_j: g2, mem_energy_j: m2 },
            ) => {
                for (field, a, b) in [
                    ("total_time_s", t1, t2),
                    ("card_energy_j", c1, c2),
                    ("gpu_energy_j", g1, g2),
                    ("mem_energy_j", m1, m2),
                ] {
                    if !f64_eq(*a, *b) {
                        push_diff(&mut out, field, format!("{a:e}"), format!("{b:e}"));
                    }
                }
            }
            (a, b) => {
                push_diff(&mut out, "event", a.label().to_string(), b.label().to_string());
            }
        }
        out
    }
}

fn push_diff(out: &mut Vec<String>, field: &str, a: String, b: String) {
    out.push(format!("{field}: {a} != {b}"));
}

/// `retried(3)` / `applied` — the outcome label with its parameter.
fn outcome_string(o: ActuationOutcome) -> String {
    match o {
        ActuationOutcome::Retried(n) => format!("retried({n})"),
        other => other.label().to_string(),
    }
}

fn kinds_string(kinds: &[FaultKind]) -> String {
    let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    format!("[{}]", labels.join(","))
}

fn diff_counters(a: &CounterSample, b: &CounterSample, out: &mut Vec<String>) {
    let (ba, bb) = (counter_bits(a), counter_bits(b));
    for ((field, xa), xb) in COUNTER_FIELDS.iter().zip(ba).zip(bb) {
        if xa != xb {
            out.push(format!(
                "counters.{field}: {} != {}",
                f64::from_bits(xa),
                f64::from_bits(xb)
            ));
        }
    }
}

impl fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionEvent::SessionStart { app, policy, fault_seed } => {
                write!(f, "session-start app={app} policy={policy} fault_seed={fault_seed}")
            }
            SessionEvent::Decision { kernel, iteration, cfg } => {
                write!(f, "decision {kernel}#{iteration} -> {cfg}")
            }
            SessionEvent::Actuation { kernel, iteration, kind, wanted, actual } => {
                write!(
                    f,
                    "actuation {kernel}#{iteration} {} wanted {wanted} got {actual}",
                    kind.label()
                )
            }
            SessionEvent::ActuationResolved {
                kernel,
                iteration,
                outcome,
                attempts,
                kinds,
                wanted,
                actual,
            } => {
                write!(
                    f,
                    "actuation-resolved {kernel}#{iteration} {} after {attempts} attempt(s) \
                     {} wanted {wanted} got {actual}",
                    outcome_string(*outcome),
                    kinds_string(kinds)
                )
            }
            SessionEvent::Sample { kernel, iteration, cfg, time_s, counters, .. } => {
                write!(
                    f,
                    "sample {kernel}#{iteration} @ {cfg} t={time_s:.4e}s \
                     valu={:.1}% mem={:.1}% bw={:.1}GB/s occ={:.2}",
                    counters.valu_busy_pct,
                    counters.mem_unit_busy_pct,
                    counters.achieved_bw_gbps,
                    counters.occupancy_fraction
                )
            }
            SessionEvent::Conditioned { kernel, iteration, time_s, .. } => {
                write!(f, "conditioned {kernel}#{iteration} t={time_s:.4e}s")
            }
            SessionEvent::SessionEnd { total_time_s, card_energy_j, .. } => {
                write!(f, "session-end D={total_time_s:.4e}s E={card_energy_j:.4e}J")
            }
        }
    }
}

/// Accumulates [`SessionEvent`]s during a live run. Cloning shares the
/// underlying buffer, so the handle given to `Runtime::with_recorder` and
/// the one kept by the session driver see the same stream.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Arc<Mutex<Vec<SessionEvent>>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn record(&self, event: SessionEvent) {
        self.events.lock().expect("recorder poisoned").push(event);
    }

    /// Snapshot of everything recorded so far. Kernel names are shared,
    /// not copied.
    pub fn events(&self) -> Vec<SessionEvent> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encodes the recorded session in the versioned binary format,
    /// reading the events in place under the lock.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(&self.events.lock().expect("recorder poisoned"))
    }
}

/// A structural problem hit while serving a replay: the live run asked for
/// something the trace does not hold at the cursor. Replay keeps serving
/// (so the differ can localize the damage afterwards); the first problem is
/// retained here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the trace event the cursor sat at.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay error at event #{}: {}", self.at, self.message)
    }
}

struct Cursor {
    events: Vec<SessionEvent>,
    pos: usize,
    error: Option<ReplayError>,
}

impl Cursor {
    fn fail(&mut self, at: usize, message: String) {
        if self.error.is_none() {
            self.error = Some(ReplayError { at, message });
        }
    }
}

/// A recorded actuation outcome served back to the live run, in either of
/// the trace's two shapes: the v1 single-shot fault record, or the v2
/// retry-pipeline resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayedActuation {
    /// A v1 [`SessionEvent::Actuation`]: one fault fired, no retries.
    Fault {
        /// Which actuator fault fired.
        kind: FaultKind,
        /// The configuration that actually took effect.
        actual: HwConfig,
    },
    /// A v2 [`SessionEvent::ActuationResolved`]: the retry shim's terminal
    /// verdict for the invocation.
    Resolved {
        /// Terminal outcome of the retry state machine.
        outcome: ActuationOutcome,
        /// Total attempts made.
        attempts: u32,
        /// Fault kinds hit, in attempt order.
        kinds: Vec<FaultKind>,
        /// The configuration that actually took effect.
        actual: HwConfig,
    },
}

/// Serves a recorded session back to a live run: actuation outcomes to the
/// runtime's DPM shim and counter samples to a [`ReplayModel`], consuming
/// the trace strictly in order. Clones share one cursor.
#[derive(Clone)]
pub struct Replayer {
    inner: Arc<Mutex<Cursor>>,
}

impl fmt::Debug for Replayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.inner.lock().expect("replayer poisoned");
        f.debug_struct("Replayer")
            .field("events", &c.events.len())
            .field("pos", &c.pos)
            .field("error", &c.error)
            .finish()
    }
}

impl Replayer {
    /// A replayer over a decoded session.
    pub fn new(events: Vec<SessionEvent>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Cursor {
                events,
                pos: 0,
                error: None,
            })),
        }
    }

    /// The recorded actuation outcome for this invocation, if one was
    /// recorded, in either trace shape: scans past deterministic events;
    /// stops (without consuming) at the invocation's sample when actuation
    /// was clean. The recorded configuration is validated on `grid`, the
    /// grid of the device doing the replay.
    pub fn actuation_event_for(
        &self,
        grid: &GridSpec,
        kernel: &str,
        iteration: u64,
    ) -> Option<ReplayedActuation> {
        let mut c = self.inner.lock().expect("replayer poisoned");
        loop {
            let pos = c.pos;
            match c.events.get(pos) {
                Some(SessionEvent::Actuation { kernel: k, iteration: it, kind, actual, .. }) => {
                    return if **k == *kernel && *it == iteration {
                        let kind = *kind;
                        let hw = actual.to_hw_on(grid);
                        c.pos = pos + 1;
                        match hw {
                            Some(actual) => Some(ReplayedActuation::Fault { kind, actual }),
                            None => {
                                c.fail(pos, "recorded actuation is off the hardware grid".into());
                                None
                            }
                        }
                    } else {
                        let msg = format!(
                            "recorded actuation is for {k}#{it}, live run is at {kernel}#{iteration}"
                        );
                        c.fail(pos, msg);
                        c.pos = pos + 1;
                        None
                    };
                }
                Some(SessionEvent::ActuationResolved {
                    kernel: k,
                    iteration: it,
                    outcome,
                    attempts,
                    kinds,
                    actual,
                    ..
                }) => {
                    return if **k == *kernel && *it == iteration {
                        let (outcome, attempts, kinds) = (*outcome, *attempts, kinds.clone());
                        let hw = actual.to_hw_on(grid);
                        c.pos = pos + 1;
                        match hw {
                            Some(actual) => Some(ReplayedActuation::Resolved {
                                outcome,
                                attempts,
                                kinds,
                                actual,
                            }),
                            None => {
                                c.fail(
                                    pos,
                                    "recorded actuation resolution is off the hardware grid".into(),
                                );
                                None
                            }
                        }
                    } else {
                        let msg = format!(
                            "recorded actuation resolution is for {k}#{it}, \
                             live run is at {kernel}#{iteration}"
                        );
                        c.fail(pos, msg);
                        c.pos = pos + 1;
                        None
                    };
                }
                // Clean actuation for this invocation: the next stochastic
                // event is its sample. Leave it for `sample_for`.
                Some(SessionEvent::Sample { .. }) | Some(SessionEvent::SessionEnd { .. }) | None => {
                    return None;
                }
                // Deterministic bookkeeping events are re-derived live.
                Some(_) => c.pos = pos + 1,
            }
        }
    }

    /// The recorded composite sample for this invocation. Serves the next
    /// recorded sample even on a key mismatch (retaining the mismatch in
    /// [`error`](Self::error)) so the run completes and the differ can
    /// pinpoint the damage. `None` once the trace is exhausted.
    pub fn sample_for(&self, cfg: HwConfig, kernel: &str, iteration: u64) -> Option<SimResult> {
        let want: CfgPoint = cfg.into();
        let mut c = self.inner.lock().expect("replayer poisoned");
        loop {
            let pos = c.pos;
            match c.events.get(pos) {
                Some(SessionEvent::Sample {
                    kernel: k,
                    iteration: it,
                    cfg: recorded_cfg,
                    time_s,
                    counters,
                    stepped_waves,
                    fast_forwarded_waves,
                }) => {
                    let result = SimResult {
                        time: Seconds(*time_s),
                        counters: *counters,
                        fast_forward: FastForwardStats {
                            stepped_waves: *stepped_waves,
                            fast_forwarded_waves: *fast_forwarded_waves,
                        },
                    };
                    let mismatch = (**k != *kernel || *it != iteration || *recorded_cfg != want)
                        .then(|| {
                            format!(
                                "recorded sample is {k}#{it} @ {recorded_cfg}, \
                                 live run asked for {kernel}#{iteration} @ {want}"
                            )
                        });
                    c.pos = pos + 1;
                    if let Some(msg) = mismatch {
                        c.fail(pos, msg);
                    }
                    return Some(result);
                }
                Some(SessionEvent::SessionEnd { .. }) | None => {
                    c.fail(pos, format!("trace exhausted before {kernel}#{iteration}"));
                    return None;
                }
                Some(SessionEvent::Actuation { .. })
                | Some(SessionEvent::ActuationResolved { .. }) => {
                    // An actuation the runtime never asked for (e.g. replay
                    // driven without `with_replay`): note it and move on.
                    c.fail(pos, "unconsumed actuation event".into());
                    c.pos = pos + 1;
                }
                Some(_) => c.pos = pos + 1,
            }
        }
    }

    /// The first structural problem hit while serving, if any.
    pub fn error(&self) -> Option<ReplayError> {
        self.inner.lock().expect("replayer poisoned").error.clone()
    }

    /// Number of trace events not yet consumed.
    pub fn remaining(&self) -> usize {
        let c = self.inner.lock().expect("replayer poisoned");
        c.events.len() - c.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::DeviceSpec;

    const HD: GridSpec = GridSpec::HD7970;

    fn sample(kernel: &str, iteration: u64, t: f64) -> SessionEvent {
        SessionEvent::Sample {
            kernel: kernel.into(),
            iteration,
            cfg: CfgPoint { cu: 32, cu_mhz: 1000, mem_mhz: 1375 },
            time_s: t,
            counters: CounterSample::default(),
            stepped_waves: 0,
            fast_forwarded_waves: 0,
        }
    }

    #[test]
    fn nan_samples_compare_equal_bitwise() {
        let a = sample("k", 0, f64::NAN);
        let b = sample("k", 0, f64::NAN);
        assert_eq!(a, b, "identical NaN payloads must compare equal");
        assert_ne!(a, sample("k", 0, 1.0));
    }

    #[test]
    fn negative_zero_is_not_positive_zero() {
        assert_ne!(sample("k", 0, 0.0), sample("k", 0, -0.0));
    }

    #[test]
    fn field_diffs_name_the_divergent_counter() {
        let a = sample("k", 0, 1.0);
        let mut b = a.clone();
        if let SessionEvent::Sample { counters, .. } = &mut b {
            counters.valu_busy_pct = 42.0;
        }
        let diffs = a.field_diffs(&b);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].starts_with("counters.valu_busy_pct:"), "{diffs:?}");
        assert!(a.field_diffs(&a.clone()).is_empty());
    }

    #[test]
    fn replayer_serves_actuations_then_samples_in_order() {
        let cfg = CfgPoint { cu: 32, cu_mhz: 1000, mem_mhz: 1375 };
        let hw = cfg.to_hw_on(&HD).unwrap();
        let events = vec![
            SessionEvent::SessionStart {
                app: "a".into(),
                policy: "baseline".into(),
                fault_seed: 0,
            },
            SessionEvent::Decision { kernel: "k".into(), iteration: 0, cfg },
            SessionEvent::Actuation {
                kernel: "k".into(),
                iteration: 0,
                kind: FaultKind::DvfsDeny,
                wanted: cfg,
                actual: cfg,
            },
            sample("k", 0, 0.5),
            SessionEvent::Decision { kernel: "k".into(), iteration: 1, cfg },
            sample("k", 1, 0.25),
        ];
        let rep = Replayer::new(events);
        assert_eq!(
            rep.actuation_event_for(&HD, "k", 0),
            Some(ReplayedActuation::Fault {
                kind: FaultKind::DvfsDeny,
                actual: hw
            })
        );
        let r0 = rep.sample_for(hw, "k", 0).expect("sample 0");
        assert_eq!(r0.time.value(), 0.5);
        // Second invocation had clean actuation: the replayer must not
        // consume its sample while answering the actuation probe.
        assert!(rep.actuation_event_for(&HD, "k", 1).is_none());
        let r1 = rep.sample_for(hw, "k", 1).expect("sample 1");
        assert_eq!(r1.time.value(), 0.25);
        assert!(rep.error().is_none());
        assert_eq!(rep.remaining(), 0);
    }

    #[test]
    fn replayer_serves_resolved_actuations() {
        let cfg = CfgPoint { cu: 32, cu_mhz: 1000, mem_mhz: 1375 };
        let degraded = CfgPoint { cu: 24, cu_mhz: 800, mem_mhz: 1375 };
        let hw = cfg.to_hw_on(&HD).unwrap();
        let events = vec![
            SessionEvent::Decision { kernel: "k".into(), iteration: 0, cfg },
            SessionEvent::ActuationResolved {
                kernel: "k".into(),
                iteration: 0,
                outcome: ActuationOutcome::RolledBack,
                attempts: 3,
                kinds: vec![FaultKind::DvfsDeny, FaultKind::DvfsNeighbor],
                wanted: cfg,
                actual: degraded,
            },
            sample("k", 0, 0.5),
        ];
        let rep = Replayer::new(events);
        match rep.actuation_event_for(&HD, "k", 0) {
            Some(ReplayedActuation::Resolved { outcome, attempts, kinds, actual }) => {
                assert_eq!(outcome, ActuationOutcome::RolledBack);
                assert_eq!(attempts, 3);
                assert_eq!(kinds, vec![FaultKind::DvfsDeny, FaultKind::DvfsNeighbor]);
                assert_eq!(actual, degraded.to_hw_on(&HD).unwrap());
            }
            other => panic!("expected resolved actuation, got {other:?}"),
        }
        assert!(rep.sample_for(hw, "k", 0).is_some());
        assert!(rep.error().is_none());
    }

    #[test]
    fn recorded_actuations_validate_on_the_replaying_devices_grid() {
        for name in DeviceSpec::catalog() {
            let spec = DeviceSpec::lookup(name).expect("catalog name");
            let grid = spec.grid();
            let max = HwConfig::max_on(grid);
            let safe = spec.safe_state();
            let events = vec![
                SessionEvent::Decision {
                    kernel: "k".into(),
                    iteration: 0,
                    cfg: max.into(),
                },
                SessionEvent::Actuation {
                    kernel: "k".into(),
                    iteration: 0,
                    kind: FaultKind::DvfsNeighbor,
                    wanted: max.into(),
                    actual: safe.into(),
                },
                sample("k", 0, 0.5),
            ];
            let rep = Replayer::new(events.clone());
            assert_eq!(
                rep.actuation_event_for(grid, "k", 0),
                Some(ReplayedActuation::Fault {
                    kind: FaultKind::DvfsNeighbor,
                    actual: safe
                }),
                "{name}: served on its own grid"
            );
            assert!(rep.error().is_none(), "{name}: {:?}", rep.error());
            if *grid != HD {
                // The same trace read on the HD7970 grid is off it.
                let rep = Replayer::new(events);
                assert!(rep.actuation_event_for(&HD, "k", 0).is_none());
                let err = rep.error().expect("off-grid actuation flagged");
                assert!(
                    err.message.contains("off the hardware grid"),
                    "{name}: {err}"
                );
            }
        }
    }

    #[test]
    fn exhausted_trace_is_reported() {
        let rep = Replayer::new(vec![]);
        let hw = HwConfig::max_hd7970();
        assert!(rep.sample_for(hw, "k", 0).is_none());
        let err = rep.error().expect("exhaustion recorded");
        assert!(err.message.contains("exhausted"), "{err}");
    }

    #[test]
    fn sample_key_mismatch_is_served_but_flagged() {
        let hw = HwConfig::max_hd7970();
        let rep = Replayer::new(vec![sample("k", 3, 0.5)]);
        let r = rep.sample_for(hw, "k", 7).expect("still served");
        assert_eq!(r.time.value(), 0.5);
        assert!(rep.error().is_some());
    }
}
