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
//! Each variant's fields are listed once, in codec order, over a closed set
//! of field kinds (kernel name, string, integer, float, configuration,
//! counter sample, fault kind, fault-kind list, actuation outcome). The
//! encoder, bitwise equality, [`SessionEvent::field_diffs`], `kernel()` and
//! `configs()` walk that list; only the decoder and `Display` are written
//! per variant.
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

use codec::{
    LABELS, TAG_ACTUATION, TAG_ACTUATION_RESOLVED, TAG_CONDITIONED, TAG_DECISION, TAG_SAMPLE,
    TAG_SESSION_END, TAG_SESSION_START,
};
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

/// One field of a [`SessionEvent`], borrowed from it. Each kind has one
/// wire form ([`codec::encode`]), one equality (bitwise on floats) and one
/// rendering. A `Kernel` is interned on the wire, a `Str` written inline.
#[derive(Clone, Copy)]
pub(crate) enum FieldRef<'a> {
    Kernel(&'a str),
    Str(&'a str),
    Int(u64),
    Float(f64),
    Cfg(CfgPoint),
    Counters(&'a CounterSample),
    Fault(FaultKind),
    Faults(&'a [FaultKind]),
    Outcome(ActuationOutcome),
}

impl PartialEq for FieldRef<'_> {
    // Inlined into `SameAs`, where one side's kind is a constant.
    #[inline(always)]
    fn eq(&self, other: &Self) -> bool {
        use FieldRef::*;
        match (*self, *other) {
            (Kernel(a), Kernel(b)) | (Str(a), Str(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Cfg(a), Cfg(b)) => a == b,
            (Counters(a), Counters(b)) => counters_eq(a, b),
            (Fault(a), Fault(b)) => a == b,
            (Faults(a), Faults(b)) => a == b,
            (Outcome(a), Outcome(b)) => a == b,
            _ => false,
        }
    }
}

/// How the differ prints a field: floats in `{:e}` form, fault kinds and
/// outcomes by label (`retried(3)` carries its count), kind lists as
/// `[deny,delay]`.
impl fmt::Display for FieldRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldRef::Kernel(s) | FieldRef::Str(s) => f.write_str(s),
            FieldRef::Int(v) => write!(f, "{v}"),
            FieldRef::Float(v) => write!(f, "{v:e}"),
            FieldRef::Cfg(c) => write!(f, "{c}"),
            FieldRef::Counters(c) => write!(f, "{c:?}"),
            FieldRef::Fault(kind) => f.write_str(kind.label()),
            FieldRef::Faults(kinds) => {
                let labels: Vec<&str> = kinds.iter().map(|kind| kind.label()).collect();
                write!(f, "[{}]", labels.join(","))
            }
            FieldRef::Outcome(ActuationOutcome::Retried(n)) => write!(f, "retried({n})"),
            FieldRef::Outcome(outcome) => f.write_str(outcome.label()),
        }
    }
}

/// The most fields any variant has.
const MAX_FIELDS: usize = 7;

/// An event's tag and `(name, field)` pairs, collected from
/// [`SessionEvent::fields`]. Entries past the event's fields are
/// `("", Int(0))`: no scan matches them, and they compare equal.
pub(crate) struct Fields<'a> {
    pub(crate) tag: u8,
    len: usize,
    list: [(&'static str, FieldRef<'a>); MAX_FIELDS],
}

/// Receives an event's fields in codec order from [`SessionEvent::fields`].
/// Implementations inline `field` always: at each call there the field's
/// kind is a constant, so the match on it folds away and a visitor runs as
/// fast as code written per variant.
pub(crate) trait FieldVisitor<'a> {
    fn field(&mut self, name: &'static str, field: FieldRef<'a>);
}

impl<'a> Fields<'a> {
    fn of(event: &'a SessionEvent) -> Self {
        let mut fields = Self {
            tag: 0,
            len: 0,
            list: [("", FieldRef::Int(0)); MAX_FIELDS],
        };
        fields.tag = event.fields(&mut fields);
        fields
    }
}

impl<'a> FieldVisitor<'a> for Fields<'a> {
    #[inline(always)]
    fn field(&mut self, name: &'static str, field: FieldRef<'a>) {
        self.list[self.len] = (name, field);
        self.len += 1;
    }
}

/// Compares an event's fields, as they are visited, with another's.
struct SameAs<'a> {
    theirs: Fields<'a>,
    at: usize,
    same: bool,
}

impl<'a> FieldVisitor<'a> for SameAs<'a> {
    #[inline(always)]
    fn field(&mut self, _: &'static str, field: FieldRef<'a>) {
        self.same &= field == self.theirs.list[self.at].1;
        self.at += 1;
    }
}

/// One counter's value: an `f64`'s bit pattern, or an integer (a varint on
/// the wire). Equality is on the bits.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Counter {
    F64(u64),
    Int(u64),
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Counter::F64(bits) => write!(f, "{}", f64::from_bits(bits)),
            Counter::Int(v) => write!(f, "{v}"),
        }
    }
}

/// Hands `CounterSample`'s sixteen fields to `field` in codec order, each
/// named and read as `f64` bits or an integer: the one list the encoder,
/// equality and the differ read.
pub(crate) fn counter_fields(c: &CounterSample, mut field: impl FnMut(&'static str, Counter)) {
    use Counter::{Int, F64};
    field("duration", F64(c.duration.value().to_bits()));
    field("valu_busy_pct", F64(c.valu_busy_pct.to_bits()));
    field(
        "valu_utilization_pct",
        F64(c.valu_utilization_pct.to_bits()),
    );
    field("mem_unit_busy_pct", F64(c.mem_unit_busy_pct.to_bits()));
    field(
        "mem_unit_stalled_pct",
        F64(c.mem_unit_stalled_pct.to_bits()),
    );
    field(
        "write_unit_stalled_pct",
        F64(c.write_unit_stalled_pct.to_bits()),
    );
    field("norm_vgpr", F64(c.norm_vgpr.to_bits()));
    field("norm_sgpr", F64(c.norm_sgpr.to_bits()));
    field("ic_activity", F64(c.ic_activity.to_bits()));
    field("valu_insts", Int(c.valu_insts));
    field("vfetch_insts", Int(c.vfetch_insts));
    field("vwrite_insts", Int(c.vwrite_insts));
    field("dram_bytes", F64(c.dram_bytes.to_bits()));
    field("achieved_bw_gbps", F64(c.achieved_bw_gbps.to_bits()));
    field("occupancy_fraction", F64(c.occupancy_fraction.to_bits()));
    field("l2_hit_rate", F64(c.l2_hit_rate.to_bits()));
}

/// The counter tuple's values, in codec order.
pub(crate) fn counter_values(c: &CounterSample) -> [Counter; 16] {
    let (mut values, mut i) = ([Counter::Int(0); 16], 0);
    counter_fields(c, |_, value| {
        values[i] = value;
        i += 1;
    });
    values
}

/// Bitwise equality over the whole counter tuple.
pub fn counters_eq(a: &CounterSample, b: &CounterSample) -> bool {
    counter_values(a) == counter_values(b)
}

impl PartialEq for SessionEvent {
    fn eq(&self, other: &Self) -> bool {
        let mut cmp = SameAs {
            theirs: Fields::of(other),
            at: 0,
            same: true,
        };
        let tag = self.fields(&mut cmp);
        cmp.same && tag == cmp.theirs.tag
    }
}

impl Eq for SessionEvent {}

impl SessionEvent {
    /// Hands the event's fields to `v` as `(name, value)` pairs in codec
    /// order and returns its wire tag — the one place a variant's fields are
    /// listed.
    pub(crate) fn fields<'a>(&'a self, v: &mut impl FieldVisitor<'a>) -> u8 {
        use FieldRef::*;
        match self {
            Self::SessionStart {
                app,
                policy,
                fault_seed,
            } => {
                v.field("app", Str(app));
                v.field("policy", Str(policy));
                v.field("fault_seed", Int(*fault_seed));
                TAG_SESSION_START
            }
            Self::Decision {
                kernel,
                iteration,
                cfg,
            } => {
                v.field("kernel", Kernel(kernel));
                v.field("iteration", Int(*iteration));
                v.field("cfg", Cfg(*cfg));
                TAG_DECISION
            }
            Self::Actuation {
                kernel,
                iteration,
                kind,
                wanted,
                actual,
            } => {
                v.field("kernel", Kernel(kernel));
                v.field("iteration", Int(*iteration));
                v.field("kind", Fault(*kind));
                v.field("wanted", Cfg(*wanted));
                v.field("actual", Cfg(*actual));
                TAG_ACTUATION
            }
            Self::ActuationResolved {
                kernel,
                iteration,
                outcome,
                attempts,
                kinds,
                wanted,
                actual,
            } => {
                v.field("kernel", Kernel(kernel));
                v.field("iteration", Int(*iteration));
                v.field("outcome", Outcome(*outcome));
                v.field("attempts", Int(u64::from(*attempts)));
                v.field("kinds", Faults(kinds));
                v.field("wanted", Cfg(*wanted));
                v.field("actual", Cfg(*actual));
                TAG_ACTUATION_RESOLVED
            }
            Self::Sample {
                kernel,
                iteration,
                cfg,
                time_s,
                counters,
                stepped_waves,
                fast_forwarded_waves,
            } => {
                v.field("kernel", Kernel(kernel));
                v.field("iteration", Int(*iteration));
                v.field("cfg", Cfg(*cfg));
                v.field("time_s", Float(*time_s));
                v.field("counters", Counters(counters));
                v.field("stepped_waves", Int(*stepped_waves));
                v.field("fast_forwarded_waves", Int(*fast_forwarded_waves));
                TAG_SAMPLE
            }
            Self::Conditioned {
                kernel,
                iteration,
                time_s,
                counters,
            } => {
                v.field("kernel", Kernel(kernel));
                v.field("iteration", Int(*iteration));
                v.field("time_s", Float(*time_s));
                v.field("counters", Counters(counters));
                TAG_CONDITIONED
            }
            Self::SessionEnd {
                total_time_s,
                card_energy_j,
                gpu_energy_j,
                mem_energy_j,
            } => {
                v.field("total_time_s", Float(*total_time_s));
                v.field("card_energy_j", Float(*card_energy_j));
                v.field("gpu_energy_j", Float(*gpu_energy_j));
                v.field("mem_energy_j", Float(*mem_energy_j));
                TAG_SESSION_END
            }
        }
    }

    /// Short stable label of the event variant.
    pub fn label(&self) -> &'static str {
        LABELS[usize::from(Fields::of(self).tag)]
    }

    /// The kernel this event belongs to, when it has one.
    pub fn kernel(&self) -> Option<&str> {
        let fields = Fields::of(self).list;
        fields.into_iter().find_map(|(_, field)| match field {
            FieldRef::Kernel(name) => Some(name),
            _ => None,
        })
    }

    /// Every configuration point the event carries, in codec order: a
    /// decision's or sample's `cfg`, an actuation's `wanted` then `actual`.
    pub fn configs(&self) -> impl Iterator<Item = CfgPoint> + '_ {
        let fields = Fields::of(self).list;
        fields.into_iter().filter_map(|(_, field)| match field {
            FieldRef::Cfg(cfg) => Some(cfg),
            _ => None,
        })
    }

    /// Names the fields where `self` and `other` differ (bitwise for
    /// floats), as `field: self-value != other-value` strings. Empty when
    /// equal; a single variant-mismatch entry when the kinds differ.
    pub fn field_diffs(&self, other: &Self) -> Vec<String> {
        let (a, b) = (Fields::of(self), Fields::of(other));
        if a.tag != b.tag {
            return vec![format!("event: {} != {}", self.label(), other.label())];
        }
        let mut out = Vec::new();
        for ((name, x), (_, y)) in a.list.into_iter().zip(b.list) {
            match (x, y) {
                (FieldRef::Counters(p), FieldRef::Counters(q)) => {
                    let (theirs, mut i) = (counter_values(q), 0);
                    counter_fields(p, |field, u| {
                        if u != theirs[i] {
                            out.push(format!("counters.{field}: {u} != {}", theirs[i]));
                        }
                        i += 1;
                    });
                }
                _ if x != y => out.push(format!("{name}: {x} != {y}")),
                _ => {}
            }
        }
        out
    }
}

impl fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SessionStart {
                app,
                policy,
                fault_seed,
            } => write!(
                f,
                "session-start app={app} policy={policy} fault_seed={fault_seed}"
            ),
            Self::Decision {
                kernel,
                iteration,
                cfg,
            } => write!(f, "decision {kernel}#{iteration} -> {cfg}"),
            Self::Actuation {
                kernel,
                iteration,
                kind,
                wanted,
                actual,
            } => write!(
                f,
                "actuation {kernel}#{iteration} {} wanted {wanted} got {actual}",
                kind.label()
            ),
            Self::ActuationResolved {
                kernel,
                iteration,
                outcome,
                attempts,
                kinds,
                wanted,
                actual,
            } => write!(
                f,
                "actuation-resolved {kernel}#{iteration} {} after {attempts} attempt(s) \
                 {} wanted {wanted} got {actual}",
                FieldRef::Outcome(*outcome),
                FieldRef::Faults(kinds)
            ),
            Self::Sample {
                kernel,
                iteration,
                cfg,
                time_s,
                counters,
                ..
            } => write!(
                f,
                "sample {kernel}#{iteration} @ {cfg} t={time_s:.4e}s \
                 valu={:.1}% mem={:.1}% bw={:.1}GB/s occ={:.2}",
                counters.valu_busy_pct,
                counters.mem_unit_busy_pct,
                counters.achieved_bw_gbps,
                counters.occupancy_fraction
            ),
            Self::Conditioned {
                kernel,
                iteration,
                time_s,
                ..
            } => write!(f, "conditioned {kernel}#{iteration} t={time_s:.4e}s"),
            Self::SessionEnd {
                total_time_s,
                card_energy_j,
                ..
            } => write!(
                f,
                "session-end D={total_time_s:.4e}s E={card_energy_j:.4e}J"
            ),
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

/// A perturbed actuation: how one invocation's configuration transition
/// went when it did not simply apply. The live run's DPM shim produces it,
/// the session trace records it as one of two events, and replay serves it
/// back from there.
#[derive(Debug, Clone, PartialEq)]
pub enum Actuation {
    /// A single-shot fault (no retry shim), recorded as
    /// [`SessionEvent::Actuation`].
    Fault {
        /// Which actuator fault fired.
        kind: FaultKind,
        /// The configuration that actually took effect.
        actual: HwConfig,
    },
    /// The retry shim's terminal verdict after one or more perturbed
    /// attempts, recorded as [`SessionEvent::ActuationResolved`].
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
    ) -> Option<Actuation> {
        let mut c = self.inner.lock().expect("replayer poisoned");
        loop {
            let pos = c.pos;
            let (what, k, it, served) = match c.events.get(pos) {
                Some(SessionEvent::Actuation {
                    kernel,
                    iteration,
                    kind,
                    actual,
                    ..
                }) => (
                    "actuation",
                    kernel,
                    *iteration,
                    actual.to_hw_on(grid).map(|actual| Actuation::Fault {
                        kind: *kind,
                        actual,
                    }),
                ),
                Some(SessionEvent::ActuationResolved {
                    kernel,
                    iteration,
                    outcome,
                    attempts,
                    kinds,
                    actual,
                    ..
                }) => (
                    "actuation resolution",
                    kernel,
                    *iteration,
                    actual.to_hw_on(grid).map(|actual| Actuation::Resolved {
                        outcome: *outcome,
                        attempts: *attempts,
                        kinds: kinds.clone(),
                        actual,
                    }),
                ),
                // Clean actuation for this invocation: the next stochastic
                // event is its sample. Leave it for `sample_for`.
                Some(SessionEvent::Sample { .. } | SessionEvent::SessionEnd { .. }) | None => {
                    return None
                }
                // Deterministic bookkeeping events are re-derived live.
                Some(_) => {
                    c.pos = pos + 1;
                    continue;
                }
            };
            let message = if **k != *kernel || it != iteration {
                format!("recorded {what} is for {k}#{it}, live run is at {kernel}#{iteration}")
            } else if served.is_some() {
                c.pos = pos + 1;
                return served;
            } else {
                format!("recorded {what} is off the hardware grid")
            };
            c.fail(pos, message);
            c.pos = pos + 1;
            return None;
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
                Some(SessionEvent::Actuation { .. } | SessionEvent::ActuationResolved { .. }) => {
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
            cfg: CfgPoint {
                cu: 32,
                cu_mhz: 1000,
                mem_mhz: 1375,
            },
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
        let cfg = CfgPoint {
            cu: 32,
            cu_mhz: 1000,
            mem_mhz: 1375,
        };
        let hw = cfg.to_hw_on(&HD).unwrap();
        let events = vec![
            SessionEvent::SessionStart {
                app: "a".into(),
                policy: "baseline".into(),
                fault_seed: 0,
            },
            SessionEvent::Decision {
                kernel: "k".into(),
                iteration: 0,
                cfg,
            },
            SessionEvent::Actuation {
                kernel: "k".into(),
                iteration: 0,
                kind: FaultKind::DvfsDeny,
                wanted: cfg,
                actual: cfg,
            },
            sample("k", 0, 0.5),
            SessionEvent::Decision {
                kernel: "k".into(),
                iteration: 1,
                cfg,
            },
            sample("k", 1, 0.25),
        ];
        let rep = Replayer::new(events);
        assert_eq!(
            rep.actuation_event_for(&HD, "k", 0),
            Some(Actuation::Fault {
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
        let cfg = CfgPoint {
            cu: 32,
            cu_mhz: 1000,
            mem_mhz: 1375,
        };
        let degraded = CfgPoint {
            cu: 24,
            cu_mhz: 800,
            mem_mhz: 1375,
        };
        let hw = cfg.to_hw_on(&HD).unwrap();
        let events = vec![
            SessionEvent::Decision {
                kernel: "k".into(),
                iteration: 0,
                cfg,
            },
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
            Some(Actuation::Resolved {
                outcome,
                attempts,
                kinds,
                actual,
            }) => {
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
                Some(Actuation::Fault {
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
