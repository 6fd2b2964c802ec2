//! Batched config-grid sweeps and incremental re-sweep planning.
//!
//! A Harmonia governor decision is an argmin over the full compute/memory
//! configuration grid (PAPER.md §5–6). This module holds the machinery that
//! makes those argmins cheap without changing a single decision:
//!
//! * [`SweepPoint`] — the objective-relevant projection of one simulation
//!   (time plus the three power-model activity inputs), so objective
//!   closures live *outside* the sim crate (the ED² oracle supplies power
//!   through [`SweepObjective`]).
//! * [`SweepTerms`] — per-lane coefficients of the timing expression
//!   factored by phase scale, produced by
//!   [`TimingModel::sweep_terms`]. The interval model's execution time is
//!   `max(max(A·s_c, B·s_c + C), M·s_m, T·s_c) + overhead` per lane, so a
//!   phase-scale change can be *approximately* re-evaluated in a handful of
//!   flops per lane.
//! * [`SweepPlan`] — a per-kernel plan that memoizes decisions per phase
//!   scale, performs the cold sweep as one batched pass, and re-sweeps
//!   *incrementally* when only the phase scale changes: the approximate
//!   pass bounds the set of lanes whose objective could be minimal (the
//!   limiter-flip frontier), and only that frontier is re-evaluated
//!   exactly, through the very same batch kernel — so the returned
//!   [`SimResult`] and the argmin are byte-identical to a cold sweep.
//!
//! # Why the frontier is sound
//!
//! The approximate per-lane objective uses (a) the exact scale
//! factorization of the timing expression (exact in real arithmetic,
//! differing from the scalar path only by floating-point reassociation,
//! relative error ~1e-15) and (b) an objective bound the caller guarantees
//! agrees with its exact objective to within the plan's epsilon
//! ([`SweepPlan::with_epsilon`], default `1e-9` — about six orders of
//! magnitude of safety margin over both error sources). Every lane whose
//! approximate objective lies within `epsilon` (relatively) of the
//! approximate minimum is re-evaluated exactly; all true-argmin candidates
//! — including exact ties — land in that set, and the exact fold visits
//! them in ascending lane order with a strict `<`, which reproduces the
//! full-grid fold's first-minimum tie-break.

use crate::model::{SimResult, TimingModel};
use crate::profile::KernelProfile;
use harmonia_types::HwConfig;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The objective-relevant projection of one simulated point: execution
/// time plus the activity factors the power model consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Kernel execution time in seconds.
    pub time: f64,
    /// VALU activity factor (busy × utilization, 0..1).
    pub valu_activity: f64,
    /// Achieved DRAM traffic rate in bytes per second.
    pub dram_bytes_per_sec: f64,
    /// Interconnect/DRAM-bus activity fraction (0..1).
    pub ic_activity: f64,
}

impl SweepPoint {
    /// Projects a full simulation result onto the objective inputs.
    pub fn from_result(r: &SimResult) -> Self {
        Self {
            time: r.time.value(),
            valu_activity: r.counters.valu_activity(),
            dram_bytes_per_sec: r.counters.dram_bytes_per_sec(),
            ic_activity: r.counters.ic_activity,
        }
    }
}

/// Per-lane coefficients of a timing model's phase-scale factorization at
/// unit scale (see [`TimingModel::sweep_terms`]): for lane `i`,
///
/// ```text
/// t(s_c, s_m) ≈ max(max(A_i·s_c, B_i·s_c + C_i), M_i·s_m, T_i·s_c) + overhead
/// ```
///
/// with `A = interval_wave`, `B = interval_base`, `C = interval_wait`,
/// `M = mem_bound`, `T = compute_busy`. DRAM traffic scales as
/// `dram_bytes·s_m`. The relation is exact in real arithmetic for the
/// interval model; in floats it agrees with the scalar path to rounding
/// error, which is why it is used only to *bound* re-sweeps, never to
/// produce returned results.
#[derive(Debug, Clone)]
pub struct SweepTerms {
    /// `A`: wave-throughput-limited interval coefficient (`·s_c`).
    pub interval_wave: Vec<f64>,
    /// `B`: compute-block coefficient of the latency-bound path (`·s_c`).
    pub interval_base: Vec<f64>,
    /// `C`: scale-independent memory-wait term of the latency-bound path.
    pub interval_wait: Vec<f64>,
    /// `T`: compute-roofline time at unit compute scale (`·s_c`).
    pub compute_busy: Vec<f64>,
    /// `M`: bandwidth/L2 roofline time at unit memory scale (`·s_m`).
    pub mem_bound: Vec<f64>,
    /// DRAM traffic at unit memory scale (`·s_m`), bytes.
    pub dram_bytes: Vec<f64>,
    /// Theoretical peak DRAM bandwidth, bytes per second.
    pub peak_bw: Vec<f64>,
    /// Reciprocal of `peak_bw` — lets bulk objective passes trade the
    /// per-lane division for a multiplication.
    pub inv_peak_bw: Vec<f64>,
    /// Scale-independent launch overhead, seconds.
    pub overhead: f64,
    /// VALU utilization fraction (0..1), kernel-wide.
    pub valu_utilization: f64,
}

impl SweepTerms {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.compute_busy.len()
    }

    /// Whether the terms cover no lanes.
    pub fn is_empty(&self) -> bool {
        self.compute_busy.is_empty()
    }

    /// Approximates lane `lane`'s [`SweepPoint`] at phase scale
    /// `(s_c, s_m)` — a handful of flops, no simulation.
    pub fn approx_point(&self, lane: usize, s_c: f64, s_m: f64) -> SweepPoint {
        let t_interval =
            (self.interval_wave[lane] * s_c).max(self.interval_base[lane] * s_c + self.interval_wait[lane]);
        let t_compute = self.compute_busy[lane] * s_c;
        let time = t_interval.max(self.mem_bound[lane] * s_m).max(t_compute) + self.overhead;
        let dram = self.dram_bytes[lane] * s_m;
        let (valu_activity, dram_bytes_per_sec, ic_activity) = if time > 0.0 {
            let rate = dram / time;
            (
                (t_compute.min(time) / time).clamp(0.0, 1.0) * self.valu_utilization,
                rate,
                (rate / self.peak_bw[lane]).clamp(0.0, 1.0),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        SweepPoint {
            time,
            valu_activity,
            dram_bytes_per_sec,
            ic_activity,
        }
    }
}

/// An argmin objective over swept configurations.
///
/// `exact` is evaluated on points derived from full simulation results and
/// defines the decision; `approx` is evaluated on
/// [`SweepTerms::approx_point`] projections and is used *only* to select
/// the incremental re-sweep frontier — it must agree with `exact` to
/// within the plan's epsilon for identical inputs (the default delegates
/// to `exact`, which trivially qualifies).
pub trait SweepObjective {
    /// The decision objective (lower is better) for `cfg` at `point`.
    fn exact(&self, cfg: HwConfig, lane: usize, point: &SweepPoint) -> f64;

    /// A cheap frontier bound; must track `exact` to within the plan's
    /// epsilon on identical points.
    fn approx(&self, cfg: HwConfig, lane: usize, point: &SweepPoint) -> f64 {
        self.exact(cfg, lane, point)
    }

    /// Bulk frontier bound: fill `out` with the approximate objective of
    /// every lane at phase scale `(s_c, s_m)` straight from the terms
    /// columns, returning `true` if handled. The default returns `false`,
    /// making [`SweepPlan`] fall back to per-lane
    /// [`SweepTerms::approx_point`] + [`SweepObjective::approx`] calls.
    /// Overriding lets an objective fuse the roofline and scoring algebra
    /// into one tight pass over the flat columns — this is the incremental
    /// re-sweep hot path, so the fused loop should be branch- and
    /// division-free where possible.
    fn approx_sweep(&self, terms: &SweepTerms, s_c: f64, s_m: f64, out: &mut Vec<f64>) -> bool {
        let _ = (terms, s_c, s_m, out);
        false
    }
}

/// Plain closures `Fn(HwConfig, &SweepPoint) -> f64` are objectives (the
/// exact and approximate paths coincide).
impl<F: Fn(HwConfig, &SweepPoint) -> f64> SweepObjective for F {
    fn exact(&self, cfg: HwConfig, _lane: usize, point: &SweepPoint) -> f64 {
        self(cfg, point)
    }
}

/// How a [`SweepPlan::decide`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Replayed from the per-scale memo, no simulation at all.
    Memo,
    /// A full batched sweep over every configuration.
    Cold,
    /// An incremental re-sweep: only the limiter-flip frontier was
    /// re-evaluated exactly.
    Incremental,
}

/// One grid decision: the argmin configuration, its simulation result, and
/// the objective value that won.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Index of the winning configuration in the plan's grid order.
    pub index: usize,
    /// The winning configuration.
    pub config: HwConfig,
    /// The winning configuration's (exact) simulation result.
    pub result: SimResult,
    /// The winning (exact) objective value.
    pub objective: f64,
    /// How this decision was computed.
    pub kind: DecisionKind,
}

/// Accounting for one plan's sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Full batched sweeps performed.
    pub cold_sweeps: usize,
    /// Incremental (frontier-only) re-sweeps performed.
    pub incremental_sweeps: usize,
    /// Decisions replayed from the per-scale memo.
    pub memo_hits: usize,
    /// Total lanes evaluated exactly across all sweeps.
    pub exact_lanes: usize,
}

/// Memo key: the phase-scale bit patterns plus — for models that are not
/// phase-determined — the raw iteration.
type ScaleKey = (u64, u64, u64);

/// A multiply-xorshift hasher for the per-decision lookup maps: the
/// [`SweepPlan`] phase-scale memo, the [`SimCache`](crate::sweep::SimCache)
/// shards, and the fleet's plan map. Their keys are trusted in-process
/// words — phase-scale bit patterns, configurations, and FNV-1a kernel and
/// device fingerprints that are already well mixed — with no DoS surface,
/// so these maps skip SipHash on the hot path. Use it through
/// `BuildHasherDefault<ScaleKeyHasher>`.
#[derive(Debug, Default)]
pub struct ScaleKeyHasher(u64);

impl Hasher for ScaleKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        // One round per word, not per byte (configurations hash as u32s).
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci-constant multiply with an xorshift to spread low bits.
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

type ScaleMemo = HashMap<ScaleKey, Decision, BuildHasherDefault<ScaleKeyHasher>>;

/// A per-kernel sweep plan: batched cold sweeps, per-phase-scale decision
/// memoization, and incremental frontier re-sweeps when the model exposes
/// [`SweepTerms`].
///
/// The plan is keyed to one kernel, one model fidelity, and one device; if
/// any of them changes between calls, all cached state is invalidated and
/// rebuilt.
#[derive(Debug)]
pub struct SweepPlan {
    configs: Vec<HwConfig>,
    /// `(kernel cache key, model fidelity key, model device key)` the
    /// cached state belongs to — a model simulating a different catalog
    /// device invalidates the plan exactly like a new kernel.
    identity: Option<(u64, u64, u64)>,
    terms: Option<SweepTerms>,
    terms_probed: bool,
    /// Whether the current identity has completed its reference cold sweep.
    cold_done: bool,
    decisions: ScaleMemo,
    epsilon: f64,
    stats: PlanStats,
    /// Reusable buffers for the incremental hot path (approximate
    /// objectives, frontier lane indices, frontier configs) — kept on the
    /// plan so a re-sweep allocates nothing.
    scratch_objs: Vec<f64>,
    scratch_frontier: Vec<usize>,
    scratch_lanes: Vec<HwConfig>,
}

impl SweepPlan {
    /// Creates a plan over `configs` (the grid order defines argmin
    /// tie-breaking: first strict minimum wins).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty — an argmin over nothing is undefined.
    pub fn new(configs: Vec<HwConfig>) -> Self {
        assert!(!configs.is_empty(), "a sweep plan needs at least one config");
        Self {
            configs,
            identity: None,
            terms: None,
            terms_probed: false,
            cold_done: false,
            decisions: ScaleMemo::default(),
            epsilon: 1e-9,
            stats: PlanStats::default(),
            scratch_objs: Vec::new(),
            scratch_frontier: Vec::new(),
            scratch_lanes: Vec::new(),
        }
    }

    /// Overrides the relative frontier margin (default `1e-9`). Larger
    /// values re-evaluate more lanes per incremental re-sweep; smaller
    /// values require a tighter [`SweepObjective::approx`].
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon.abs();
        self
    }

    /// The grid, in decision order.
    pub fn configs(&self) -> &[HwConfig] {
        &self.configs
    }

    /// Sweep accounting so far.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Decides the argmin configuration for `kernel` at `iteration`.
    ///
    /// Repeated scales replay the memoized decision; the first sweep for a
    /// kernel is a full batched pass; subsequent *new* scales re-evaluate
    /// only the frontier when the model provides [`SweepTerms`]. Exact
    /// results always come from `model.simulate_batch`, so every returned
    /// [`Decision`] is byte-identical to what a full sweep would return.
    pub fn decide<M, O>(
        &mut self,
        model: &M,
        kernel: &KernelProfile,
        iteration: u64,
        objective: &O,
    ) -> Decision
    where
        M: TimingModel + ?Sized,
        O: SweepObjective + ?Sized,
    {
        self.decide_keyed(model, kernel, kernel.cache_key(), iteration, objective)
    }

    /// [`decide`](Self::decide) for a caller that already holds the
    /// kernel's [`KernelProfile::cache_key`] — a session replaying the same
    /// kernel every tick hashes it once, not once per decision.
    pub fn decide_keyed<M, O>(
        &mut self,
        model: &M,
        kernel: &KernelProfile,
        kernel_key: u64,
        iteration: u64,
        objective: &O,
    ) -> Decision
    where
        M: TimingModel + ?Sized,
        O: SweepObjective + ?Sized,
    {
        debug_assert_eq!(kernel_key, kernel.cache_key(), "stale kernel key");
        let identity = (kernel_key, model.fidelity_key(), model.device_key());
        if self.identity != Some(identity) {
            self.identity = Some(identity);
            self.terms = None;
            self.terms_probed = false;
            self.cold_done = false;
            self.decisions.clear();
        }
        let scale = kernel.phase.scale_for(iteration);
        let key: ScaleKey = (
            scale.compute.to_bits(),
            scale.memory.to_bits(),
            if model.phase_determined() { 0 } else { iteration },
        );
        if let Some(d) = self.decisions.get(&key) {
            self.stats.memo_hits += 1;
            return Decision {
                kind: DecisionKind::Memo,
                ..*d
            };
        }
        if !self.terms_probed {
            self.terms = model.sweep_terms(&self.configs, kernel);
            self.terms_probed = true;
        }
        // Incremental re-sweeps need a phase-determined model (otherwise
        // the factorization does not capture the iteration dependence) and
        // at least one completed cold sweep as the plan's reference.
        let incremental = model.phase_determined() && self.cold_done && self.terms.is_some();
        let decision = if incremental {
            let mut objs = std::mem::take(&mut self.scratch_objs);
            let mut frontier = std::mem::take(&mut self.scratch_frontier);
            let mut lanes = std::mem::take(&mut self.scratch_lanes);
            {
                let terms = self.terms.as_ref().expect("checked above");
                self.frontier_into(
                    terms,
                    scale.compute,
                    scale.memory,
                    objective,
                    &mut objs,
                    &mut frontier,
                );
            }
            lanes.clear();
            lanes.extend(frontier.iter().map(|&lane| self.configs[lane]));
            let results = model.simulate_batch(&lanes, kernel, iteration);
            self.stats.incremental_sweeps += 1;
            self.stats.exact_lanes += frontier.len();
            let decision = self.fold(
                frontier.iter().copied().zip(results),
                objective,
                DecisionKind::Incremental,
            );
            self.scratch_objs = objs;
            self.scratch_frontier = frontier;
            self.scratch_lanes = lanes;
            decision
        } else {
            let results = model.simulate_batch(&self.configs, kernel, iteration);
            self.stats.cold_sweeps += 1;
            self.cold_done = true;
            self.stats.exact_lanes += self.configs.len();
            self.fold(
                (0..self.configs.len()).zip(results),
                objective,
                DecisionKind::Cold,
            )
        };
        self.decisions.insert(key, decision);
        decision
    }

    /// Fills `out` with the lanes whose approximate objective lies within
    /// the epsilon margin of the approximate minimum — the set that can
    /// contain the true argmin. `objs` is the caller's score buffer; both
    /// are cleared and refilled so the hot path reuses their capacity.
    fn frontier_into<O: SweepObjective + ?Sized>(
        &self,
        terms: &SweepTerms,
        s_c: f64,
        s_m: f64,
        objective: &O,
        objs: &mut Vec<f64>,
        out: &mut Vec<usize>,
    ) {
        let n = self.configs.len();
        if !objective.approx_sweep(terms, s_c, s_m, objs) {
            objs.clear();
            objs.reserve(n);
            for lane in 0..n {
                let point = terms.approx_point(lane, s_c, s_m);
                objs.push(objective.approx(self.configs[lane], lane, &point));
            }
        }
        debug_assert_eq!(objs.len(), n, "approx_sweep must score every lane");
        // Eight-way accumulators break the serial `min` dependency chain
        // (one fused-min latency per element otherwise dominates the pass).
        let mut acc = [f64::INFINITY; 8];
        let mut chunks = objs.chunks_exact(8);
        for c in &mut chunks {
            for (a, &x) in acc.iter_mut().zip(c) {
                *a = a.min(x);
            }
        }
        let mut best = f64::INFINITY;
        for a in acc {
            best = best.min(a);
        }
        for &x in chunks.remainder() {
            best = best.min(x);
        }
        // Relative margin around the minimum; the MIN_POSITIVE floor keeps
        // exact ties inside the cut even when the minimum is zero.
        let cut = best + self.epsilon * best.abs().max(f64::MIN_POSITIVE);
        out.clear();
        out.extend((0..n).filter(|&lane| objs[lane] <= cut));
    }

    /// Exact argmin fold in ascending lane order with a strict `<` — the
    /// same first-minimum tie-break as a full-grid scan.
    fn fold<O, I>(&self, evaluated: I, objective: &O, kind: DecisionKind) -> Decision
    where
        O: SweepObjective + ?Sized,
        I: IntoIterator<Item = (usize, SimResult)>,
    {
        let mut best: Option<Decision> = None;
        for (lane, result) in evaluated {
            let point = SweepPoint::from_result(&result);
            let obj = objective.exact(self.configs[lane], lane, &point);
            if best.is_none_or(|b| obj < b.objective) {
                best = Some(Decision {
                    index: lane,
                    config: self.configs[lane],
                    result,
                    objective: obj,
                    kind,
                });
            }
        }
        best.expect("a sweep always evaluates at least one lane")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalModel;
    use crate::profile::{PhaseModulation, PhaseScale};
    use harmonia_types::ConfigSpace;

    fn grid() -> Vec<HwConfig> {
        ConfigSpace::hd7970().iter().collect()
    }

    fn phased_kernel() -> KernelProfile {
        KernelProfile::builder("phased")
            .workitems(1 << 20)
            .valu_insts_per_item(64.0)
            .vfetch_insts_per_item(4.0)
            .bytes_per_fetch(16.0)
            .l1_hit_rate(0.3)
            .l2_hit_rate(0.4)
            .phase(PhaseModulation::Cycle(vec![
                PhaseScale { compute: 1.0, memory: 1.0 },
                PhaseScale { compute: 2.5, memory: 0.5 },
                PhaseScale { compute: 0.4, memory: 3.0 },
            ]))
            .build()
    }

    /// Pure-time objective: argmin of execution time.
    fn min_time(_cfg: HwConfig, p: &SweepPoint) -> f64 {
        p.time
    }

    #[test]
    fn first_decide_is_cold_then_memo_then_incremental() {
        let model = IntervalModel::default();
        let kernel = phased_kernel();
        let mut plan = SweepPlan::new(grid());
        let d0 = plan.decide(&model, &kernel, 0, &min_time);
        assert_eq!(d0.kind, DecisionKind::Cold);
        let d0_again = plan.decide(&model, &kernel, 0, &min_time);
        assert_eq!(d0_again.kind, DecisionKind::Memo);
        assert_eq!(d0.config, d0_again.config);
        assert_eq!(d0.result, d0_again.result);
        let d1 = plan.decide(&model, &kernel, 1, &min_time);
        assert_eq!(d1.kind, DecisionKind::Incremental);
        let stats = plan.stats();
        assert_eq!(stats.cold_sweeps, 1);
        assert_eq!(stats.incremental_sweeps, 1);
        assert_eq!(stats.memo_hits, 1);
        assert!(
            stats.exact_lanes < 2 * plan.configs().len(),
            "the incremental re-sweep must evaluate fewer lanes than a cold sweep"
        );
    }

    #[test]
    fn incremental_decisions_match_cold_sweeps_bytewise() {
        let model = IntervalModel::default();
        let kernel = phased_kernel();
        let mut warm = SweepPlan::new(grid());
        let _ = warm.decide(&model, &kernel, 0, &min_time);
        for iteration in 1..3 {
            let inc = warm.decide(&model, &kernel, iteration, &min_time);
            assert_eq!(inc.kind, DecisionKind::Incremental);
            // A fresh plan's first sweep is always cold, whatever the
            // iteration — that is the byte-identity reference.
            let mut cold = SweepPlan::new(grid());
            let reference = cold.decide(&model, &kernel, iteration, &min_time);
            assert_eq!(reference.kind, DecisionKind::Cold);
            assert_eq!(inc.index, reference.index, "argmin drifted at iteration {iteration}");
            assert_eq!(inc.config, reference.config);
            assert_eq!(inc.result, reference.result, "SimResult bytes drifted");
            assert_eq!(inc.objective.to_bits(), reference.objective.to_bits());
        }
    }

    #[test]
    fn kernel_change_invalidates_the_plan() {
        let model = IntervalModel::default();
        let mut plan = SweepPlan::new(grid());
        let a = KernelProfile::builder("a").valu_insts_per_item(512.0).build();
        let b = KernelProfile::builder("b")
            .workitems(1 << 22)
            .valu_insts_per_item(4.0)
            .vfetch_insts_per_item(8.0)
            .bytes_per_fetch(32.0)
            .l1_hit_rate(0.05)
            .l2_hit_rate(0.05)
            .build();
        let da = plan.decide(&model, &a, 0, &min_time);
        let db = plan.decide(&model, &b, 0, &min_time);
        assert_eq!(db.kind, DecisionKind::Cold, "new kernel must not reuse terms");
        assert_ne!(da.result, db.result);
        // Fresh single-kernel plans agree with the shared, invalidated one.
        let mut fresh = SweepPlan::new(grid());
        assert_eq!(fresh.decide(&model, &b, 0, &min_time).result, db.result);
    }

    #[test]
    fn device_change_invalidates_the_plan() {
        // The same kernel decided on a different catalog device must not
        // reuse the hd7970 plan's terms or memo.
        use harmonia_types::DeviceSpec;
        let hd = IntervalModel::default();
        let v100 = IntervalModel::new(DeviceSpec::v100().gpu);
        let kernel = phased_kernel();
        let mut plan = SweepPlan::new(grid());
        let da = plan.decide(&hd, &kernel, 0, &min_time);
        assert_eq!(da.kind, DecisionKind::Cold);
        let db = plan.decide(&v100, &kernel, 0, &min_time);
        assert_eq!(db.kind, DecisionKind::Cold, "new device must not replay the memo");
        // A fresh plan on the v100 model agrees with the invalidated one.
        let mut fresh = SweepPlan::new(grid());
        assert_eq!(fresh.decide(&v100, &kernel, 0, &min_time).result, db.result);
    }

    #[test]
    fn terms_approximation_tracks_the_scalar_path() {
        // The factored approximation must match real simulation closely —
        // it is exact in real arithmetic, so anything beyond rounding noise
        // is a factorization bug.
        let model = IntervalModel::default();
        let kernel = phased_kernel();
        let configs = grid();
        let terms = model.sweep_terms(&configs, &kernel).expect("interval model has terms");
        assert_eq!(terms.len(), configs.len());
        for iteration in 0..3 {
            let scale = kernel.phase.scale_for(iteration);
            for (lane, &cfg) in configs.iter().enumerate().step_by(29) {
                let exact = SweepPoint::from_result(&model.simulate(cfg, &kernel, iteration));
                let approx = terms.approx_point(lane, scale.compute, scale.memory);
                let rel = (approx.time - exact.time).abs() / exact.time;
                assert!(rel < 1e-12, "lane {lane} it {iteration}: time rel err {rel}");
                assert!((approx.valu_activity - exact.valu_activity).abs() < 1e-12);
                assert!((approx.ic_activity - exact.ic_activity).abs() < 1e-12);
            }
        }
    }
}
