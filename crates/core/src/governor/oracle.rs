//! The oracle governor (Section 7).
//!
//! "An oracle scheme optimized for ED² based on exhaustive online profiling
//! of every iteration of each kernel across all of the 450 possible
//! hardware configurations ... While the oracle technique provides a useful
//! basis for evaluation, it is impractical to implement."
//!
//! Here the exhaustive profiling runs against the timing and power models:
//! each kernel owns a [`SweepPlan`] that bulk-sweeps the full
//! [`ConfigSpace`] with one batched `simulate_batch` call — through a
//! memoizing [`SimCache`] — and picks the configuration minimizing
//! per-invocation `E·D²`. Because simulation depends on the iteration
//! number only through the kernel's phase scale, a phase-less kernel is
//! swept **exactly once** no matter how many iterations the application
//! runs; later decisions replay the plan's per-scale memo, and *new* phase
//! scales re-evaluate only the frontier of configurations whose limiter
//! could flip ([`DecisionKind::Incremental`]).
//!
//! The frontier bound needs a cheap stand-in for [`PowerModel::card_pwr`]:
//! for a fixed configuration the card power is affine in the three activity
//! inputs, so the oracle probes a [`PowerAffine`] table once per grid (four
//! basis evaluations per lane) and [`Ed2Objective`] uses it for the
//! approximate pass while keeping the real `card_pwr` for every returned
//! decision.

use crate::governor::Governor;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{
    CachedModel, CounterSample, DecisionKind, KernelProfile, SimCache, SweepObjective, SweepPlan,
    SweepPoint, SweepTerms, TimingModel,
};
use harmonia_types::{ConfigSpace, HwConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-configuration affine decomposition of [`PowerModel::card_pwr`]:
/// `p(a) = base + valu·a.valu_activity + dram·a.dram_bytes_per_sec +
/// traffic·a.dram_traffic_fraction`. Exact for activities the simulator
/// produces (all clamps are identities on in-range inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAffine {
    /// Idle card power in watts.
    pub base: f64,
    /// Watts per unit VALU activity.
    pub valu: f64,
    /// Watts per DRAM byte per second.
    pub dram: f64,
    /// Watts per unit DRAM traffic fraction.
    pub traffic: f64,
}

impl PowerAffine {
    /// Probes the affine coefficients for one configuration with four
    /// basis evaluations of the full model.
    pub fn probe(power: &PowerModel, cfg: HwConfig) -> Self {
        let p = |valu: f64, dram: f64, traffic: f64| {
            power
                .card_pwr(
                    cfg,
                    &Activity {
                        valu_activity: valu,
                        dram_bytes_per_sec: dram,
                        dram_traffic_fraction: traffic,
                    },
                )
                .value()
        };
        let base = p(0.0, 0.0, 0.0);
        Self {
            base,
            valu: p(1.0, 0.0, 0.0) - base,
            dram: (p(0.0, 1.0e9, 0.0) - base) / 1.0e9,
            traffic: p(0.0, 0.0, 1.0) - base,
        }
    }

    /// Probes coefficients for every configuration of a sweep grid, in
    /// grid order.
    pub fn table(power: &PowerModel, configs: &[HwConfig]) -> Vec<Self> {
        configs.iter().map(|&c| Self::probe(power, c)).collect()
    }

    /// The affine power estimate for one activity point.
    pub fn watts(&self, point: &SweepPoint) -> f64 {
        self.base
            + self.valu * point.valu_activity
            + self.dram * point.dram_bytes_per_sec
            + self.traffic * point.ic_activity
    }
}

/// A probed [`PowerAffine`] grid stored column-wise (structure-of-arrays):
/// one flat `Vec<f64>` per coefficient, in sweep-grid lane order. The
/// layout matches [`SweepTerms`] so the fused frontier pass streams every
/// operand sequentially instead of gathering 4-wide structs.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTable {
    base: Vec<f64>,
    valu: Vec<f64>,
    dram: Vec<f64>,
    traffic: Vec<f64>,
}

impl PowerTable {
    /// Probes the affine coefficients of every configuration, in grid
    /// order (four `card_pwr` basis evaluations per lane).
    pub fn probe(power: &PowerModel, configs: &[HwConfig]) -> Self {
        let mut table = Self {
            base: Vec::with_capacity(configs.len()),
            valu: Vec::with_capacity(configs.len()),
            dram: Vec::with_capacity(configs.len()),
            traffic: Vec::with_capacity(configs.len()),
        };
        for &cfg in configs {
            let a = PowerAffine::probe(power, cfg);
            table.base.push(a.base);
            table.valu.push(a.valu);
            table.dram.push(a.dram);
            table.traffic.push(a.traffic);
        }
        table
    }

    /// Number of lanes probed.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the table covers no lanes.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// The coefficients of one lane, reassembled.
    pub fn lane(&self, lane: usize) -> PowerAffine {
        PowerAffine {
            base: self.base[lane],
            valu: self.valu[lane],
            dram: self.dram[lane],
            traffic: self.traffic[lane],
        }
    }
}

/// The oracle's `E·D² = P·D³` objective: exact evaluations call the full
/// [`PowerModel::card_pwr`]; the frontier bound substitutes the per-lane
/// [`PowerAffine`] coefficients.
pub struct Ed2Objective<'a> {
    power: &'a PowerModel,
    affine: &'a PowerTable,
}

impl<'a> Ed2Objective<'a> {
    /// Builds the objective over a probed affine table (lane order must
    /// match the sweep grid the table was probed for).
    pub fn new(power: &'a PowerModel, affine: &'a PowerTable) -> Self {
        Self { power, affine }
    }
}

impl SweepObjective for Ed2Objective<'_> {
    fn exact(&self, cfg: HwConfig, _lane: usize, point: &SweepPoint) -> f64 {
        let t = point.time;
        let activity = Activity {
            valu_activity: point.valu_activity,
            dram_bytes_per_sec: point.dram_bytes_per_sec,
            dram_traffic_fraction: point.ic_activity,
        };
        let p = self.power.card_pwr(cfg, &activity).value();
        p * t * t * t // E·D² = (P·D)·D²
    }

    fn approx(&self, _cfg: HwConfig, lane: usize, point: &SweepPoint) -> f64 {
        let t = point.time;
        self.affine.lane(lane).watts(point) * t * t * t
    }

    /// The incremental re-sweep hot path: one fused, branch- and
    /// division-free pass over the terms columns. `P·t³` is expanded so no
    /// activity ratio ever divides by `t`: `va·t³ = u·min(t_c, t)·t²`,
    /// `rate·t³ = dram·t²`, and `ic·t³ = min(dram·t²/peak, t³)` (the peak
    /// division is a precomputed reciprocal).
    fn approx_sweep(&self, terms: &SweepTerms, s_c: f64, s_m: f64, out: &mut Vec<f64>) -> bool {
        let n = terms.len();
        if self.affine.len() != n {
            return false;
        }
        let vu = terms.valu_utilization;
        let overhead = terms.overhead;
        // Re-slicing every column to the common lane count proves the
        // shared bound to the optimizer, which drops the per-access bounds
        // checks that would otherwise serialize the loop.
        let wave = &terms.interval_wave[..n];
        let base = &terms.interval_base[..n];
        let wait = &terms.interval_wait[..n];
        let busy = &terms.compute_busy[..n];
        let mem = &terms.mem_bound[..n];
        let bytes = &terms.dram_bytes[..n];
        let inv_bw = &terms.inv_peak_bw[..n];
        let p_base = &self.affine.base[..n];
        let p_valu = &self.affine.valu[..n];
        let p_dram = &self.affine.dram[..n];
        let p_traffic = &self.affine.traffic[..n];
        // Select-based max/min: every operand is finite by construction, so
        // this matches `f64::max`/`f64::min` bit for bit while compiling to
        // plain vector max/min (the NaN-propagating intrinsics lower to a
        // compare-and-fixup sequence that defeats vectorization).
        #[inline(always)]
        fn fmax(a: f64, b: f64) -> f64 {
            if a > b {
                a
            } else {
                b
            }
        }
        #[inline(always)]
        fn fmin(a: f64, b: f64) -> f64 {
            if a < b {
                a
            } else {
                b
            }
        }
        out.clear();
        out.extend((0..n).map(|lane| {
            let t_interval = fmax(wave[lane] * s_c, base[lane] * s_c + wait[lane]);
            let t_compute = busy[lane] * s_c;
            let t = fmax(fmax(t_interval, mem[lane] * s_m), t_compute) + overhead;
            let t2 = t * t;
            let t3 = t2 * t;
            let dram = bytes[lane] * s_m;
            p_base[lane] * t3
                + p_valu[lane] * vu * fmin(t_compute, t) * t2
                + p_dram[lane] * dram * t2
                + p_traffic[lane] * fmin(dram * t2 * inv_bw[lane], t3)
        }));
        true
    }
}

/// The exhaustive per-kernel ED² oracle.
pub struct OracleGovernor<'a> {
    model: &'a dyn TimingModel,
    power: &'a PowerModel,
    /// The sweep grid, materialized once (the sweep hot path never
    /// re-collects the config space).
    configs: Vec<HwConfig>,
    sim_cache: SimCache,
    /// One sweep plan per interned kernel name. Interning lets lookups
    /// borrow the kernel's name instead of cloning a `String` per
    /// invocation; each plan carries its own per-scale decision memo.
    plans: HashMap<Arc<str>, SweepPlan>,
    /// Affine `card_pwr` coefficients per grid lane, probed once and kept
    /// column-wise for the fused frontier pass.
    affine: PowerTable,
    trace: TraceHandle,
}

impl<'a> OracleGovernor<'a> {
    /// Creates an oracle over the given timing and power models. The sweep
    /// grid comes from the timing model's device descriptor, so an oracle
    /// built over a v100 model exhaustively sweeps the v100 lattice.
    pub fn new(model: &'a dyn TimingModel, power: &'a PowerModel) -> Self {
        let configs: Vec<HwConfig> = ConfigSpace::for_grid(&model.gpu().grid).iter().collect();
        let affine = PowerTable::probe(power, &configs);
        Self {
            model,
            power,
            configs,
            sim_cache: SimCache::new(),
            plans: HashMap::new(),
            affine,
            trace: TraceHandle::disabled(),
        }
    }

    /// The ED²-optimal configuration for one invocation, computed by the
    /// kernel's sweep plan: one batched cold sweep per kernel, per-scale
    /// memo replay, frontier-only incremental re-sweeps for new scales.
    pub fn best_config(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        let objective = Ed2Objective::new(self.power, &self.affine);
        let cached = CachedModel::new(self.model, &self.sim_cache);
        let plan = self
            .plans
            .entry(kernel.name.clone())
            .or_insert_with(|| SweepPlan::new(self.configs.clone()));
        let decision = plan.decide(&cached, kernel, iteration, &objective);
        if decision.kind != DecisionKind::Memo {
            // A sweep just ran: report the cache accounting (hits, misses,
            // shard occupancy) so traces show what each pass cost.
            self.trace.emit(|| {
                let stats = self.sim_cache.stats();
                TraceEvent::CacheStats {
                    hits: stats.hits as u64,
                    misses: stats.misses as u64,
                    entries: stats.entries as u64,
                    shards: stats.shard_occupancy.iter().map(|&n| n as u64).collect(),
                }
            });
        }
        decision.config
    }

    /// Distinct simulation points evaluated so far (cache size).
    pub fn simulations(&self) -> usize {
        self.sim_cache.len()
    }
}

impl Governor for OracleGovernor<'_> {
    fn name(&self) -> &str {
        "oracle"
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        self.best_config(kernel, iteration)
    }

    fn observe(
        &mut self,
        _kernel: &KernelProfile,
        _iteration: u64,
        _cfg: HwConfig,
        _counters: &CounterSample,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::{IntervalModel, PhaseModulation, PhaseScale};
    use harmonia_workloads::suite;

    #[test]
    fn oracle_prefers_low_memory_for_compute_stress() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let mut oracle = OracleGovernor::new(&model, &power);
        let app = suite::maxflops();
        let cfg = oracle.decide(&app.kernels[0], 0);
        assert_eq!(cfg.compute.cu_count(), 32, "MaxFlops needs all CUs");
        assert_eq!(cfg.compute.freq().value(), 1000);
        assert!(
            cfg.memory.bus_freq().value() <= 775,
            "MaxFlops should not pay for memory bandwidth, got {cfg}"
        );
    }

    #[test]
    fn oracle_keeps_memory_high_for_memory_stress() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let mut oracle = OracleGovernor::new(&model, &power);
        let app = suite::devicememory();
        let cfg = oracle.decide(&app.kernels[0], 0);
        assert_eq!(
            cfg.memory.bus_freq().value(),
            1375,
            "DeviceMemory needs full bandwidth, got {cfg}"
        );
        assert!(cfg.compute.cu_count() < 32, "compute should be trimmed");
    }

    #[test]
    fn oracle_caches_per_invocation() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let mut oracle = OracleGovernor::new(&model, &power);
        let app = suite::stencil();
        let a = oracle.decide(&app.kernels[0], 0);
        let b = oracle.decide(&app.kernels[0], 0);
        assert_eq!(a, b);
        assert_eq!(oracle.plans.len(), 1);
        let plan = oracle.plans.values().next().unwrap();
        assert_eq!(plan.stats().cold_sweeps, 1);
        assert_eq!(plan.stats().memo_hits, 1);
    }

    #[test]
    fn phase_less_kernel_is_swept_exactly_once() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let mut oracle = OracleGovernor::new(&model, &power);
        let app = suite::stencil();
        let k = &app.kernels[0];
        assert_eq!(k.phase, PhaseModulation::Constant);
        let first = oracle.decide(k, 0);
        for i in 1..32 {
            assert_eq!(oracle.decide(k, i), first);
        }
        assert_eq!(
            oracle.simulations(),
            ConfigSpace::hd7970().len(),
            "constant phase must cost one 448-config sweep regardless of iterations"
        );
    }

    #[test]
    fn cyclic_phase_resweeps_only_the_frontier() {
        let cycle = PhaseModulation::Cycle(vec![
            PhaseScale {
                compute: 1.0,
                memory: 1.0,
            },
            PhaseScale {
                compute: 0.25,
                memory: 2.0,
            },
        ]);
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let k = KernelProfile::builder("cycler").phase(cycle).build();

        let mut oracle = OracleGovernor::new(&model, &power);
        for i in 0..12 {
            oracle.decide(&k, i);
        }
        let grid = ConfigSpace::hd7970().len();
        assert!(
            oracle.simulations() > grid,
            "the second scale must evaluate at least one frontier lane"
        );
        assert!(
            oracle.simulations() < 2 * grid,
            "a new scale must not cost a second full sweep, got {}",
            oracle.simulations()
        );
        let stats = oracle.plans.values().next().unwrap().stats();
        assert_eq!(stats.cold_sweeps, 1);
        assert_eq!(stats.incremental_sweeps, 1);
        assert_eq!(stats.memo_hits, 10);

        // The incremental decision must match what a cold sweep of the
        // same scale picks: a fresh oracle asked about iteration 1 first
        // sweeps that scale cold.
        let mut reference = OracleGovernor::new(&model, &power);
        assert_eq!(oracle.decide(&k, 1), reference.decide(&k, 1));
        assert_eq!(oracle.decide(&k, 0), reference.decide(&k, 0));
    }

    #[test]
    fn oracle_gates_cus_for_thrashing_kernels() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let mut oracle = OracleGovernor::new(&model, &power);
        let app = suite::bpt();
        let cfg = oracle.decide(&app.kernels[0], 0);
        assert!(
            cfg.compute.cu_count() < 32,
            "BPT thrashes the L2; oracle should gate CUs, got {cfg}"
        );
    }
}
