//! The oracle governor (Section 7) and the sweep-plan store it decides
//! through.
//!
//! "An oracle scheme optimized for ED² based on exhaustive online profiling
//! of every iteration of each kernel across all of the 450 possible
//! hardware configurations ... While the oracle technique provides a useful
//! basis for evaluation, it is impractical to implement."
//!
//! Here the exhaustive profiling runs against the timing and power models.
//! A [`PlanStore`] owns one memoizing [`SimCache`] and one [`SweepPlan`] per
//! *(device key, kernel fingerprint)* pair ([`TimingModel::device_key`],
//! [`KernelProfile::cache_key`]). A plan bulk-sweeps the device's full
//! [`ConfigSpace`] with one batched `simulate_batch` call and picks the
//! configuration minimizing per-invocation `E·D²`. Because simulation
//! depends on the iteration number only through the kernel's phase scale, a
//! phase-less kernel is swept **exactly once** no matter how many
//! iterations, or devices, ask; later decisions replay the plan's
//! per-scale memo, and *new* phase scales re-evaluate only the frontier of
//! configurations whose limiter could flip ([`DecisionKind::Incremental`]).
//!
//! An [`OracleGovernor`] decides for one device class of a store.
//! [`OracleGovernor::new`] owns a private one-class store, and
//! [`OracleGovernor::shared`] decides over a store others share. A fleet
//! shares one store across all its devices, and each device decides
//! through a [`KernelHandle`] per kernel ([`PlanStore::decide_with`]), so
//! the first device of a class to meet a kernel pays the cold sweep and
//! every later one replays it. A store can
//! carry several device classes (e.g. an hd7970 rack next to a v100 rack),
//! each with its own timing model, power model and grid; the cache is
//! shared, because its key embeds the device fingerprint.
//!
//! The frontier bound needs a cheap stand-in for [`PowerModel::card_pwr`]:
//! for a fixed configuration the card power is affine in the three activity
//! inputs, so each class probes a [`PowerTable`] once (four basis
//! evaluations per lane) and [`Ed2Objective`] uses it for the approximate
//! pass while keeping the real `card_pwr` for every returned decision.
//!
//! # Determinism under concurrency
//!
//! All cache traffic for one (class, kernel) pair goes through that pair's
//! plan mutex, so its hit/miss *sequence* is deterministic. Traffic for
//! different pairs is key-disjoint, so concurrent pairs can only interleave
//! counter increments, never change their totals: fleet reports, which
//! embed those totals, are byte-identical for any worker interleaving.

use crate::governor::Governor;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{
    CacheStats, CachedModel, CounterSample, Decision, DecisionKind, KernelProfile, PlanStats,
    ScaleKeyHasher, SimCache, SimResult, SweepObjective, SweepPlan, SweepPoint, SweepTerms,
    TimingModel,
};
use harmonia_types::{ConfigSpace, GridSpec, HwConfig};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, RwLock};

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

/// One device class's modeling resources: timing model, power model, and
/// the materialized sweep grid of that device's configuration space.
struct ClassResources<'a> {
    model: &'a dyn TimingModel,
    power: &'a PowerModel,
    /// The class's sweep grid, materialized once for every plan.
    configs: Vec<HwConfig>,
    /// Affine `card_pwr` coefficients per grid lane (frontier bound).
    affine: PowerTable,
}

/// Sweep plans and one simulation cache for one or more device classes:
/// the state behind every [`OracleGovernor`], private to one session or
/// shared by a whole fleet.
pub struct PlanStore<'a> {
    /// Device classes, in registration order; class 0 is the one the
    /// store was created over.
    classes: Vec<ClassResources<'a>>,
    cache: SimCache,
    /// One plan per (device key, kernel fingerprint). The outer lock only
    /// guards the map; each plan's own mutex serializes all sweep and
    /// cache work for that pair.
    plans: RwLock<PlanMap>,
}

/// One (class, kernel) pair resolved against a [`PlanStore`]: the kernel's
/// [`KernelProfile::cache_key`] and the pair's plan. Obtained from
/// [`PlanStore::handle`]; valid for the store that issued it and the kernel
/// it was resolved for.
#[derive(Debug)]
pub struct KernelHandle {
    class: usize,
    key: u64,
    plan: Arc<Mutex<SweepPlan>>,
}

/// Keyed (device fingerprint, kernel fingerprint) → independently locked
/// plan. Both words are FNV-1a fingerprints, so the map hashes them with
/// the sim crate's multiply-xorshift [`ScaleKeyHasher`] instead of SipHash.
type PlanMap = HashMap<(u64, u64), Arc<Mutex<SweepPlan>>, BuildHasherDefault<ScaleKeyHasher>>;

impl<'a> PlanStore<'a> {
    /// Creates an empty single-class store over the given models and the
    /// model device's full configuration grid.
    pub fn new(model: &'a dyn TimingModel, power: &'a PowerModel) -> Self {
        let mut store = Self {
            classes: Vec::new(),
            cache: SimCache::new(),
            plans: RwLock::new(PlanMap::default()),
        };
        store.add_class(model, power);
        store
    }

    /// Registers another device class (its own models and grid) and
    /// returns its class id. The simulation cache stays shared — its key
    /// embeds the device fingerprint, so classes never alias entries.
    pub fn add_class(&mut self, model: &'a dyn TimingModel, power: &'a PowerModel) -> usize {
        let configs: Vec<HwConfig> = ConfigSpace::for_grid(&model.gpu().grid).iter().collect();
        let affine = PowerTable::probe(power, &configs);
        self.classes.push(ClassResources {
            model,
            power,
            configs,
            affine,
        });
        self.classes.len() - 1
    }

    /// Number of registered device classes.
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    /// The power model sessions of `class` project against.
    pub fn power_of(&self, class: usize) -> &'a PowerModel {
        self.classes[class].power
    }

    /// The grid specification of `class`'s device.
    pub fn grid_of(&self, class: usize) -> &GridSpec {
        &self.classes[class].model.gpu().grid
    }

    /// The grid-floor configuration of `class` (least-power grid point).
    pub fn floor_of(&self, class: usize) -> HwConfig {
        HwConfig::min_on(self.grid_of(class))
    }

    /// The grid-ceiling (boost) configuration of `class`.
    pub fn boost_of(&self, class: usize) -> HwConfig {
        HwConfig::max_on(self.grid_of(class))
    }

    /// Resolves `kernel`'s (class, kernel) plan, creating it on first use,
    /// and returns a handle that carries the kernel fingerprint with it.
    /// Read-locks the map on the hot path; only a genuinely new pair takes
    /// the write lock. A session running the same kernels every tick
    /// resolves each once and then decides and simulates through
    /// [`decide_with`](Self::decide_with) and
    /// [`simulate_with`](Self::simulate_with) with no further hashing or
    /// map lookups.
    pub fn handle(&self, class: usize, kernel: &KernelProfile) -> KernelHandle {
        let res = &self.classes[class];
        let key = kernel.cache_key();
        let pair = (res.model.device_key(), key);
        let existing = self
            .plans
            .read()
            .expect("plan map poisoned")
            .get(&pair)
            .map(Arc::clone);
        let plan = existing.unwrap_or_else(|| {
            let mut map = self.plans.write().expect("plan map poisoned");
            Arc::clone(
                map.entry(pair)
                    .or_insert_with(|| Arc::new(Mutex::new(SweepPlan::new(res.configs.clone())))),
            )
        });
        KernelHandle { class, key, plan }
    }

    /// The ED²-optimal decision for one invocation on class 0.
    pub fn decide(&self, kernel: &KernelProfile, iteration: u64) -> Decision {
        self.decide_for(0, kernel, iteration)
    }

    /// The ED²-optimal decision for one invocation of `class`, served by
    /// the (class, kernel) plan: one batched cold sweep per pair, memo
    /// replay for every repeat, frontier-only re-sweeps for new phase
    /// scales.
    pub fn decide_for(&self, class: usize, kernel: &KernelProfile, iteration: u64) -> Decision {
        self.decide_with(&self.handle(class, kernel), kernel, iteration)
    }

    /// [`decide_for`](Self::decide_for) through a resolved handle.
    /// `kernel` must be the kernel the handle was resolved for.
    pub fn decide_with(
        &self,
        handle: &KernelHandle,
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Decision {
        let res = &self.classes[handle.class];
        let cached = CachedModel::new(res.model, &self.cache);
        let objective = Ed2Objective::new(res.power, &res.affine);
        let mut plan = handle.plan.lock().expect("plan poisoned");
        plan.decide_keyed(&cached, kernel, handle.key, iteration, &objective)
    }

    /// Simulates one invocation through the shared cache, serialized by
    /// the handle's (class, kernel) plan lock so the accounting stays
    /// deterministic. `kernel` must be the kernel the handle was resolved
    /// for.
    pub fn simulate_with(
        &self,
        handle: &KernelHandle,
        kernel: &KernelProfile,
        cfg: HwConfig,
        iteration: u64,
    ) -> SimResult {
        let model = self.classes[handle.class].model;
        let _guard = handle.plan.lock().expect("plan poisoned");
        self.cache
            .simulate_keyed(model, cfg, kernel, handle.key, iteration)
    }

    /// Number of distinct (class, kernel) pairs planned so far.
    pub fn unique_kernels(&self) -> usize {
        self.plans.read().expect("plan map poisoned").len()
    }

    /// Shared-cache accounting snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Sweep accounting summed over every kernel's plan, in fingerprint
    /// order-independent (commutative integer) totals.
    pub fn plan_stats(&self) -> PlanStats {
        let map = self.plans.read().expect("plan map poisoned");
        let mut total = PlanStats::default();
        for plan in map.values() {
            let s = plan.lock().expect("plan poisoned").stats();
            total.cold_sweeps += s.cold_sweeps;
            total.incremental_sweeps += s.incremental_sweeps;
            total.memo_hits += s.memo_hits;
            total.exact_lanes += s.exact_lanes;
        }
        total
    }
}

/// The exhaustive per-kernel ED² oracle, deciding for one device class of
/// a [`PlanStore`] it owns or shares. All learning lives in the store's
/// plans, which is what makes fleet devices interchangeable and their
/// reports independent of scheduling order.
pub struct OracleGovernor<'a> {
    store: Arc<PlanStore<'a>>,
    class: usize,
    trace: TraceHandle,
}

impl<'a> OracleGovernor<'a> {
    /// Creates an oracle over the given timing and power models, with a
    /// private store. The sweep grid comes from the timing model's device
    /// descriptor, so an oracle built over a v100 model exhaustively sweeps
    /// the v100 lattice.
    pub fn new(model: &'a dyn TimingModel, power: &'a PowerModel) -> Self {
        Self::shared(Arc::new(PlanStore::new(model, power)), 0)
    }

    /// An oracle deciding on `class`'s grid and models of a shared store:
    /// any number of oracles of one class running the same kernel cost one
    /// sweep between them.
    pub fn shared(store: Arc<PlanStore<'a>>, class: usize) -> Self {
        Self {
            store,
            class,
            trace: TraceHandle::disabled(),
        }
    }

    /// The ED²-optimal configuration for one invocation, computed by the
    /// kernel's sweep plan: one batched cold sweep per kernel, per-scale
    /// memo replay, frontier-only incremental re-sweeps for new scales.
    pub fn best_config(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        let decision = self.store.decide_for(self.class, kernel, iteration);
        if decision.kind != DecisionKind::Memo {
            // A sweep just ran: report the cache accounting (hits, misses,
            // shard occupancy) so traces show what each pass cost.
            self.trace.emit(|| {
                let stats = self.store.cache_stats();
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
    use harmonia_types::DeviceSpec;
    use harmonia_workloads::suite;

    /// Distinct simulation points an oracle's store has evaluated.
    fn simulations(oracle: &OracleGovernor) -> usize {
        oracle.store.cache_stats().entries
    }

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
        assert_eq!(oracle.store.unique_kernels(), 1);
        assert_eq!(oracle.store.plan_stats().cold_sweeps, 1);
        assert_eq!(oracle.store.plan_stats().memo_hits, 1);
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
            simulations(&oracle),
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
            simulations(&oracle) > grid,
            "the second scale must evaluate at least one frontier lane"
        );
        assert!(
            simulations(&oracle) < 2 * grid,
            "a new scale must not cost a second full sweep, got {}",
            simulations(&oracle)
        );
        let stats = oracle.store.plan_stats();
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

    #[test]
    fn one_cold_sweep_serves_every_oracle_of_a_shared_store() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = Arc::new(PlanStore::new(&model, &power));
        let mut oracles: Vec<OracleGovernor> = (0..8)
            .map(|_| OracleGovernor::shared(Arc::clone(&store), 0))
            .collect();
        let mut solo = OracleGovernor::new(&model, &power);
        let k = &suite::stencil().kernels[0];
        let first = solo.decide(k, 0);
        for oracle in &mut oracles {
            assert_eq!(oracle.decide(k, 0), first);
        }
        let stats = store.plan_stats();
        assert_eq!(stats.cold_sweeps, 1);
        assert_eq!(stats.memo_hits, 7);
        assert_eq!(store.unique_kernels(), 1);
        assert_eq!(store.cache_stats().misses, ConfigSpace::hd7970().len());
    }

    #[test]
    fn device_classes_plan_and_decide_independently() {
        let hd7970 = DeviceSpec::lookup("hd7970").unwrap();
        let hd = IntervalModel::new(hd7970.gpu);
        let hd_power = PowerModel::for_device(&hd7970);
        let v100 = DeviceSpec::v100();
        let v100_model = IntervalModel::new(v100.gpu);
        let v100_power = PowerModel::for_device(&v100);
        let mut store = PlanStore::new(&hd, &hd_power);
        let class = store.add_class(&v100_model, &v100_power);
        assert_eq!(store.classes(), 2);
        let k = &suite::stencil().kernels[0];
        let d_hd = store.decide_for(0, k, 0);
        let d_v100 = store.decide_for(class, k, 0);
        // Same kernel, two plans: each class pays its own cold sweep and
        // its decision sits on its own grid.
        assert_eq!(store.unique_kernels(), 2);
        let v100_space = ConfigSpace::for_grid(&v100.gpu.grid);
        let hd_space = ConfigSpace::for_grid(&hd7970.gpu.grid);
        assert_ne!(v100_space.len(), hd_space.len());
        assert!(v100_space.contains(d_v100.config));
        assert!(hd_space.contains(d_hd.config));
        // The shared cache holds both grids' points, with zero aliasing:
        // total misses are exactly the two cold sweeps.
        assert_eq!(
            store.cache_stats().misses,
            hd_space.len() + v100_space.len()
        );
        // The class-0 decision is byte-identical to a single-class store's.
        let solo = PlanStore::new(&hd, &hd_power);
        assert_eq!(solo.decide(k, 0).config, d_hd.config);
        assert_eq!(solo.decide(k, 0).result, d_hd.result);
    }

    #[test]
    fn grid_lookups_after_the_cold_sweep_are_hits() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = PlanStore::new(&model, &power);
        let k = &suite::stencil().kernels[0];
        let d = store.decide(k, 0);
        let misses = store.cache_stats().misses;
        // Any grid configuration — the argmin, the grid floor — is already
        // cached by the cold sweep, so accounting sims cost no model work.
        let handle = store.handle(0, k);
        assert_eq!(store.simulate_with(&handle, k, d.config, 0), d.result);
        let _ = store.simulate_with(&handle, k, store.floor_of(0), 0);
        assert_eq!(store.cache_stats().misses, misses);
    }
}
