//! The cross-session sweep-plan and simulation-cache store.
//!
//! One [`PlanStore`] is shared by every device session in a fleet. It owns
//! a single [`SimCache`] plus one [`SweepPlan`] per *(device class,
//! kernel fingerprint)* pair ([`TimingModel::device_key`],
//! [`KernelProfile::cache_key`]), so the first device of a class to meet a
//! kernel pays the batched cold sweep and every later device of that class
//! — on any worker thread — replays the memoized decision. A store can
//! carry several device classes (e.g. an hd7970 rack next to a v100 rack):
//! each class brings its own timing model, power model, and configuration
//! grid, while the simulation cache is shared (its key embeds the device
//! fingerprint, so classes never alias).
//!
//! # Determinism under concurrency
//!
//! Fleet reports must be byte-identical for any worker interleaving, and
//! that includes the cache accounting they embed. All cache traffic for
//! one (class, kernel) goes through that pair's plan mutex, so the
//! hit/miss *sequence* per pair is deterministic; traffic for different
//! pairs is key-disjoint (the [`CacheKey`](SimCache) embeds both the
//! kernel fingerprint and the device key), so concurrent pairs can only
//! interleave counter increments, never change their totals.

use harmonia::governor::{Ed2Objective, Governor, PowerTable};
use harmonia_power::PowerModel;
use harmonia_sim::{
    CacheStats, CachedModel, CounterSample, Decision, KernelProfile, PlanStats, ScaleKeyHasher,
    SimCache, SimResult, SweepPlan, TimingModel,
};
use harmonia_types::{ConfigSpace, HwConfig};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, RwLock};

/// One device class's modeling resources: timing model, power model, and
/// the materialized sweep grid of that device's configuration space.
struct ClassResources<'a> {
    model: &'a dyn TimingModel,
    power: &'a PowerModel,
    /// The class's sweep grid, materialized once for every plan.
    configs: Vec<HwConfig>,
    /// The class device's grid specification.
    grid: harmonia_types::GridSpec,
    /// The class grid's floor configuration (least-power grid point).
    floor: HwConfig,
    /// The class grid's ceiling configuration (boost grid point).
    boost: HwConfig,
    /// Affine `card_pwr` coefficients per grid lane (frontier bound).
    affine: PowerTable,
}

impl<'a> ClassResources<'a> {
    fn new(model: &'a dyn TimingModel, power: &'a PowerModel) -> Self {
        let grid = model.gpu().grid;
        let configs: Vec<HwConfig> = ConfigSpace::for_grid(&grid).iter().collect();
        let affine = PowerTable::probe(power, &configs);
        Self {
            model,
            power,
            configs,
            grid,
            floor: HwConfig::min_on(&grid),
            boost: HwConfig::max_on(&grid),
            affine,
        }
    }
}

/// Shared sweep plans and simulation cache for a whole fleet.
pub struct PlanStore<'a> {
    /// Device classes, in registration order; class 0 is the default every
    /// single-class entry point targets.
    classes: Vec<ClassResources<'a>>,
    cache: SimCache,
    /// One plan per (device key, kernel fingerprint). The outer lock only
    /// guards the map; each plan's own mutex serializes all sweep and
    /// cache work for that pair.
    plans: RwLock<PlanMap>,
}

/// One (class, kernel) pair resolved against a [`PlanStore`]: the kernel's
/// [`KernelProfile::cache_key`] and the pair's shared plan. Obtained from
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
        Self {
            classes: vec![ClassResources::new(model, power)],
            cache: SimCache::new(),
            plans: RwLock::new(PlanMap::default()),
        }
    }

    /// Registers another device class (its own models and grid) and
    /// returns its class id. The simulation cache stays shared — its key
    /// embeds the device fingerprint, so classes never alias entries.
    pub fn add_class(&mut self, model: &'a dyn TimingModel, power: &'a PowerModel) -> usize {
        self.classes.push(ClassResources::new(model, power));
        self.classes.len() - 1
    }

    /// Number of registered device classes.
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    fn class(&self, class: usize) -> &ClassResources<'a> {
        &self.classes[class]
    }

    /// The power model class-0 sessions project against.
    pub fn power(&self) -> &'a PowerModel {
        self.power_of(0)
    }

    /// The power model sessions of `class` project against.
    pub fn power_of(&self, class: usize) -> &'a PowerModel {
        self.class(class).power
    }

    /// Class 0's sweep grid, in decision order.
    pub fn configs(&self) -> &[HwConfig] {
        self.configs_of(0)
    }

    /// The sweep grid of `class`, in decision order.
    pub fn configs_of(&self, class: usize) -> &[HwConfig] {
        &self.class(class).configs
    }

    /// The grid-floor configuration of `class` (least-power grid point).
    pub fn floor_of(&self, class: usize) -> HwConfig {
        self.class(class).floor
    }

    /// The grid-ceiling (boost) configuration of `class`.
    pub fn boost_of(&self, class: usize) -> HwConfig {
        self.class(class).boost
    }

    /// The grid specification of `class`'s device.
    pub fn grid_of(&self, class: usize) -> &harmonia_types::GridSpec {
        &self.class(class).grid
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
        let res = self.class(class);
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
    /// the (class, kernel) shared plan: one batched cold sweep per pair
    /// fleet-wide, memo replay for every repeat, frontier-only re-sweeps
    /// for new phase scales.
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
        let res = self.class(handle.class);
        let cached = CachedModel::new(res.model, &self.cache);
        let objective = Ed2Objective::new(res.power, &res.affine);
        let mut plan = handle.plan.lock().expect("plan poisoned");
        plan.decide_keyed(&cached, kernel, handle.key, iteration, &objective)
    }

    /// Simulates one class-0 invocation through the shared cache.
    pub fn simulate(&self, kernel: &KernelProfile, cfg: HwConfig, iteration: u64) -> SimResult {
        self.simulate_for(0, kernel, cfg, iteration)
    }

    /// Simulates one invocation of `class` through the shared cache,
    /// serialized by the (class, kernel) plan lock so the accounting stays
    /// deterministic.
    pub fn simulate_for(
        &self,
        class: usize,
        kernel: &KernelProfile,
        cfg: HwConfig,
        iteration: u64,
    ) -> SimResult {
        self.simulate_with(&self.handle(class, kernel), kernel, cfg, iteration)
    }

    /// [`simulate_for`](Self::simulate_for) through a resolved handle.
    /// `kernel` must be the kernel the handle was resolved for.
    pub fn simulate_with(
        &self,
        handle: &KernelHandle,
        kernel: &KernelProfile,
        cfg: HwConfig,
        iteration: u64,
    ) -> SimResult {
        let model = self.class(handle.class).model;
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

impl std::fmt::Debug for PlanStore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStore")
            .field("kernels", &self.unique_kernels())
            .field("cache_entries", &self.cache.len())
            .finish()
    }
}

/// A per-session governor view over a shared [`PlanStore`]: every decision
/// is the store's ED² argmin for the session's device class, so N sessions
/// of one class running the same kernel cost one sweep total. Stateless —
/// all learning lives in the shared plans — which is what makes fleet
/// devices interchangeable and their reports independent of scheduling
/// order.
pub struct SharedOracleGovernor<'s, 'a> {
    store: &'s PlanStore<'a>,
    class: usize,
}

impl<'s, 'a> SharedOracleGovernor<'s, 'a> {
    /// A class-0 governor view over `store`.
    pub fn new(store: &'s PlanStore<'a>) -> Self {
        Self::for_class(store, 0)
    }

    /// A governor view deciding on `class`'s grid and models.
    pub fn for_class(store: &'s PlanStore<'a>, class: usize) -> Self {
        Self { store, class }
    }

    /// The shared store behind this view.
    pub fn store(&self) -> &'s PlanStore<'a> {
        self.store
    }

    /// The device class this view decides for.
    pub fn class(&self) -> usize {
        self.class
    }
}

impl Governor for SharedOracleGovernor<'_, '_> {
    fn name(&self) -> &str {
        "fleet:oracle"
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        self.store.decide_for(self.class, kernel, iteration).config
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
    use harmonia_sim::{DecisionKind, IntervalModel};
    use harmonia_workloads::suite;

    #[test]
    fn one_cold_sweep_serves_every_session() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = PlanStore::new(&model, &power);
        let k = &suite::stencil().kernels[0];
        let first = store.decide(k, 0);
        assert_eq!(first.kind, DecisionKind::Cold);
        for _ in 0..8 {
            let d = store.decide(k, 0);
            assert_eq!(d.kind, DecisionKind::Memo);
            assert_eq!(d.config, first.config);
            assert_eq!(d.result, first.result);
        }
        let stats = store.plan_stats();
        assert_eq!(stats.cold_sweeps, 1);
        assert_eq!(stats.memo_hits, 8);
        assert_eq!(store.unique_kernels(), 1);
        assert_eq!(store.cache_stats().misses, store.configs().len());
    }

    #[test]
    fn shared_decisions_match_a_private_oracle() {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let store = PlanStore::new(&model, &power);
        let mut shared = SharedOracleGovernor::new(&store);
        let mut solo = harmonia::governor::OracleGovernor::new(&model, &power);
        for app in [suite::maxflops(), suite::devicememory(), suite::stencil()] {
            for k in &app.kernels {
                for i in 0..3 {
                    assert_eq!(shared.decide(k, i), solo.decide(k, i), "{} it {i}", k.name);
                }
            }
        }
    }

    #[test]
    fn device_classes_plan_and_decide_independently() {
        use harmonia_types::DeviceSpec;
        let hd7970 = DeviceSpec::lookup("hd7970").unwrap();
        let hd = IntervalModel::new(hd7970.gpu);
        let hd_power = PowerModel::for_device(&hd7970);
        let v100 = DeviceSpec::v100();
        let v100_model = IntervalModel::new(v100.gpu);
        let v100_power = PowerModel::for_device(&v100);
        let mut store = PlanStore::new(&hd, &hd_power);
        let class = store.add_class(&v100_model, &v100_power);
        assert_eq!(store.classes(), 2);
        assert_ne!(store.configs_of(0).len(), store.configs_of(class).len());
        let k = &suite::stencil().kernels[0];
        let d_hd = store.decide_for(0, k, 0);
        let d_v100 = store.decide_for(class, k, 0);
        // Same kernel, two plans: each class pays its own cold sweep and
        // its decision sits on its own grid.
        assert_eq!(store.unique_kernels(), 2);
        let v100_space = ConfigSpace::for_grid(&v100.gpu.grid);
        assert!(v100_space.contains(d_v100.config));
        assert!(ConfigSpace::hd7970().contains(d_hd.config));
        // The shared cache holds both grids' points, with zero aliasing:
        // total misses are exactly the two cold sweeps.
        assert_eq!(
            store.cache_stats().misses,
            store.configs_of(0).len() + store.configs_of(class).len()
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
        assert_eq!(store.simulate(k, d.config, 0), d.result);
        let _ = store.simulate(k, HwConfig::min_hd7970(), 0);
        assert_eq!(store.cache_stats().misses, misses);
    }
}
