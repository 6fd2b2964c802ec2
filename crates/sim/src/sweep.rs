//! Shared sweep engine: a bounded worker pool plus a sharded simulation
//! memoization cache.
//!
//! Every heavyweight pipeline in the workspace — training-set collection,
//! sensitivity measurement, the exhaustive ED² oracle, and the per-figure
//! configuration sweeps — reduces to evaluating a deterministic function
//! over a batch of `(configuration, kernel, iteration)` points. This module
//! centralizes that pattern:
//!
//! * [`run_indexed`] evaluates an indexed batch on the process-wide
//!   [`SweepPool`](crate::pool::SweepPool) — persistent workers that
//!   self-schedule through an atomic chunk cursor. Results are returned
//!   **in index order** regardless of which worker computed them, so
//!   parallel callers produce byte-identical output to a serial loop, and
//!   nested sweeps (a figure sweep driving per-kernel oracle sweeps)
//!   share one pool instead of oversubscribing the machine.
//! * [`SimCache`] memoizes [`TimingModel::simulate`] results behind sharded
//!   `RwLock`s. For models that declare [`TimingModel::phase_determined`]
//!   (the analytic interval and event models), the key exploits the fact
//!   that simulation depends on the iteration number only through
//!   [`PhaseModulation::scale_for`]: a kernel with
//!   [`PhaseModulation::Constant`] is simulated **once per configuration**
//!   no matter how many iterations sweep over it, and cyclic phases
//!   collapse to one entry per distinct scale. Iteration-sensitive models
//!   (trace jitter, injected noise) are keyed by the raw iteration instead.
//! * [`CachedModel`] adapts a `(model, cache)` pair back into a
//!   [`TimingModel`], so existing consumers (sensitivity measurement, the
//!   runtime) get memoization without changing their call sites.
//!
//! The pool size defaults to [`std::thread::available_parallelism`] clamped
//! to the batch size and can be pinned with the `HARMONIA_THREADS`
//! environment variable; a one-element batch never spawns extra workers.
//!
//! [`PhaseModulation::scale_for`]: crate::profile::PhaseModulation::scale_for
//! [`PhaseModulation::Constant`]: crate::profile::PhaseModulation::Constant

use crate::batch::{ScaleKeyHasher, SweepTerms};
use crate::device::GpuDescriptor;
use crate::model::{SimResult, TimingModel};
use crate::pool;
use crate::profile::KernelProfile;
use harmonia_types::HwConfig;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Environment variable that pins the worker-pool size (re-exported from
/// [`harmonia_types::session`], where the parsing lives).
pub use harmonia_types::session::THREADS_ENV;

/// Number of independently locked cache shards (power of two).
const SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// The number of worker threads a batch of `batch` items should use:
/// the machine's available parallelism (or the `HARMONIA_THREADS` override)
/// clamped to the batch size, and always at least 1.
pub fn pool_size(batch: usize) -> usize {
    let available = harmonia_types::Session::from_env().threads();
    pool_size_with(batch, available, pool::default_parallelism())
}

/// Total executor budget of the shared pool: its persistent workers plus
/// the calling thread. Nested sweeps never run on more threads than this.
pub fn shared_pool_threads() -> usize {
    pool::shared().workers() + 1
}

/// Pure clamp logic behind [`pool_size`], separated for testing: an explicit
/// `override_threads` wins over `available`, and the result never exceeds
/// `batch` — a 1-item sweep must not spawn N workers.
pub fn pool_size_with(batch: usize, override_threads: Option<usize>, available: usize) -> usize {
    override_threads
        .unwrap_or(available)
        .max(1)
        .min(batch.max(1))
}

/// Evaluates `f(0), f(1), …, f(n-1)` across the shared worker pool and
/// returns the results **in index order**.
///
/// Executors self-schedule by fetching index chunks from a shared atomic
/// cursor (cheap work stealing: a worker stuck on an expensive item does
/// not block the others), and each result is stored in its index's slot so
/// the final vector is identical to what a serial `(0..n).map(f).collect()`
/// would produce. The calling thread always participates, so nested sweeps
/// make progress even when every pool worker is busy — and the process
/// never runs more sweep threads than the configured pool width. With a
/// pool of one (single-core machines, one-item batches, or
/// `HARMONIA_THREADS=1`) the batch runs inline on the calling thread with
/// no cross-thread handoff at all.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(pool_size(n), n, f)
}

/// [`run_indexed`] with an explicit executor cap for this batch (callers
/// normally want the [`pool_size`] default). The cap can narrow a batch
/// below the shared pool's width but never widens the pool.
pub fn run_indexed_with<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let pool = if threads <= 1 || n <= 1 {
        None
    } else {
        Some(pool::shared()).filter(|p| p.workers() > 0)
    };
    let Some(pool) = pool else {
        return (0..n).map(f).collect();
    };
    run_indexed_on(pool, threads, n, f)
}

/// [`run_indexed`] on an explicit [`SweepPool`](crate::pool::SweepPool)
/// instead of the process-wide one, with a per-batch executor cap. Results
/// come back **in index order** regardless of worker interleaving, exactly
/// like [`run_indexed`]. A zero-worker pool (or a one-item batch) runs the
/// whole batch inline on the calling thread. Callers that must vary the
/// worker count within one process — the fleet scheduler's determinism
/// tests, for instance — construct private pools and route batches here;
/// production paths keep using the shared pool.
pub fn run_indexed_on<T, F>(pool: &crate::pool::SweepPool, cap: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if pool.workers() == 0 || cap <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Slot<T>> = (0..n).map(|_| Slot::empty()).collect();
    pool.run(cap.min(n), n, &|i| {
        let value = f(i);
        // SAFETY: the pool claims each index exactly once, so no two
        // executors ever write the same slot, and the pool's completion
        // latch sequences every write before the reads below.
        unsafe { slots[i].put(value) };
    });
    slots
        .into_iter()
        .map(|s| s.take().expect("every index scheduled exactly once"))
        .collect()
}

/// A write-once result slot; `Sync` because the pool guarantees exclusive
/// one-shot access per index (see the safety comment at the write site).
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: slot access is externally synchronized by the pool — exactly one
// executor writes each slot, and the completion latch orders the writes
// before the caller's reads.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn empty() -> Self {
        Self(UnsafeCell::new(None))
    }

    /// # Safety
    ///
    /// Callers must guarantee no concurrent access to this slot.
    unsafe fn put(&self, value: T) {
        *self.0.get() = Some(value);
    }

    fn take(self) -> Option<T> {
        self.0.into_inner()
    }
}

// ---------------------------------------------------------------------------
// Memoization cache
// ---------------------------------------------------------------------------

/// Key identifying one simulation: the kernel fingerprint, the hardware
/// configuration, the bit patterns of the phase scale in effect, the
/// model's fidelity configuration ([`TimingModel::fidelity_key`] — wave
/// caps, fast-forward policy), and — for models whose results also depend
/// on the raw iteration number ([`TimingModel::phase_determined`] is
/// `false`) — the iteration itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    kernel: u64,
    cfg: HwConfig,
    compute_bits: u64,
    memory_bits: u64,
    /// Raw iteration for iteration-sensitive models, 0 for phase-determined
    /// ones (which is what lets their iterations share an entry).
    iteration: u64,
    /// The producing model's fidelity configuration, so exact and
    /// approximating variants of one model never alias an entry.
    fidelity: u64,
    /// The simulated device ([`TimingModel::device_key`]), so the same
    /// `(kernel, cfg)` point evaluated on two catalog devices never aliases.
    device: u64,
}

impl CacheKey {
    /// The key of one point, given the kernel's precomputed
    /// [`KernelProfile::cache_key`].
    fn new<M: TimingModel + ?Sized>(
        cfg: HwConfig,
        kernel: &KernelProfile,
        kernel_key: u64,
        iteration: u64,
        model: &M,
    ) -> Self {
        let scale = kernel.phase.scale_for(iteration);
        CacheKey {
            kernel: kernel_key,
            cfg,
            compute_bits: scale.compute.to_bits(),
            memory_bits: scale.memory.to_bits(),
            iteration: if model.phase_determined() { 0 } else { iteration },
            fidelity: model.fidelity_key(),
            device: model.device_key(),
        }
    }

    fn shard(&self) -> usize {
        // The fingerprint is already well-mixed (FNV-1a); fold in the scale
        // bits so phase variants of one kernel spread across shards.
        ((self.kernel
            ^ self.compute_bits.rotate_left(17)
            ^ self.memory_bits.rotate_left(43)
            ^ self.iteration.rotate_left(7)
            ^ self.fidelity.rotate_left(29)
            ^ self.device.rotate_left(53)) as usize)
            % SHARDS
    }
}

/// A map keyed by [`CacheKey`]: its words are fingerprints, configurations
/// and bit patterns, so the multiply-xorshift [`ScaleKeyHasher`] replaces
/// SipHash on every lookup.
type KeyMap<V> = HashMap<CacheKey, V, BuildHasherDefault<ScaleKeyHasher>>;

/// A sharded, thread-safe memoization cache over [`TimingModel::simulate`].
///
/// `SHARDS` independent `RwLock<HashMap>` shards keep contention low when
/// many pool workers read concurrently; reads take a shared lock, and only
/// genuine misses take a shard's write lock. All timing models in this
/// workspace are deterministic, so a duplicated race-window computation
/// inserts the identical value — last write wins harmlessly.
#[derive(Debug, Default)]
pub struct SimCache {
    shards: [RwLock<KeyMap<SimResult>>; SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates through the cache: returns the memoized result when the
    /// `(kernel, cfg, phase-scale)` point has been evaluated before,
    /// otherwise runs `model` and stores the result.
    pub fn simulate<M: TimingModel + ?Sized>(
        &self,
        model: &M,
        cfg: HwConfig,
        kernel: &KernelProfile,
        iteration: u64,
    ) -> SimResult {
        self.simulate_keyed(model, cfg, kernel, kernel.cache_key(), iteration)
    }

    /// [`simulate`](Self::simulate) for a caller that already holds the
    /// kernel's [`KernelProfile::cache_key`] — a session replaying the same
    /// kernel every tick hashes it once, not once per lookup.
    pub fn simulate_keyed<M: TimingModel + ?Sized>(
        &self,
        model: &M,
        cfg: HwConfig,
        kernel: &KernelProfile,
        kernel_key: u64,
        iteration: u64,
    ) -> SimResult {
        debug_assert_eq!(kernel_key, kernel.cache_key(), "stale kernel key");
        let key = CacheKey::new(cfg, kernel, kernel_key, iteration, model);
        let shard = &self.shards[key.shard()];
        if let Some(r) = shard.read().expect("cache shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *r;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let r = model.simulate(cfg, kernel, iteration);
        shard
            .write()
            .expect("cache shard poisoned")
            .insert(key, r);
        r
    }

    /// Simulates a whole batch through the cache: one lookup per lane (so
    /// the hit/miss accounting is identical to a scalar loop over
    /// [`SimCache::simulate`], including in-batch duplicate points, which
    /// hit the entry their first occurrence produces), with every genuine
    /// miss evaluated in a single [`TimingModel::simulate_batch`] call.
    pub fn simulate_batch<M: TimingModel + ?Sized>(
        &self,
        model: &M,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        let mut out: Vec<Option<SimResult>> = vec![None; cfgs.len()];
        let mut miss_lanes: Vec<usize> = Vec::new();
        let mut pending: KeyMap<usize> = KeyMap::default();
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        let kernel_key = kernel.cache_key();
        for (i, &cfg) in cfgs.iter().enumerate() {
            let key = CacheKey::new(cfg, kernel, kernel_key, iteration, model);
            if let Some(r) = self.shards[key.shard()]
                .read()
                .expect("cache shard poisoned")
                .get(&key)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out[i] = Some(*r);
            } else if let Some(&pos) = pending.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                duplicates.push((i, pos));
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                pending.insert(key, miss_lanes.len());
                miss_lanes.push(i);
            }
        }
        if !miss_lanes.is_empty() {
            let miss_cfgs: Vec<HwConfig> = miss_lanes.iter().map(|&i| cfgs[i]).collect();
            let results = model.simulate_batch(&miss_cfgs, kernel, iteration);
            for (&lane, &r) in miss_lanes.iter().zip(&results) {
                let key = CacheKey::new(cfgs[lane], kernel, kernel_key, iteration, model);
                self.shards[key.shard()]
                    .write()
                    .expect("cache shard poisoned")
                    .insert(key, r);
                out[lane] = Some(r);
            }
            for (lane, pos) in duplicates {
                out[lane] = Some(results[pos]);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every lane resolved to a hit, miss, or duplicate"))
            .collect()
    }

    /// Number of distinct simulation points stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from memory since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the underlying model.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries per shard, in shard order — the occupancy distribution of
    /// the sharding hash.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .collect()
    }

    /// A consistent snapshot of the accounting counters (taken between
    /// sweeps; concurrent lookups may skew a mid-sweep snapshot).
    pub fn stats(&self) -> CacheStats {
        let shard_occupancy = self.shard_occupancy();
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: shard_occupancy.iter().sum(),
            shard_occupancy,
        }
    }
}

/// A snapshot of a [`SimCache`]'s accounting counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: usize,
    /// Lookups that ran the underlying model.
    pub misses: usize,
    /// Distinct simulation points stored.
    pub entries: usize,
    /// Entries per shard, in shard order (occupancy distribution).
    pub shard_occupancy: Vec<usize>,
}

impl CacheStats {
    /// Total lookups observed (`hits + misses`).
    pub fn lookups(&self) -> usize {
        self.hits + self.misses
    }
}

/// A [`TimingModel`] adaptor that routes every simulation through a
/// [`SimCache`], so cache-oblivious consumers (the sensitivity probes, the
/// runtime) share memoized results with the bulk sweeps.
#[derive(Debug)]
pub struct CachedModel<'a, M: TimingModel + ?Sized> {
    inner: &'a M,
    cache: &'a SimCache,
}

impl<'a, M: TimingModel + ?Sized> CachedModel<'a, M> {
    /// Wraps `model` with `cache`.
    pub fn new(inner: &'a M, cache: &'a SimCache) -> Self {
        Self { inner, cache }
    }

    /// The shared cache behind this adaptor.
    pub fn cache(&self) -> &SimCache {
        self.cache
    }
}

impl<M: TimingModel + ?Sized> TimingModel for CachedModel<'_, M> {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        self.cache.simulate(self.inner, cfg, kernel, iteration)
    }

    /// Batch through the cache: one lookup per lane (the same accounting a
    /// scalar loop produces), with all misses evaluated in a single
    /// `simulate_batch` call on the inner model — so a cold grid sweep is
    /// still one cache-warm batched pass, and the cached entries are the
    /// batch kernel's bytes.
    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        self.cache
            .simulate_batch(self.inner, cfgs, kernel, iteration)
    }

    fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
        self.inner.sweep_terms(cfgs, kernel)
    }

    fn gpu(&self) -> &GpuDescriptor {
        self.inner.gpu()
    }

    fn phase_determined(&self) -> bool {
        self.inner.phase_determined()
    }

    fn fidelity_key(&self) -> u64 {
        self.inner.fidelity_key()
    }

    fn device_key(&self) -> u64 {
        self.inner.device_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalModel;
    use crate::profile::{KernelProfile, PhaseModulation, PhaseScale};
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn pool_size_clamps_to_batch() {
        assert_eq!(pool_size_with(1, None, 64), 1);
        assert_eq!(pool_size_with(1, Some(8), 64), 1, "override is still clamped");
        assert_eq!(pool_size_with(100, None, 8), 8);
        assert_eq!(pool_size_with(100, Some(3), 8), 3);
        assert_eq!(pool_size_with(5, None, 8), 5);
        assert_eq!(pool_size_with(0, None, 8), 1, "degenerate batch still gets a worker");
        assert_eq!(pool_size_with(100, None, 0), 1, "degenerate parallelism");
    }

    #[test]
    fn one_item_sweep_stays_on_the_calling_thread() {
        // A 1-item batch must not fan out: even with an 8-thread pool
        // request, the item runs inline on the caller.
        let seen = Mutex::new(HashSet::new());
        let out = run_indexed_with(8, 1, |i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            i * 2
        });
        assert_eq!(out, vec![0]);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen.contains(&std::thread::current().id()));
    }

    #[test]
    fn run_indexed_preserves_order() {
        let out = run_indexed_with(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_matches_serial_for_any_pool() {
        let serial: Vec<usize> = (0..37).map(|i| i + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(run_indexed_with(threads, 37, |i| i + 1), serial);
        }
    }

    #[test]
    fn cache_returns_model_results_exactly() {
        let model = IntervalModel::default();
        let cache = SimCache::new();
        let k = KernelProfile::builder("k").build();
        let cfg = HwConfig::max_hd7970();
        let direct = model.simulate(cfg, &k, 0);
        let cold = cache.simulate(&model, cfg, &k, 0);
        let warm = cache.simulate(&model, cfg, &k, 0);
        assert_eq!(direct, cold);
        assert_eq!(direct, warm);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn constant_phase_iterations_share_one_entry() {
        let model = IntervalModel::default();
        let cache = SimCache::new();
        let k = KernelProfile::builder("k").build();
        let cfg = HwConfig::max_hd7970();
        for i in 0..16 {
            cache.simulate(&model, cfg, &k, i);
        }
        assert_eq!(cache.len(), 1, "constant phase ⇒ one entry for all iterations");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 15);
    }

    #[test]
    fn cyclic_phase_collapses_to_distinct_scales() {
        let model = IntervalModel::default();
        let cache = SimCache::new();
        let k = KernelProfile::builder("k")
            .phase(PhaseModulation::Cycle(vec![
                PhaseScale {
                    compute: 1.0,
                    memory: 2.0,
                },
                PhaseScale {
                    compute: 0.5,
                    memory: 1.0,
                },
            ]))
            .build();
        let cfg = HwConfig::max_hd7970();
        for i in 0..10 {
            cache.simulate(&model, cfg, &k, i);
        }
        assert_eq!(cache.len(), 2, "cycle of period 2 ⇒ two distinct entries");
    }

    #[test]
    fn iteration_sensitive_models_key_by_raw_iteration() {
        // The trace model reseeds its burst jitter per iteration, so equal
        // phase scales must NOT share cache entries for it.
        let model = crate::trace::TraceModel::default();
        assert!(!model.phase_determined());
        let cache = SimCache::new();
        let k = KernelProfile::builder("k").build();
        let cfg = HwConfig::max_hd7970();
        for i in 0..4 {
            let direct = model.simulate(cfg, &k, i);
            assert_eq!(direct, cache.simulate(&model, cfg, &k, i));
        }
        assert_eq!(cache.len(), 4, "one entry per iteration for jittered traces");
    }

    #[test]
    fn cached_model_is_a_timing_model() {
        let model = IntervalModel::default();
        let cache = SimCache::new();
        let cached = CachedModel::new(&model, &cache);
        let k = KernelProfile::builder("k").build();
        let r = cached.simulate(HwConfig::max_hd7970(), &k, 3);
        assert_eq!(r, model.simulate(HwConfig::max_hd7970(), &k, 3));
        assert_eq!(cached.gpu().max_cu, model.gpu().max_cu);
        assert_eq!(cached.cache().len(), 1);
    }

    #[test]
    fn exact_and_fast_forwarded_results_never_alias() {
        use crate::event::{EventModel, FastForwardPolicy};
        let exact = EventModel::default();
        let fast = EventModel::default().with_fast_forward(FastForwardPolicy::auto());
        let cache = SimCache::new();
        let k = KernelProfile::builder("steady")
            .workitems(1 << 20)
            .valu_insts_per_item(4.0)
            .vfetch_insts_per_item(8.0)
            .bytes_per_fetch(32.0)
            .l1_hit_rate(0.05)
            .l2_hit_rate(0.05)
            .build();
        let cfg = HwConfig::max_hd7970();
        let re = cache.simulate(&exact, cfg, &k, 0);
        let rf = cache.simulate(&fast, cfg, &k, 0);
        assert_eq!(cache.len(), 2, "one entry per fidelity configuration");
        assert_eq!(cache.misses(), 2, "the fast model must not hit the exact entry");
        assert!(re.fast_forward.is_exact());
        assert!(!rf.fast_forward.is_exact());
        // Warm lookups hit their own fidelity's entry and reproduce it.
        assert_eq!(cache.simulate(&exact, cfg, &k, 0), re);
        assert_eq!(cache.simulate(&fast, cfg, &k, 0), rf);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn distinct_devices_do_not_alias() {
        // Same kernel, same configuration point, two catalog devices: the
        // cache must keep one entry per device and reproduce each model's
        // own result on warm lookups.
        use harmonia_types::DeviceSpec;
        let hd = IntervalModel::default();
        let v100 = IntervalModel::new(DeviceSpec::v100().gpu);
        assert_ne!(hd.device_key(), v100.device_key());
        let cache = SimCache::new();
        let k = KernelProfile::builder("k").build();
        let cfg = HwConfig::max_hd7970();
        let ra = cache.simulate(&hd, cfg, &k, 0);
        let rb = cache.simulate(&v100, cfg, &k, 0);
        assert_eq!(cache.len(), 2, "one entry per device");
        assert_eq!(cache.misses(), 2, "the v100 model must not hit the hd7970 entry");
        assert_eq!(cache.simulate(&hd, cfg, &k, 0), ra);
        assert_eq!(cache.simulate(&v100, cfg, &k, 0), rb);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn distinct_kernels_do_not_collide() {
        let model = IntervalModel::default();
        let cache = SimCache::new();
        let a = KernelProfile::builder("a").valu_insts_per_item(1.0).build();
        let b = KernelProfile::builder("b").valu_insts_per_item(900.0).build();
        let cfg = HwConfig::max_hd7970();
        let ra = cache.simulate(&model, cfg, &a, 0);
        let rb = cache.simulate(&model, cfg, &b, 0);
        assert_eq!(cache.len(), 2);
        assert_ne!(ra.time, rb.time);
    }
}
