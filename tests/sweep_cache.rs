//! Sweep-engine cache accounting: the counters exposed through
//! [`CacheStats`] must balance exactly (`hits + misses == lookups`), warm
//! re-sweeps of phase-determined models must be pure hits, and the
//! accounting must be independent of the worker-pool size — the property
//! that makes the `HARMONIA_THREADS=1` CI leg a determinism check rather
//! than a separate code path.

use harmonia_sim::{sweep, CacheStats, IntervalModel, SimCache, SimResult, TimingModel};
use harmonia_types::{ConfigSpace, HwConfig};
use harmonia_workloads::suite;

fn full_grid() -> Vec<HwConfig> {
    ConfigSpace::hd7970().iter().collect()
}

#[test]
fn accounting_balances_and_warm_sweeps_are_pure_hits() {
    let model = IntervalModel::default();
    assert!(model.phase_determined(), "interval model is phase-determined");
    let kernel = suite::stencil().kernels[0].clone();
    let cache = SimCache::new();
    let configs = full_grid();

    // Cold sweep: every distinct point is a miss.
    let _ = sweep::run_indexed(configs.len(), |i| {
        cache.simulate(&model, configs[i], &kernel, 0)
    });
    let cold = cache.stats();
    assert_eq!(cold.hits + cold.misses, cold.lookups());
    assert_eq!(cold.lookups(), configs.len());
    assert_eq!(cold.misses, configs.len(), "distinct cold points are all misses");
    assert_eq!(cold.entries, configs.len());
    assert_eq!(cold.shard_occupancy.iter().sum::<usize>(), cold.entries);
    assert_eq!(cold.shard_occupancy.len(), 16, "one slot per shard");

    // Warm sweep at a different iteration: the kernel's phase is constant
    // and the model phase-determined, so the hit rate must be 100%.
    let _ = sweep::run_indexed(configs.len(), |i| {
        cache.simulate(&model, configs[i], &kernel, 7)
    });
    let warm = cache.stats();
    assert_eq!(warm.misses, cold.misses, "warm sweep must not re-simulate");
    assert_eq!(warm.hits - cold.hits, configs.len(), "warm sweep is 100% hits");
    assert_eq!(warm.lookups(), 2 * configs.len());
    assert_eq!(warm.entries, cold.entries, "no new entries on a warm sweep");
}

#[test]
fn accounting_is_identical_across_pool_sizes() {
    let kernel = suite::sort().kernels[0].clone();
    let configs = full_grid();
    // The same cold+warm workload through an explicit single-worker pool
    // and through the default pool must produce identical results *and*
    // identical accounting. The cold and the warm sweep are separate pool
    // passes: inside one pass every key is distinct, so no two jobs can
    // both miss on one point in the cache's documented race window (which
    // would count an extra miss, not change a result).
    let run = |threads: Option<usize>| -> (Vec<SimResult>, CacheStats) {
        let model = IntervalModel::default();
        let cache = SimCache::new();
        let job = |i: usize| cache.simulate(&model, configs[i], &kernel, 0);
        let pass = || match threads {
            Some(t) => sweep::run_indexed_with(t, configs.len(), job),
            None => sweep::run_indexed(configs.len(), job),
        };
        let mut results = pass(); // cold
        results.extend(pass()); // warm
        (results, cache.stats())
    };
    let (serial_results, serial_stats) = run(Some(1));
    let (pooled_results, pooled_stats) = run(None);
    assert_eq!(serial_results, pooled_results, "index order must hide scheduling");
    assert_eq!(serial_stats, pooled_stats, "accounting must not depend on the pool");
    assert_eq!(serial_stats.lookups(), configs.len() * 2);
    assert_eq!(serial_stats.misses, configs.len());
    assert_eq!(serial_stats.hits, configs.len());
}

#[test]
fn cyclic_phases_cost_one_miss_per_distinct_scale() {
    // Graph500's BFS kernel cycles through per-iteration phase scales; the
    // cache must key on the scale, not the raw iteration, so sweeping many
    // iterations costs one miss per (config, distinct scale).
    let model = IntervalModel::default();
    let app = suite::graph500();
    let kernel = app
        .kernel("Graph500.BottomStepUp")
        .expect("suite kernel")
        .clone();
    let cache = SimCache::new();
    let cfg = HwConfig::max_hd7970();
    let mut distinct = std::collections::HashSet::new();
    for i in 0..(app.iterations * 4) {
        let s = kernel.phase.scale_for(i);
        distinct.insert((s.compute.to_bits(), s.memory.to_bits()));
        let _ = cache.simulate(&model, cfg, &kernel, i);
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, distinct.len(), "one miss per distinct phase scale");
    assert_eq!(stats.lookups(), (app.iterations * 4) as usize);
    assert_eq!(stats.entries, distinct.len());
}
