//! Store handles are a pure lookup shortcut: deciding and simulating
//! through a handle resolved once must return the same bits, and leave the
//! same cache and plan accounting, as the per-call path (`decide_for`, and
//! a sim through a freshly resolved [`KernelHandle`]) — on every catalog
//! device and every suite kernel, not just the two devices the fleet
//! golden pins.

use harmonia::governor::{KernelHandle, PlanStore};
use harmonia_power::PowerModel;
use harmonia_sim::{IntervalModel, KernelProfile, SimResult};
use harmonia_types::{DeviceSpec, HwConfig};
use harmonia_workloads::suite;
use std::fmt::Debug;

const TICKS: u64 = 8;

/// `Debug` renders every `f64` in its shortest round-trip form, so equal
/// renderings mean equal bits (NaN payloads aside).
fn bits<T: Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// One sim on the per-call path: through a handle resolved for this call.
fn simulate_per_call(
    store: &PlanStore,
    class: usize,
    kernel: &KernelProfile,
    cfg: HwConfig,
    tick: u64,
) -> SimResult {
    store.simulate_with(&store.handle(class, kernel), kernel, cfg, tick)
}

#[test]
fn handle_and_per_call_paths_are_bit_identical_on_every_catalog_device() {
    let devices: Vec<DeviceSpec> = DeviceSpec::catalog()
        .iter()
        .map(|name| DeviceSpec::lookup(name).expect("catalog device"))
        .collect();
    let models: Vec<IntervalModel> = devices.iter().map(|d| IntervalModel::new(d.gpu)).collect();
    let powers: Vec<PowerModel> = devices.iter().map(PowerModel::for_device).collect();
    // One class per catalog device, registered in catalog order on both
    // stores.
    let store = || {
        let mut store = PlanStore::new(&models[0], &powers[0]);
        for (model, power) in models.iter().zip(&powers).skip(1) {
            store.add_class(model, power);
        }
        store
    };
    let (handled, per_call) = (store(), store());
    let kernels: Vec<KernelProfile> = suite::all()
        .into_iter()
        .flat_map(|app| app.kernels)
        .collect();
    let handles: Vec<Vec<KernelHandle>> = (0..devices.len())
        .map(|class| kernels.iter().map(|k| handled.handle(class, k)).collect())
        .collect();
    for tick in 0..TICKS {
        for (class, device) in devices.iter().enumerate() {
            let (floor, boost) = (handled.floor_of(class), handled.boost_of(class));
            for (kernel, handle) in kernels.iter().zip(&handles[class]) {
                let at = || format!("{} {} tick {tick}", device.name, kernel.name);
                // A boost lookup before the decision (a miss on tick 0,
                // ahead of the cold sweep), then the decision, then the
                // accounting sims a fleet session runs after it.
                let a = handled.simulate_with(handle, kernel, boost, tick);
                let b = simulate_per_call(&per_call, class, kernel, boost, tick);
                assert_eq!(bits(&a), bits(&b), "boost sim, {}", at());
                let a = handled.decide_with(handle, kernel, tick);
                let b = per_call.decide_for(class, kernel, tick);
                assert_eq!(bits(&a), bits(&b), "decision, {}", at());
                for cfg in [a.config, floor] {
                    let ra = handled.simulate_with(handle, kernel, cfg, tick);
                    let rb = simulate_per_call(&per_call, class, kernel, cfg, tick);
                    assert_eq!(bits(&ra), bits(&rb), "sim at {cfg:?}, {}", at());
                }
            }
        }
        assert_eq!(
            handled.cache_stats(),
            per_call.cache_stats(),
            "cache, tick {tick}"
        );
        assert_eq!(
            handled.plan_stats(),
            per_call.plan_stats(),
            "plans, tick {tick}"
        );
        assert_eq!(
            handled.unique_kernels(),
            per_call.unique_kernels(),
            "tick {tick}"
        );
    }
    // The run exercised every path a handle can take: cold sweeps,
    // incremental re-sweeps of phased kernels, memo replays, and cache
    // hits and misses.
    let (cache, plans) = (handled.cache_stats(), handled.plan_stats());
    assert!(plans.cold_sweeps >= devices.len(), "{plans:?}");
    assert!(plans.incremental_sweeps > 0, "{plans:?}");
    assert!(plans.memo_hits > 0, "{plans:?}");
    assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
}
