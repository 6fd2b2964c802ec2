//! Differential tests for the batched sweep path: `simulate_batch` must be
//! bit-identical to the scalar `simulate` loop for every model, subset, and
//! phase scale; incremental plan re-sweeps must reproduce cold sweeps byte
//! for byte; and the plan-driven oracle, private or over a shared store,
//! must pick exactly what the naive scalar fold over the whole grid picks,
//! on every catalog device.

use harmonia::governor::{Ed2Objective, Governor, OracleGovernor, PlanStore, PowerTable};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{
    DecisionKind, EventModel, IntervalModel, KernelProfile, PhaseModulation, PhaseScale, SweepPlan,
    TimingModel,
};
use harmonia_types::{ConfigSpace, DeviceSpec, HwConfig};
use harmonia_workloads::generator::random_profile;
use harmonia_workloads::suite;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn grid() -> Vec<HwConfig> {
    ConfigSpace::hd7970().iter().collect()
}

/// A random subset of the grid in random order — batched evaluation must
/// not depend on lane count, ordering, or duplicate-free inputs.
fn random_subset(rng: &mut StdRng, configs: &[HwConfig]) -> Vec<HwConfig> {
    let n = rng.gen_range(1..=configs.len());
    (0..n)
        .map(|_| configs[rng.gen_range(0..configs.len())])
        .collect()
}

/// A random multi-phase kernel: a base random profile with a randomized
/// scale cycle attached so successive iterations exercise new phase scales.
fn random_cycled_kernel(rng: &mut StdRng, name: &str) -> KernelProfile {
    let mut kernel = random_profile(rng, name);
    let phases = rng.gen_range(2..=4);
    let scales: Vec<PhaseScale> = (0..phases)
        .map(|_| PhaseScale {
            compute: rng.gen_range(0.25..4.0),
            memory: rng.gen_range(0.25..4.0),
        })
        .collect();
    kernel.phase = PhaseModulation::Cycle(scales);
    kernel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interval-model batches over arbitrary subsets, kernels, and
    /// iterations are lane-for-lane bit-identical to scalar calls.
    #[test]
    fn interval_batch_is_bit_identical_to_scalar(seed in 0u64..400, iteration in 0u64..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = random_cycled_kernel(&mut rng, "batchprop");
        let model = IntervalModel::default();
        let subset = random_subset(&mut rng, &grid());
        let batch = model.simulate_batch(&subset, &kernel, iteration);
        prop_assert_eq!(batch.len(), subset.len());
        for (lane, (&cfg, b)) in subset.iter().zip(&batch).enumerate() {
            let scalar = model.simulate(cfg, &kernel, iteration);
            prop_assert_eq!(
                *b, scalar,
                "lane {} ({}) diverged from the scalar path", lane, cfg
            );
        }
    }

    /// Incremental (frontier-only) re-sweeps return the same decision —
    /// index, config, objective bits, and full `SimResult` — as a cold
    /// sweep of the same phase scale, for randomized scale cycles.
    #[test]
    fn incremental_resweep_is_byte_identical_to_cold(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = random_cycled_kernel(&mut rng, "planprop");
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let configs = grid();
        let affine = PowerTable::probe(&power, &configs);
        let objective = Ed2Objective::new(&power, &affine);
        let mut plan = SweepPlan::new(configs.clone());
        for iteration in 0..6u64 {
            let d = plan.decide(&model, &kernel, iteration, &objective);
            let mut fresh = SweepPlan::new(configs.clone());
            let cold = fresh.decide(&model, &kernel, iteration, &objective);
            prop_assert_eq!(cold.kind, DecisionKind::Cold);
            prop_assert_eq!(d.index, cold.index);
            prop_assert_eq!(d.config, cold.config);
            prop_assert_eq!(d.result, cold.result);
            prop_assert_eq!(
                d.objective.to_bits(), cold.objective.to_bits(),
                "objective bits diverged at iteration {}", iteration
            );
        }
        let stats = plan.stats();
        prop_assert_eq!(stats.cold_sweeps, 1, "only the first sweep may be cold");
    }
}

/// The full 448-config grid, batched in one call, matches 448 scalar
/// dispatches for every kernel in the suite.
#[test]
fn full_grid_batch_matches_scalar_across_the_suite() {
    let model = IntervalModel::default();
    let configs = grid();
    for (name, kernel) in suite::training_kernels() {
        for iteration in 0..2 {
            let batch = model.simulate_batch(&configs, &kernel, iteration);
            for (&cfg, b) in configs.iter().zip(&batch) {
                assert_eq!(
                    *b,
                    model.simulate(cfg, &kernel, iteration),
                    "`{name}` diverged at {cfg} iteration {iteration}"
                );
            }
        }
    }
}

/// The event model's pooled batch override is bit-identical to its scalar
/// path (checked on a sparse grid corner — event sims are expensive).
#[test]
fn event_batch_matches_scalar_on_grid_corner() {
    let model = EventModel::default();
    let kernel = suite::maxflops().kernels[0].clone();
    let subset: Vec<HwConfig> = grid().into_iter().step_by(131).collect();
    let batch = model.simulate_batch(&subset, &kernel, 0);
    for (&cfg, b) in subset.iter().zip(&batch) {
        assert_eq!(*b, model.simulate(cfg, &kernel, 0), "event lane {cfg} diverged");
    }
}

/// The plan-driven oracle picks exactly the configuration the naive scalar
/// fold picks: simulate every config, score `card_pwr · t³`, first minimum
/// in grid order wins. Checked on every catalog device for every suite
/// kernel (up to eight iterations) plus a random phase cycle, and for two
/// oracles per device: a private one, and one deciding for class 1 of a
/// shared store whose class 0 is another catalog device.
#[test]
fn oracle_decisions_match_the_naive_scalar_fold() {
    let devices: Vec<DeviceSpec> = DeviceSpec::catalog()
        .iter()
        .map(|name| DeviceSpec::lookup(name).expect("catalog device"))
        .collect();
    let models: Vec<IntervalModel> = devices.iter().map(|d| IntervalModel::new(d.gpu)).collect();
    let powers: Vec<PowerModel> = devices.iter().map(PowerModel::for_device).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let cycled = random_cycled_kernel(&mut rng, "oracle-cycled");
    let runs: Vec<(KernelProfile, u64)> = suite::all()
        .into_iter()
        .flat_map(|app| {
            let iterations = app.iterations.min(8);
            app.kernels.into_iter().map(move |k| (k, iterations))
        })
        .chain([(cycled, 8)])
        .collect();
    for (d, device) in devices.iter().enumerate() {
        let (model, power) = (&models[d], &powers[d]);
        let grid = &device.gpu.grid;
        let configs: Vec<HwConfig> = ConfigSpace::for_grid(grid).iter().collect();
        let naive_best = |kernel: &KernelProfile, iteration: u64| -> HwConfig {
            let mut best = HwConfig::max_on(grid);
            let mut best_ed2 = f64::INFINITY;
            for &cfg in &configs {
                let r = model.simulate(cfg, kernel, iteration);
                let t = r.time.value();
                let activity = Activity {
                    valu_activity: r.counters.valu_activity(),
                    dram_bytes_per_sec: r.counters.dram_bytes_per_sec(),
                    dram_traffic_fraction: r.counters.ic_activity,
                };
                let ed2 = power.card_pwr(cfg, &activity).value() * t * t * t;
                if ed2 < best_ed2 {
                    best_ed2 = ed2;
                    best = cfg;
                }
            }
            best
        };
        let other = (d + 1) % devices.len();
        let mut store = PlanStore::new(&models[other], &powers[other]);
        let class = store.add_class(model, power);
        let store = Arc::new(store);
        for (kernel, iterations) in &runs {
            let mut private = OracleGovernor::new(model, power);
            let mut shared = OracleGovernor::shared(Arc::clone(&store), class);
            for iteration in 0..*iterations {
                let want = naive_best(kernel, iteration);
                let at = || format!("{} `{}` iteration {iteration}", device.name, kernel.name);
                assert_eq!(private.decide(kernel, iteration), want, "private oracle, {}", at());
                assert_eq!(shared.decide(kernel, iteration), want, "shared oracle, {}", at());
            }
        }
    }
}
