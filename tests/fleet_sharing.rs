//! Cross-session cache sharing: a fleet of N identical-kernel devices must
//! pay exactly one cold sweep (the shared store's whole point), and sharing
//! must not change a single bit of any device's results relative to N
//! independent solo runs.

use harmonia_fleet::{FleetScheduler, FleetSpec};
use harmonia_power::PowerModel;
use harmonia_sim::IntervalModel;
use harmonia_types::{ConfigSpace, DeviceSpec};
use harmonia_workloads::{suite, Application};

const TICKS: u64 = 6;

/// The hd7970 from the device catalog, with its timing and power models.
fn catalog_hd7970() -> (DeviceSpec, IntervalModel, PowerModel) {
    let device = DeviceSpec::lookup("hd7970").expect("catalog device");
    let model = IntervalModel::new(device.gpu);
    let power = PowerModel::for_device(&device);
    (device, model, power)
}

fn fleet_of(app: &Application, n: usize) -> Vec<Application> {
    (0..n).map(|_| app.clone()).collect()
}

#[test]
fn identical_kernel_fleet_performs_exactly_one_cold_sweep() {
    let (device, model, power) = catalog_hd7970();
    let app = suite::stencil();
    let unique_kernels = app.kernels.len();
    let sched = FleetScheduler::new(&model, &power, FleetSpec::Oracle).with_ticks(TICKS);
    let run = sched.run(&fleet_of(&app, 16));
    let r = &run.report;
    assert_eq!(r.unique_kernels, unique_kernels);
    assert_eq!(
        r.plans.cold_sweeps, unique_kernels,
        "every kernel fingerprint must be swept cold exactly once fleet-wide"
    );
    // Stencil kernels are constant-phase, so no incremental re-sweeps and
    // one cache miss per grid lane per unique kernel. Every other decision
    // across 16 devices × 6 ticks replays the plan memo, whose decision
    // carries its own simulation: an uncapped fleet never probes the cache
    // outside a sweep.
    assert_eq!(r.plans.incremental_sweeps, 0);
    assert_eq!(
        r.cache.misses,
        unique_kernels * ConfigSpace::for_grid(&device.gpu.grid).len(),
        "cache misses must equal unique kernels × grid size"
    );
    assert_eq!(r.cache.hits, 0, "no cache probe outside the cold sweeps");
    assert_eq!(
        r.plans.memo_hits,
        16 * TICKS as usize * unique_kernels - unique_kernels,
        "every decision but the cold sweeps must replay the plan memo"
    );
}

#[test]
fn mixed_fleet_cold_sweeps_once_per_unique_kernel() {
    let (device, model, power) = catalog_hd7970();
    // 3 distinct apps × 4 devices each = 12 devices over the union of
    // their kernels.
    let apps = [suite::stencil(), suite::maxflops(), suite::devicememory()];
    let unique_kernels: usize = apps.iter().map(|a| a.kernels.len()).sum();
    let mut fleet = Vec::new();
    for app in &apps {
        fleet.extend(fleet_of(app, 4));
    }
    let sched = FleetScheduler::new(&model, &power, FleetSpec::Oracle).with_ticks(TICKS);
    let r = sched.run(&fleet).report;
    assert_eq!(r.unique_kernels, unique_kernels);
    assert_eq!(r.plans.cold_sweeps, unique_kernels);
    assert_eq!(
        r.cache.misses,
        unique_kernels * ConfigSpace::for_grid(&device.gpu.grid).len()
    );
}

#[test]
fn shared_store_results_are_bit_identical_to_solo_runs() {
    let (_, model, power) = catalog_hd7970();
    let apps = [suite::stencil(), suite::maxflops(), suite::devicememory()];
    let mut fleet = Vec::new();
    for app in &apps {
        fleet.extend(fleet_of(app, 3));
    }
    let shared = FleetScheduler::new(&model, &power, FleetSpec::Oracle)
        .with_ticks(TICKS)
        .run(&fleet)
        .report;
    for (i, app) in fleet.iter().enumerate() {
        // A fresh scheduler per device: its store sees only this app, so
        // this is the N-independent-solo-runs reference.
        let solo = FleetScheduler::new(&model, &power, FleetSpec::Oracle)
            .with_ticks(TICKS)
            .run(std::slice::from_ref(app))
            .report;
        let fleet_dev = &shared.per_device[i];
        let solo_dev = &solo.per_device[0];
        assert_eq!(
            fleet_dev.total_time.value().to_bits(),
            solo_dev.total_time.value().to_bits(),
            "device {i} time drifted under sharing"
        );
        assert_eq!(
            fleet_dev.card_energy.value().to_bits(),
            solo_dev.card_energy.value().to_bits(),
            "device {i} energy drifted under sharing"
        );
        assert_eq!(fleet_dev.ed2.to_bits(), solo_dev.ed2.to_bits());
        assert_eq!(
            fleet_dev.config_digest, solo_dev.config_digest,
            "device {i} was granted a different config sequence under sharing"
        );
        assert_eq!(fleet_dev.decisions, solo_dev.decisions);
    }
}
