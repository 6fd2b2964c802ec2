//! Interleave determinism: the fleet report — every device's ED²,
//! cap-violation count, config digest, and the shared-store accounting —
//! must be byte-identical for any worker count. Each proptest case runs
//! the same fleet on private pools of 0, 1, and 7 workers (1, 2, and 8
//! executing threads: the caller participates) and compares the canonical
//! bit-exact renderings.

use harmonia_fleet::{FleetScheduler, FleetSpec};
use harmonia_power::PowerModel;
use harmonia_sim::{IntervalModel, SweepPool};
use harmonia_types::DeviceSpec;
use harmonia_workloads::{suite, Application};
use proptest::prelude::*;

/// Worker counts behind 1-, 2-, and 8-thread execution.
const WORKERS: [usize; 3] = [0, 1, 7];

fn canonical_run(spec: FleetSpec, apps: &[Application], ticks: u64, workers: usize) -> String {
    let device = DeviceSpec::lookup("hd7970").expect("catalog device");
    let model = IntervalModel::new(device.gpu);
    let power = PowerModel::for_device(&device);
    let sched = FleetScheduler::new(&model, &power, spec)
        .with_ticks(ticks)
        .with_pool(SweepPool::with_workers(workers));
    sched.run(apps).report.canonical()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fleet_reports_are_byte_identical_across_worker_counts(
        devices in 1usize..10,
        ticks in 1u64..5,
        cap_flag in 0u8..2,
        seed in 0usize..3,
    ) {
        let capped = cap_flag == 1;
        // Mix apps so devices genuinely contend for shared plans.
        let menu = [suite::stencil(), suite::maxflops(), suite::devicememory()];
        let apps: Vec<Application> = (0..devices)
            .map(|i| menu[(i + seed) % menu.len()].clone())
            .collect();
        let spec: FleetSpec = if capped {
            // Tight enough to engage clamps on at least some devices.
            format!("fleet:capped@{}", 150 * devices).parse().unwrap()
        } else {
            FleetSpec::Oracle
        };
        let reference = canonical_run(spec, &apps, ticks, WORKERS[0]);
        for &workers in &WORKERS[1..] {
            let report = canonical_run(spec, &apps, ticks, workers);
            prop_assert_eq!(
                &reference,
                &report,
                "report bytes drifted between {} and {} workers",
                WORKERS[0],
                workers
            );
        }
    }
}

#[test]
fn a_large_fleet_is_deterministic_across_worker_counts() {
    // One fixed heavier case outside proptest: 48 devices, capped, phases
    // of decisions overlapping on the pool.
    let menu = [suite::stencil(), suite::maxflops(), suite::devicememory()];
    let apps: Vec<Application> = (0..48).map(|i| menu[i % menu.len()].clone()).collect();
    let spec: FleetSpec = "fleet:capped@7200".parse().unwrap();
    let reference = canonical_run(spec, &apps, 4, 0);
    for workers in [1, 7] {
        assert_eq!(
            reference,
            canonical_run(spec, &apps, 4, workers),
            "48-device report drifted at {workers} workers"
        );
    }
}
