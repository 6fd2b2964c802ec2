//! Golden fleet report: a capped, mixed-device fleet must reproduce the
//! committed `FleetReport::canonical()` bytes exactly — every device's
//! time, energy, ED², decision count, cap violations, config digest and
//! final cap share, plus the shared store's cache and plan counters.
//!
//! The determinism tests compare worker counts within one build; this file
//! pins the bytes across builds, so a change to how sweep caches or plans
//! are keyed or hashed cannot move a decision or a counter unnoticed.

use harmonia_fleet::{FleetScheduler, FleetSpec};
use harmonia_power::PowerModel;
use harmonia_sim::{IntervalModel, SweepPool};
use harmonia_types::DeviceSpec;
use harmonia_workloads::{suite, Application};

const GOLDEN: &str = include_str!("golden/fleet_capped_mixed.txt");

/// Ticks the golden fleet runs.
const TICKS: u64 = 4;

/// Every suite app on an hd7970 (class 0) and on a v100 (class 1), device
/// pairs in suite order, under the default `fleet:capped` budget, stepped
/// on the calling thread only.
fn capped_mixed_report() -> String {
    let devices: Vec<DeviceSpec> = ["hd7970", "v100"]
        .iter()
        .map(|name| DeviceSpec::lookup(name).expect("catalog device"))
        .collect();
    let models: Vec<IntervalModel> = devices.iter().map(|d| IntervalModel::new(d.gpu)).collect();
    let powers: Vec<PowerModel> = devices.iter().map(PowerModel::for_device).collect();
    let spec: FleetSpec = "fleet:capped".parse().expect("fleet spec");
    let sched = FleetScheduler::new(&models[0], &powers[0], spec)
        .with_class(&models[1], &powers[1])
        .with_ticks(TICKS)
        .with_pool(SweepPool::with_workers(0));
    let assignments: Vec<(usize, Application)> = suite::all()
        .into_iter()
        .flat_map(|app| [(0, app.clone()), (1, app)])
        .collect();
    sched.run_mixed(&assignments).report.canonical()
}

#[test]
fn capped_mixed_fleet_matches_the_committed_golden_report() {
    let live = capped_mixed_report();
    assert!(
        live.starts_with("spec=fleet:capped devices=28 ticks=4\n"),
        "unexpected fleet shape:\n{}",
        live.lines().next().unwrap_or("")
    );
    if live == GOLDEN {
        return;
    }
    // Name the first divergent line rather than dumping both reports.
    let (line, (golden, got)) = GOLDEN
        .lines()
        .zip(live.lines())
        .enumerate()
        .find(|(_, (g, l))| g != l)
        .unwrap_or((
            GOLDEN.lines().count().min(live.lines().count()),
            ("<end of report>", "<end of report>"),
        ));
    panic!(
        "fleet report drifted from tests/golden/fleet_capped_mixed.txt at line {}:\n  \
         golden: {golden}\n  live:   {got}",
        line + 1
    );
}
