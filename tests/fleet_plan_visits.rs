//! One plan visit per fleet decision, on every catalog device: a session
//! decides each invocation once, through its kernel's store handle, and
//! the clamp only clamps that decision. The store's counters show it:
//!
//! - every decision is exactly one plan outcome (a cold sweep, an
//!   incremental re-sweep or a memo hit), so `cold + incremental + memo`
//!   equals the decision count;
//! - an uncapped fleet runs each decision's own simulation, so it never
//!   probes the cache outside a sweep (`hits + misses == exact_lanes`);
//! - a capped fleet probes the cache once per decision for the grid floor
//!   (its demand telemetry) and once more per clamped grant, so the
//!   probes outside sweeps lie between one and two per decision.
//!
//! Each scheduler runs twice, cold then warm, and every bound holds on
//! both runs' counter deltas.

use harmonia_fleet::{FleetScheduler, FleetSpec};
use harmonia_power::PowerModel;
use harmonia_sim::{CacheStats, IntervalModel, PlanStats};
use harmonia_types::DeviceSpec;
use harmonia_workloads::suite;

const TICKS: u64 = 6;

#[test]
fn every_fleet_decision_visits_its_plan_once_on_every_catalog_device() {
    let apps = suite::all();
    for name in DeviceSpec::catalog() {
        let device = DeviceSpec::lookup(name).expect("catalog device");
        let model = IntervalModel::new(device.gpu);
        let power = PowerModel::for_device(&device);
        for spec in [FleetSpec::Oracle, "fleet:capped".parse().expect("spec")] {
            let sched = FleetScheduler::new(&model, &power, spec).with_ticks(TICKS);
            let mut cache: CacheStats = sched.store().cache_stats();
            let mut plans: PlanStats = sched.store().plan_stats();
            for run in ["cold", "warm"] {
                let r = sched.run(&apps).report;
                let at = format!("{name} {spec} {run} run");
                let decisions = r.total_decisions() as usize;
                let visits = (r.plans.cold_sweeps - plans.cold_sweeps)
                    + (r.plans.incremental_sweeps - plans.incremental_sweeps)
                    + (r.plans.memo_hits - plans.memo_hits);
                assert_eq!(visits, decisions, "plan visits per decision, {at}");
                let lanes = r.plans.exact_lanes - plans.exact_lanes;
                let probes = r.cache.lookups() - cache.lookups() - lanes;
                match spec {
                    FleetSpec::Oracle => {
                        assert_eq!(probes, 0, "cache probes outside sweeps, {at}")
                    }
                    FleetSpec::Capped(_) => assert!(
                        (decisions..=2 * decisions).contains(&probes),
                        "{probes} cache probes outside sweeps for {decisions} decisions, {at}"
                    ),
                }
                cache = r.cache;
                plans = r.plans;
            }
        }
    }
}
