//! The fleet scheduler: lock-step ticks over many device sessions.
//!
//! Every tick has three phases:
//!
//! 1. **Re-balance (serial).** For capped fleets the
//!    [`ClusterGovernor`] water-fills the global cap over the demand
//!    telemetry merged from the previous tick (tick 0 uses the
//!    conservative full-busy projection) and each device's clamp is
//!    re-targeted with [`DeviceSession::set_cap`].
//! 2. **Step (parallel).** Every device runs one invocation of each of
//!    its kernels over the shared [`SweepPool`] — the batched decision
//!    API. The pool claims each device exactly once per tick; all shared
//!    plan/cache state is serialized per kernel inside the
//!    [`PlanStore`] every device decides through.
//! 3. **Merge (serial, device-id order).** Tick outcomes are reduced in
//!    a fixed order — cluster power sums, violation checks, telemetry for
//!    the next re-balance — so every reported number is byte-identical
//!    for any worker count.
//!
//! Repeated [`FleetScheduler::run`] calls share the same store: the first
//! run pays the cold sweeps and later runs are fully warm, which is how
//! the fleet bench measures steady-state decision throughput.

use crate::cluster::{ClusterGovernor, DeviceDemand};
use crate::device::{DeviceSession, TickOutcome};
use crate::report::{FleetReport, FleetRun};
use crate::spec::FleetSpec;
use harmonia::governor::PlanStore;
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::sweep::run_indexed_on;
use harmonia_sim::{SweepPool, TimingModel};
use harmonia_workloads::Application;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Drives a fleet of device sessions in lock-step ticks.
pub struct FleetScheduler<'a> {
    /// The store every device decides through; capped sessions' clamps
    /// hold clones only while a run lasts, so between runs the scheduler
    /// owns it alone.
    store: Arc<PlanStore<'a>>,
    spec: FleetSpec,
    ticks: u64,
    /// Private pool override; `None` uses the process-shared pool.
    pool: Option<SweepPool>,
}

impl<'a> FleetScheduler<'a> {
    /// A scheduler over the given models and policy, defaulting to 16
    /// ticks on the process-shared sweep pool. The models define device
    /// class 0; heterogeneous fleets add further classes with
    /// [`with_class`](Self::with_class).
    pub fn new(model: &'a dyn TimingModel, power: &'a PowerModel, spec: FleetSpec) -> Self {
        Self {
            store: Arc::new(PlanStore::new(model, power)),
            spec,
            ticks: 16,
            pool: None,
        }
    }

    /// Registers another device class (its own timing model, power model,
    /// and configuration grid) for [`run_mixed`](Self::run_mixed) fleets.
    /// Classes are numbered in registration order, starting after class 0.
    pub fn with_class(mut self, model: &'a dyn TimingModel, power: &'a PowerModel) -> Self {
        Arc::get_mut(&mut self.store)
            .expect("no run holds the store while the scheduler is built")
            .add_class(model, power);
        self
    }

    /// Sets the number of scheduler ticks per run.
    pub fn with_ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self
    }

    /// Steps devices over a private pool instead of the process-shared
    /// one — how the determinism tests pin exact worker counts.
    pub fn with_pool(mut self, pool: SweepPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The shared plan/cache store (warm across runs).
    pub fn store(&self) -> &PlanStore<'a> {
        &self.store
    }

    /// The policy spec this scheduler enforces.
    pub fn spec(&self) -> FleetSpec {
        self.spec
    }

    /// Runs a homogeneous class-0 fleet: one device session per
    /// application in `apps` (device id = index), for the configured
    /// number of ticks. The store stays warm across calls.
    pub fn run(&self, apps: &[Application]) -> FleetRun {
        self.run_assigned(apps.iter().map(|app| (0, app)).collect())
    }

    /// Runs a (possibly heterogeneous) fleet: each `(class, app)` pair
    /// becomes one device session of that class (device id = index).
    /// Every class decides on its own grid with its own models; the
    /// cluster governor water-fills one global cap across all of them,
    /// so a 50 W edge part and a 700 W datacenter part can share a budget
    /// with their different floors and ceilings respected.
    pub fn run_mixed(&self, assignments: &[(usize, Application)]) -> FleetRun {
        self.run_assigned(
            assignments
                .iter()
                .map(|(class, app)| (*class, app))
                .collect(),
        )
    }

    /// Runs one session per `(class, app)` pair; each session borrows its
    /// application for the run.
    fn run_assigned(&self, assignments: Vec<(usize, &Application)>) -> FleetRun {
        let start = Instant::now();
        let devices = assignments.len();
        let global_cap = self.spec.global_cap(devices);
        let cluster = global_cap.map(ClusterGovernor::new);
        // Conservative pre-observation telemetry, per class: a fully busy
        // card at the class's grid floor and ceiling bounds any real
        // activity from above, so the tick-0 allocation is safe.
        let conservative: Vec<(f64, f64)> = (0..self.store.classes())
            .map(|c| {
                let power = self.store.power_of(c);
                let busy = Activity::streaming_on(self.store.grid_of(c), 1.0, 1.0);
                (
                    power.card_pwr(self.store.floor_of(c), &busy).value(),
                    power.card_pwr(self.store.boost_of(c), &busy).value(),
                )
            })
            .collect();
        let mut telemetry: Vec<DeviceDemand> = assignments
            .iter()
            .map(|&(class, _)| {
                let (floor_w, boost_w) = conservative[class];
                DeviceDemand {
                    floor: floor_w,
                    demand: boost_w,
                    weight: 0.0,
                }
            })
            .collect();
        let sessions: Vec<Mutex<DeviceSession<'_, 'a>>> = assignments
            .iter()
            .enumerate()
            .map(|(id, (class, app))| {
                Mutex::new(match global_cap {
                    // The initial share is refined by the first re-balance
                    // before any decision is made.
                    Some(cap) => DeviceSession::capped_in_class(
                        id,
                        *class,
                        app,
                        &self.store,
                        cap * (1.0 / devices.max(1) as f64),
                    ),
                    None => DeviceSession::oracle_in_class(id, *class, app, &self.store),
                })
            })
            .collect();
        let mut cluster_violation_ticks = 0u64;
        let mut infeasible_ticks = 0u64;
        let mut max_cluster_power = 0.0f64;
        for tick in 0..self.ticks {
            if let Some(cluster) = &cluster {
                let alloc = cluster.partition(&telemetry);
                if alloc.infeasible {
                    infeasible_ticks += 1;
                }
                for (session, cap) in sessions.iter().zip(&alloc.caps) {
                    session.lock().expect("session poisoned").set_cap(*cap);
                }
            }
            let outcomes: Vec<TickOutcome> = run_indexed_on(self.pool(), devices, devices, |i| {
                sessions[i].lock().expect("session poisoned").step(tick)
            });
            // Serial merge in device-id order: fixed-order float sums keep
            // the report bit-stable for any worker interleaving.
            let mut cluster_power = 0.0f64;
            for (slot, outcome) in telemetry.iter_mut().zip(&outcomes) {
                cluster_power += outcome.tick_power_w;
                *slot = outcome.demand;
            }
            max_cluster_power = max_cluster_power.max(cluster_power);
            if let Some(cap) = global_cap {
                if cluster_power > cap.value() {
                    cluster_violation_ticks += 1;
                }
            }
        }
        let per_device = sessions
            .iter()
            .map(|s| s.lock().expect("session poisoned").report())
            .collect();
        let report = FleetReport {
            spec: self.spec.to_string(),
            devices,
            ticks: self.ticks,
            global_cap_w: global_cap.map(|w| w.value()),
            per_device,
            cluster_violation_ticks,
            infeasible_ticks,
            max_cluster_power_w: max_cluster_power,
            cache: self.store.cache_stats(),
            plans: self.store.plan_stats(),
            unique_kernels: self.store.unique_kernels(),
        };
        FleetRun {
            report,
            wall: start.elapsed(),
        }
    }

    fn pool(&self) -> &SweepPool {
        match &self.pool {
            Some(pool) => pool,
            None => harmonia_sim::pool::shared(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::IntervalModel;
    use harmonia_types::DeviceSpec;
    use harmonia_workloads::suite;

    /// The hd7970's timing and power models, from the device catalog.
    fn catalog_models() -> (IntervalModel, PowerModel) {
        let device = DeviceSpec::lookup("hd7970").expect("catalog device");
        (
            IntervalModel::new(device.gpu),
            PowerModel::for_device(&device),
        )
    }

    fn fleet(n: usize) -> Vec<Application> {
        (0..n).map(|_| suite::stencil()).collect()
    }

    #[test]
    fn a_capped_fleet_honors_the_global_cap_on_every_tick() {
        let (model, power) = catalog_models();
        // Tight enough to engage every clamp (stencil draws well over
        // 100 W unconstrained), loose enough to be feasible.
        let spec = "fleet:capped@1200".parse().unwrap();
        let sched = FleetScheduler::new(&model, &power, spec).with_ticks(8);
        let run = sched.run(&fleet(8));
        let r = &run.report;
        assert_eq!(r.devices, 8);
        assert_eq!(
            r.cluster_violation_ticks, 0,
            "max draw {}",
            r.max_cluster_power_w
        );
        assert_eq!(r.infeasible_ticks, 0);
        assert!(r.max_cluster_power_w <= 1200.0);
        assert!(r.max_cluster_power_w > 0.0);
        for d in &r.per_device {
            assert!(d.final_cap_w.is_some());
            assert!(d.ed2 > 0.0);
        }
    }

    #[test]
    fn the_store_stays_warm_across_runs() {
        let (model, power) = catalog_models();
        let sched = FleetScheduler::new(&model, &power, FleetSpec::Oracle).with_ticks(4);
        let first = sched.run(&fleet(4));
        let cold = first.report.plans.cold_sweeps;
        assert_eq!(
            cold, first.report.unique_kernels,
            "one cold sweep per kernel"
        );
        let second = sched.run(&fleet(4));
        assert_eq!(
            second.report.plans.cold_sweeps, cold,
            "a warm store must not re-sweep"
        );
        assert_eq!(second.report.cache.misses, first.report.cache.misses);
    }

    #[test]
    fn capping_degrades_ed2_monotonically_at_the_fleet_level() {
        // A fleet under a tight budget cannot beat the unconstrained
        // oracle on ED² — the clamp only removes options.
        let (model, power) = catalog_models();
        let free = FleetScheduler::new(&model, &power, FleetSpec::Oracle)
            .with_ticks(6)
            .run(&fleet(2));
        let tight = FleetScheduler::new(&model, &power, "fleet:capped@260".parse().unwrap())
            .with_ticks(6)
            .run(&fleet(2));
        let free_ed2: f64 = free.report.per_device.iter().map(|d| d.ed2).sum();
        let tight_ed2: f64 = tight.report.per_device.iter().map(|d| d.ed2).sum();
        assert!(
            tight_ed2 >= free_ed2,
            "clamped fleet ED² {tight_ed2} beat the unconstrained {free_ed2}"
        );
    }

    #[test]
    fn a_mixed_device_fleet_shares_one_budget_across_classes() {
        let (hd, hd_power) = catalog_models();
        let orin = DeviceSpec::lookup("jetson-orin").unwrap();
        let orin_model = IntervalModel::new(orin.gpu);
        let orin_power = PowerModel::for_device(&orin);
        // Tight enough to clamp the hd7970s, but feasible: the jetson
        // floor is tiny next to the hd7970's.
        let spec = "fleet:capped@700".parse().unwrap();
        let sched = FleetScheduler::new(&hd, &hd_power, spec)
            .with_class(&orin_model, &orin_power)
            .with_ticks(6);
        let assignments: Vec<(usize, Application)> =
            (0..6).map(|i| (i % 2, suite::stencil())).collect();
        let run = sched.run_mixed(&assignments);
        let r = &run.report;
        assert_eq!(r.devices, 6);
        assert_eq!(
            r.cluster_violation_ticks, 0,
            "max draw {}",
            r.max_cluster_power_w
        );
        assert_eq!(r.infeasible_ticks, 0);
        // One plan per (class, kernel): both classes planned the same app.
        assert_eq!(
            r.unique_kernels as u64,
            2 * suite::stencil().kernels.len() as u64
        );
        let hd_dev = &r.per_device[0];
        let orin_dev = &r.per_device[1];
        assert_eq!(hd_dev.class, 0);
        assert_eq!(orin_dev.class, 1);
        // Different silicon, different decisions and draw: the digests
        // must differ, and the edge part's cap share should sit well
        // below the datacenter part's.
        assert_ne!(hd_dev.config_digest, orin_dev.config_digest);
        assert!(
            orin_dev.final_cap_w.unwrap() < hd_dev.final_cap_w.unwrap(),
            "orin {}W vs hd7970 {}W",
            orin_dev.final_cap_w.unwrap(),
            hd_dev.final_cap_w.unwrap()
        );
        // Same-class devices still get bit-identical treatment.
        assert_eq!(r.per_device[2].ed2.to_bits(), hd_dev.ed2.to_bits());
        assert_eq!(r.per_device[3].ed2.to_bits(), orin_dev.ed2.to_bits());
    }

    #[test]
    fn symmetric_capped_devices_get_identical_treatment() {
        let (model, power) = catalog_models();
        let spec = "fleet:capped@900".parse().unwrap();
        let run = FleetScheduler::new(&model, &power, spec)
            .with_ticks(6)
            .run(&fleet(6));
        let first = &run.report.per_device[0];
        for d in &run.report.per_device[1..] {
            assert_eq!(d.ed2.to_bits(), first.ed2.to_bits(), "device {}", d.id);
            assert_eq!(d.config_digest, first.config_digest);
            assert_eq!(
                d.final_cap_w.unwrap().to_bits(),
                first.final_cap_w.unwrap().to_bits()
            );
        }
    }
}
