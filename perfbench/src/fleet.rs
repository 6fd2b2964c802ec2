//! `fleet-warm`: warm `FleetScheduler::run` ops over a capped fleet whose
//! shared `PlanStore` was filled by a cold pass in set-up.

use crate::harness::{same_as_first, Harness, Workload, EXECUTORS};
use crate::trace::Name;
use crate::util::{fnv1a, SplitMix};
use harmonia::governor::DEFAULT_CAP;
use harmonia_bench::median_secs;
use harmonia_fleet::{ClusterGovernor, DeviceDemand, FleetReport, FleetScheduler, FleetSpec};
use harmonia_power::Activity;
use harmonia_sim::{CacheStats, PlanStats, SweepPool};
use harmonia_stats::geometric_mean;
use harmonia_types::Watts;
use harmonia_workloads::{suite, Application};
use std::hint::black_box;

/// Devices in the fleet.
pub const DEVICES: usize = 1024;
/// Scheduler ticks per op.
pub const TICKS: u64 = 8;

/// Counter names, interned once.
struct Names {
    run: Name,
    wall_ns: Name,
    ticks: Name,
    decisions: Name,
    cache_hits: Name,
    cache_lookups: Name,
    cold_sweeps: Name,
    incremental_sweeps: Name,
    memo_hits: Name,
}

/// One op: a warm run of 1,024 `fleet:capped` devices cycling the suite
/// for eight ticks. The seed shuffles which device runs which app.
pub struct FleetBench<'h> {
    h: &'h Harness,
    sched: FleetScheduler<'h>,
    apps: Vec<Application>,
    /// Per-device ED² of the same fleet under `fleet:oracle`: the reference.
    oracle_ed2: Vec<f64>,
    /// Store accounting right after the cold pass.
    cold: (CacheStats, PlanStats),
    names: Names,
    seed: u64,
    /// The last op's report, with store accounting as per-op deltas.
    last: Option<FleetReport>,
    /// The first op's report, as `last`.
    first: Option<FleetReport>,
    /// The digest of the first op's canonical report.
    reference: Option<u64>,
}

impl<'h> FleetBench<'h> {
    /// Assigns apps from `seed`, runs the cold pass and the oracle
    /// reference.
    pub fn new(h: &'h Harness, seed: u64) -> Self {
        let suite = suite::all();
        let mut apps: Vec<Application> = (0..DEVICES)
            .map(|i| suite[i % suite.len()].clone())
            .collect();
        SplitMix::new(seed).shuffle(&mut apps);
        let t = &h.tracer;
        let pool = || SweepPool::with_workers(EXECUTORS - 1);
        let sched = FleetScheduler::new(h.model(), &h.power, FleetSpec::Capped(None))
            .with_ticks(TICKS)
            .with_pool(pool());
        t.span(t.name("fleet.cold_pass"), || sched.run(&apps));
        let oracle = FleetScheduler::new(h.model(), &h.power, FleetSpec::Oracle)
            .with_ticks(TICKS)
            .with_pool(pool());
        let oracle_ed2 = t
            .span(t.name("fleet.oracle_pass"), || oracle.run(&apps))
            .report
            .per_device
            .iter()
            .map(|d| d.ed2)
            .collect();
        let cold = (sched.store().cache_stats(), sched.store().plan_stats());
        let names = Names {
            run: t.name("fleet.run"),
            wall_ns: t.name("fleet.wall_ns"),
            ticks: t.name("fleet.ticks"),
            decisions: t.name("fleet.decisions"),
            cache_hits: t.name("sim.cache.hits"),
            cache_lookups: t.name("sim.cache.lookups"),
            cold_sweeps: t.name("sim.plan.cold_sweeps"),
            incremental_sweeps: t.name("sim.plan.incremental_sweeps"),
            memo_hits: t.name("sim.plan.memo_hits"),
        };
        Self {
            h,
            sched,
            apps,
            oracle_ed2,
            cold,
            names,
            seed,
            last: None,
            first: None,
            reference: None,
        }
    }

    /// `ClusterGovernor::partition` on a seeded demand vector for the whole
    /// fleet, between the HD7970's fully busy floor and boost draw, under
    /// a cap that binds. Median over repetitions, in µs.
    fn partition_us(&self) -> f64 {
        let store = self.sched.store();
        let busy = Activity::streaming_on(store.grid_of(0), 1.0, 1.0);
        let floor = self.h.power.card_pwr(store.floor_of(0), &busy).value();
        let boost = self.h.power.card_pwr(store.boost_of(0), &busy).value();
        let mut rng = SplitMix::new(self.seed ^ 0x9A27);
        let demands: Vec<DeviceDemand> = (0..DEVICES)
            .map(|_| DeviceDemand {
                floor,
                demand: floor + rng.unit() * (boost - floor),
                weight: rng.unit(),
            })
            .collect();
        let wanted: f64 = demands.iter().map(|d| d.demand).sum();
        let cluster = ClusterGovernor::new(Watts(0.5 * (wanted + floor * DEVICES as f64)));
        median_secs(200, || cluster.partition(black_box(&demands))) * 1e6
    }

    /// `PlanStore::decide` over every (kernel, tick) the fleet runs, on the
    /// warm memo. Median per call over repetitions, in ns.
    fn store_decide_ns(&self) -> f64 {
        let store = self.sched.store();
        let calls: Vec<_> = suite::all()
            .into_iter()
            .flat_map(|app| app.kernels)
            .flat_map(|k| (0..TICKS).map(move |tick| (k.clone(), tick)))
            .collect();
        let pass = || {
            for (kernel, tick) in &calls {
                black_box(store.decide(kernel, *tick));
            }
        };
        pass();
        median_secs(50, pass) * 1e9 / calls.len() as f64
    }
}

impl Workload for FleetBench<'_> {
    fn op(&mut self) {
        let (t, n) = (&self.h.tracer, &self.names);
        let store = self.sched.store();
        let (cache, plans) = (store.cache_stats(), store.plan_stats());
        let run = t.span(n.run, || self.sched.run(&self.apps));
        t.count(
            n.wall_ns,
            u64::try_from(run.wall.as_nanos()).expect("a run lasts less than 584 years"),
        );
        let mut report = run.report;
        // Store accounting accumulates across runs: keep this op's share.
        report.cache.hits -= cache.hits;
        report.cache.misses -= cache.misses;
        report.plans.cold_sweeps -= plans.cold_sweeps;
        report.plans.incremental_sweeps -= plans.incremental_sweeps;
        report.plans.memo_hits -= plans.memo_hits;
        report.plans.exact_lanes -= plans.exact_lanes;
        t.count(n.ticks, report.ticks);
        t.count(n.decisions, report.total_decisions());
        t.count(n.cache_hits, report.cache.hits as u64);
        t.count(n.cache_lookups, report.cache.lookups() as u64);
        t.count(n.cold_sweeps, report.plans.cold_sweeps as u64);
        t.count(n.incremental_sweeps, report.plans.incremental_sweeps as u64);
        t.count(n.memo_hits, report.plans.memo_hits as u64);
        self.last = Some(report);
    }

    fn check(&mut self) -> Result<(), String> {
        let report = self.last.take().ok_or("no op ran")?;
        if report.cluster_violation_ticks > 0 {
            return Err(format!(
                "{} ticks over the cluster cap",
                report.cluster_violation_ticks
            ));
        }
        let digest = fnv1a(report.canonical().as_bytes());
        self.first.get_or_insert(report);
        same_as_first(&mut self.reference, &digest, "canonical report bytes")
    }

    fn ed2_ratio(&self) -> f64 {
        let Some(report) = &self.first else {
            return f64::NAN;
        };
        let ratios: Vec<f64> = report
            .per_device
            .iter()
            .zip(&self.oracle_ed2)
            .map(|(d, oracle)| d.ed2 / oracle)
            .collect();
        geometric_mean(&ratios).unwrap_or(f64::NAN)
    }

    fn fingerprint(&self) -> String {
        let (cache, plans) = &self.cold;
        format!(
            "fleet-warm op-digest={:016x} cold cache hits={} misses={} entries={} plans cold={} incremental={} memo={} lanes={}",
            self.reference.unwrap_or(0),
            cache.hits,
            cache.misses,
            cache.entries,
            plans.cold_sweeps,
            plans.incremental_sweeps,
            plans.memo_hits,
            plans.exact_lanes,
        )
    }

    fn describe(&self) -> String {
        format!(
            "op = one warm run of {DEVICES} fleet:capped devices (cap {} W each) x {TICKS} ticks, {} executor(s); apps assigned by the seed; fleet:oracle as reference",
            DEFAULT_CAP.value(),
            EXECUTORS
        )
    }

    fn extra_metrics(&mut self) -> Vec<(&'static str, f64)> {
        vec![
            ("fleet.partition_us", self.partition_us()),
            ("fleet.store.decide_ns", self.store_decide_ns()),
        ]
    }
}
