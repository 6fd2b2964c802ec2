//! Fleet-scheduler benchmarks: batched decision throughput for ~a thousand
//! concurrent device sessions sharing one sweep store.
//!
//! The scenario the fleet layer exists for: a rack of identical devices all
//! running the same kernels. One device's cold sweep warms the shared cache
//! for every other session, so the steady state is pure memoized decisions
//! — the artifact's headline number is warm aggregate decisions/sec at 1024
//! sessions, which CI floors at 100k/sec.
//!
//! Alongside throughput the artifact records cap compliance (the cluster
//! governor must never let summed device power exceed the global cap on any
//! tick) and an interleave-determinism bit: the canonical fleet report must
//! be byte-identical between a 1-thread and an 8-thread pool. Throughput
//! depends on the shared pool's width (every device of the headline fleet
//! contends for one kernel's plan lock), so the artifact records it as
//! `pool_threads`; `HARMONIA_THREADS=1` pins it to the calling thread.
//!
//! Running this bench regenerates `BENCH_fleet.json` at the repository root.

use criterion::Criterion;
use harmonia_bench::{median_secs, write_bench_artifact, BenchJson};
use harmonia_fleet::{FleetScheduler, FleetSpec};
use harmonia_power::PowerModel;
use harmonia_sim::sweep::shared_pool_threads;
use harmonia_sim::{IntervalModel, SweepPool};
use harmonia_types::{DeviceSpec, Watts};
use harmonia_workloads::{suite, Application};
use std::hint::black_box;

/// Fleet size for the headline artifact numbers (the CI floor's scenario).
const DEVICES: usize = 1024;
/// Scheduler ticks per run: enough decisions to time, short enough to rep.
const TICKS: u64 = 4;

fn fleet_apps(n: usize) -> Vec<Application> {
    (0..n).map(|_| suite::stencil()).collect()
}

/// Unconstrained single-device peak tick power, used to size the cluster
/// cap so that the cap is binding-adjacent but satisfiable (90% of the
/// fleet's aggregate unconstrained draw).
fn solo_peak_power_w(model: &IntervalModel, power: &PowerModel) -> f64 {
    FleetScheduler::new(model, power, FleetSpec::Oracle)
        .with_ticks(TICKS)
        .run(&fleet_apps(1))
        .report
        .max_cluster_power_w
}

fn bench_fleet(c: &mut Criterion) {
    let hd7970 = DeviceSpec::lookup("hd7970").expect("hd7970 in catalog");
    let model = IntervalModel::new(hd7970.gpu);
    let power = PowerModel::for_device(&hd7970);
    let apps = fleet_apps(128);
    let sched = FleetScheduler::new(&model, &power, FleetSpec::Oracle).with_ticks(TICKS);
    sched.run(&apps); // warm the shared store
    c.bench_function("fleet/warm_run_128_sessions", |b| {
        b.iter(|| black_box(sched.run(black_box(&apps))));
    });

    // Mixed-device warm run: half hd7970, half v100, each class deciding
    // on its own grid against the shared store.
    let v100 = DeviceSpec::lookup("v100").expect("v100 in catalog");
    let v100_model = IntervalModel::new(v100.gpu);
    let v100_power = PowerModel::for_device(&v100);
    let assignments: Vec<(usize, Application)> = (0..128)
        .map(|i| (usize::from(i >= 64), suite::stencil()))
        .collect();
    let mixed = FleetScheduler::new(&model, &power, FleetSpec::Oracle)
        .with_class(&v100_model, &v100_power)
        .with_ticks(TICKS);
    mixed.run_mixed(&assignments); // warm both classes' plans
    c.bench_function("fleet/warm_run_mixed_128_sessions", |b| {
        b.iter(|| black_box(mixed.run_mixed(black_box(&assignments))));
    });
}

/// Times the warm 1024-session fleet, checks cap compliance and interleave
/// determinism, and writes `BENCH_fleet.json` at the repository root.
fn write_artifact() {
    const REPS: usize = 5;
    let hd7970 = DeviceSpec::lookup("hd7970").expect("hd7970 in catalog");
    let model = IntervalModel::new(hd7970.gpu);
    let power = PowerModel::for_device(&hd7970);

    let p0 = solo_peak_power_w(&model, &power);
    let cap_w = 0.9 * p0 * DEVICES as f64;
    let spec = FleetSpec::Capped(Some(Watts(cap_w)));
    let apps = fleet_apps(DEVICES);

    // Cold run pays the one shared sweep; every rep after that is the
    // steady state the throughput floor is about.
    let sched = FleetScheduler::new(&model, &power, spec).with_ticks(TICKS);
    sched.run(&apps);
    let warm = sched.run(&apps);
    let report = &warm.report;
    let warm_s = median_secs(REPS, || sched.run(&apps));
    let decisions = report.total_decisions();
    let decisions_per_sec = decisions as f64 / warm_s;

    // Interleave determinism: fresh schedulers (cold stores) on private
    // 1-thread and 8-thread pools must render byte-identical reports.
    let canonical = |workers: usize| {
        FleetScheduler::new(&model, &power, spec)
            .with_ticks(TICKS)
            .with_pool(SweepPool::with_workers(workers))
            .run(&apps)
            .report
            .canonical()
    };
    let deterministic = canonical(0) == canonical(7);

    let json = BenchJson::object()
        .field_str("bench", "fleet")
        .field_str("device_class", "hd7970")
        .field_int("devices", DEVICES as u64)
        .field_int("pool_threads", shared_pool_threads() as u64)
        .field_int("ticks", TICKS)
        .field_int("unique_kernels", report.unique_kernels as u64)
        .field_f64("global_cap_w", cap_w, 1)
        .field_f64("solo_peak_power_w", p0, 1)
        .field_int("decisions_per_run", decisions)
        .field_f64("warm_run_ms", warm_s * 1e3, 3)
        .field_f64("decisions_per_sec", decisions_per_sec, 0)
        .field_int("cluster_violation_ticks", report.cluster_violation_ticks)
        .field_int("infeasible_ticks", report.infeasible_ticks)
        .field_f64("max_cluster_power_w", report.max_cluster_power_w, 1)
        .field_int("device_cap_violations", report.total_device_violations())
        .field_int("cold_sweeps", report.plans.cold_sweeps as u64)
        .field_int("cache_hits", report.cache.hits as u64)
        .field_int("cache_misses", report.cache.misses as u64)
        .field_bool("report_deterministic", deterministic);

    // Mixed-device leg: two catalog device classes (hd7970 + v100), half
    // the fleet each. Each class sweeps and decides on its own grid; the
    // cluster cap is water-filled across both. Sized against each class's
    // own solo peak so the cap stays binding-adjacent but satisfiable.
    let v100 = DeviceSpec::lookup("v100").expect("v100 in catalog");
    let v100_model = IntervalModel::new(v100.gpu);
    let v100_power = PowerModel::for_device(&v100);
    let half = DEVICES / 2;
    let v100_p0 = solo_peak_power_w(&v100_model, &v100_power);
    let mixed_cap_w = 0.9 * (p0 + v100_p0) * half as f64;
    let mixed_spec = FleetSpec::Capped(Some(Watts(mixed_cap_w)));
    let assignments: Vec<(usize, Application)> = (0..DEVICES)
        .map(|i| (usize::from(i >= half), suite::stencil()))
        .collect();
    let mixed_sched = FleetScheduler::new(&model, &power, mixed_spec)
        .with_class(&v100_model, &v100_power)
        .with_ticks(TICKS);
    mixed_sched.run_mixed(&assignments);
    let mixed_warm = mixed_sched.run_mixed(&assignments);
    let mixed_report = &mixed_warm.report;
    let mixed_s = median_secs(REPS, || mixed_sched.run_mixed(&assignments));
    let mixed_decisions = mixed_report.total_decisions();
    let mixed_per_sec = mixed_decisions as f64 / mixed_s;

    let mixed_json = BenchJson::object()
        .field_str("device_classes", "hd7970+v100")
        .field_int("devices", DEVICES as u64)
        .field_int("devices_per_class", half as u64)
        .field_int("ticks", TICKS)
        .field_f64("global_cap_w", mixed_cap_w, 1)
        .field_f64("v100_solo_peak_power_w", v100_p0, 1)
        .field_int("decisions_per_run", mixed_decisions)
        .field_f64("warm_run_ms", mixed_s * 1e3, 3)
        .field_f64("decisions_per_sec", mixed_per_sec, 0)
        .field_int("cluster_violation_ticks", mixed_report.cluster_violation_ticks)
        .field_int("infeasible_ticks", mixed_report.infeasible_ticks)
        .field_f64("max_cluster_power_w", mixed_report.max_cluster_power_w, 1)
        .field_int("device_cap_violations", mixed_report.total_device_violations())
        .field_int("cold_sweeps", mixed_report.plans.cold_sweeps as u64);

    let json = json.field_objects("mixed", vec![mixed_json]).finish();
    write_bench_artifact("fleet", &json);
    println!(
        "fleet throughput: {:.0} decisions/sec across {} warm sessions (cap {:.0} W, {} violation ticks, deterministic: {})",
        decisions_per_sec, DEVICES, cap_w, report.cluster_violation_ticks, deterministic,
    );
    println!(
        "mixed fleet (hd7970+v100, {half}+{half}): {:.0} decisions/sec (cap {:.0} W, {} violation ticks)",
        mixed_per_sec, mixed_cap_w, mixed_report.cluster_violation_ticks,
    );
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    bench_fleet(&mut criterion);
    write_artifact();
}
