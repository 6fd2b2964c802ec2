//! End-to-end integration tests across all workspace crates: the full
//! train → predict → govern → account pipeline on the 14-application suite.

use harmonia::dataset::TrainingSet;
use harmonia::governor::{Governor, PolicyResources, PolicySpec};
use harmonia::metrics::{improvement, RunReport};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{self, ConfigPoint, TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::faults::{FaultKind, FaultSpec};
use harmonia_sim::{CounterSample, FaultPlan, IntervalModel, KernelProfile};
use harmonia_stats::geometric_mean;
use harmonia_types::{ConfigSpace, HwConfig, Joules, Seconds, Tunable, Watts};
use harmonia_workloads::{suite, Application};
use std::sync::{Arc, OnceLock};

struct Harness {
    model: IntervalModel,
    power: PowerModel,
    predictor: SensitivityPredictor,
}

fn harness() -> &'static Harness {
    static CELL: OnceLock<Harness> = OnceLock::new();
    CELL.get_or_init(|| {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let data = TrainingSet::collect(&model);
        let predictor = SensitivityPredictor::fit(&data).expect("training set is well formed");
        Harness {
            model,
            power,
            predictor,
        }
    })
}

/// Registry resources over the shared harness models.
fn resources() -> PolicyResources<'static> {
    let h = harness();
    PolicyResources::new(&h.predictor, &h.model, &h.power)
}

/// Runs `app` under `governor` on the harness models with a fresh
/// decision trace: the report and the run's events.
fn traced_run(
    app: &Application,
    governor: &mut dyn Governor,
    faults: Option<&FaultPlan>,
) -> (RunReport, Vec<TraceEvent>) {
    let h = harness();
    let trace = TraceHandle::new();
    let mut rt = Runtime::new(&h.model, &h.power).with_telemetry(trace.clone());
    if let Some(plan) = faults {
        rt = rt.with_faults(plan);
    }
    let report = rt.run(app, governor);
    (report, trace.events())
}

/// One completed invocation, as its `KernelEnd` event records it.
struct Invocation<'e> {
    kernel: &'e str,
    cfg: ConfigPoint,
    time: Seconds,
    card_power: Watts,
}

/// The run's invocations, in run order.
fn invocations(events: &[TraceEvent]) -> Vec<Invocation<'_>> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::KernelEnd {
                kernel,
                cfg,
                time_s,
                card_w,
                ..
            } => Some(Invocation {
                kernel,
                cfg: *cfg,
                time: Seconds(*time_s),
                card_power: Watts(*card_w),
            }),
            _ => None,
        })
        .collect()
}

#[test]
fn suite_wide_ed2_ordering_baseline_vs_harmonia_vs_oracle() {
    let h = harness();
    let rt = Runtime::new(&h.model, &h.power);
    let res = resources();
    let mut ratios_hm = Vec::new();
    for app in suite::all() {
        let base = rt.run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        let harmonia = rt.run(&app, &mut PolicySpec::Harmonia.build(&res).governor);
        let oracle = rt.run(&app, &mut PolicySpec::Oracle.build(&res).governor);

        // The oracle never loses to the always-boost baseline.
        assert!(
            oracle.ed2() <= base.ed2() * 1.0001,
            "{}: oracle ED² above baseline",
            app.name
        );
        // The oracle lower-bounds every online policy.
        assert!(
            oracle.ed2() <= harmonia.ed2() * 1.0001,
            "{}: oracle ED² above Harmonia's",
            app.name
        );
        ratios_hm.push(harmonia.ed2() / base.ed2());
    }
    // Headline shape: Harmonia improves ED² by ~12% on geometric mean
    // (paper) — accept anything clearly positive.
    let g = geometric_mean(&ratios_hm).expect("positive ratios");
    assert!(
        g < 0.95,
        "suite geomean ED² ratio {g} — Harmonia should improve by >5%"
    );
}

#[test]
fn harmonia_performance_loss_is_bounded() {
    let h = harness();
    let rt = Runtime::new(&h.model, &h.power);
    let res = resources();
    for app in suite::all() {
        let base = rt.run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        let harmonia = rt.run(&app, &mut PolicySpec::Harmonia.build(&res).governor);
        let loss = 1.0 - base.total_time.value() / harmonia.total_time.value();
        assert!(
            loss < 0.12,
            "{}: Harmonia perf loss {:.1}% exceeds 12%",
            app.name,
            loss * 100.0
        );
    }
}

#[test]
fn thrash_prone_apps_gain_performance() {
    // Section 7.1: BPT, CFD and XSBench run *faster* under Harmonia because
    // gating CUs reduces L2 interference.
    let h = harness();
    let rt = Runtime::new(&h.model, &h.power);
    let res = resources();
    for name in ["BPT", "XSBench", "CFD"] {
        let app = suite::by_name(name).expect("suite app");
        let base = rt.run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        let harmonia = rt.run(&app, &mut PolicySpec::Harmonia.build(&res).governor);
        let perf = improvement(base.total_time.value(), harmonia.total_time.value());
        assert!(
            perf > 0.0,
            "{name}: expected a performance *gain*, got {:.1}%",
            perf * 100.0
        );
    }
}

#[test]
fn run_reports_are_internally_consistent() {
    let app = suite::sort();
    let (report, events) = traced_run(
        &app,
        &mut PolicySpec::Harmonia.build(&resources()).governor,
        None,
    );

    // Per-kernel times sum to the total.
    let kernel_sum: f64 = report.per_kernel.iter().map(|k| k.total_time.value()).sum();
    assert!((kernel_sum - report.total_time.value()).abs() < 1e-9);

    // The decision trace covers every invocation and its durations also
    // sum up.
    let runs = invocations(&events);
    assert_eq!(runs.len() as u64, app.total_invocations());
    let trace_sum: f64 = runs.iter().map(|r| r.time.value()).sum();
    assert!((trace_sum - report.total_time.value()).abs() < 1e-9);

    // Residency distributions are probability distributions.
    let residency = telemetry::summarize(&events).residency;
    for t in Tunable::ALL {
        let total: f64 = residency.distribution(t).iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "{t} residency sums to {total}");
    }

    // Energy decomposition: GPU + memory < card (board overhead exists).
    assert!(report.gpu_energy.value() + report.mem_energy.value() < report.card_energy.value());
}

#[test]
fn freq_only_ablation_touches_only_the_compute_clock() {
    let app = suite::stencil();
    let (_, events) = traced_run(
        &app,
        &mut PolicySpec::FreqOnly.build(&resources()).governor,
        None,
    );
    let runs = invocations(&events);
    assert_eq!(runs.len() as u64, app.total_invocations());
    for rec in runs {
        assert_eq!(rec.cfg.cu, 32, "CU count must stay at 32");
        assert_eq!(rec.cfg.mem_mhz, 1375, "memory clock must stay at max");
    }
}

#[test]
fn freq_only_gains_less_than_full_harmonia() {
    // Key insight 2 of Section 7.3: scaling CU count + memory bandwidth
    // beats compute-frequency scaling alone.
    let h = harness();
    let rt = Runtime::new(&h.model, &h.power);
    let res = resources();
    let mut full_ratios = Vec::new();
    let mut fo_ratios = Vec::new();
    for app in suite::all() {
        let base = rt.run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        let full = rt.run(&app, &mut PolicySpec::Harmonia.build(&res).governor);
        let fo = rt.run(&app, &mut PolicySpec::FreqOnly.build(&res).governor);
        full_ratios.push(full.ed2() / base.ed2());
        fo_ratios.push(fo.ed2() / base.ed2());
    }
    let g_full = geometric_mean(&full_ratios).expect("positive");
    let g_fo = geometric_mean(&fo_ratios).expect("positive");
    assert!(
        g_full < g_fo,
        "full Harmonia (ratio {g_full}) must beat freq-only (ratio {g_fo})"
    );
}

#[test]
fn baseline_is_always_boost() {
    let app = suite::maxflops();
    let (_, events) = traced_run(
        &app,
        &mut PolicySpec::Baseline.build(&resources()).governor,
        None,
    );
    let runs = invocations(&events);
    assert_eq!(runs.len() as u64, app.total_invocations());
    for rec in runs {
        assert_eq!(rec.cfg, HwConfig::max_hd7970().into());
    }
}

/// Sort with its top scan listed twice, `[TopScan, BottomScan, TopScan]`:
/// one kernel at two positions, first seen before a kernel whose name
/// sorts ahead of it.
fn sort_with_a_repeated_kernel() -> Application {
    let sort = suite::sort();
    let kernel = |name: &str| sort.kernel(name).expect(name).clone();
    let top = kernel("Sort.TopScan");
    Application::new(
        "Sort.Repeated",
        vec![top.clone(), kernel("Sort.BottomScan"), top],
        sort.iterations,
    )
}

#[test]
fn a_kernel_listed_twice_reports_once_in_name_order() {
    let app = sort_with_a_repeated_kernel();
    let (run, events) = traced_run(
        &app,
        &mut PolicySpec::Harmonia.build(&resources()).governor,
        None,
    );
    let names: Vec<&str> = run.per_kernel.iter().map(|r| &*r.kernel).collect();
    assert_eq!(
        names,
        ["Sort.BottomScan", "Sort.TopScan"],
        "merged, in name order"
    );
    let runs = invocations(&events);
    for report in &run.per_kernel {
        // Each report shares its profile's name allocation and is the fold
        // of its kernel's KernelEnd events, in run order.
        let name = &report.kernel;
        let profile = app
            .kernel(name)
            .expect("the report names a kernel of the app");
        assert!(Arc::ptr_eq(&profile.name, name), "{name}");
        let (mut invocations, mut time, mut energy) = (0u64, Seconds(0.0), Joules(0.0));
        for r in runs.iter().filter(|r| r.kernel == &**name) {
            invocations += 1;
            time += r.time;
            energy += r.card_power * r.time;
        }
        assert_eq!(report.invocations, invocations, "{name}");
        assert_eq!(
            report.total_time.value().to_bits(),
            time.value().to_bits(),
            "{name}"
        );
        assert_eq!(
            report.card_energy.value().to_bits(),
            energy.value().to_bits(),
            "{name}"
        );
    }
    assert_eq!(run.per_kernel[1].invocations, 2 * app.iterations);
}

/// Decides a different grid configuration on every call.
struct EveryCallMoves {
    space: ConfigSpace,
    calls: usize,
}

impl Governor for EveryCallMoves {
    fn name(&self) -> &str {
        "every-call-moves"
    }

    fn decide(&mut self, _kernel: &KernelProfile, _iteration: u64) -> HwConfig {
        self.calls += 1;
        self.space
            .iter()
            .nth(self.calls % self.space.len())
            .expect("on the grid")
    }

    fn observe(&mut self, _: &KernelProfile, _: u64, _: HwConfig, _: &CounterSample) {}
}

#[test]
fn a_kernel_listed_twice_shares_its_last_actual_configuration() {
    // Every transition is denied, so each kernel keeps running at the
    // configuration of its first invocation — the second position of the
    // repeated kernel included, because both positions are one kernel.
    let app = sort_with_a_repeated_kernel();
    let plan = FaultPlan::new(7).with(FaultSpec::new(FaultKind::DvfsDeny, 1.0));
    let mut governor = EveryCallMoves {
        space: ConfigSpace::for_grid(harness().power.grid()),
        calls: 0,
    };
    let (run, events) = traced_run(&app, &mut governor, Some(&plan));
    assert_eq!(governor.calls as u64, app.total_invocations());
    let runs = invocations(&events);
    for report in &run.per_kernel {
        let mut cfgs = runs
            .iter()
            .filter(|r| r.kernel == &*report.kernel)
            .map(|r| r.cfg);
        let first = cfgs.next().expect("the kernel ran");
        assert!(
            cfgs.all(|cfg| cfg == first),
            "{}: a denied transition must hold the kernel's last configuration",
            report.kernel
        );
    }
}
