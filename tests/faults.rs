//! Hardening-layer guarantees (DESIGN.md "Robustness & fault model"):
//!
//! * the counter sanitizer never lets a non-finite or out-of-range sample
//!   through, whatever garbage the monitoring block hands it (property
//!   test over wild float inputs);
//! * the watchdog's safe-state fallback is a valid grid point on every
//!   catalog device;
//! * the entire fault plumbing is bit-transparent when the plan is empty —
//!   a `FaultyModel`-wrapped, actuator-shimmed Graph500 run reproduces the
//!   committed golden decision trace byte for byte;
//! * a fully hardened pipeline on clean data rejects nothing and never
//!   falls back (hardening costs nothing when nothing is wrong).

use harmonia::governor::{PolicyResources, PolicySpec, Watchdog, WatchdogTransition};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::sanitize::{
    counters_plausible, max_bw_gbps_on, CounterSanitizer, DEFAULT_MAX_BW_GBPS,
};
use harmonia::telemetry::{self, TraceHandle};
use harmonia_experiments::Context;
use harmonia_power::PowerModel;
use harmonia_sim::{CounterSample, FaultPlan, FaultyModel, IntervalModel, TimingModel};
use harmonia_types::{ConfigSpace, DeviceSpec, HwConfig, Seconds, Session, Watts};
use harmonia_workloads::suite;
use proptest::prelude::*;

const GOLDEN: &str = include_str!("golden/trace_graph500.jsonl");

/// A plausible, fully-populated clean sample.
fn clean_sample() -> CounterSample {
    CounterSample {
        duration: Seconds(0.01),
        valu_busy_pct: 60.0,
        valu_utilization_pct: 90.0,
        mem_unit_busy_pct: 30.0,
        mem_unit_stalled_pct: 10.0,
        write_unit_stalled_pct: 5.0,
        ic_activity: 0.4,
        norm_vgpr: 0.4,
        norm_sgpr: 0.3,
        valu_insts: 1_000_000,
        dram_bytes: 1e7,
        achieved_bw_gbps: 80.0,
        occupancy_fraction: 0.8,
        l2_hit_rate: 0.5,
        ..CounterSample::default()
    }
}

/// Floats spanning the failure modes: NaN, ±∞, and wildly out-of-range
/// magnitudes alongside ordinary values.
fn wild() -> impl Strategy<Value = f64> {
    (0u32..4, -1e15..1e15f64).prop_map(|(mode, v)| match mode {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the raw reading contains, the sanitized output is finite,
    /// in physical range, and covers a positive duration.
    #[test]
    fn sanitizer_never_passes_non_finite_counters(
        vals in prop::collection::vec(wild(), 14..15),
        time in wild(),
        with_history in 0u32..2,
    ) {
        let mut s = CounterSanitizer::new(DEFAULT_MAX_BW_GBPS);
        let trace = TraceHandle::disabled();
        let cfg = HwConfig::max_hd7970();
        if with_history == 1 {
            s.sanitize("k", 0, cfg, Seconds(0.01), clean_sample(), &trace);
        }
        let raw = CounterSample {
            duration: Seconds(vals[0]),
            valu_busy_pct: vals[1],
            valu_utilization_pct: vals[2],
            mem_unit_busy_pct: vals[3],
            mem_unit_stalled_pct: vals[4],
            write_unit_stalled_pct: vals[5],
            ic_activity: vals[6],
            norm_vgpr: vals[7],
            norm_sgpr: vals[8],
            dram_bytes: vals[9],
            achieved_bw_gbps: vals[10],
            occupancy_fraction: vals[11],
            l2_hit_rate: vals[12],
            valu_insts: vals[13].abs().min(1e9) as u64,
            ..CounterSample::default()
        };
        let (t, c) = s.sanitize("k", 1, cfg, Seconds(time), raw, &trace);
        prop_assert!(t.value().is_finite() && t.value() > 0.0, "bad time {t:?}");
        prop_assert!(
            counters_plausible(&c, DEFAULT_MAX_BW_GBPS),
            "sanitized sample implausible: {c:?}"
        );
    }
}

#[test]
fn watchdog_fallback_is_a_valid_grid_point() {
    for name in DeviceSpec::catalog() {
        let device = DeviceSpec::lookup(name).expect(name);
        let space = ConfigSpace::for_grid(device.grid());
        let mut wd = Watchdog::new(device.safe_state());
        for i in 0..Watchdog::THRESHOLD {
            let tr = wd.tick(true);
            if i + 1 == Watchdog::THRESHOLD {
                assert_eq!(tr, WatchdogTransition::Engaged);
            } else {
                assert_eq!(tr, WatchdogTransition::None);
            }
        }
        assert!(wd.engaged());
        assert!(
            space.contains(wd.safe()),
            "{name}: fallback config off the grid"
        );
    }
}

#[test]
fn empty_fault_plan_is_bit_transparent_end_to_end() {
    // Wrap the model in FaultyModel and arm the runtime's actuator shim,
    // both with an empty plan: the Graph500 decision trace must still match
    // the committed golden stream byte for byte.
    let ctx = Context::new();
    let plan = FaultPlan::new(FaultPlan::seed_from_env());
    assert!(plan.is_empty());
    let faulty = FaultyModel::new(ctx.model(), plan.clone());
    let handle = TraceHandle::new();
    let run = Runtime::new(&faulty, ctx.power())
        .with_telemetry(handle.clone())
        .with_faults(&plan)
        .run(
            &suite::graph500(),
            &mut ctx.policy(PolicySpec::Harmonia).governor,
        );
    let events = handle.events();
    assert_eq!(
        telemetry::to_jsonl(&events),
        GOLDEN,
        "empty fault plan perturbed the golden decision trace"
    );
    assert!(telemetry::matches_run(&events, &run));
}

#[test]
fn hardened_clean_run_never_rejects_or_falls_back() {
    let ctx = Context::new();
    let handle = TraceHandle::new();
    let policy = ctx.policy(PolicySpec::HardenedCapped(Watts(185.0)));
    let mut gov = policy.governor;
    let run = Runtime::new(ctx.model(), ctx.power())
        .with_telemetry(handle.clone())
        .run(&suite::graph500(), &mut gov);
    let s = telemetry::summarize(&handle.events());
    assert_eq!(s.sanitizer_rejects, 0, "sanitizer rejected clean samples");
    assert_eq!(s.fallbacks_engaged, 0, "watchdog tripped on a clean run");
    assert_eq!(policy.stats.sanitizer_rejects(), 0);
    assert_eq!(policy.stats.fallback_engagements(), 0);
    assert_eq!(policy.stats.violations_while_fallback(), 0);
    assert!(run.ed2().is_finite());
}

#[test]
fn clean_samples_pass_the_sanitizer_on_every_catalog_device() {
    // The bandwidth ceiling follows the device's own bus: clean
    // interval-model samples (every training kernel at every grid point)
    // are plausible and come back unchanged from a fresh sanitizer armed
    // the way the registry arms it, and the registry's hardened stacks
    // reject nothing on a clean suite run.
    let predictor = SensitivityPredictor::paper_table3();
    let trace = TraceHandle::disabled();
    for name in DeviceSpec::catalog() {
        let device = DeviceSpec::lookup(name).expect(name);
        let model = IntervalModel::new(device.gpu);
        let power = PowerModel::for_device(&device);
        let max_bw_gbps = max_bw_gbps_on(device.grid());
        let (mut implausible, mut changed, mut samples) = (0u32, 0u32, 0u32);
        for (_, kernel) in suite::training_kernels() {
            for cfg in ConfigSpace::for_grid(device.grid()).iter() {
                let raw = model.simulate(cfg, &kernel, 0);
                let mut sanitizer = CounterSanitizer::new(max_bw_gbps).with_power(&power);
                let (t, c) =
                    sanitizer.sanitize(&kernel.name, 0, cfg, raw.time, raw.counters, &trace);
                samples += 1;
                implausible += u32::from(!counters_plausible(&raw.counters, max_bw_gbps));
                changed += u32::from(t != raw.time || c != raw.counters);
            }
        }
        assert_eq!(
            (implausible, changed),
            (0, 0),
            "{name}: of {samples} clean samples, {implausible} implausible and {changed} \
             changed by the sanitizer"
        );

        let res = PolicyResources::new(&predictor, &model, &power).with_device(&device);
        let rt = Runtime::from_session(&model, &power, &Session::default());
        for spec in ["hardened:harmonia", "hardened:capped", "hardened:ladder"] {
            let policy = spec.parse::<PolicySpec>().expect(spec).build(&res);
            let mut governor = policy.governor;
            for app in suite::all() {
                rt.run(&app, &mut governor);
            }
            let stats = &policy.stats;
            assert_eq!(
                (
                    stats.sanitizer_rejects(),
                    stats.fallback_engagements(),
                    stats.rung_demotions()
                ),
                (0, 0, 0),
                "{name}/{spec}: rejects, fallbacks and demotions on a clean run"
            );
        }
    }
}
