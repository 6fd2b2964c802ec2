//! Integration tests for the adaptive-fidelity event model: steady-state
//! fast-forward ([`FastForwardPolicy::Auto`]) must be an *accuracy-preserving*
//! speedup — within 1% of the exact run on every suite kernel, invisible to
//! governor decisions, correctly accounted in [`SimResult::fast_forward`],
//! and faithfully reported through the decision trace. The exact policy
//! (`Off`) stays byte-identical run to run.
//!
//! The full-grid deviation and speedup numbers are measured by
//! `crates/bench/benches/event.rs` (BENCH_event.json); these tests assert the
//! same invariants at a wall-clock budget fit for the debug test suite.

use harmonia::governor::{PolicyResources, PolicySpec};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{self, TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{EventModel, FastForwardPolicy, KernelProfile, TimingModel};
use harmonia_types::{ComputeConfig, GridSpec, HwConfig, MegaHertz, MemoryConfig};
use harmonia_workloads::{suite, Application};
use proptest::prelude::*;

fn grid(cu: u32, f: u32, m: u32) -> HwConfig {
    HwConfig::new(
        ComputeConfig::new_on(&GridSpec::HD7970, cu, MegaHertz(f)).expect("on-grid compute point"),
        MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(m)).expect("on-grid memory point"),
    )
}

/// Relative deviation of the Auto run from the exact run, plus the Auto
/// run's fast-forward accounting, at a shared wave cap.
fn deviation(k: &KernelProfile, cfg: HwConfig, cap: u64) -> (f64, u64, u64) {
    let exact = EventModel::default().with_max_waves(cap);
    let auto = exact
        .clone()
        .with_fast_forward(FastForwardPolicy::auto());
    let e = exact.simulate(cfg, k, 0);
    let a = auto.simulate(cfg, k, 0);
    let dev = (a.time.value() / e.time.value() - 1.0).abs();
    (
        dev,
        a.fast_forward.stepped_waves,
        a.fast_forward.fast_forwarded_waves,
    )
}

/// Auto stays within 1% of Off on *every* kernel in the application suite,
/// and its wave accounting always covers exactly the simulated prefix.
#[test]
fn auto_matches_off_within_one_percent_on_every_suite_kernel() {
    const CAP: u64 = 4096;
    let wave_size = 64;
    for (app, k) in suite::training_kernels() {
        let (dev, stepped, ffw) = deviation(&k, HwConfig::max_hd7970(), CAP);
        assert!(
            dev <= 0.01,
            "{app}/{}: Auto deviates {:.3}% from exact",
            k.name,
            dev * 100.0
        );
        let sim_waves = k.waves(wave_size).clamp(1, CAP);
        assert_eq!(
            stepped + ffw,
            sim_waves,
            "{app}/{}: stepped {stepped} + fast-forwarded {ffw} must cover \
             the simulated prefix",
            k.name
        );
    }
}

/// Truncation-rescale invariance: halving/quadrupling the wave cap moves the
/// reported time only marginally on a steady large-grid kernel — the
/// rescaling the fast-forward accuracy argument rests on.
#[test]
fn wave_cap_truncation_rescale_is_stable() {
    let k = &suite::devicememory().kernels[0]; // 65536 waves: heavily capped
    let cfg = HwConfig::max_hd7970();
    let t2048 = EventModel::default()
        .with_max_waves(2048)
        .simulate(cfg, k, 0)
        .time
        .value();
    let t8192 = EventModel::default()
        .with_max_waves(8192)
        .simulate(cfg, k, 0)
        .time
        .value();
    let dev = (t2048 / t8192 - 1.0).abs();
    assert!(
        dev <= 0.05,
        "cap 2048 vs 8192 rescale drifted {:.2}%",
        dev * 100.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Auto-vs-Off agreement is a property of the whole configuration grid,
    /// not of a lucky operating point: random grid configs and stress-set
    /// kernels stay within 1% (at a reduced shared cap for wall-clock).
    #[test]
    fn auto_matches_off_across_the_config_grid(
        cu in 0u32..8,
        f in 0u32..8,
        m in 0u32..7,
        pick in 0usize..4,
    ) {
        let cfg = grid(4 + cu * 4, 300 + f * 100, 475 + m * 150);
        let kernels = [
            suite::maxflops().kernels[0].clone(),
            suite::sort().kernels[2].clone(),
            suite::bpt().kernels[0].clone(),
            suite::devicememory().kernels[0].clone(),
        ];
        let (dev, stepped, ffw) = deviation(&kernels[pick], cfg, 2048);
        prop_assert!(
            dev <= 0.01,
            "{} at {cfg}: Auto deviates {:.3}% (stepped {stepped}, ffw {ffw})",
            kernels[pick].name,
            dev * 100.0
        );
    }
}

/// ED²-argmin decisions — the oracle governor's selection rule — are
/// identical under Off and Auto on the stress set: fast-forward must be
/// invisible to the governor layer. (The bench sweeps the full 448-point
/// grid; here a corner+center subgrid keeps the debug suite affordable.)
#[test]
fn ed2_decisions_unchanged_by_fast_forward_on_stress_apps() {
    const CAP: u64 = 4096;
    let corners = [
        grid(4, 300, 475),
        grid(4, 300, 1375),
        grid(4, 1000, 475),
        grid(4, 1000, 1375),
        grid(32, 300, 475),
        grid(32, 300, 1375),
        grid(32, 1000, 475),
        grid(32, 1000, 1375),
        grid(16, 600, 925),
    ];
    let power = PowerModel::hd7970();
    let exact = EventModel::default().with_max_waves(CAP);
    let auto = exact
        .clone()
        .with_fast_forward(FastForwardPolicy::auto());
    let argmin = |model: &EventModel, k: &KernelProfile| -> HwConfig {
        let mut best = (f64::INFINITY, corners[0]);
        for &cfg in &corners {
            let r = model.simulate(cfg, k, 0);
            let activity = Activity {
                valu_activity: r.counters.valu_activity(),
                dram_bytes_per_sec: r.counters.dram_bytes_per_sec(),
                dram_traffic_fraction: r.counters.ic_activity,
            };
            let t = r.time.value();
            let ed2 = power.card_pwr(cfg, &activity).value() * t * t * t;
            if ed2 < best.0 {
                best = (ed2, cfg);
            }
        }
        best.1
    };
    for app in [suite::maxflops(), suite::sort(), suite::bpt()] {
        for k in &app.kernels {
            assert_eq!(
                argmin(&exact, k),
                argmin(&auto, k),
                "{}/{}: fast-forward changed the ED²-optimal configuration",
                app.name,
                k.name
            );
        }
    }
}

/// A traced run over the Auto event model replays exactly (the decision
/// trace's configuration sequence matches the live run report) and records
/// one FastForward event per extrapolated invocation.
#[test]
fn traced_auto_run_replays_and_reports_fast_forwards() {
    let model = EventModel::default().with_fast_forward(FastForwardPolicy::auto());
    let power = PowerModel::hd7970();
    let app = Application::new("FFTrace", vec![suite::maxflops().kernels[0].clone()], 4);
    let handle = TraceHandle::new();
    let predictor = SensitivityPredictor::paper_table3();
    let res = PolicyResources::new(&predictor, &model, &power);
    let run = Runtime::new(&model, &power)
        .with_telemetry(handle.clone())
        .run(&app, &mut PolicySpec::Baseline.build(&res).governor);
    let events = handle.events();
    assert!(
        telemetry::matches_run(&events, &run),
        "Auto trace does not replay the live configuration sequence"
    );
    let summary = telemetry::summarize(&events);
    assert_eq!(
        summary.fast_forwards, summary.invocations,
        "every MaxFlops invocation fast-forwards at the boost config"
    );
    for ev in &events {
        if let TraceEvent::FastForward {
            stepped_waves,
            fast_forwarded_waves,
            ..
        } = ev
        {
            assert!(*fast_forwarded_waves > 0, "event emitted for an exact run");
            assert_eq!(stepped_waves + fast_forwarded_waves, 8192);
        }
    }
}

/// The exact policy stays deterministic end to end: two traced runs over an
/// Off event model export byte-identical JSONL.
#[test]
fn off_policy_traced_runs_are_byte_identical() {
    let model = EventModel::default();
    let power = PowerModel::hd7970();
    let app = Application::new("OffTrace", vec![suite::maxflops().kernels[0].clone()], 2);
    let predictor = SensitivityPredictor::paper_table3();
    let res = PolicyResources::new(&predictor, &model, &power);
    let jsonl = || {
        let handle = TraceHandle::new();
        Runtime::new(&model, &power)
            .with_telemetry(handle.clone())
            .run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        telemetry::to_jsonl(&handle.events())
    };
    assert_eq!(jsonl(), jsonl(), "Off trace is not byte-stable");
}
