//! Integration tests for the extended governor set (PowerTune, power-cap
//! decorator) and out-of-distribution predictor behaviour.

use harmonia::dataset::TrainingSet;
use harmonia::governor::{BaselineGovernor, CappedGovernor, Governor, PolicyResources, PolicySpec};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::sensitivity::Sensitivity;
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::IntervalModel;
use harmonia_types::{DeviceSpec, HwConfig, Watts};
use harmonia_workloads::{probes, suite};
use std::sync::OnceLock;

fn harness() -> &'static (IntervalModel, PowerModel, SensitivityPredictor) {
    static CELL: OnceLock<(IntervalModel, PowerModel, SensitivityPredictor)> = OnceLock::new();
    CELL.get_or_init(|| {
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        let predictor =
            SensitivityPredictor::fit(&TrainingSet::collect(&model)).expect("fit");
        (model, power, predictor)
    })
}

/// Registry resources over the shared harness models.
fn resources() -> PolicyResources<'static> {
    let (model, power, predictor) = harness();
    PolicyResources::new(predictor, model, power)
}

#[test]
fn powertune_with_headroom_equals_the_baseline() {
    let (model, power, _) = harness();
    let res = resources();
    let rt = Runtime::new(model, power);
    for app in [suite::stencil(), suite::srad()] {
        let base = rt.run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        // Stock 250 W TDP.
        let pt_run = rt.run(&app, &mut PolicySpec::PowerTune(Watts(250.0)).build(&res).governor);
        assert!(
            (pt_run.total_time.value() - base.total_time.value()).abs()
                < 1e-9 * base.total_time.value().max(1.0),
            "{}: PowerTune with headroom must match the boost baseline",
            app.name
        );
    }
}

#[test]
fn capped_harmonia_dominates_powertune_under_the_same_envelope() {
    let (model, power, _) = harness();
    let res = resources();
    let rt = Runtime::new(model, power);
    let cap = Watts(185.0);
    for name in ["MaxFlops", "DeviceMemory", "CoMD", "Stencil"] {
        let app = suite::by_name(name).expect("suite app");
        let pt_run = rt.run(&app, &mut PolicySpec::PowerTune(cap).build(&res).governor);
        let hm_run = rt.run(&app, &mut PolicySpec::Capped(cap).build(&res).governor);
        assert!(
            hm_run.total_time.value() <= pt_run.total_time.value() * 1.02,
            "{name}: capped Harmonia {} vs PowerTune {}",
            hm_run.total_time,
            pt_run.total_time
        );
    }
}

#[test]
fn capped_runs_respect_the_envelope_on_average() {
    let (model, power, _) = harness();
    let res = resources();
    let rt = Runtime::new(model, power);
    let cap = Watts(185.0);
    for name in ["MaxFlops", "LUD", "DeviceMemory"] {
        let app = suite::by_name(name).expect("suite app");
        let run = rt.run(&app, &mut PolicySpec::Capped(cap).build(&res).governor);
        assert!(
            run.avg_power() <= cap + Watts(8.0),
            "{name}: avg power {} exceeds the {} envelope",
            run.avg_power(),
            cap
        );
    }
}

#[test]
fn fresh_clamp_projects_a_fully_busy_card_on_every_device() {
    // Before its first observation the clamp assumes a fully busy card on
    // the device's own bus. A cap 1 W under that draw at boost must
    // therefore keep the very first decision off boost, on every catalog
    // device — not only where the bus peaks at the HD7970's 264 GB/s.
    let kernel = suite::maxflops().kernels[0].clone();
    for name in DeviceSpec::catalog() {
        let spec = DeviceSpec::lookup(name).expect("catalog device");
        let grid = *spec.grid();
        let power = PowerModel::for_device(&spec);
        let boost = HwConfig::max_on(&grid);
        let busy = power.card_pwr(boost, &Activity::streaming_on(&grid, 1.0, 1.0));
        let cap = busy - Watts(1.0);
        let mut clamp = CappedGovernor::new(BaselineGovernor::on_grid(grid), &power, cap);
        let first = clamp.decide(&kernel, 0);
        assert_ne!(
            first, boost,
            "{name}: the first decision granted boost under a {cap} cap (busy boost draws {busy})"
        );
    }
}

#[test]
fn predictor_generalizes_to_unseen_probe_kernels() {
    // The predictor is trained on the 27-kernel suite; the probe families
    // are outside that set. The predictions must still order the extremes
    // correctly (out-of-distribution sanity, not accuracy).
    let (model, _, predictor) = harness();
    let cfg = harmonia_types::HwConfig::max_hd7970();
    let observe = |k: &harmonia_sim::KernelProfile| {
        use harmonia_sim::TimingModel;
        let c = model.simulate(cfg, k, 0).counters;
        predictor.predict(&c)
    };
    let compute_hot = observe(&probes::compute_probe(1.0));
    let memory_hot = observe(&probes::bandwidth_probe(128.0));
    assert!(
        memory_hot.bandwidth > compute_hot.bandwidth + 0.3,
        "bandwidth probe {} vs compute probe {}",
        memory_hot.bandwidth,
        compute_hot.bandwidth
    );
    assert!(
        compute_hot.compute() > memory_hot.compute() + 0.2,
        "compute probe {} vs bandwidth probe {}",
        compute_hot.compute(),
        memory_hot.compute()
    );
}

#[test]
fn measured_probe_sensitivities_follow_their_dials() {
    let (model, _, _) = harness();
    // Occupancy dial: more resident waves → more bandwidth sensitivity.
    let low = Sensitivity::measure(model, &probes::occupancy_probe(1));
    let high = Sensitivity::measure(model, &probes::occupancy_probe(10));
    assert!(
        high.bandwidth > low.bandwidth + 0.1,
        "occupancy 10 bw {} vs occupancy 1 bw {}",
        high.bandwidth,
        low.bandwidth
    );
    // Balance dial: intensity flips the dominant sensitivity.
    let lean = Sensitivity::measure(model, &probes::balance_probe(0.5));
    let heavy = Sensitivity::measure(model, &probes::balance_probe(64.0));
    assert!(lean.bandwidth > heavy.bandwidth);
    assert!(heavy.compute() > lean.compute());
}

#[test]
fn harmonia_on_probe_applications_never_collapses() {
    // Governing out-of-distribution kernels must stay within a safe
    // performance envelope even when predictions are off.
    let (model, power, _) = harness();
    let res = resources();
    let rt = Runtime::new(model, power);
    for kernel in [
        probes::compute_probe(0.5),
        probes::bandwidth_probe(64.0),
        probes::occupancy_probe(3),
        probes::balance_probe(8.0),
    ] {
        let app = harmonia_workloads::Application::new(kernel.name.to_string(), vec![kernel], 12);
        let base = rt.run(&app, &mut PolicySpec::Baseline.build(&res).governor);
        let run = rt.run(&app, &mut PolicySpec::Harmonia.build(&res).governor);
        let loss = 1.0 - base.total_time.value() / run.total_time.value();
        assert!(
            loss < 0.15,
            "{}: perf loss {:.1}% on an unseen kernel",
            app.name,
            loss * 100.0
        );
    }
}
