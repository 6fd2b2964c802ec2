//! Fixed power envelopes: reactive PowerTune throttling versus Harmonia
//! wrapped in a power cap (the paper's motivating scenario — "a fixed board
//! level power and thermal envelope").
//!
//! ```text
//! cargo run --release --example capped_envelope [cap_watts]
//! ```

use harmonia::governor::{
    BaselineGovernor, CappedGovernor, HarmoniaGovernor, PowerTuneGovernor,
};
use harmonia::dataset::TrainingSet;
use harmonia::governor::Governor;
use harmonia::metrics::{improvement, RunReport};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::IntervalModel;
use harmonia_types::Watts;
use harmonia_workloads::{suite, Application};

/// Runs `app` under `governor` with a fresh decision trace and returns the
/// report with the run's peak card power: the largest `KernelEnd` power.
fn run_with_peak(
    model: &IntervalModel,
    power: &PowerModel,
    app: &Application,
    governor: &mut dyn Governor,
) -> (RunReport, f64) {
    let trace = TraceHandle::new();
    let report = Runtime::new(model, power)
        .with_telemetry(trace.clone())
        .run(app, governor);
    let peak = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::KernelEnd { card_w, .. } => Some(*card_w),
            _ => None,
        })
        .fold(0.0, f64::max);
    (report, peak)
}

fn main() {
    let cap = Watts(
        std::env::args()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(185.0),
    );

    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let runtime = Runtime::new(&model, &power);
    let data = TrainingSet::collect(&model);
    let predictor = SensitivityPredictor::fit(&data).expect("fit");

    println!("power envelope: {cap}\n");
    println!(
        "{:<14} {:<16} {:>10} {:>10} {:>10} {:>10}",
        "app", "scheme", "perf", "avg W", "peak W", "ED²"
    );

    for name in ["MaxFlops", "DeviceMemory", "LUD", "CoMD", "Stencil"] {
        let app = suite::by_name(name).expect("suite app");
        let unconstrained = runtime.run(&app, &mut BaselineGovernor::new());

        let mut powertune = PowerTuneGovernor::with_tdp(&power, cap);
        let pt = run_with_peak(&model, &power, &app, &mut powertune);

        let mut capped = CappedGovernor::new(
            HarmoniaGovernor::new(predictor.clone()),
            &power,
            cap,
        );
        let hm = run_with_peak(&model, &power, &app, &mut capped);

        for (run, peak_w) in [&pt, &hm] {
            println!(
                "{:<14} {:<16} {:>10} {:>10.1} {:>10.1} {:>10}",
                app.name,
                run.governor,
                format!(
                    "{:+.1}%",
                    improvement(unconstrained.total_time.value(), run.total_time.value())
                        * 100.0
                ),
                run.avg_power().value(),
                peak_w,
                format!(
                    "{:+.1}%",
                    improvement(unconstrained.ed2(), run.ed2()) * 100.0
                ),
            );
        }
    }

    println!(
        "\nPowerTune can only shed compute clock; capped Harmonia also trades CU count and\n\
         memory bandwidth, so it meets the same envelope at much higher performance."
    );
}
