//! Phase adaptation: watch Harmonia chase Graph500's BFS phases
//! (the Figures 14–16 study).
//!
//! ```text
//! cargo run --release --example graph500_phases
//! ```

use harmonia::governor::HarmoniaGovernor;
use harmonia::dataset::TrainingSet;
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{self, TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::IntervalModel;
use harmonia_types::Tunable;
use harmonia_workloads::suite;

fn main() {
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let trace = TraceHandle::new();
    let runtime = Runtime::new(&model, &power).with_telemetry(trace.clone());
    let data = TrainingSet::collect(&model);
    let predictor = SensitivityPredictor::fit(&data).expect("fit");

    let app = suite::graph500();
    let mut governor = HarmoniaGovernor::new(predictor);
    let report = runtime.run(&app, &mut governor);
    let events = trace.events();

    println!("Graph500 under Harmonia — per-invocation trace\n");
    println!(
        "{:<4} {:<26} {:>4} {:>6} {:>6} {:>10} {:>8}",
        "iter", "kernel", "CUs", "f MHz", "m MHz", "time ms", "power W"
    );
    for ev in &events {
        if let TraceEvent::KernelEnd {
            kernel,
            iteration,
            cfg,
            time_s,
            card_w,
            ..
        } = ev
        {
            println!(
                "{:<4} {:<26} {:>4} {:>6} {:>6} {:>10.4} {:>8.1}",
                iteration,
                kernel,
                cfg.cu,
                cfg.cu_mhz,
                cfg.mem_mhz,
                time_s * 1e3,
                card_w
            );
        }
    }

    println!("\npower-state residency (Figures 15–16):");
    let residency = telemetry::summarize(&events).residency;
    for t in Tunable::ALL {
        print!("  {t:>9}: ");
        for (value, frac) in residency.distribution(t) {
            print!("{value}:{:.0}%  ", frac * 100.0);
        }
        println!();
    }
    println!(
        "\ntotal: {:.3} ms, {:.2} J, avg {:.1} W",
        report.total_time.value() * 1e3,
        report.card_energy.value(),
        report.avg_power().value()
    );
}
