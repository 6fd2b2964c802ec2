//! Diagnostic sweep (run with --nocapture) used during calibration.

use harmonia::governor::{BaselineGovernor, HarmoniaConfig, HarmoniaGovernor, OracleGovernor};
use harmonia::dataset::TrainingSet;
use harmonia::metrics::improvement;
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::{IntervalModel, TimingModel};
use harmonia_workloads::suite;

#[test]
#[ignore = "diagnostic only"]
fn sweep_table() {
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let rt = Runtime::new(&model, &power);
    let data = TrainingSet::collect(&model);
    let trained = SensitivityPredictor::fit(&data).unwrap();
    println!(
        "trained R: bw={:.3} cu={:.3} freq={:.3}; MAE bw={:.4} cu={:.4} freq={:.4}",
        trained.bandwidth.multiple_r,
        trained.cu.multiple_r,
        trained.freq.multiple_r,
        trained.mean_abs_error(&data).bandwidth,
        trained.mean_abs_error(&data).cu,
        trained.mean_abs_error(&data).freq
    );
    println!(
        "{:<14} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "app", "ed2 CG", "ed2 HM", "ed2 OR", "perfCG", "perfHM", "pwrHM", "enHM"
    );
    for app in suite::all() {
        let base = rt.run(&app, &mut BaselineGovernor::new());
        let mut cg = HarmoniaGovernor::with_config(trained.clone(), HarmoniaConfig::cg_only());
        let cgr = rt.run(&app, &mut cg);
        let mut hm = HarmoniaGovernor::new(trained.clone());
        let hmr = rt.run(&app, &mut hm);
        let mut orc = OracleGovernor::new(&model, &power);
        let or = rt.run(&app, &mut orc);
        println!(
            "{:<14} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            app.name,
            improvement(base.ed2(), cgr.ed2()) * 100.0,
            improvement(base.ed2(), hmr.ed2()) * 100.0,
            improvement(base.ed2(), or.ed2()) * 100.0,
            improvement(base.total_time.value(), cgr.total_time.value()) * 100.0,
            improvement(base.total_time.value(), hmr.total_time.value()) * 100.0,
            improvement(base.avg_power().value(), hmr.avg_power().value()) * 100.0,
            improvement(base.card_energy.value(), hmr.card_energy.value()) * 100.0,
        );
        for (_, k) in app
            .kernels
            .iter()
            .map(|k| ((), k))
        {
            let s = harmonia::sensitivity::Sensitivity::measure(&model, k);
            let row = data.rows.iter().find(|r| *r.kernel == *k.name).unwrap();
            let p = trained.predict(&row.counters);
            println!(
                "    {:<28} meas(cu={:+.2} f={:+.2} b={:+.2}) pred(cu={:+.2} f={:+.2} b={:+.2})",
                k.name, s.cu, s.freq, s.bandwidth, p.cu, p.freq, p.bandwidth
            );
        }
    }
}

#[test]
#[ignore = "diagnostic only"]
fn trace_app() {
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let data = TrainingSet::collect(&model);
    let trained = SensitivityPredictor::fit(&data).unwrap();
    let name = std::env::var("APP").unwrap_or_else(|_| "SRAD".into());
    let app = suite::by_name(&name).unwrap();
    let mut hm = HarmoniaGovernor::new(trained.clone());
    let trace = TraceHandle::new();
    let r = Runtime::new(&model, &power)
        .with_telemetry(trace.clone())
        .run(&app, &mut hm);
    let base = Runtime::new(&model, &power).run(&app, &mut BaselineGovernor::new());
    for ev in trace.events() {
        if let TraceEvent::KernelEnd {
            kernel,
            iteration,
            cfg,
            time_s,
            card_w,
            counters,
            ..
        } = ev
        {
            println!(
                "it{:02} {:<26} cu={:>2} f={:>4} m={:>4} t={:>9.4}ms p={:>6.1}W busy={:>5.1}",
                iteration,
                kernel,
                cfg.cu,
                cfg.cu_mhz,
                cfg.mem_mhz,
                time_s * 1e3,
                card_w,
                counters.valu_busy_pct
            );
        }
    }
    println!(
        "HM: t={:.3}ms E={:.2}J | base t={:.3}ms E={:.2}J | dED2={:.1}%",
        r.total_time.value() * 1e3,
        r.card_energy.value(),
        base.total_time.value() * 1e3,
        base.card_energy.value(),
        improvement(base.ed2(), r.ed2()) * 100.0
    );
}

#[test]
#[ignore = "diagnostic only"]
fn trace_decisions() {
    use harmonia::governor::Governor;
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let data = TrainingSet::collect(&model);
    let trained = SensitivityPredictor::fit(&data).unwrap();
    let name = std::env::var("APP").unwrap_or_else(|_| "LUD".into());
    let kname = std::env::var("KERNEL").unwrap_or_else(|_| "LUD.Internal".into());
    let app = suite::by_name(&name).unwrap();
    let k = app.kernel(&kname).unwrap().clone();
    let mut hm = HarmoniaGovernor::new(trained.clone());
    let _ = power;
    for i in 0..app.iterations {
        let cfg = hm.decide(&k, i);
        let r = model.simulate(cfg, &k, i);
        let pred = trained.predict(&r.counters);
        println!(
            "it{:02} cu={:>2} f={:>4} m={:>4} t={:.4}ms rate={:.3e} pred(cu={:+.2} f={:+.2} b={:+.2}) ctom={:.1} busy={:.1} membusy={:.1}",
            i,
            cfg.compute.cu_count(),
            cfg.compute.freq().value(),
            cfg.memory.bus_freq().value(),
            r.time.value() * 1e3,
            r.counters.valu_insts as f64 / r.time.value(),
            pred.cu,
            pred.freq,
            pred.bandwidth,
            r.counters.c_to_m_intensity(),
            r.counters.valu_busy_pct,
            r.counters.mem_unit_busy_pct,
        );
        hm.observe(&k, i, cfg, &r.counters);
    }
}
