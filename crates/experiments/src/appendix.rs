//! Per-application deep dives — the appendix a reader turns to after the
//! aggregate figures: what each kernel looks like, what every governor chose
//! for it, and where the time and energy went.

use crate::context::Context;
use crate::report::{pct, Report};
use harmonia::metrics::{improvement, RunReport};
use harmonia::telemetry;
use harmonia_types::Tunable;
use harmonia_workloads::suite;

/// Builds the deep-dive report for one application of the suite.
///
/// Returns `None` for an unknown application name.
pub fn app_deep_dive(ctx: &Context, app_name: &str) -> Option<Report> {
    let eval = ctx.matrix().iter().find(|e| e.app.name == app_name)?;
    let mut r = Report::new(
        format!("appendix-{}", app_name.to_lowercase()),
        format!("Deep dive: {}", eval.app),
        &["section", "item", "value"],
    );

    // 1. Kernel characterization.
    for k in &eval.app.kernels {
        let row = ctx.training().rows.iter().find(|t| *t.kernel == *k.name);
        let sens = row.map_or_else(String::new, |t| {
            format!(
                "cu {:+.2}, freq {:+.2}, bw {:+.2}",
                t.measured.cu, t.measured.freq, t.measured.bandwidth
            )
        });
        r.push_row(vec![
            "kernel".into(),
            k.name.to_string(),
            format!(
                "{:.2} ops/byte demand; {}",
                k.demand_ops_per_byte(),
                sens
            ),
        ]);
    }

    // 2. Governor outcomes.
    let line = |run: &RunReport| {
        format!(
            "ED² {} | perf {} | power {}",
            pct(improvement(eval.baseline.ed2(), run.ed2())),
            pct(improvement(
                eval.baseline.total_time.value(),
                run.total_time.value()
            )),
            pct(improvement(
                eval.baseline.avg_power().value(),
                run.avg_power().value()
            )),
        )
    };
    for run in [&eval.cg, &eval.harmonia, &eval.oracle, &eval.freq_only] {
        r.push_row(vec!["governor".into(), run.governor.clone(), line(run)]);
    }

    // 3. Where Harmonia spends its time, from its decision trace.
    let residency = telemetry::summarize(&eval.harmonia_trace).residency;
    for t in Tunable::ALL {
        let dist = residency
            .distribution(t)
            .into_iter()
            .map(|(v, f)| format!("{v}:{:.0}%", f * 100.0))
            .collect::<Vec<_>>()
            .join("  ");
        r.push_row(vec!["residency".into(), t.to_string(), dist]);
    }

    // 4. Per-kernel time/energy split under Harmonia.
    for k in &eval.harmonia.per_kernel {
        r.push_row(vec![
            "kernel budget".into(),
            k.kernel.to_string(),
            format!(
                "{} invocations, {:.3} ms, {:.3} J",
                k.invocations,
                k.total_time.value() * 1e3,
                k.card_energy.value()
            ),
        ]);
    }
    r.note(format!(
        "baseline: {:.3} ms, {:.2} J, {:.1} W average",
        eval.baseline.total_time.value() * 1e3,
        eval.baseline.card_energy.value(),
        eval.baseline.avg_power().value()
    ));
    Some(r)
}

/// Builds deep dives for every suite application (the full appendix).
pub fn full_appendix(ctx: &Context) -> Vec<Report> {
    suite::all()
        .iter()
        .filter_map(|app| app_deep_dive(ctx, &app.name))
        .collect()
}

/// A one-report summary of the appendix: the dominant kernel (by baseline
/// time) and Harmonia's verdict per application.
pub fn appendix_summary(ctx: &Context) -> Report {
    let mut r = Report::new(
        "appendix",
        "Per-application summary (dominant kernel and Harmonia outcome)",
        &["app", "dominant kernel", "share", "ED²", "perf"],
    );
    for e in ctx.matrix() {
        let dominant = e
            .baseline
            .per_kernel
            .iter()
            .max_by(|a, b| {
                a.total_time
                    .value()
                    .partial_cmp(&b.total_time.value())
                    .expect("finite")
            })
            .expect("apps have kernels");
        r.push_row(vec![
            e.app.name.clone(),
            dominant.kernel.to_string(),
            format!(
                "{:.0}%",
                100.0 * dominant.total_time.value() / e.baseline.total_time.value()
            ),
            pct(improvement(e.baseline.ed2(), e.harmonia.ed2())),
            pct(improvement(
                e.baseline.total_time.value(),
                e.harmonia.total_time.value(),
            )),
        ]);
    }
    r.note("per-application deep dives: `harmonia-experiments appendix-<app>` (lowercase)");
    r
}
