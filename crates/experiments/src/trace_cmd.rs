//! The `trace <app>` subcommand: run one application under the full
//! Harmonia governor with decision telemetry enabled, export the event
//! stream as JSONL, and summarize the decisions the governor made.
//!
//! The exported stream is the replayable record of Section 5: every kernel
//! boundary, sensitivity prediction, CG retune, FG probe/accept/revert,
//! revert-guard trip and 1 kHz power sample, in execution order. Replaying
//! the `KernelStart` events reproduces the governor's exact configuration
//! sequence ([`harmonia::telemetry::matches_run`]), which the golden-trace
//! test pins byte-for-byte.

use crate::context::Context;
use crate::report::Report;
use harmonia::governor::PolicySpec;
use harmonia::metrics::RunReport;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{self, TraceEvent, TraceHandle};
use harmonia_workloads::suite;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of tracing one application: the printable summary report,
/// the raw event stream, its JSONL rendering, and the run report it
/// describes.
pub struct TraceRun {
    /// Tabular summary of the decision trace.
    pub report: Report,
    /// The recorded events, in execution order.
    pub events: Vec<TraceEvent>,
    /// The JSONL export (one compact JSON object per line).
    pub jsonl: String,
    /// The run the trace was recorded from.
    pub run: RunReport,
}

/// Runs `name` (case-insensitive suite lookup) under full Harmonia with
/// telemetry enabled. Returns `None` for an unknown application.
pub fn trace_app(ctx: &Context, name: &str) -> Option<TraceRun> {
    trace_app_with(ctx, name, PolicySpec::Harmonia)
}

/// Like [`trace_app`], but under any registry policy (`trace <APP>
/// [POLICY]` on the CLI). Returns `None` for an unknown application.
pub fn trace_app_with(ctx: &Context, name: &str, spec: PolicySpec) -> Option<TraceRun> {
    let app = suite::all()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))?;
    let handle = TraceHandle::new();
    let run = Runtime::new(ctx.model(), ctx.power())
        .with_telemetry(handle.clone())
        .run(&app, &mut ctx.policy(spec).governor);
    let events = handle.events();
    let jsonl = telemetry::to_jsonl(&events);
    // The handle's summary, unlike one of the bare slice, counts the
    // events the ring evicted.
    let s = handle.summary();

    // The default policy keeps the historical report id and title so the
    // golden export stays byte-identical.
    let (id, label) = if spec == PolicySpec::Harmonia {
        (format!("trace-{}", app.name.to_lowercase()), "Harmonia".to_string())
    } else {
        (
            format!(
                "trace-{}-{}",
                app.name.to_lowercase(),
                spec.name().replace([':', '@'], "-")
            ),
            spec.name(),
        )
    };
    let mut report = Report::new(
        id,
        format!("Decision trace, {} under {label}", app.name),
        &["metric", "value"],
    );
    let mut row = |metric: &str, value: String| {
        report.push_row(vec![metric.to_string(), value]);
    };
    row("events", s.events.to_string());
    row("events dropped (ring overflow)", s.dropped.to_string());
    row("kernel invocations", s.invocations.to_string());
    row("sensitivity predictions", s.predictions.to_string());
    row("CG retunes", s.cg_retunes.to_string());
    row("revert-guard trips", s.revert_guards.to_string());
    row("FG probes", s.fg_probes.to_string());
    row("FG accepts", s.fg_accepts.to_string());
    row("FG reverts", s.fg_reverts.to_string());
    row("FG converged", s.fg_converged.to_string());
    row("known-bad skips", s.known_bad_skips.to_string());
    row("config changes", s.config_changes.to_string());
    row("settle iteration", s.settle_iteration.to_string());
    row("power samples (1 kHz)", s.power_samples.to_string());
    let replays = telemetry::matches_run(&events, &run);
    row("replay matches live run", if replays { "yes" } else { "NO" }.into());
    report.note(format!(
        "replaying the {} KernelStart events reproduces the governor's configuration sequence",
        s.invocations
    ));
    report.note(
        "export: one JSON object per line, keyed by its event type (`{\"KernelStart\":{...}}`)",
    );

    Some(TraceRun {
        report,
        events,
        jsonl,
        run,
    })
}

/// The canonical on-disk name for an application's trace export.
pub fn jsonl_filename(app: &str) -> String {
    format!("trace_{}.jsonl", app.to_lowercase())
}

/// Writes the JSONL export into `dir/trace_<app>.jsonl`, creating `dir` if
/// needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file writing.
pub fn write_jsonl(dir: &Path, app: &str, jsonl: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(jsonl_filename(app));
    fs::write(&path, jsonl)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_app_is_rejected() {
        let ctx = Context::new();
        assert!(trace_app(&ctx, "NotAnApp").is_none());
    }

    #[test]
    fn filenames_are_lowercased() {
        assert_eq!(jsonl_filename("Graph500"), "trace_graph500.jsonl");
    }

    #[test]
    fn non_default_policy_gets_its_own_report_id() {
        let ctx = Context::new();
        let t = trace_app_with(&ctx, "maxflops", PolicySpec::Baseline)
            .expect("MaxFlops is in the suite");
        assert_eq!(t.report.id, "trace-maxflops-baseline");
        assert!(t.report.title.contains("under baseline"));
        assert_eq!(t.run.governor, "baseline");
    }

    #[test]
    fn traced_app_replays_and_exports() {
        let ctx = Context::new();
        let t = trace_app(&ctx, "maxflops").expect("MaxFlops is in the suite");
        assert!(!t.events.is_empty());
        assert_eq!(t.jsonl.lines().count(), t.events.len());
        assert!(telemetry::matches_run(&t.events, &t.run));
        let parsed = telemetry::from_jsonl(&t.jsonl).expect("round trip");
        assert_eq!(parsed.len(), t.events.len());
        // The summary row records the replay check.
        let replay_row = t
            .report
            .rows
            .iter()
            .find(|r| r[0] == "replay matches live run")
            .expect("replay row");
        assert_eq!(replay_row[1], "yes");
    }
}
