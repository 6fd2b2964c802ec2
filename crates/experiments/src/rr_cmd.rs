//! The `rr <record|replay|diff>` subcommand: full-session deterministic
//! record/replay with first-divergence reporting.
//!
//! `rr record <APP> [POLICY] [--chaos]` runs the application under a
//! registry policy with a session [`Recorder`] attached and writes the
//! versioned binary trace (`rr_<app>_<policy>[_chaos].hrr`). With
//! `--chaos` the session runs under the canonical [`chaos_plan`] (seeded
//! via `HARMONIA_FAULT_SEED`): counter spikes, NaN power glitches, and
//! actuator faults — all of which land in the trace as recorded draws.
//!
//! `rr replay <FILE>` re-executes the session from its artifact alone: the
//! runtime's model is a [`ReplayModel`] serving recorded samples, the DPM
//! shim takes actuation outcomes from the trace, and the governor runs
//! live (its decisions are deterministic in what it observes). The
//! re-recorded session is diffed against the artifact; bit-exact replay
//! prints `no divergence`.
//!
//! `rr diff <A> <B>` compares two session artifacts event-by-event and
//! reports the first divergent event with context.

use crate::context::Context;
use crate::report::Report;
use harmonia::governor::{PolicySpec, PolicyStats};
use harmonia::metrics::RunReport;
use harmonia::runtime::{RetryPolicy, Runtime};
use harmonia_rr::{codec, differ, Divergence, Recorder, ReplayError, ReplayModel, Replayer, SessionEvent};
use harmonia_sim::{FaultKind, FaultPlan, FaultSpec, FaultyModel, TimingModel};
use harmonia_workloads::suite;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The canonical chaos plan for recorded sessions: a mix that exercises
/// every class of recorded nondeterminism — multiplicative counter spikes,
/// NaN power glitches (bit-exact float round-tripping), neighbor DVFS
/// actuations, and a thermal-throttle window.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultSpec::new(FaultKind::CounterSpike, 0.2).with_magnitude(8.0))
        .with(FaultSpec::new(FaultKind::PowerGlitch, 0.15))
        .with(FaultSpec::new(FaultKind::DvfsNeighbor, 0.35))
        .with(FaultSpec::new(FaultKind::ThermalThrottle, 1.0).with_window(4, 6))
}

/// The outcome of recording one session.
pub struct RecordedSession {
    /// Application name (exact suite spelling).
    pub app: String,
    /// The registry policy the session ran under.
    pub spec: PolicySpec,
    /// The recorded event stream.
    pub events: Vec<SessionEvent>,
    /// The versioned binary encoding of `events`.
    pub bytes: Vec<u8>,
    /// The live run the session was recorded from.
    pub run: RunReport,
    /// The policy stack's shared counters (cap violations, rung residency,
    /// ...) — the chaos campaign's invariant checks read these.
    pub stats: PolicyStats,
    /// Printable summary.
    pub report: Report,
}

/// The outcome of replaying a recorded session.
pub struct ReplayedSession {
    /// The re-recorded event stream of the replayed run.
    pub events: Vec<SessionEvent>,
    /// The replayed run's report (totals must match the recording).
    pub run: RunReport,
    /// First divergence between the artifact and the replay; `None` means
    /// the replay was bit-exact.
    pub divergence: Option<Divergence<SessionEvent>>,
    /// First structural problem the replay cursor hit, if any.
    pub replay_error: Option<ReplayError>,
    /// Printable summary.
    pub report: Report,
}

fn count_label(events: &[SessionEvent], label: &str) -> usize {
    events.iter().filter(|e| e.label() == label).count()
}

/// Sanitized policy fragment for file names (`hardened:capped@170` →
/// `hardened-capped-170`).
fn policy_slug(spec: PolicySpec) -> String {
    spec.name().replace([':', '@'], "-")
}

/// The canonical on-disk name for a recorded session.
pub fn trace_filename(app: &str, spec: PolicySpec, chaos: bool) -> String {
    format!(
        "rr_{}_{}{}.hrr",
        app.to_lowercase(),
        policy_slug(spec),
        if chaos { "_chaos" } else { "" }
    )
}

/// Writes a recorded session into `dir/<filename>`, creating `dir` if
/// needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or file writing.
pub fn write_trace(dir: &Path, filename: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(filename);
    fs::write(&path, bytes)?;
    Ok(path)
}

/// Records one session of `name` (case-insensitive suite lookup) under
/// `spec`, optionally under a fault plan (chaos session: the plan drives
/// both the measurement path via [`FaultyModel`] and the actuation path
/// via the runtime shim). Returns `None` for an unknown application.
///
/// The policy stack is built over the *clean* context resources in both
/// record and replay, so model-consulting governors (the oracle) make
/// identical sweeps on both sides.
pub fn record_session(
    ctx: &Context,
    name: &str,
    spec: PolicySpec,
    plan: Option<&FaultPlan>,
) -> Option<RecordedSession> {
    record_session_with(ctx, name, spec, plan, None)
}

/// [`record_session`] with the reliable-actuation shim optionally engaged:
/// with a [`RetryPolicy`], DPM faults resolve through the retry/backoff
/// state machine and every terminal verdict lands in the trace as a v2
/// `actuation-resolved` event.
pub fn record_session_with(
    ctx: &Context,
    name: &str,
    spec: PolicySpec,
    plan: Option<&FaultPlan>,
    actuator: Option<RetryPolicy>,
) -> Option<RecordedSession> {
    let app = suite::all()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))?;
    let recorder = Recorder::new();
    recorder.record(SessionEvent::SessionStart {
        app: app.name.clone(),
        policy: spec.name(),
        fault_seed: plan.map(FaultPlan::seed).unwrap_or(0),
    });
    let policy = ctx.policy(spec);
    let stats = policy.stats;
    let mut governor = policy.governor;
    let run = match plan {
        Some(plan) => {
            let faulty = FaultyModel::new(ctx.model(), plan.clone());
            let mut rt = Runtime::new(&faulty, ctx.power())
                .with_faults(plan)
                .with_recorder(recorder.clone());
            if let Some(retry) = actuator {
                rt = rt.with_actuator(retry);
            }
            rt.run(&app, &mut governor)
        }
        None => Runtime::new(ctx.model(), ctx.power())
            .with_recorder(recorder.clone())
            .run(&app, &mut governor),
    };
    let events = recorder.events();
    let bytes = codec::encode(&events);

    let chaos = plan.is_some();
    let mut report = Report::new(
        format!(
            "rr-record-{}-{}{}",
            app.name.to_lowercase(),
            policy_slug(spec),
            if chaos { "-chaos" } else { "" }
        ),
        format!(
            "Recorded session, {} under {}{}",
            app.name,
            spec.name(),
            match plan {
                Some(p) => format!(" (chaos seed {})", p.seed()),
                None => String::new(),
            }
        ),
        &["metric", "value"],
    );
    let mut row = |metric: &str, value: String| report.push_row(vec![metric.to_string(), value]);
    row("events", events.len().to_string());
    row("decisions", count_label(&events, "decision").to_string());
    row("samples", count_label(&events, "sample").to_string());
    row("actuator faults", count_label(&events, "actuation").to_string());
    row(
        "actuation resolutions",
        count_label(&events, "actuation-resolved").to_string(),
    );
    row("sanitizer substitutions", count_label(&events, "conditioned").to_string());
    row("total time", format!("{:.4e} s", run.total_time.value()));
    row("card energy", format!("{:.4e} J", run.card_energy.value()));
    row("ED²", format!("{:.4e}", run.ed2()));
    row("trace bytes", bytes.len().to_string());
    report.note(format!(
        "format v{}: replay with `rr replay <file>`; bit-exact replay prints `no divergence`",
        codec::minimal_version(&events)
    ));

    Some(RecordedSession {
        app: app.name.clone(),
        spec,
        events,
        bytes,
        run,
        stats,
        report,
    })
}

/// Re-executes a recorded session from its event stream alone and diffs
/// the re-recorded stream against it.
///
/// # Errors
///
/// Fails (with a human-readable message) when the trace has no
/// `SessionStart` header, names an application that is not in the suite,
/// names a policy the registry does not know, or records a configuration
/// (any [`SessionEvent::configs`] point) off `ctx`'s device grid — a trace
/// recorded on another device, which the message says to replay under
/// that device's `--device`.
pub fn replay_session(ctx: &Context, recorded: &[SessionEvent]) -> Result<ReplayedSession, String> {
    let Some(SessionEvent::SessionStart { app, policy, fault_seed }) = recorded.first() else {
        return Err("trace has no session-start header".to_string());
    };
    let application = suite::all()
        .into_iter()
        .find(|a| a.name == *app)
        .ok_or_else(|| format!("recorded application {app:?} is not in the suite"))?;
    let spec: PolicySpec = policy
        .parse()
        .map_err(|e| format!("recorded policy {policy:?} is unknown: {e}"))?;
    // The header does not name the recording device, but every
    // configuration a session ran at lies on that device's grid.
    let grid = &ctx.model().gpu().grid;
    let foreign = recorded
        .iter()
        .flat_map(SessionEvent::configs)
        .find(|cfg| cfg.to_hw_on(grid).is_none());
    if let Some(cfg) = foreign {
        let device = &ctx.device().name;
        return Err(format!(
            "trace was recorded on another device: configuration {cfg} is off the {device} \
             grid; replay it with `--device NAME` naming the recording device"
        ));
    }

    let replayer = Replayer::new(recorded.to_vec());
    let model = ReplayModel::new(replayer.clone(), *ctx.model().gpu());
    let recorder = Recorder::new();
    recorder.record(SessionEvent::SessionStart {
        app: app.clone(),
        policy: policy.clone(),
        fault_seed: *fault_seed,
    });
    let run = Runtime::new(&model, ctx.power())
        .with_replay(replayer.clone())
        .with_recorder(recorder.clone())
        .run(&application, &mut ctx.policy(spec).governor);
    let events = recorder.events();
    let divergence = differ::first_divergence(recorded, &events);
    let replay_error = replayer.error();

    let mut report = Report::new(
        format!("rr-replay-{}-{}", app.to_lowercase(), policy_slug(spec)),
        format!("Replayed session, {app} under {policy}"),
        &["metric", "value"],
    );
    let mut row = |metric: &str, value: String| report.push_row(vec![metric.to_string(), value]);
    row("recorded events", recorded.len().to_string());
    row("replayed events", events.len().to_string());
    row("total time", format!("{:.4e} s", run.total_time.value()));
    row("card energy", format!("{:.4e} J", run.card_energy.value()));
    row("ED²", format!("{:.4e}", run.ed2()));
    row(
        "replay bit-exact",
        if divergence.is_none() { "yes" } else { "NO" }.to_string(),
    );
    if let Some(err) = &replay_error {
        report.note(format!("cursor: {err}"));
    }

    Ok(ReplayedSession {
        events,
        run,
        divergence,
        replay_error,
        report,
    })
}

/// Reads and decodes a session artifact.
///
/// # Errors
///
/// Returns a human-readable message for I/O failures and malformed or
/// future-versioned streams (the typed [`codec::CodecError`] rendered).
pub fn read_trace(path: &Path) -> Result<Vec<SessionEvent>, String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    codec::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia::governor::DEFAULT_CAP;

    #[test]
    fn unknown_app_is_rejected() {
        let ctx = Context::new();
        assert!(record_session(&ctx, "NotAnApp", PolicySpec::Baseline, None).is_none());
    }

    #[test]
    fn filenames_encode_policy_and_chaos() {
        assert_eq!(
            trace_filename("Graph500", PolicySpec::HardenedCapped(harmonia_types::Watts(185.0)), true),
            "rr_graph500_hardened-capped_chaos.hrr"
        );
        assert_eq!(
            trace_filename("Stencil", PolicySpec::Capped(harmonia_types::Watts(185.0)), false),
            "rr_stencil_capped.hrr"
        );
    }

    #[test]
    fn clean_session_records_and_replays_bit_exactly() {
        let ctx = Context::new();
        let rec = record_session(&ctx, "maxflops", PolicySpec::Harmonia, None)
            .expect("MaxFlops is in the suite");
        assert!(count_label(&rec.events, "sample") > 0);
        assert_eq!(count_label(&rec.events, "actuation"), 0, "clean session");
        let rep = replay_session(&ctx, &rec.events).expect("replays");
        assert!(rep.divergence.is_none(), "{}", differ::diff_report(&rec.events, &rep.events));
        assert!(rep.replay_error.is_none());
        assert_eq!(rep.run, rec.run, "identical RunReport");
    }

    #[test]
    fn chaos_plan_covers_counter_nan_and_actuator_faults() {
        let plan = chaos_plan(7);
        let kinds: Vec<FaultKind> = plan.specs().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&FaultKind::PowerGlitch), "NaN coverage");
        assert!(kinds.iter().any(|k| k.is_counter()));
        assert!(kinds.iter().any(|k| k.is_actuator()));
        assert_eq!(plan.seed(), 7);
    }

    /// A Sort chaos session with DVFS denials resolved by the retry shim.
    fn retried_chaos_session(ctx: &Context) -> RecordedSession {
        let plan = chaos_plan(0xB0B)
            .with(FaultSpec::new(FaultKind::DvfsDeny, 0.4));
        record_session_with(
            ctx,
            "sort",
            PolicySpec::Harmonia,
            Some(&plan),
            Some(RetryPolicy::default()),
        )
        .expect("Sort is in the suite")
    }

    #[test]
    fn actuated_chaos_session_records_v2_and_replays_bit_exactly() {
        let ctx = Context::new();
        let rec = retried_chaos_session(&ctx);
        assert!(
            count_label(&rec.events, "actuation-resolved") > 0,
            "retry shim must resolve at least one perturbed actuation"
        );
        assert_eq!(
            rec.bytes[8..10],
            2u16.to_le_bytes(),
            "resolved actuations need a v2 stream"
        );
        let rep = replay_session(&ctx, &rec.events).expect("replays");
        assert!(
            rep.divergence.is_none(),
            "{}",
            differ::diff_report(&rec.events, &rep.events)
        );
        assert!(rep.replay_error.is_none(), "{:?}", rep.replay_error);
        assert_eq!(rep.run, rec.run);
    }

    #[test]
    fn the_format_note_names_the_version_in_the_header() {
        let note = |rec: &RecordedSession| {
            let stamped = u16::from_le_bytes([rec.bytes[8], rec.bytes[9]]);
            let note = rec.report.notes.iter().find(|n| n.starts_with("format v"));
            (stamped, note.expect("format note").clone())
        };
        let ctx = Context::new();
        let clean = record_session(&ctx, "stencil", PolicySpec::Capped(DEFAULT_CAP), None)
            .expect("Stencil is in the suite");
        let (stamped, text) = note(&clean);
        assert_eq!(stamped, 1, "a clean session needs only v1");
        assert!(text.starts_with("format v1:"), "{text}");
        let (stamped, text) = note(&retried_chaos_session(&ctx));
        assert_eq!(stamped, 2, "resolved actuations need v2");
        assert!(text.starts_with("format v2:"), "{text}");
    }

    #[test]
    fn truncated_trace_error_names_the_last_complete_event() {
        let ctx = Context::new();
        let rec = record_session(&ctx, "maxflops", PolicySpec::Baseline, None)
            .expect("MaxFlops is in the suite");
        let dir = std::env::temp_dir().join("harmonia-rr-truncation-test");
        let path = write_trace(&dir, "cut.hrr", &rec.bytes[..rec.bytes.len() - 4])
            .expect("writes");
        let err = read_trace(&path).expect_err("truncated trace must fail");
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("last complete event"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_trace_is_rejected() {
        let ctx = Context::new();
        match replay_session(&ctx, &[]) {
            Err(err) => assert!(err.contains("session-start"), "{err}"),
            Ok(_) => panic!("headerless trace should be rejected"),
        }
    }
}
