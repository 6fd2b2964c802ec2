//! Golden *session* traces: a chaos (fault-seeded) session under each
//! hardened stack and one power-capped session are committed under
//! `tests/golden/` as versioned binary artifacts. A live re-recording must
//! reproduce the artifact bytes, a replay from the artifact must be
//! bit-exact (differ reports no divergence, run totals identical), and a
//! single mutated draw must be localized by the differ to exactly the
//! mutated event — no earlier, no later.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```text
//! cargo run -p harmonia-experiments -- \
//!     rr record Graph500 hardened:capped --chaos rr record Stencil capped \
//!     rr record Graph500 hardened:ladder --chaos \
//!     rr record Graph500 hardened:harmonia --chaos --out tests/golden
//! ```
//!
//! (with `HARMONIA_FAULT_SEED` unset, so the chaos plan uses the default
//! seed the tests pin explicitly).

use harmonia::governor::PolicySpec;
use harmonia::runtime::RetryPolicy;
use harmonia_experiments::rr_cmd::{self, chaos_plan};
use harmonia_experiments::Context;
use harmonia_repro::rr::{codec, differ, SessionEvent};
use harmonia_repro::types::{DeviceSpec, Watts};

const GOLDEN_CHAOS: &[u8] = include_bytes!("golden/rr_graph500_hardened-capped_chaos.hrr");
const GOLDEN_CAPPED: &[u8] = include_bytes!("golden/rr_stencil_capped.hrr");
const GOLDEN_LADDER: &[u8] = include_bytes!("golden/rr_graph500_hardened-ladder_chaos.hrr");
const GOLDEN_HARDENED: &[u8] = include_bytes!("golden/rr_graph500_hardened-harmonia_chaos.hrr");

/// The chaos golden's fault seed — pinned explicitly (NOT read from
/// `HARMONIA_FAULT_SEED`) so the fault-seeded CI leg cannot drift this
/// test; matches `FaultPlan::seed_from_env()`'s default for CLI regen.
const GOLDEN_SEED: u64 = 0xFA17;

fn record_chaos(ctx: &Context, spec: PolicySpec) -> rr_cmd::RecordedSession {
    let plan = chaos_plan(GOLDEN_SEED);
    rr_cmd::record_session(ctx, "Graph500", spec, Some(&plan)).expect("Graph500 in suite")
}

fn record_capped(ctx: &Context) -> rr_cmd::RecordedSession {
    rr_cmd::record_session(ctx, "Stencil", PolicySpec::Capped(Watts(185.0)), None)
        .expect("Stencil in suite")
}

/// Asserts a live re-recording matches a golden artifact, reporting the
/// first divergent *event* (not a byte offset) on mismatch.
fn assert_matches_golden(live: &rr_cmd::RecordedSession, golden: &[u8], name: &str) {
    if live.bytes == golden {
        return;
    }
    let golden_events = codec::decode(golden).expect("golden artifact decodes");
    panic!(
        "live session diverged from {name} (regenerate per tests/rr_golden.rs header if intentional):\n{}",
        differ::diff_report(&golden_events, &live.events)
    );
}

/// Asserts a replay from a golden artifact alone is bit-exact against the
/// live recording: no divergence, no replay error, identical run totals
/// and ED² bits.
fn assert_replays_bit_exactly(ctx: &Context, golden: &[u8], live: &rr_cmd::RecordedSession) {
    let golden_events = codec::decode(golden).expect("golden decodes");
    let replayed = rr_cmd::replay_session(ctx, &golden_events).expect("golden replays");
    assert!(
        replayed.divergence.is_none(),
        "{} replay diverged:\n{}",
        live.spec,
        differ::diff_report(&golden_events, &replayed.events)
    );
    assert!(replayed.replay_error.is_none(), "{:?}", replayed.replay_error);
    assert_eq!(replayed.run, live.run, "replayed run totals must be identical");
    assert_eq!(replayed.run.ed2().to_bits(), live.run.ed2().to_bits(), "bit-exact ED²");
}

#[test]
fn chaos_golden_round_trips_bit_exactly() {
    let ctx = Context::new();
    let live = record_chaos(&ctx, PolicySpec::HardenedCapped(Watts(185.0)));
    assert_matches_golden(&live, GOLDEN_CHAOS, "rr_graph500_hardened-capped_chaos.hrr");

    // The session is genuinely chaotic: actuator faults fired and the
    // sanitizer substituted measurements, and all of it is in the trace.
    let actuations = live
        .events
        .iter()
        .filter(|e| matches!(e, SessionEvent::Actuation { .. }))
        .count();
    assert!(actuations > 0, "chaos golden recorded no actuator faults");

    // Replay from the artifact alone: bit-exact, including ED² totals.
    assert_replays_bit_exactly(&ctx, GOLDEN_CHAOS, &live);
}

#[test]
fn ladder_chaos_golden_round_trips_bit_exactly() {
    let ctx = Context::new();
    let live = record_chaos(&ctx, PolicySpec::HardenedLadder(Watts(185.0)));
    assert_matches_golden(&live, GOLDEN_LADDER, "rr_graph500_hardened-ladder_chaos.hrr");
    // The ladder acted: the faults demoted it off the full rung.
    assert!(live.stats.rung_demotions() > 0, "the ladder never demoted");
    assert_replays_bit_exactly(&ctx, GOLDEN_LADDER, &live);
}

#[test]
fn hardened_harmonia_chaos_golden_round_trips_bit_exactly() {
    let ctx = Context::new();
    let live = record_chaos(&ctx, PolicySpec::HardenedHarmonia);
    assert_matches_golden(
        &live,
        GOLDEN_HARDENED,
        "rr_graph500_hardened-harmonia_chaos.hrr",
    );
    // The sanitizer acted: it substituted lying measurements.
    assert!(live.stats.sanitizer_rejects() > 0, "the sanitizer rejected nothing");
    assert_replays_bit_exactly(&ctx, GOLDEN_HARDENED, &live);
}

#[test]
fn capped_golden_round_trips_bit_exactly() {
    let ctx = Context::new();
    let live = record_capped(&ctx);
    assert_matches_golden(&live, GOLDEN_CAPPED, "rr_stencil_capped.hrr");

    let golden_events = codec::decode(GOLDEN_CAPPED).expect("golden decodes");
    let replayed = rr_cmd::replay_session(&ctx, &golden_events).expect("golden replays");
    assert!(
        replayed.divergence.is_none(),
        "capped replay diverged:\n{}",
        differ::diff_report(&golden_events, &replayed.events)
    );
    assert_eq!(replayed.run, live.run);
}

/// A `hardened:capped` chaos session with the retry shim engaged records
/// and replays bit-exactly from its encoded artifact on every catalog
/// device: replay validates each recorded actuation on the grid of the
/// device doing the replay.
#[test]
fn retried_chaos_sessions_replay_bit_exactly_on_every_device() {
    for device in DeviceSpec::catalog() {
        let spec = DeviceSpec::lookup(device).expect("catalog names resolve");
        let ctx = Context::for_device(spec);
        let plan = chaos_plan(GOLDEN_SEED);
        let live = rr_cmd::record_session_with(
            &ctx,
            "Graph500",
            PolicySpec::HardenedCapped(Watts(185.0)),
            Some(&plan),
            Some(RetryPolicy::default()),
        )
        .expect("Graph500 in suite");
        assert!(
            live.events
                .iter()
                .any(|e| matches!(e, SessionEvent::ActuationResolved { .. })),
            "{device}: the retry shim resolved no actuation"
        );
        let artifact = codec::decode(&live.bytes).expect("a recorded session decodes");
        let replayed = rr_cmd::replay_session(&ctx, &artifact).expect("the session replays");
        assert!(
            replayed.divergence.is_none(),
            "{device}: replay diverged:\n{}",
            differ::diff_report(&artifact, &replayed.events)
        );
        assert!(
            replayed.replay_error.is_none(),
            "{device}: {:?}",
            replayed.replay_error
        );
        assert_eq!(
            replayed.run.ed2().to_bits(),
            live.run.ed2().to_bits(),
            "{device}"
        );
    }
}

/// A session replays only on the device it was recorded on. Replaying it
/// on any other catalog device is refused before it runs, with an error
/// that names the replaying device and the `--device` flag, instead of a
/// divergence at the first decision.
#[test]
fn sessions_replay_only_on_their_recording_device() {
    let contexts: Vec<(&str, Context)> = DeviceSpec::catalog()
        .into_iter()
        .map(|d| {
            let spec = DeviceSpec::lookup(d).expect("catalog names resolve");
            (d, Context::for_device(spec))
        })
        .collect();
    for (recorded_on, ctx) in &contexts {
        let live = rr_cmd::record_session(ctx, "MaxFlops", PolicySpec::Baseline, None)
            .expect("MaxFlops in suite");
        let own = rr_cmd::replay_session(ctx, &live.events).expect("replays on its own device");
        assert!(
            own.divergence.is_none(),
            "{recorded_on}: replay diverged:\n{}",
            differ::diff_report(&live.events, &own.events)
        );
        for (replayed_on, other) in contexts.iter().filter(|(d, _)| d != recorded_on) {
            let Err(err) = rr_cmd::replay_session(other, &live.events) else {
                panic!("a {recorded_on} session replayed on {replayed_on}");
            };
            assert!(
                err.contains(&format!("off the {replayed_on} grid")) && err.contains("--device"),
                "{recorded_on} on {replayed_on}: {err}"
            );
        }
    }
}

/// Applies `f` to event `i` of a decoded golden stream.
fn mutated(events: &[SessionEvent], i: usize, f: impl FnOnce(&mut SessionEvent)) -> Vec<SessionEvent> {
    let mut out = events.to_vec();
    f(&mut out[i]);
    out
}

fn golden_chaos_events() -> Vec<SessionEvent> {
    codec::decode(GOLDEN_CHAOS).expect("golden decodes")
}

/// Index of the first event matching `pred`.
fn find(events: &[SessionEvent], pred: impl Fn(&SessionEvent) -> bool) -> usize {
    events.iter().position(pred).expect("event present in golden")
}

#[test]
fn differ_pinpoints_a_mutated_fault_draw() {
    let events = golden_chaos_events();
    let i = find(&events, |e| matches!(e, SessionEvent::Actuation { .. }));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Actuation { kind, .. } = e else { unreachable!() };
        use harmonia_repro::sim::FaultKind;
        *kind = if *kind == FaultKind::DvfsDeny { FaultKind::DvfsDelay } else { FaultKind::DvfsDeny };
    });
    let div = differ::first_divergence(&events, &bad).expect("mutation must diverge");
    assert_eq!(div.index, i, "differ must localize the mutated fault draw exactly");
    assert!(div.expected.is_some() && div.actual.is_some());
    // And nothing else differs: the streams agree on both sides of it.
    assert_eq!(events[..i], bad[..i]);
    assert_eq!(events[i + 1..], bad[i + 1..]);
}

#[test]
fn differ_pinpoints_a_mutated_noise_draw() {
    let events = golden_chaos_events();
    // A mid-session sample: flip the lowest mantissa bit of its time —
    // the smallest representable measurement-noise perturbation.
    let i = find(&events, |e| matches!(e, SessionEvent::Sample { iteration, .. } if *iteration == 2));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Sample { time_s, .. } = e else { unreachable!() };
        *time_s = f64::from_bits(time_s.to_bits() ^ 1);
    });
    let div = differ::first_divergence(&events, &bad).expect("mutation must diverge");
    assert_eq!(div.index, i, "differ must localize the mutated noise draw exactly");
    let rendered = div.render();
    assert!(rendered.contains("time_s"), "delta must name the field:\n{rendered}");
}

#[test]
fn differ_pinpoints_a_mutated_counter_draw() {
    let events = golden_chaos_events();
    let i = find(&events, |e| matches!(e, SessionEvent::Sample { iteration, .. } if *iteration == 1));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Sample { counters, .. } = e else { unreachable!() };
        counters.valu_busy_pct += 17.0;
    });
    let div = differ::first_divergence(&events, &bad).expect("mutation must diverge");
    assert_eq!(div.index, i, "differ must localize the mutated counter draw exactly");
    let rendered = div.render();
    assert!(
        rendered.contains("counters.valu_busy_pct"),
        "delta must name the counter field:\n{rendered}"
    );
}

/// End-to-end damage localization: replaying a trace with one mutated
/// counter draw re-executes from the damaged artifact, and diffing the
/// replay against the *original* recording still pinpoints the mutated
/// event as the first divergence — the governor consumed the bad counters
/// only at and after that point.
#[test]
fn replaying_a_mutated_trace_localizes_the_damage() {
    let ctx = Context::new();
    let events = golden_chaos_events();
    let i = find(&events, |e| matches!(e, SessionEvent::Sample { iteration, .. } if *iteration == 1));
    let bad = mutated(&events, i, |e| {
        let SessionEvent::Sample { counters, .. } = e else { unreachable!() };
        counters.valu_busy_pct += 17.0;
    });
    let replayed = rr_cmd::replay_session(&ctx, &bad).expect("mutated trace still replays");
    let div = differ::first_divergence(&events, &replayed.events)
        .expect("replay of a damaged trace must diverge from the original");
    assert_eq!(
        div.index, i,
        "first divergence vs the original recording must be the mutated draw itself"
    );
}
