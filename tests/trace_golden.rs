//! Golden decision trace: `harmonia-experiments trace Graph500` must be
//! byte-stable — same events, same JSONL bytes — across runs, build
//! profiles, and worker-pool sizes, and the committed golden stream must
//! replay to exactly the configuration sequence of a live run. The same
//! trace is the source of truth for the residency/convergence figures
//! (15, 16, 18), asserted here against independently recomputed series.

use harmonia::telemetry;
use harmonia_experiments::report::pct;
use harmonia_experiments::{run, trace_cmd, Context};
use harmonia_rr::differ;
use harmonia_types::{DeviceSpec, Tunable};
use harmonia_workloads::suite;

const GOLDEN: &str = include_str!("golden/trace_graph500.jsonl");

#[test]
fn graph500_trace_matches_the_committed_golden_file() {
    let ctx = Context::new();
    let traced = trace_cmd::trace_app(&ctx, "Graph500").expect("Graph500 in suite");
    if traced.jsonl == GOLDEN {
        return;
    }
    // One JSONL line per event: diff through the semantic differ so the
    // failure names the first divergent *event*, not a byte offset.
    let golden_lines: Vec<&str> = GOLDEN.lines().collect();
    let live_lines: Vec<&str> = traced.jsonl.lines().collect();
    match differ::first_divergence(&golden_lines, &live_lines) {
        Some(div) => panic!(
            "decision trace drifted from tests/golden/trace_graph500.jsonl; if the \
             change is intended, regenerate with `harmonia-experiments trace Graph500`\n{div}"
        ),
        None => panic!(
            "decision trace drifted from tests/golden/trace_graph500.jsonl in \
             whitespace only (trailing newline?); regenerate with \
             `harmonia-experiments trace Graph500` if intended"
        ),
    }
}

#[test]
fn hd7970_catalog_entry_reproduces_the_golden_trace_bit_for_bit() {
    // The device catalog must not perturb the legacy path: selecting
    // `hd7970` explicitly (as `--device hd7970` / `HARMONIA_DEVICE=hd7970`
    // do) yields the same decision-trace bytes as the default context.
    let ctx = Context::for_device(DeviceSpec::hd7970());
    let traced = trace_cmd::trace_app(&ctx, "Graph500").expect("Graph500 in suite");
    assert_eq!(
        traced.jsonl, GOLDEN,
        "Context::for_device(hd7970) drifted from the committed golden trace"
    );
}

#[test]
fn golden_trace_replays_the_live_config_sequence() {
    let events = telemetry::from_jsonl(GOLDEN).expect("golden stream parses");
    let ctx = Context::new();
    let traced = trace_cmd::trace_app(&ctx, "Graph500").expect("Graph500 in suite");
    // The replayed per-invocation configuration sequence is exactly the
    // live governor's, and the golden stream is consistent with the live
    // run's invocation count and decisions.
    assert_eq!(
        telemetry::config_sequence(&events),
        telemetry::config_sequence(&traced.events),
        "replayed config sequence diverged from the live run"
    );
    assert!(
        telemetry::matches_run(&events, &traced.run),
        "golden trace is inconsistent with the live RunReport"
    );
    assert!(
        !telemetry::config_sequence(&events).is_empty(),
        "golden trace carries no kernel invocations"
    );
}

#[test]
fn figure_series_come_from_the_decision_trace() {
    // On every catalog device: the trace records each device's own clocks,
    // so no device's residency comes out empty.
    for device in DeviceSpec::catalog() {
        let spec = DeviceSpec::lookup(device).expect("catalog names resolve");
        figure_series_match_the_trace(&Context::for_device(spec), device);
    }
}

fn figure_series_match_the_trace(ctx: &Context, device: &str) {
    let eval = ctx.evaluate_app(&suite::graph500());
    let summary = telemetry::summarize(&eval.harmonia_trace);

    // Fig 15's "overall" rows are the memory-frequency residency
    // distribution of the decision trace, verbatim.
    let fig15 = run(ctx, "fig15").expect("fig15 exists");
    let overall: Vec<(String, String)> = fig15
        .rows
        .iter()
        .filter(|r| r[0] == "overall")
        .map(|r| (r[1].clone(), r[2].clone()))
        .collect();
    let expected: Vec<(String, String)> = summary
        .residency
        .distribution(Tunable::MemFreq)
        .into_iter()
        .map(|(mhz, frac)| (mhz.to_string(), pct(frac)))
        .collect();
    assert!(
        !expected.is_empty(),
        "{device}: trace produced an empty residency"
    );
    assert_eq!(
        overall, expected,
        "{device}: fig15 series diverged from the trace"
    );

    // Fig 16 lists every tunable's distribution from the same trace.
    let fig16 = run(ctx, "fig16").expect("fig16 exists");
    for t in Tunable::ALL {
        let rows: Vec<(String, String)> = fig16
            .rows
            .iter()
            .filter(|r| r[0] == t.to_string())
            .map(|r| (r[1].clone(), r[2].clone()))
            .collect();
        let expected: Vec<(String, String)> = summary
            .residency
            .distribution(t)
            .into_iter()
            .map(|(v, frac)| (v.to_string(), pct(frac)))
            .collect();
        assert!(!expected.is_empty(), "{device}: empty {t} residency");
        assert_eq!(
            rows, expected,
            "{device}: fig16 series for {t} diverged from the trace"
        );
    }

    // Fig 18's settle column is the trace's last config-change iteration.
    let fig18 = run(ctx, "fig18").expect("fig18 exists");
    let settle = &fig18
        .rows
        .iter()
        .find(|r| r[0] == "Graph500")
        .expect("Graph500 row in fig18")[4];
    assert_eq!(
        settle,
        &telemetry::settle_iteration(&eval.harmonia_trace).to_string(),
        "{device}: fig18 settle column diverged from the trace"
    );
}
