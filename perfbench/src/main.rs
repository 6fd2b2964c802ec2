//! The repository benchmark: four closed-loop workloads over the Harmonia
//! workspace, each with one client that issues the next op when the last
//! one completes.
//!
//! ```text
//! harmonia-perfbench --workload <repro|session|chaos-rr|fleet-warm>
//!                    --seed <n> --seconds <n> --trace <0|1> [--rev <git rev>]
//! harmonia-perfbench --workload repro --bless
//! ```
//!
//! With `--trace 0` the run sets the workload up five times; after each
//! set-up and one untimed warm-up op it times ops for a fifth of
//! `--seconds`, each after a fixed reference task that is timed too, and
//! it prints the end-to-end metrics. With `--trace 1` it
//! times ops for half the time untraced and half traced, checks that both
//! produced bit-identical outputs, prints the per-layer metrics and a
//! self-time attribution table, and writes every span to `out/`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--bless` rewrites `repro_digests.txt` from one reproduction.

mod chaos;
mod fleet;
mod harness;
mod metrics;
mod repro;
mod session;
mod trace;
mod util;
mod wrap;

use harmonia_types::session::{DEVICE_ENV, FAULT_SEED_ENV, THREADS_ENV, TRACE_ENV};
use harmonia_types::{Session, DEFAULT_FAULT_SEED};
use harness::{Harness, Workload, EXECUTORS};
use metrics::{Metric, END_TO_END};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Tracer, SETUP_OP};

/// Segments of an untraced run, each with its own set-up; `setup_s` is
/// the median of their set-up times.
const SEGMENTS: usize = 5;
/// The traced phase stops early once this many spans are held in memory.
const SPAN_BUDGET: usize = 250_000;
/// The catalog device every workload runs on.
const DEVICE: &str = "hd7970";

const USAGE: &str = "usage: harmonia-perfbench --workload <repro|session|chaos-rr|fleet-warm> --seed <n> --seconds <n> --trace <0|1> [--rev <rev>] [--bless]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Repro,
    Session,
    ChaosRr,
    FleetWarm,
}

impl Kind {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "repro" => Ok(Self::Repro),
            "session" => Ok(Self::Session),
            "chaos-rr" => Ok(Self::ChaosRr),
            "fleet-warm" => Ok(Self::FleetWarm),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Repro => "repro",
            Self::Session => "session",
            Self::ChaosRr => "chaos-rr",
            Self::FleetWarm => "fleet-warm",
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    bless: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut rev = "unknown".to_string();
        let mut bless = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value()?)?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--rev" => rev = value()?,
                "--bless" => bless = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        if bless {
            return Ok(Self {
                kind,
                seed: 0,
                seconds: 0,
                trace: false,
                rev,
                bless,
            });
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            kind,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            rev,
            bless,
        })
    }
}

/// Pins the `HARMONIA_*` knobs for this process (the workspace reads them
/// on every `Runtime::new` and pool creation) instead of inheriting them,
/// and returns the explicit session the workloads build runtimes from.
fn pin_environment() -> Session {
    for (key, _) in
        std::env::vars_os().filter(|(k, _)| k.to_string_lossy().starts_with("HARMONIA_"))
    {
        std::env::remove_var(key);
    }
    std::env::set_var(THREADS_ENV, EXECUTORS.to_string());
    std::env::set_var(TRACE_ENV, "0");
    std::env::set_var(FAULT_SEED_ENV, DEFAULT_FAULT_SEED.to_string());
    std::env::set_var(DEVICE_ENV, DEVICE);
    let session = Session::from_env();
    assert!(
        !session.trace() && session.threads() == Some(EXECUTORS),
        "pinned session"
    );
    session
}

/// Where traces and the repro CSVs go: `out/` beside this package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Sets `kind` up on `h` and hands it to `f`.
fn with_workload<R>(
    kind: Kind,
    h: &Harness,
    seed: u64,
    f: impl FnOnce(&mut dyn Workload) -> R,
) -> Result<R, String> {
    Ok(match kind {
        Kind::Repro => {
            let csv = out_dir().join(format!("repro-csv-{}", std::process::id()));
            let result = f(&mut repro::Repro::new(h, &csv)?);
            // Best effort: the directory only holds this run's CSVs.
            let _ = std::fs::remove_dir_all(&csv);
            result
        }
        Kind::Session => f(&mut session::SessionBench::new(h, seed)),
        Kind::ChaosRr => f(&mut chaos::ChaosBench::new(h, seed)),
        Kind::FleetWarm => f(&mut fleet::FleetBench::new(h, seed)),
    })
}

/// What a timed loop measured.
struct Loop {
    /// Latencies of the timed ops; the warm-up op is checked, not timed.
    latencies: Vec<Duration>,
    /// Latencies of the reference task, timed before each op.
    references: Vec<Duration>,
    /// The timed window, less the reference tasks.
    window: Duration,
    failed: u64,
    /// Why the first failed op failed.
    first_failure: Option<String>,
    cpu: Duration,
    ed2_ratio: f64,
    fingerprint: String,
}

impl Loop {
    fn ops_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.window.as_secs_f64()
    }

    /// Ops whose outputs were checked: the timed ones and the warm-up.
    fn checked(&self) -> u64 {
        self.latencies.len() as u64 + 1
    }
}

/// Runs one untimed op so the timed ones start warm, and checks it: the
/// first op pays first-touch costs a steady stream of ops does not. Its
/// time counts towards set-up, which ends at the first timed op.
fn warm_up(w: &mut dyn Workload) -> Result<(), String> {
    w.op();
    w.check().map_err(|e| format!("warm-up op: {e}"))
}

/// Runs ops on `w` until `seconds` have passed (or, when tracing, the span
/// budget is spent), checking each op's outputs after it is timed. Before
/// each op it times [`util::reference_task`], which reads the host's speed
/// at that moment, as often as it takes to fill a twentieth of the last
/// op's latency: long ops then get as many reference samples per second
/// as short ones. `warm` is the check of the warm-up op that preceded
/// them.
fn timed_loop(
    w: &mut dyn Workload,
    tracer: &Tracer,
    seconds: Duration,
    warm: Result<(), String>,
) -> Result<Loop, String> {
    let root = tracer.name("op");
    let cpu = util::process_cpu()?;
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut references = Vec::new();
    let mut failed = u64::from(warm.is_err());
    let mut first_failure = warm.err();
    while start.elapsed() < seconds && tracer.len() < SPAN_BUDGET {
        let op = u32::try_from(latencies.len() + 1).map_err(|e| e.to_string())?;
        let share = latencies.last().map_or(Duration::ZERO, |d| *d / 20);
        let r = Instant::now();
        loop {
            let t = Instant::now();
            util::reference_task();
            references.push(t.elapsed());
            if r.elapsed() >= share {
                break;
            }
        }
        let t = Instant::now();
        tracer.op(op, root, || w.op());
        latencies.push(t.elapsed());
        if let Err(e) = w.check() {
            failed += 1;
            first_failure.get_or_insert(format!("op {op}: {e}"));
        }
    }
    let window = start.elapsed().saturating_sub(references.iter().sum());
    Ok(Loop {
        cpu: util::process_cpu()?.saturating_sub(cpu),
        latencies,
        references,
        window,
        failed,
        first_failure,
        ed2_ratio: w.ed2_ratio(),
        fingerprint: w.fingerprint(),
    })
}

/// The untraced run: the end-to-end metrics. The run is split into
/// [`SEGMENTS`] equal segments, each set up afresh, so the set-ups that
/// `setup_s` is the median of are spread over the run like its ops.
fn untraced(args: &Args, session: &Session, process_start: Instant) -> Result<Outcome, String> {
    let tracer = Tracer::off();
    let segment = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut describe = String::new();
    for i in 0..SEGMENTS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let h = Harness::new(&tracer, session.clone());
        let run = with_workload(args.kind, &h, args.seed, |w| {
            let warm = warm_up(w);
            setups.push(start.elapsed().as_secs_f64());
            describe = w.describe();
            timed_loop(w, &tracer, segment, warm)
        })??;
        runs.push(run);
    }
    let mut lat: Vec<Duration> = runs
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    lat.sort_unstable();
    let mut references: Vec<Duration> = runs
        .iter()
        .flat_map(|r| r.references.iter().copied())
        .collect();
    references.sort_unstable();
    let timed = lat.len() as u64;
    let attempted: u64 = runs.iter().map(Loop::checked).sum();
    let window: Duration = runs.iter().map(|r| r.window).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let (ed2_ratio, fingerprint) = (runs[0].ed2_ratio, runs[0].fingerprint.clone());
    let consistent = runs
        .iter()
        .all(|r| r.fingerprint == fingerprint && r.ed2_ratio.to_bits() == ed2_ratio.to_bits());
    let (tail, pct, beyond) = util::tail(&lat);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let p50 = util::median(&mut lat.iter().map(|d| ms(*d)).collect::<Vec<_>>());
    let (op_p80, ref_p80) = (util::quantile(&lat, 0.8), util::quantile(&references, 0.8));
    let values = [
        util::median(&mut setups.clone()),
        op_p80.as_secs_f64() / ref_p80.as_secs_f64(),
        util::peak_rss_mb()?,
        ed2_ratio,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    let printed = vec![
        Metric::new("ops_per_s", timed as f64 / window.as_secs_f64(), "ops/s"),
        Metric::new("op_p50_ms", p50, "ms"),
        Metric::new("op_p80_ms", ms(op_p80), "ms"),
        Metric::new("op_tail_ms", ms(tail), "ms"),
        Metric::new("reference_p80_ms", ms(ref_p80), "ms"),
        Metric::new("failed_op_share", failed as f64 / attempted as f64, "ratio"),
    ];

    let mut text = String::new();
    let _ = writeln!(text, "  {describe}");
    let _ = writeln!(
        text,
        "  setup_s is the median of {SEGMENTS} set-ups, one per segment: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        text,
        "  {timed} timed ops in {:.3} s after {SEGMENTS} warm-up ops; op_tail_ms is p{pct:.2} ({beyond} of {timed} ops beyond it)",
        window.as_secs_f64()
    );
    let _ = writeln!(
        text,
        "  failed_op_share: {failed} of {attempted} checked ops failed their output check"
    );
    if let Some(e) = runs.iter().find_map(|r| r.first_failure.as_ref()) {
        let _ = writeln!(text, "  first failed op: {e}");
    }
    let _ = writeln!(
        text,
        "  outputs identical across the {SEGMENTS} segments: {} ({fingerprint})",
        if consistent { "yes" } else { "NO" }
    );
    Ok(Outcome {
        text,
        correct: failed == 0 && consistent && ed2_ratio.is_finite(),
        attempted,
        failed,
        metrics,
        printed,
    })
}

/// The traced run: per-layer metrics, attribution, and the proof that
/// tracing leaves every output bit-identical.
fn traced(args: &Args, session: &Session) -> Result<Outcome, String> {
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let off = Tracer::off();
    let h = Harness::new(&off, session.clone());
    let plain = with_workload(args.kind, &h, args.seed, |w| {
        let warm = warm_up(w);
        timed_loop(w, &off, half, warm)
    })??;
    drop(h);

    let on = Tracer::on(SPAN_BUDGET);
    let setup = on.begin_op(SETUP_OP, on.name("setup"));
    let h = Harness::new(&on, session.clone());
    let (run, mut extra) = with_workload(args.kind, &h, args.seed, |w| -> Result<_, String> {
        let warm = warm_up(w);
        on.end_op(setup);
        let run = timed_loop(w, &on, half, warm)?;
        Ok((run, w.extra_metrics()))
    })??;
    if args.kind == Kind::FleetWarm {
        extra.push((
            "fleet.cpu_per_wall",
            plain.cpu.as_secs_f64() / plain.window.as_secs_f64(),
        ));
    }
    let ops = run.latencies.len() as u64;
    let setup_profile = on.profile(|op| op == SETUP_OP);
    let ops_profile = on.profile(|op| op != SETUP_OP);
    let metrics = metrics::per_layer(&setup_profile, &ops_profile, ops, &extra);

    let identical = plain.fingerprint == run.fingerprint
        && plain.ed2_ratio.to_bits() == run.ed2_ratio.to_bits();
    let spans = out_dir().join(format!("spans-{}.csv", args.kind.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&spans, on.to_csv()))
        .map_err(|e| format!("{}: {e}", spans.display()))?;

    let mut text = String::new();
    let _ = writeln!(text, "  untraced: {}", plain.fingerprint);
    let _ = writeln!(text, "  traced:   {}", run.fingerprint);
    let _ = writeln!(
        text,
        "  traced and untraced outputs bit-identical: {}",
        if identical { "yes" } else { "NO" }
    );
    let _ = writeln!(
        text,
        "  tracing overhead: {:.1}% ({:.3} ops/s untraced over {} ops, {:.3} ops/s traced over {ops} ops)",
        100.0 * (1.0 - run.ops_per_s() / plain.ops_per_s()),
        plain.ops_per_s(),
        plain.latencies.len(),
        run.ops_per_s(),
    );
    if let Some(e) = plain.first_failure.as_ref().or(run.first_failure.as_ref()) {
        let _ = writeln!(text, "  first failed op: {e}");
    }
    let _ = writeln!(text, "  {} spans written to {}", on.len(), spans.display());
    text.push_str(&attribution(&ops_profile, ops));
    Ok(Outcome {
        text,
        correct: identical && plain.failed == 0 && run.failed == 0 && run.ed2_ratio.is_finite(),
        attempted: plain.checked() + run.checked(),
        failed: plain.failed + run.failed,
        metrics,
        printed: Vec::new(),
    })
}

/// Self time per span name over the traced ops, slowest first. The op
/// root's own self time is the work no span covers, printed as `other`.
fn attribution(ops_profile: &trace::Profile, ops: u64) -> String {
    let op_ns = ops_profile.get("op").total_ns.max(1) as f64;
    let mut rows: Vec<(&str, trace::Agg)> = ops_profile
        .spans
        .iter()
        .map(|(name, agg)| (if name == "op" { "other" } else { name.as_str() }, *agg))
        .collect();
    rows.sort_by_key(|(_, agg)| std::cmp::Reverse(agg.self_ns));
    let mut text = format!("  attribution over {ops} traced ops (self time per op):\n");
    for (name, agg) in rows {
        let _ = writeln!(
            text,
            "    {name:<40} {:>10.4} ms/op {:>6.2}%  {:>9} calls/op",
            agg.self_ns as f64 / 1e6 / ops.max(1) as f64,
            100.0 * agg.self_ns as f64 / op_ns,
            agg.calls / ops.max(1)
        );
    }
    text
}

/// One run's result.
struct Outcome {
    text: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Metrics printed with them but not in the result line.
    printed: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("{} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Runs one repro op and rewrites `repro_digests.txt` from its CSVs.
fn bless(session: &Session) -> Result<(), String> {
    let h = Harness::new(&Tracer::off(), session.clone());
    let csv = out_dir().join("bless");
    let mut repro = repro::Repro::new(&h, &csv)?;
    repro.op();
    let text: String = repro
        .digests()?
        .iter()
        .map(|(id, d)| format!("{id} {d:016x}\n"))
        .collect();
    let _ = std::fs::remove_dir_all(&csv);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("repro_digests.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let session = pin_environment();
    if args.bless {
        return bless(&session);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} executors={EXECUTORS} rev={} device={DEVICE}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev,
    );
    let outcome = if args.trace {
        traced(args, &session)?
    } else {
        untraced(args, &session, process_start)?
    };
    print!("{}", outcome.text);
    if !outcome.printed.is_empty() {
        println!(
            "  the first {} metrics are the result line's; the rest are printed only",
            outcome.metrics.len()
        );
    }
    for m in outcome.metrics.iter().chain(&outcome.printed) {
        println!(
            "  {:<40} {:>16.6} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            m.source()
        );
    }
    println!("{}", outcome.json()?);
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops run through the timing wrappers produce bit-identical outputs
    /// (ED² ratios, report and trace digests, store and cache accounting)
    /// to ops run on the bare models and stacks.
    #[test]
    fn tracing_leaves_every_output_bit_identical() {
        let session = Session::default().with_threads(Some(EXECUTORS));
        for kind in [Kind::Session, Kind::ChaosRr, Kind::FleetWarm] {
            let run = |tracer: &Tracer| {
                let h = Harness::new(tracer, session.clone());
                with_workload(kind, &h, 1, |w| {
                    for _ in 0..2 {
                        w.op();
                        let _ = w.check();
                    }
                    (w.ed2_ratio().to_bits(), w.fingerprint())
                })
                .unwrap()
            };
            let on = Tracer::on(1 << 16);
            assert_eq!(run(&Tracer::off()), run(&on), "{kind:?}");
            assert!(on
                .profile(|op| op == SETUP_OP)
                .spans
                .contains_key("core.training"));
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = args("--workload fleet-warm --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::FleetWarm, 7, 3, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload repro --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload repro --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload repro --seconds 1 --trace 0").is_err());
    }
}
