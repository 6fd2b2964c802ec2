//! `chaos-rr`: hardened stacks recorded under seeded chaos plans, then
//! encoded, decoded, replayed and diffed.

use crate::harness::{same_as_first, Harness, Workload};
use crate::session::specs;
use crate::trace::Name;
use crate::util::{fnv1a, SplitMix};
use harmonia::governor::{PolicySpec, PolicyStats};
use harmonia::runtime::{RetryPolicy, Runtime};
use harmonia_experiments::rr_cmd::chaos_plan;
use harmonia_power::Activity;
use harmonia_rr::{codec, differ, Recorder, ReplayModel, Replayer, SessionEvent};
use harmonia_sim::{ActuationOutcome, FaultPlan, FaultyModel, TimingModel};
use harmonia_stats::geometric_mean;
use harmonia_types::Watts;
use harmonia_workloads::{suite, Application};

/// The hardened registry stacks the op records.
pub const STACKS: [&str; 3] = ["hardened:harmonia", "hardened:capped", "hardened:ladder"];

/// How far over its cap the card may draw before an interval counts as a
/// violation: the capped governor's 5% enforcement tolerance.
const CAP_TOLERANCE: f64 = 1.05;

/// One recorded session of the op: an app, a stack and its chaos plan.
struct Chaos {
    app: usize,
    spec: PolicySpec,
    plan: FaultPlan,
}

impl Chaos {
    /// The power cap the stack enforces, if it enforces one.
    fn cap(&self) -> Option<Watts> {
        match self.spec {
            PolicySpec::HardenedCapped(cap) | PolicySpec::HardenedLadder(cap) => Some(cap),
            _ => None,
        }
    }
}

/// Span and counter names, interned once.
struct Names {
    runtime: Name,
    record: Name,
    encode: Name,
    decode: Name,
    replay: Name,
    diff: Name,
    bytes: Name,
    events: Name,
    sanitizer_rejects: Name,
    rung_demotions: Name,
    fallback_engagements: Name,
    cap_violations: Name,
    retried: Name,
    timed_out: Name,
    rolled_back: Name,
}

/// One op: the 14 suite apps under the three hardened stacks, 42 sessions,
/// each recorded under its own chaos plan with the retry shim engaged,
/// encoded, decoded, replayed from the decoded stream and diffed against
/// the recording. The plans are drawn once from the seed, so every op
/// repeats the same sessions.
pub struct ChaosBench<'h> {
    h: &'h Harness,
    apps: Vec<Application>,
    sessions: Vec<Chaos>,
    /// Clean `baseline` ED² per app: the reference.
    baseline: Vec<f64>,
    names: Names,
    /// The first session of the last op that did not replay bit-exactly.
    last_error: Option<String>,
    /// ED² bit patterns and encoded traces of the last op's recordings.
    last: (Vec<u64>, Vec<Vec<u8>>),
    reference: Option<(Vec<u64>, Vec<Vec<u8>>)>,
    /// The first interval of the reference recordings in which the card
    /// drew more than its cap allows. Later ops must record the same
    /// bytes, so they ran the same intervals.
    overdraw: Option<String>,
}

impl<'h> ChaosBench<'h> {
    /// Draws the plans from `seed` and runs the clean baseline reference.
    pub fn new(h: &'h Harness, seed: u64) -> Self {
        let apps = suite::all();
        let mut rng = SplitMix::new(seed);
        let sessions: Vec<Chaos> = specs(&STACKS)
            .into_iter()
            .flat_map(|spec| (0..apps.len()).map(move |app| (app, spec)))
            .map(|(app, spec)| Chaos {
                app,
                spec,
                plan: chaos_plan(rng.next_u64()),
            })
            .collect();
        let baseline_spec = "baseline".parse().expect("a registry name");
        let baseline = apps
            .iter()
            .map(|app| {
                let runtime = Runtime::from_session(h.model(), &h.power, &h.session);
                runtime
                    .run(app, &mut h.policy(baseline_spec).governor)
                    .ed2()
            })
            .collect();
        let t = &h.tracer;
        let names = Names {
            runtime: t.name("core.runtime"),
            record: t.name("rr.record"),
            encode: t.name("rr.encode"),
            decode: t.name("rr.decode"),
            replay: t.name("rr.replay"),
            diff: t.name("rr.diff"),
            bytes: t.name("rr.bytes"),
            events: t.name("rr.events"),
            sanitizer_rejects: t.name("core.sanitizer_rejects"),
            rung_demotions: t.name("core.rung_demotions"),
            fallback_engagements: t.name("core.fallback_engagements"),
            cap_violations: t.name("core.cap_violations"),
            retried: t.name("core.actuation.retried"),
            timed_out: t.name("core.actuation.timed_out"),
            rolled_back: t.name("core.actuation.rolled_back"),
        };
        Self {
            last: (Vec::new(), Vec::new()),
            h,
            apps,
            sessions,
            baseline,
            names,
            last_error: None,
            reference: None,
            overdraw: None,
        }
    }

    /// Records, round-trips and replays one session. Returns its ED² bits,
    /// its encoded trace, and why its check failed: the replay diverged.
    fn run_one(&self, chaos: &Chaos) -> (u64, Vec<u8>, Result<(), String>) {
        let (h, n, t) = (self.h, &self.names, &self.h.tracer);
        let app = &self.apps[chaos.app];
        let start = SessionEvent::SessionStart {
            app: app.name.clone(),
            policy: chaos.spec.name(),
            fault_seed: chaos.plan.seed(),
        };

        let policy = h.policy(chaos.spec);
        let (stats, mut governor) = (policy.stats, policy.governor);
        let (recorded_run, recorded) = t.span(n.record, || {
            let recorder = Recorder::new();
            recorder.record(start.clone());
            let faulty = FaultyModel::new(h.model(), chaos.plan.clone());
            let runtime = Runtime::from_session(&faulty, &h.power, &h.session)
                .with_faults(&chaos.plan)
                .with_recorder(recorder.clone())
                .with_actuator(RetryPolicy::default());
            let run = t.span(n.runtime, || runtime.run(app, &mut governor));
            (run, recorder.events())
        });
        let bytes = t.span(n.encode, || codec::encode(&recorded));
        let ed2 = recorded_run.ed2().to_bits();
        let decoded = match t.span(n.decode, || codec::decode(&bytes)) {
            Ok(decoded) => decoded,
            Err(e) => return (ed2, bytes, Err(format!("decode: {e}"))),
        };

        let mut replay_governor = h.policy(chaos.spec).governor;
        let (replayed_run, replayed, replay_error) = t.span(n.replay, || {
            let replayer = Replayer::new(decoded);
            let model = h.wrap_model(
                ReplayModel::new(replayer.clone(), *h.model().gpu()),
                "rr.replay",
            );
            let recorder = Recorder::new();
            recorder.record(start);
            let runtime = Runtime::from_session(&*model, &h.power, &h.session)
                .with_replay(replayer.clone())
                .with_recorder(recorder.clone());
            let run = t.span(n.runtime, || runtime.run(app, &mut replay_governor));
            (run, recorder.events(), replayer.error())
        });
        let divergence = t.span(n.diff, || differ::first_divergence(&recorded, &replayed));

        self.count(&stats, &recorded, bytes.len());
        let check = if let Some(d) = divergence {
            Err(format!("replay diverged: {}", d.render()))
        } else if let Some(e) = replay_error {
            Err(format!("replay cursor: {e}"))
        } else if replayed_run.ed2().to_bits() != ed2 {
            Err("replayed ED² differs from the recording".to_string())
        } else {
            Ok(())
        };
        (ed2, bytes, check)
    }

    /// The first recorded interval, over the sessions with a cap, in which
    /// the card drew more than the cap and its tolerance allow.
    ///
    /// The draw is the power model at the configuration the interval ran
    /// at, with the activity of the bare model's counters there. Chaos
    /// faults corrupt what the governor *reads*, not what the card does,
    /// so the recorded counters are not used: the stack's own
    /// `PolicyStats::cap_violations` projects from them, and a counter
    /// spike that still looks physical makes it count intervals in which
    /// the card stayed under its cap.
    fn card_overdraw(&self, traces: &[Vec<u8>]) -> Option<String> {
        let h = self.h;
        self.sessions.iter().zip(traces).find_map(|(chaos, bytes)| {
            let cap = chaos.cap()?;
            let limit = cap.value() * CAP_TOLERANCE;
            let app = &self.apps[chaos.app];
            let session = format!("{} under {} with plan seed {}", app.name, chaos.spec, chaos.plan.seed());
            let events = match codec::decode(bytes) {
                Ok(events) => events,
                Err(e) => return Some(format!("{session}: decode: {e}")),
            };
            events.iter().find_map(|event| {
                let SessionEvent::Sample {
                    kernel,
                    iteration,
                    cfg,
                    ..
                } = event
                else {
                    return None;
                };
                let Some(hw) = cfg.to_hw() else {
                    return Some(format!("{session}: {kernel} ran at {cfg}, off the grid"));
                };
                let Some(profile) = app.kernels.iter().find(|k| &k.name == kernel) else {
                    return Some(format!("{session}: unknown kernel {kernel}"));
                };
                let c = h.bare_model().simulate(hw, profile, *iteration).counters;
                let activity = Activity {
                    valu_activity: c.valu_activity(),
                    dram_bytes_per_sec: c.dram_bytes_per_sec(),
                    dram_traffic_fraction: c.ic_activity,
                };
                let draw = h.power.card_pwr(hw, &activity).value();
                (draw > limit).then(|| {
                    format!(
                        "{session}: {kernel} iteration {iteration} at {hw} drew {draw:.1} W, over the {limit:.2} W the {} W cap allows",
                        cap.value()
                    )
                })
            })
        })
    }

    /// Records the session's hardening and recorder counts on the tracer.
    fn count(&self, stats: &PolicyStats, events: &[SessionEvent], bytes: usize) {
        let (n, t) = (&self.names, &self.h.tracer);
        if !t.is_on() {
            return;
        }
        t.count(n.bytes, bytes as u64);
        t.count(n.events, events.len() as u64);
        t.count(n.sanitizer_rejects, stats.sanitizer_rejects());
        t.count(n.rung_demotions, stats.rung_demotions());
        t.count(n.fallback_engagements, stats.fallback_engagements());
        t.count(n.cap_violations, stats.cap_violations());
        for event in events {
            if let SessionEvent::ActuationResolved { outcome, .. } = event {
                let name = match outcome {
                    ActuationOutcome::Retried(_) => n.retried,
                    ActuationOutcome::TimedOut => n.timed_out,
                    ActuationOutcome::RolledBack => n.rolled_back,
                    ActuationOutcome::Applied => continue,
                };
                t.count(name, 1);
            }
        }
    }
}

impl Workload for ChaosBench<'_> {
    fn op(&mut self) {
        let mut error = None;
        let mut ed2 = Vec::with_capacity(self.sessions.len());
        let mut traces = Vec::with_capacity(self.sessions.len());
        for chaos in &self.sessions {
            let (bits, bytes, check) = self.run_one(chaos);
            ed2.push(bits);
            traces.push(bytes);
            if let Err(e) = check {
                error.get_or_insert_with(|| {
                    format!(
                        "{} under {} with plan seed {}: {e}",
                        self.apps[chaos.app].name,
                        chaos.spec,
                        chaos.plan.seed()
                    )
                });
            }
        }
        self.last_error = error;
        self.last = (ed2, traces);
    }

    fn check(&mut self) -> Result<(), String> {
        let first = self.reference.is_none();
        same_as_first(&mut self.reference, &self.last, "ED² and trace bits")?;
        if first {
            self.overdraw = self.card_overdraw(&self.last.1);
        }
        if let Some(e) = self.last_error.take() {
            return Err(e);
        }
        self.overdraw.clone().map_or(Ok(()), Err)
    }

    fn ed2_ratio(&self) -> f64 {
        let Some((ed2, _)) = &self.reference else {
            return f64::NAN;
        };
        let ratios: Vec<f64> = self
            .sessions
            .iter()
            .zip(ed2)
            .map(|(s, &bits)| f64::from_bits(bits) / self.baseline[s.app])
            .collect();
        geometric_mean(&ratios).unwrap_or(f64::NAN)
    }

    fn fingerprint(&self) -> String {
        let Some((ed2, traces)) = &self.reference else {
            return "chaos-rr no op".to_string();
        };
        let bits: Vec<u8> = ed2.iter().flat_map(|b| b.to_le_bytes()).collect();
        format!(
            "chaos-rr ed2-bits={:016x} traces={:016x}",
            fnv1a(&bits),
            fnv1a(&traces.concat())
        )
    }

    fn describe(&self) -> String {
        format!(
            "op = {} chaos sessions ({} apps x {} hardened stacks) recorded, encoded, decoded, replayed and diffed; plan seeds drawn from the seed",
            self.sessions.len(),
            self.apps.len(),
            STACKS.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use harmonia_types::{HwConfig, Session};

    /// The cap check reads the card's draw at the recorded configuration,
    /// whatever the recorded counters say: MaxFlops at full boost overdraws
    /// a 185 W cap even when its counters read idle, and at the slowest
    /// configuration it does not, even when they read saturated.
    #[test]
    fn the_cap_check_reads_the_card_not_the_counters() {
        let h = Harness::new(&Tracer::off(), Session::default());
        let bench = ChaosBench::new(&h, 1);
        let capped = bench
            .sessions
            .iter()
            .position(|s| s.cap().is_some() && bench.apps[s.app].name == "MaxFlops")
            .expect("MaxFlops under a capped stack");
        let kernel = &bench.apps[bench.sessions[capped].app].kernels[0];
        let traces = |cfg: HwConfig, counters: harmonia_sim::CounterSample| {
            let sample = SessionEvent::Sample {
                kernel: kernel.name.clone(),
                iteration: 0,
                cfg: cfg.into(),
                time_s: 1e-3,
                counters,
                stepped_waves: 0,
                fast_forwarded_waves: 0,
            };
            let mut traces = vec![codec::encode(&[]); bench.sessions.len()];
            traces[capped] = codec::encode(&[sample]);
            traces
        };
        let saturated = h
            .bare_model()
            .simulate(HwConfig::max_hd7970(), kernel, 0)
            .counters;

        let boost = bench.card_overdraw(&traces(HwConfig::max_hd7970(), Default::default()));
        assert!(
            boost.is_some_and(|e| e.contains("MaxFlops")),
            "boost overdraws"
        );
        assert_eq!(
            bench.card_overdraw(&traces(HwConfig::min_hd7970(), saturated)),
            None,
            "the slowest configuration stays under the cap"
        );
    }
}
