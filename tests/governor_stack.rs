//! Contracts of the hardening decorators (`harmonia::governor`):
//!
//! * **Trace forwarding** — every decorator forwards the runtime's
//!   `TraceHandle` to its inner governor, so a stacked policy's decision
//!   events reach the primary sink no matter how deep the emitting
//!   governor sits.
//! * **Watchdog telemetry** — a watchdog emits the
//!   `FaultDetected` / `FallbackEngaged` / `FallbackReleased` sequence.
//! * **Ledger wiring** — the cap watchdog's actuation check compares
//!   against the *post-clamp* grant written by the clamp that handed it
//!   its ledger, and still flags a configuration that was never granted.
//! * **Accounting parity** — the hardened capped stack counts exactly the
//!   cap violations the plain capped policy counts on the same run.
//! * **Parked accounting** — a cap violation while the ladder sits on its
//!   safe rung counts as one while parked.

use harmonia::governor::{
    CappedGovernor, DegradeGovernor, Governor, PolicyResources, PolicySpec, SanitizeGovernor,
    WatchdogGovernor,
};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::sanitize::DEFAULT_MAX_BW_GBPS;
use harmonia::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{CounterSample, IntervalModel, KernelProfile};
use harmonia_types::{DeviceSpec, HwConfig, Seconds, Watts};
use harmonia_workloads::suite;

/// A governor that emits one trace event per decision through whatever
/// handle it was given — the probe for the forwarding contract.
struct ProbeGovernor {
    trace: TraceHandle,
}

impl ProbeGovernor {
    fn new() -> Self {
        Self {
            trace: TraceHandle::disabled(),
        }
    }
}

impl Governor for ProbeGovernor {
    fn name(&self) -> &str {
        "probe"
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn decide(&mut self, _kernel: &KernelProfile, _iteration: u64) -> HwConfig {
        self.trace.emit(|| TraceEvent::RunStart {
            app: "probe".to_string(),
            governor: "probe".to_string(),
        });
        HwConfig::max_hd7970()
    }

    fn observe(
        &mut self,
        _kernel: &KernelProfile,
        _iteration: u64,
        _cfg: HwConfig,
        _counters: &CounterSample,
    ) {
    }
}

fn kernel() -> KernelProfile {
    KernelProfile::builder("k").build()
}

/// The HD7970's safe state: 32 CUs at the 500 MHz DPM clock.
fn safe() -> HwConfig {
    DeviceSpec::lookup("hd7970").expect("catalog device").safe_state()
}

fn clean() -> CounterSample {
    CounterSample {
        duration: Seconds(0.01),
        valu_busy_pct: 60.0,
        valu_utilization_pct: 90.0,
        mem_unit_busy_pct: 30.0,
        ic_activity: 0.4,
        norm_vgpr: 0.4,
        norm_sgpr: 0.3,
        valu_insts: 1_000_000,
        dram_bytes: 1e7,
        achieved_bw_gbps: 80.0,
        occupancy_fraction: 0.8,
        l2_hit_rate: 0.5,
        ..CounterSample::default()
    }
}

fn garbage() -> CounterSample {
    CounterSample {
        duration: Seconds(0.01),
        valu_busy_pct: f64::NAN,
        ..CounterSample::default()
    }
}

fn probe_events<G: Governor>(mut g: G) -> usize {
    let handle = TraceHandle::new();
    g.set_trace(handle.clone());
    g.decide(&kernel(), 0);
    handle
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::RunStart { governor, .. } if governor == "probe"))
        .count()
}

#[test]
fn every_layer_forwards_the_trace_handle() {
    let power = PowerModel::hd7970();

    let counters_wd = WatchdogGovernor::counters(ProbeGovernor::new(), safe(), DEFAULT_MAX_BW_GBPS);
    assert_eq!(probe_events(counters_wd), 1, "counter watchdog");

    // The cap watchdog and the ladder take the ledger of the clamp they
    // sit under; the clamp's cap is too generous to bind.
    let cap_wd = CappedGovernor::checked(
        |ledger| WatchdogGovernor::cap(ProbeGovernor::new(), safe(), &power, Watts(185.0), ledger),
        &power,
        Watts(500.0),
    );
    assert_eq!(probe_events(cap_wd), 1, "cap watchdog");

    let ladder = CappedGovernor::checked(
        |ledger| {
            let probe = ProbeGovernor::new;
            DegradeGovernor::new(probe(), probe(), probe(), safe(), DEFAULT_MAX_BW_GBPS, ledger)
        },
        &power,
        Watts(500.0),
    );
    assert_eq!(probe_events(ladder), 1, "ladder");

    let sanitized = SanitizeGovernor::new(ProbeGovernor::new(), DEFAULT_MAX_BW_GBPS);
    assert_eq!(probe_events(sanitized), 1, "sanitizer");

    let capped = CappedGovernor::new(ProbeGovernor::new(), &power, Watts(500.0));
    assert_eq!(probe_events(capped), 1, "cap decorator");
}

#[test]
fn layered_watchdog_emits_the_fault_and_fallback_event_sequence() {
    let handle = TraceHandle::new();
    let mut g = WatchdogGovernor::counters(
        harmonia::governor::BaselineGovernor::new(),
        safe(),
        DEFAULT_MAX_BW_GBPS,
    );
    g.set_trace(handle.clone());
    let k = kernel();
    // THRESHOLD = 3 consecutive anomalies trip the fallback.
    for i in 0..3 {
        let cfg = g.decide(&k, i);
        g.observe(&k, i, cfg, &garbage());
    }
    // BASE_HOLD = 4 clean engaged intervals, then release.
    for i in 3..7 {
        let cfg = g.decide(&k, i);
        assert_eq!(cfg, safe(), "iteration {i} not pinned");
        g.observe(&k, i, cfg, &clean());
    }
    let events = handle.events();
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(
        count(|e| matches!(e, TraceEvent::FaultDetected { .. })),
        3,
        "one FaultDetected per anomalous interval"
    );
    assert_eq!(count(|e| matches!(e, TraceEvent::FallbackEngaged { .. })), 1);
    assert_eq!(count(|e| matches!(e, TraceEvent::FallbackReleased { .. })), 1);
}

#[test]
fn post_clamp_ledger_prevents_actuation_false_trips() {
    let power = PowerModel::hd7970();
    // A cap this tight clamps the baseline's boost decision, so granted
    // (post-clamp) differs from the inner decision (pre-clamp).
    let cap = Watts(150.0);
    let k = kernel();

    // The cap watchdog holds the clamp's ledger: the post-clamp grant is
    // what it checks what ran against, so granted == ran.
    let stats = harmonia::governor::PolicyStats::new();
    let mut wired = CappedGovernor::checked(
        |ledger| {
            let baseline = harmonia::governor::BaselineGovernor::new();
            WatchdogGovernor::cap(baseline, safe(), &power, cap, ledger).with_stats(&stats)
        },
        &power,
        cap,
    );
    let wired_trace = TraceHandle::new();
    wired.set_trace(wired_trace.clone());
    for i in 0..4 {
        let cfg = wired.decide(&k, i);
        if i == 0 {
            // The conservative warm-up projection guarantees a clamp.
            assert_ne!(cfg, HwConfig::max_hd7970(), "cap must clamp boost");
        }
        wired.observe(&k, i, cfg, &clean());
    }
    let mismatches = |h: &TraceHandle| {
        h.events()
            .iter()
            .filter(
                |e| matches!(e, TraceEvent::FaultDetected { what, .. } if what == "actuation mismatch"),
            )
            .count()
    };
    assert_eq!(mismatches(&wired_trace), 0, "post-clamp grants must match");
    assert_eq!(stats.fallback_engagements(), 0);

    // An interval that ran somewhere the clamp never granted (below it,
    // so the cap holds) is still an actuation failure.
    wired.decide(&k, 4);
    wired.observe(&k, 4, HwConfig::min_hd7970(), &clean());
    assert_eq!(mismatches(&wired_trace), 1, "a real actuation failure must trip");
}

#[test]
fn hardened_and_plain_capped_stacks_agree_on_cap_accounting() {
    // The hardening decorators must not drift cap-violation accounting
    // between the plain and hardened capped stacks on a clean run.
    let predictor = SensitivityPredictor::paper_table3();
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let res = PolicyResources::new(&predictor, &model, &power);
    let rt = Runtime::new(&model, &power);
    let app = suite::maxflops();

    let plain = PolicySpec::Capped(Watts(185.0)).build(&res);
    let mut plain_gov = plain.governor;
    let plain_run = rt.run(&app, &mut plain_gov);

    let hardened = PolicySpec::HardenedCapped(Watts(185.0)).build(&res);
    let mut hardened_gov = hardened.governor;
    let hardened_run = rt.run(&app, &mut hardened_gov);

    assert_eq!(plain_run.governor, hardened_run.governor, "name transparency");
    assert_eq!(
        plain.stats.cap_violations(),
        hardened.stats.cap_violations(),
        "hardening must not change cap-violation accounting on a clean run"
    );
    assert_eq!(hardened.stats.violations_while_fallback(), 0);
    assert_eq!(hardened.stats.fallback_engagements(), 0);
    assert_eq!(hardened.stats.sanitizer_rejects(), 0);
    assert_eq!(plain_run.total_time, hardened_run.total_time);
}

#[test]
fn cap_violations_count_while_the_ladder_is_parked() {
    let predictor = SensitivityPredictor::paper_table3();
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let res = PolicyResources::new(&predictor, &model, &power);
    let k = kernel();
    let busy = clean();
    let activity = Activity {
        valu_activity: busy.valu_activity(),
        dram_bytes_per_sec: busy.dram_bytes_per_sec(),
        dram_traffic_fraction: busy.ic_activity,
    };
    // A cap below the grid floor's card power: every interval violates
    // it, parked or not.
    let floor = HwConfig::min_hd7970();
    let cap = Watts(power.card_pwr(floor, &activity).value() / 2.0);
    let policy = PolicySpec::HardenedLadder(cap).build(&res);
    let mut governor = policy.governor;
    // Running at boost instead of the clamped grant is an actuation
    // mismatch: 3 + 3 intervals step down to freq-only, 6 more park.
    for i in 0..12 {
        assert_eq!(governor.decide(&k, i), floor, "the clamp grants the floor");
        governor.observe(&k, i, HwConfig::max_hd7970(), &busy);
    }
    let stats = &policy.stats;
    assert_eq!(stats.fallback_engagements(), 1, "the ladder reached its safe rung");
    assert_eq!(stats.cap_violations(), 12);
    assert_eq!(stats.violations_while_fallback(), 0, "none while still governing");
    // Parked: the clamped safe state still breaks the cap.
    let cfg = governor.decide(&k, 12);
    governor.observe(&k, 12, cfg, &busy);
    assert_eq!(stats.cap_violations(), 13);
    assert_eq!(stats.violations_while_fallback(), 1, "counted while parked");
}
