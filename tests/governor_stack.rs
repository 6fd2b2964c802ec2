//! Contracts of the composable governor middleware stack
//! (`harmonia::governor::stack`):
//!
//! * **Trace forwarding** — every layer (and the cap decorator) forwards
//!   the runtime's `TraceHandle` to its inner governor, so a stacked
//!   policy's decision events reach the primary sink no matter how deep
//!   the emitting governor sits.
//! * **Watchdog telemetry** — a layered watchdog emits the same
//!   `FaultDetected` / `FallbackEngaged` / `FallbackReleased` sequence the
//!   old governor-internal state machines did.
//! * **Ledger wiring** — the cap watchdog's actuation check compares
//!   against the *post-clamp* grant when its ledger is handed to the outer
//!   `CappedGovernor`, and false-trips on the pre-clamp decision when it
//!   is not.
//! * **Accounting parity** — the hardened capped stack counts exactly the
//!   cap violations the plain capped policy counts on the same run.

use harmonia::governor::{
    CappedGovernor, Governor, GovernorLayer, PolicyResources, PolicySpec, SanitizeLayer,
    WatchdogConfig, WatchdogLayer,
};
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::{CounterSample, IntervalModel, KernelProfile};
use harmonia_types::{HwConfig, Seconds, Watts};
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
    let stats = harmonia::governor::PolicyStats::new();

    let counters_wd =
        WatchdogLayer::counters(WatchdogConfig::default()).layer(Box::new(ProbeGovernor::new()));
    assert_eq!(probe_events(counters_wd), 1, "counter watchdog layer");

    let cap_wd = WatchdogLayer::cap(WatchdogConfig::default(), &power, Watts(185.0), &stats)
        .layer(Box::new(ProbeGovernor::new()));
    assert_eq!(probe_events(cap_wd), 1, "cap watchdog layer");

    let sanitized = SanitizeLayer::default().layer(Box::new(ProbeGovernor::new()));
    assert_eq!(probe_events(sanitized), 1, "sanitize layer");

    let capped = CappedGovernor::new(ProbeGovernor::new(), &power, Watts(500.0));
    assert_eq!(probe_events(capped), 1, "cap decorator");
}

#[test]
fn layered_watchdog_emits_the_fault_and_fallback_event_sequence() {
    let handle = TraceHandle::new();
    let mut g = WatchdogLayer::counters(WatchdogConfig::default())
        .layer(Box::new(harmonia::governor::BaselineGovernor::new()));
    g.set_trace(handle.clone());
    let k = kernel();
    // threshold = 3 consecutive anomalies trip the fallback.
    for i in 0..3 {
        let cfg = g.decide(&k, i);
        g.observe(&k, i, cfg, &garbage());
    }
    // base_hold = 4 clean engaged intervals, then release.
    for i in 3..7 {
        let cfg = g.decide(&k, i);
        assert_eq!(cfg, harmonia::governor::safe_state(), "iteration {i} not pinned");
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
    let mut config = WatchdogConfig::default();
    config.check.check_actuation = true;
    // A cap this tight clamps the baseline's boost decision, so granted
    // (post-clamp) differs from the inner decision (pre-clamp).
    let cap = Watts(150.0);
    let k = kernel();

    // Wired: the watchdog's ledger handed to the cap decorator. The
    // post-clamp grant overwrites the pre-clamp entry, so granted == ran.
    let stats = harmonia::governor::PolicyStats::new();
    let layer = WatchdogLayer::cap(config.clone(), &power, cap, &stats);
    let ledger = layer.ledger();
    let guarded = layer.layer(Box::new(harmonia::governor::BaselineGovernor::new()));
    let mut wired = CappedGovernor::new(guarded, &power, cap).with_ledger(ledger);
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

    // Unwired: the watchdog only sees its own pre-clamp decision, so every
    // observation looks like an actuation failure.
    let stats = harmonia::governor::PolicyStats::new();
    let guarded = WatchdogLayer::cap(config, &power, cap, &stats)
        .layer(Box::new(harmonia::governor::BaselineGovernor::new()));
    let mut unwired = CappedGovernor::new(guarded, &power, cap);
    let unwired_trace = TraceHandle::new();
    unwired.set_trace(unwired_trace.clone());
    for i in 0..4 {
        let cfg = unwired.decide(&k, i);
        unwired.observe(&k, i, cfg, &clean());
    }
    assert!(
        mismatches(&unwired_trace) > 0,
        "pre-clamp ledger must false-trip the actuation check"
    );
}

#[test]
fn hardened_and_plain_capped_stacks_agree_on_cap_accounting() {
    // Satellite check for the watchdog dedup: extracting the transition
    // handling into WatchdogLayer must not drift cap-violation accounting
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
