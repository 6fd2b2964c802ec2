//! Property tests for the governor state machines (DESIGN.md §5,
//! deviations 5–6), observed through the decision-telemetry trace:
//!
//! * the revert guard only ever undoes *downward* (power-reducing) moves —
//!   the restored configuration is at least as high on every tunable;
//! * consecutive reverts are capped, so actuation/observation limit cycles
//!   break instead of ping-ponging forever;
//! * a configuration observed to degrade performance is never probed
//!   downward again within the same phase regime (known-bad list).

use harmonia::governor::{FgState, FineGrain, Governor, PolicyResources, PolicySpec};
use harmonia::predictor::SensitivityPredictor;
use harmonia::telemetry::{ConfigPoint, TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::{CounterSample, IntervalModel, KernelProfile};
use harmonia_types::{GridSpec, HwConfig, Seconds, Tunable};
use proptest::prelude::*;

/// Drives `f` with a registry-built full-Harmonia governor over the
/// paper's Table 3 predictor.
fn with_harmonia(f: impl FnOnce(harmonia::governor::BoxGovernor<'_>)) {
    let predictor = SensitivityPredictor::paper_table3();
    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let res = PolicyResources::new(&predictor, &model, &power);
    f(PolicySpec::Harmonia.build(&res).governor);
}

/// Mirrors `MAX_CONSECUTIVE_REVERTS` in `governor::harmonia`.
const MAX_CONSECUTIVE_REVERTS: u64 = 2;

/// A synthetic counter sample with the given utilization shape.
fn sample(valu_busy: f64, mem_busy: f64, ic: f64, insts: u64) -> CounterSample {
    CounterSample {
        duration: Seconds(0.01),
        valu_busy_pct: valu_busy,
        valu_utilization_pct: 90.0,
        mem_unit_busy_pct: mem_busy,
        mem_unit_stalled_pct: mem_busy * 0.4,
        ic_activity: ic,
        norm_vgpr: 0.4,
        norm_sgpr: 0.3,
        valu_insts: insts,
        ..CounterSample::default()
    }
}

/// One of three archetypes, jittered — sequences of these flip the
/// predicted sensitivity bins and so exercise the CG/revert paths.
fn counters_for(mode: u32, jitter: f64, insts: u64) -> CounterSample {
    match mode % 3 {
        0 => sample(90.0 + jitter, 5.0 + jitter, 0.02, insts),  // compute-hot
        1 => sample(15.0 + jitter, 85.0 + jitter, 0.9, insts),  // memory-hot
        _ => sample(50.0 + jitter, 50.0 + jitter, 0.4, insts),  // balanced
    }
}

fn le_on_all_tunables(a: ConfigPoint, b: ConfigPoint) -> bool {
    a.cu <= b.cu && a.cu_mhz <= b.cu_mhz && a.mem_mhz <= b.mem_mhz
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive the full governor with arbitrary bin-flipping counter
    /// sequences; every revert-guard trip recorded in the trace must undo a
    /// purely downward move, and trips never chain past the cap.
    #[test]
    fn revert_guard_is_downward_only_and_capped(
        seq in prop::collection::vec((0u32..3, 0.0f64..8.0, 10_000u64..2_000_000), 6..24)
    ) {
        let trace = TraceHandle::new();
        with_harmonia(|mut g| {
            g.set_trace(trace.clone());
            let k = KernelProfile::builder("prop").build();
            for (i, &(mode, jitter, insts)) in seq.iter().enumerate() {
                let i = i as u64;
                let cfg = g.decide(&k, i);
                g.observe(&k, i, cfg, &counters_for(mode, jitter, insts));
            }
        });
        let events = trace.events();
        let mut revert_iterations = Vec::new();
        for ev in &events {
            if let TraceEvent::RevertGuard { iteration, from, to, .. } = ev {
                prop_assert!(
                    le_on_all_tunables(*from, *to),
                    "revert at iteration {iteration} restored {to:?} from {from:?} — \
                     the guarded move was not purely downward"
                );
                revert_iterations.push(*iteration);
            }
        }
        // The guard fires at most once per iteration; a chain of
        // consecutive iterations all reverting must break at the cap.
        let mut run = 1u64;
        for w in revert_iterations.windows(2) {
            run = if w[1] == w[0] + 1 { run + 1 } else { 1 };
            prop_assert!(
                run <= MAX_CONSECUTIVE_REVERTS,
                "{run} consecutive revert-guard trips (iterations {revert_iterations:?})"
            );
        }
    }

    /// Fine-grain search over a random performance landscape: once a
    /// configuration has been observed to degrade throughput, no later
    /// *downward* probe may land on it again (within one phase regime —
    /// there is no retune here).
    #[test]
    fn known_bad_configs_are_never_reprobed(
        min_cu in 0u32..7, min_f in 0u32..7, min_m in 0u32..6
    ) {
        // Throughput cliff: any tunable below its random floor halves the
        // rate, everything at/above the floors runs at full rate.
        let rate_of = |cfg: HwConfig| {
            let level = |t| cfg.level_on(&GridSpec::HD7970, t).index;
            let ok = level(Tunable::CuCount) >= min_cu as usize
                && level(Tunable::CuFreq) >= min_f as usize
                && level(Tunable::MemFreq) >= min_m as usize;
            if ok { 100.0 } else { 45.0 }
        };
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let trace = TraceHandle::new();
        let mut cfg = HwConfig::max_hd7970();
        for i in 0..40u64 {
            cfg = fg.step_traced(&mut st, cfg, rate_of(cfg), |_| true, &trace, "k", i);
        }
        let events = trace.events();
        let mut bad: Vec<ConfigPoint> = Vec::new();
        let mut converged = false;
        for ev in &events {
            match ev {
                TraceEvent::FgRevert { from, .. } => bad.push(*from),
                TraceEvent::FgProbe { iteration, to, moved_down, moved_up, .. } => {
                    prop_assert!(!converged, "probe after convergence at {iteration}");
                    if !moved_down.is_empty() && moved_up.is_empty() {
                        prop_assert!(
                            !bad.contains(to),
                            "iteration {iteration}: downward probe re-visited known-bad {to:?}"
                        );
                    }
                }
                TraceEvent::FgConverged { .. } => converged = true,
                _ => {}
            }
        }
    }

    /// Adversarial feedback (the rate flips between high and low no matter
    /// what the loop does) cannot trap the FG search in a limit cycle: the
    /// dithering cap forces convergence, reverts stay bounded, and the
    /// converged configuration is sticky.
    #[test]
    fn dither_cap_breaks_limit_cycles(max_dither in 0u32..4, start_high in 0u32..2) {
        let fg = FineGrain::new().with_max_dither(max_dither);
        let mut st = FgState::new();
        let trace = TraceHandle::new();
        let mut cfg = HwConfig::max_hd7970();
        let mut high = start_high == 0;
        for i in 0..30u64 {
            let rate = if high { 100.0 } else { 40.0 };
            high = !high;
            cfg = fg.step_traced(&mut st, cfg, rate, |_| true, &trace, "k", i);
        }
        prop_assert!(st.converged(), "oscillating feedback must force convergence");
        let events = trace.events();
        let reverts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FgRevert { .. }))
            .count() as u32;
        prop_assert!(
            reverts <= max_dither,
            "{reverts} reverts exceed the dither cap {max_dither}"
        );
        // Sticky: further steps with arbitrary feedback do not move.
        let settled = cfg;
        for i in 30..36u64 {
            let rate = if i % 2 == 0 { 100.0 } else { 10.0 };
            let next = fg.step_traced(&mut st, settled, rate, |_| true, &trace, "k", i);
            prop_assert_eq!(next, settled, "converged state moved at iteration {}", i);
        }
    }
}

/// The worked unit case behind the first property: a compute-hot phase
/// walks the memory clock down; when the sensitivity bins flip (confirmed
/// on a second reading) straight after a downward move, the guard undoes
/// exactly that move — the trace records the restoration.
#[test]
fn revert_event_restores_the_pre_change_configuration() {
    let trace = TraceHandle::new();
    let mut cfgs = Vec::new();
    with_harmonia(|mut g| {
        g.set_trace(trace.clone());
        let k = KernelProfile::builder("unit").build();
        cfgs.push(g.decide(&k, 0));
        for i in 0..8u64 {
            // Two compute-hot readings start the downward walk, then the
            // kernel turns memory-hot; constant insts keep the FG rate flat
            // so only the bin flip can trigger a restoration.
            let s = counters_for(u32::from(i >= 2), 0.0, 1_000_000);
            g.observe(&k, i, cfgs[i as usize], &s);
            cfgs.push(g.decide(&k, i + 1));
        }
    });
    let events = trace.events();
    let (j, from, to) = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RevertGuard {
                iteration,
                from,
                to,
                ..
            } => Some((*iteration as usize, *from, *to)),
            _ => None,
        })
        .expect("a RevertGuard event must be traced");
    assert_eq!(from, ConfigPoint::from(cfgs[j]), "guard undoes the live config");
    assert_eq!(to, ConfigPoint::from(cfgs[j - 1]), "guard restores the previous one");
    assert_eq!(cfgs[j + 1], cfgs[j - 1], "next decision returns the restored config");
    assert!(le_on_all_tunables(from, to), "only downward moves are guarded");
}
