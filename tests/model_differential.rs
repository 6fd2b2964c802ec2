//! Cross-model differential tests (DESIGN.md §5, deviation 9): the
//! interval, event, and trace timing models are independent implementations
//! of the same machine, so their disagreement on randomized-but-valid
//! kernels is bounded. In the comfortable region (≥16 CUs, ≥500 MHz, ≥4
//! resident waves per SIMD — where the interval model's Little's-law
//! bandwidth cap does not bind) the three agree within a small constant
//! factor; everywhere on the grid they agree within roughly an order of
//! magnitude.
//!
//! The asserted bounds come from the `probe_envelopes` measurement below
//! (48 random kernels × the full 448-point grid × all three model pairs):
//! worst comfortable-region envelope 5.21×, worst anywhere 12.92×. They
//! are asserted with headroom at 6× and 16×; DESIGN.md deviation 9 records
//! the same numbers.

use harmonia_sim::{EventModel, IntervalModel, Occupancy, TimingModel, TraceModel};
use harmonia_types::{ComputeConfig, GridSpec, HwConfig, MegaHertz, MemoryConfig};
use harmonia_workloads::generator::random_profile;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Symmetric disagreement factor: `max(a/b, b/a)`, always ≥ 1.
fn envelope(a: f64, b: f64) -> f64 {
    (a / b).max(b / a)
}

fn arb_config() -> impl Strategy<Value = HwConfig> {
    (0u32..8, 0u32..8, 0u32..7).prop_map(|(cu, f, m)| {
        HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, 4 + cu * 4, MegaHertz(300 + f * 100))
                .expect("grid"),
            MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(475 + m * 150)).expect("grid"),
        )
    })
}

fn comfortable(cfg: HwConfig, waves_per_simd: u32) -> bool {
    cfg.compute.cu_count() >= 16 && cfg.compute.freq().value() >= 500 && waves_per_simd >= 4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pairwise disagreement between the three models stays inside the
    /// measured envelopes on random kernels anywhere on the grid.
    #[test]
    fn fidelity_ladder_disagreement_is_bounded(seed in 0u64..200, cfg in arb_config()) {
        let kernel = random_profile(&mut StdRng::seed_from_u64(seed), "prop");
        let iv = IntervalModel::default();
        let ti = iv.simulate(cfg, &kernel, 0).time.value();
        let te = EventModel::default().simulate(cfg, &kernel, 0).time.value();
        let tt = TraceModel::default().simulate(cfg, &kernel, 0).time.value();
        prop_assert!(ti > 0.0 && te > 0.0 && tt > 0.0, "non-positive time at {cfg}");
        let e = envelope(ti, te).max(envelope(ti, tt)).max(envelope(te, tt));
        let occ = Occupancy::compute(iv.gpu(), &kernel, cfg.compute.cu_count());
        let bound = if comfortable(cfg, occ.waves_per_simd) { 6.0 } else { 16.0 };
        prop_assert!(
            e <= bound,
            "models disagree by {e:.2}x (bound {bound}x) at {cfg}, seed {seed}, \
             waves/SIMD {}", occ.waves_per_simd
        );
    }

    /// The envelope is symmetric in the model pair by construction; the
    /// per-pair ratios must also each stay positive and finite — a cheap
    /// totality check on the two higher-fidelity models, which the other
    /// property files exercise less.
    #[test]
    fn event_and_trace_models_are_total(seed in 0u64..200, cfg in arb_config(), iter in 0u64..4) {
        let kernel = random_profile(&mut StdRng::seed_from_u64(seed), "prop");
        for t in [
            EventModel::default().simulate(cfg, &kernel, iter).time.value(),
            TraceModel::default().simulate(cfg, &kernel, iter).time.value(),
        ] {
            prop_assert!(t.is_finite() && t > 0.0, "degenerate time {t} at {cfg}");
        }
    }
}

#[test]
#[ignore = "measurement probe: prints the empirical envelopes the bounded \
            test asserts; rerun after model changes to re-derive the bounds"]
fn probe_envelopes() {
    let iv = IntervalModel::default();
    let ev = EventModel::default();
    let tr = TraceModel::default();
    let mut worst_comfortable: (f64, String) = (1.0, String::new());
    let mut worst_any: (f64, String) = (1.0, String::new());
    for seed in 0..48u64 {
        let kernel = random_profile(&mut StdRng::seed_from_u64(seed), "probe");
        for cu in 0..8u32 {
            for f in 0..8u32 {
                for m in 0..7u32 {
                    let cfg = HwConfig::new(
                        ComputeConfig::new_on(
                            &GridSpec::HD7970,
                            4 + cu * 4,
                            MegaHertz(300 + f * 100),
                        )
                        .unwrap(),
                        MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(475 + m * 150)).unwrap(),
                    );
                    let ti = iv.simulate(cfg, &kernel, 0).time.value();
                    let te = ev.simulate(cfg, &kernel, 0).time.value();
                    let tt = tr.simulate(cfg, &kernel, 0).time.value();
                    let occ = Occupancy::compute(iv.gpu(), &kernel, cfg.compute.cu_count());
                    let comfortable = cfg.compute.cu_count() >= 16
                        && cfg.compute.freq().value() >= 500
                        && occ.waves_per_simd >= 4;
                    let e = envelope(ti, te).max(envelope(ti, tt)).max(envelope(te, tt));
                    let tag = format!("seed={seed} cfg={cfg} waves={}", occ.waves_per_simd);
                    if comfortable && e > worst_comfortable.0 {
                        worst_comfortable = (e, tag.clone());
                    }
                    if e > worst_any.0 {
                        worst_any = (e, tag);
                    }
                }
            }
        }
        println!(
            "seed {seed}: comfortable {:.3} | any {:.3}",
            worst_comfortable.0, worst_any.0
        );
    }
    println!("worst comfortable: {:.3} at {}", worst_comfortable.0, worst_comfortable.1);
    println!("worst any:         {:.3} at {}", worst_any.0, worst_any.1);
}
