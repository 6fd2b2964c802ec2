//! Integration smoke for the seeded chaos campaign (the
//! `chaos-campaign` subcommand): generated fault plans across the
//! app × hardened-policy grid must uphold every robustness invariant on
//! every catalog device, exercise the retry/backoff actuation pipeline,
//! and reproduce exactly from the campaign seed.

use harmonia_experiments::campaign_cmd::{
    chaos_campaign, generate_plan, CampaignRun, CAMPAIGN_APPS,
};
use harmonia_experiments::Context;
use harmonia_types::DeviceSpec;

fn campaign(seeds: u32) -> CampaignRun {
    chaos_campaign(&Context::new(), seeds)
}

#[test]
fn campaign_upholds_every_invariant() {
    // On every device, not just the golden-pinned hd7970: a recorded
    // configuration is grid-valid and replays on its own device's grid.
    for device in DeviceSpec::catalog() {
        let spec = DeviceSpec::lookup(device).expect("catalog names resolve");
        let run = chaos_campaign(&Context::for_device(spec), 4);
        assert_eq!(run.cases.len(), 4 * CAMPAIGN_APPS.len() * 2, "{device}");
        assert_eq!(run.violations(), 0, "{device} report:\n{}", run.report);
        for case in &run.cases {
            assert!(
                case.violated.is_empty(),
                "{device}: case {} violated {:?}",
                case.index,
                case.violated
            );
            assert!(
                case.minimal.is_none(),
                "{device}: passing cases are not shrunk"
            );
            assert!(case.ed2.is_finite(), "{device}");
            assert!(case.events > 0, "{device}");
        }
    }
}

#[test]
fn campaign_exercises_the_retry_pipeline() {
    // The point of fuzzing with the actuator engaged: some generated plan
    // must hit DVFS faults so retried/rolled-back actuations land in the
    // traces — and those same traces replayed bit-exactly above.
    let run = campaign(4);
    let resolved: usize = run.cases.iter().map(|c| c.resolutions).sum();
    assert!(
        resolved > 0,
        "no actuation resolutions across the whole campaign — the fuzzer lost its DVFS coverage"
    );
}

#[test]
fn campaign_is_a_pure_function_of_the_seed() {
    let a = campaign(2);
    let b = campaign(2);
    assert_eq!(a.report, b.report);
    assert_eq!(a.seed, b.seed);
    // The plan stream is stable index-by-index too (resuming a campaign
    // re-generates identical cases).
    for idx in 0..8 {
        assert_eq!(generate_plan(a.seed, idx).specs(), generate_plan(b.seed, idx).specs());
    }
}
