//! `session`: clean governed `Runtime::run` sessions, every suite app
//! under every non-oracle registry stack.

use crate::harness::{same_as_first, Harness, Workload};
use crate::trace::Name;
use crate::util::{fnv1a, SplitMix};
use harmonia::governor::PolicySpec;
use harmonia::runtime::Runtime;
use harmonia_stats::geometric_mean;
use harmonia_workloads::{suite, Application};

/// The registry stacks the op runs, `baseline` (the reference) first. The
/// oracle is left out: its cold sweeps would dominate the op, and sweep
/// cost is measured by `repro` and by `fleet-warm`'s set-up.
pub const STACKS: [&str; 9] = [
    "baseline",
    "cg",
    "harmonia",
    "freq-only",
    "powertune",
    "capped",
    "hardened:harmonia",
    "hardened:capped",
    "hardened:ladder",
];

/// Parses registry names.
pub fn specs(names: &[&str]) -> Vec<PolicySpec> {
    names
        .iter()
        .map(|n| n.parse().expect("a registry name"))
        .collect()
}

/// One op: the 14 suite apps under the nine stacks, 126 sessions in a
/// seed-permuted order, each with a freshly built stack and runtime.
pub struct SessionBench<'h> {
    h: &'h Harness,
    apps: Vec<Application>,
    specs: Vec<PolicySpec>,
    /// (app, stack) index pairs, in run order.
    order: Vec<(usize, usize)>,
    runtime: Name,
    /// ED² bit patterns of the last op, indexed `app * STACKS.len() + stack`.
    last: Vec<u64>,
    /// ED² bit patterns of the first op.
    reference: Option<Vec<u64>>,
}

impl<'h> SessionBench<'h> {
    /// Sets up the op's sessions in the order `seed` picks.
    pub fn new(h: &'h Harness, seed: u64) -> Self {
        let apps = suite::all();
        let mut order: Vec<(usize, usize)> = (0..apps.len())
            .flat_map(|a| (0..STACKS.len()).map(move |s| (a, s)))
            .collect();
        SplitMix::new(seed).shuffle(&mut order);
        Self {
            runtime: h.tracer.name("core.runtime"),
            last: vec![0; apps.len() * STACKS.len()],
            h,
            apps,
            specs: specs(&STACKS),
            order,
            reference: None,
        }
    }
}

impl Workload for SessionBench<'_> {
    fn op(&mut self) {
        let h = self.h;
        for &(a, s) in &self.order {
            let mut governor = h.policy(self.specs[s]).governor;
            let runtime = Runtime::from_session(h.model(), &h.power, &h.session);
            let report = h
                .tracer
                .span(self.runtime, || runtime.run(&self.apps[a], &mut governor));
            self.last[a * STACKS.len() + s] = report.ed2().to_bits();
        }
    }

    fn check(&mut self) -> Result<(), String> {
        if let Some(i) = self.last.iter().position(|&b| {
            let ed2 = f64::from_bits(b);
            !(ed2.is_finite() && ed2 > 0.0)
        }) {
            let (app, stack) = (i / STACKS.len(), i % STACKS.len());
            return Err(format!(
                "{} under {}: ED² is not positive and finite",
                self.apps[app].name, STACKS[stack]
            ));
        }
        same_as_first(&mut self.reference, &self.last, "ED² bits")
    }

    fn ed2_ratio(&self) -> f64 {
        let Some(ed2) = &self.reference else {
            return f64::NAN;
        };
        let per_app = |a: usize, s: usize| f64::from_bits(ed2[a * STACKS.len() + s]);
        let ratios: Vec<f64> = (0..self.apps.len())
            .flat_map(|a| (1..STACKS.len()).map(move |s| per_app(a, s) / per_app(a, 0)))
            .collect();
        geometric_mean(&ratios).unwrap_or(f64::NAN)
    }

    fn fingerprint(&self) -> String {
        let bytes: Vec<u8> = self
            .reference
            .iter()
            .flatten()
            .flat_map(|b| b.to_le_bytes())
            .collect();
        format!("session ed2-bits={:016x}", fnv1a(&bytes))
    }

    fn describe(&self) -> String {
        format!(
            "op = {} clean sessions ({} apps x {} stacks, baseline as reference), order permuted by the seed",
            self.order.len(),
            self.apps.len(),
            STACKS.len()
        )
    }
}
