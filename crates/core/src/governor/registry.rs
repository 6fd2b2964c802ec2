//! The policy registry: named governor stacks built from one place.
//!
//! Experiments, the CLI, and the test battery used to hand-assemble
//! governor stacks at ~47 call sites; every new hardening combination
//! meant touching all of them. [`PolicySpec`] names each stack and
//! [`PolicySpec::build`] is the single construction site:
//!
//! | spec | stack |
//! |------|-------|
//! | `baseline` | [`BaselineGovernor`] |
//! | `cg` | [`HarmoniaGovernor`] with [`HarmoniaConfig::cg_only`] |
//! | `harmonia` | [`HarmoniaGovernor`] (CG + FG) |
//! | `freq-only` | [`HarmoniaGovernor`] with [`HarmoniaConfig::freq_only`] |
//! | `oracle` | [`OracleGovernor`] (exhaustive ED² argmin) |
//! | `powertune[@W]` | [`PowerTuneGovernor`] at the given TDP (stock 250 W) |
//! | `capped[@W]` | [`CappedGovernor`] over `harmonia` (default 185 W) |
//! | `hardened:harmonia` | sanitize → counter watchdog → `harmonia` |
//! | `hardened:capped[@W]` | cap clamp → cap watchdog → counter watchdog → sanitize → `harmonia` |
//! | `hardened:ladder[@W]` | cap clamp → sanitize → degradation ladder (`harmonia` → `cg` → `freq-only` → safe state) |
//!
//! Specs parse from their registry names (`"hardened:capped@185"
//! .parse::<PolicySpec>()`), so CLI surfaces and config files share the
//! spelling. Building needs only a [`PolicyResources`] — borrowed
//! predictor, timing model, and power model — and returns a [`Policy`]:
//! the boxed stack plus a [`PolicyStats`] handle that stays readable after
//! the governor is boxed.
//!
//! Each built stack owns its hardening state (sanitizer history, watchdog
//! backoff, ladder rung): build one `Policy` per run. The hardening takes
//! two values from the device, its safe state and its achieved-bandwidth
//! ceiling; every other threshold and hold is a named constant.

use crate::governor::{
    BaselineGovernor, BoxGovernor, CappedGovernor, DegradeGovernor, HarmoniaConfig,
    HarmoniaGovernor, OracleGovernor, PolicyStats, PowerTuneGovernor, SanitizeGovernor,
    WatchdogGovernor,
};
use crate::predictor::SensitivityPredictor;
use crate::sanitize;
use harmonia_power::PowerModel;
use harmonia_sim::TimingModel;
use harmonia_types::{DeviceSpec, Watts};
use std::fmt;
use std::str::FromStr;

/// The power envelope `capped`/`hardened:capped` enforce when no explicit
/// cap is given — the paper's 185 W evaluation budget.
pub const DEFAULT_CAP: Watts = Watts(185.0);

/// Stock PowerTune TDP used when `powertune` is given without a budget.
const DEFAULT_TDP: Watts = Watts(250.0);

/// Everything the registry needs to build any named stack: borrowed,
/// shareable references into the caller's models.
#[derive(Clone, Copy)]
pub struct PolicyResources<'a> {
    predictor: &'a SensitivityPredictor,
    model: &'a dyn TimingModel,
    power: &'a PowerModel,
    device: &'a DeviceSpec,
}

impl<'a> PolicyResources<'a> {
    /// Bundles the resources the registry builds from, governing the
    /// HD7970 catalog device. Use [`with_device`](Self::with_device) to
    /// target another catalog entry.
    pub fn new(
        predictor: &'a SensitivityPredictor,
        model: &'a dyn TimingModel,
        power: &'a PowerModel,
    ) -> Self {
        Self {
            predictor,
            model,
            power,
            device: DeviceSpec::hd7970_static(),
        }
    }

    /// Retargets every built stack at `device`: governors step along its
    /// configuration grid, oracles sweep its config space, and hardening
    /// layers pin to its safe state. The timing and power models should be
    /// built for the same device (e.g. via
    /// [`PowerModel::for_device`]) — the registry does not cross-check.
    pub fn with_device(mut self, device: &'a DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// The trained sensitivity predictor.
    pub fn predictor(&self) -> &'a SensitivityPredictor {
        self.predictor
    }

    /// The timing model.
    pub fn model(&self) -> &'a dyn TimingModel {
        self.model
    }

    /// The power model.
    pub fn power(&self) -> &'a PowerModel {
        self.power
    }

    /// The catalog device the built stacks govern.
    pub fn device(&self) -> &'a DeviceSpec {
        self.device
    }

    /// A concrete (unboxed) oracle over these resources, for callers that
    /// need [`OracleGovernor::best_config`] directly (the per-kernel
    /// optimal-configuration tables).
    pub fn oracle(&self) -> OracleGovernor<'a> {
        OracleGovernor::new(self.model, self.power)
    }
}

/// A built policy: the boxed governor stack plus the stats handle its
/// hardening layers report through.
pub struct Policy<'a> {
    /// The ready-to-run governor stack.
    pub governor: BoxGovernor<'a>,
    /// Hardening counters (zero and inert for unhardened stacks).
    pub stats: PolicyStats,
}

/// A named governor stack the registry can build (see module docs for the
/// full table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Stock boost-always baseline.
    Baseline,
    /// Coarse-grain tuning only.
    Cg,
    /// Full Harmonia (CG + FG).
    Harmonia,
    /// Compute-DVFS-only ablation.
    FreqOnly,
    /// Exhaustive per-invocation ED² oracle.
    Oracle,
    /// Stock PowerTune at the given TDP.
    PowerTune(Watts),
    /// Harmonia under a power-cap clamp.
    Capped(Watts),
    /// Sanitize + counter-watchdog hardened Harmonia.
    HardenedHarmonia,
    /// The full hardened capped stack: cap clamp, cap watchdog (with
    /// actuation check), counter watchdog, sanitizer, Harmonia.
    HardenedCapped(Watts),
    /// Graceful degradation under a cap: instead of the watchdog's
    /// all-or-nothing park, a ladder steps `harmonia` → `cg` →
    /// `freq-only` → safe state and climbs back with hysteresis.
    HardenedLadder(Watts),
}

impl PolicySpec {
    /// The canonical registry names, in documentation order.
    pub fn names() -> &'static [&'static str] {
        &[
            "baseline",
            "cg",
            "harmonia",
            "freq-only",
            "oracle",
            "powertune",
            "capped",
            "hardened:harmonia",
            "hardened:capped",
            "hardened:ladder",
        ]
    }

    /// This spec's registry name (round-trips through
    /// [`FromStr`](str::parse); non-default budgets append `@<watts>`).
    pub fn name(&self) -> String {
        fn budget(base: &str, cap: Watts, default: Watts) -> String {
            if cap == default {
                base.to_string()
            } else {
                format!("{base}@{:.0}", cap.value())
            }
        }
        match self {
            Self::Baseline => "baseline".to_string(),
            Self::Cg => "cg".to_string(),
            Self::Harmonia => "harmonia".to_string(),
            Self::FreqOnly => "freq-only".to_string(),
            Self::Oracle => "oracle".to_string(),
            Self::PowerTune(tdp) => budget("powertune", *tdp, DEFAULT_TDP),
            Self::Capped(cap) => budget("capped", *cap, DEFAULT_CAP),
            Self::HardenedHarmonia => "hardened:harmonia".to_string(),
            Self::HardenedCapped(cap) => budget("hardened:capped", *cap, DEFAULT_CAP),
            Self::HardenedLadder(cap) => budget("hardened:ladder", *cap, DEFAULT_CAP),
        }
    }

    /// Builds this spec's governor stack over `res`. This is the only
    /// place named stacks are assembled; see the module docs for each
    /// stack's composition.
    pub fn build<'a>(&self, res: &PolicyResources<'a>) -> Policy<'a> {
        let stats = PolicyStats::new();
        let grid = *res.device.grid();
        let safe = res.device.safe_state();
        let max_bw_gbps = sanitize::max_bw_gbps_on(&grid);
        let harmonia =
            |config: HarmoniaConfig| HarmoniaGovernor::with_config(res.predictor.clone(), config.on_grid(grid));
        // The shared hardened core: sanitize → counter watchdog → Harmonia.
        let hardened = || {
            let sanitized = SanitizeGovernor::new(harmonia(HarmoniaConfig::default()), max_bw_gbps)
                .with_power(res.power)
                .with_stats(&stats);
            WatchdogGovernor::counters(sanitized, safe, max_bw_gbps).with_stats(&stats)
        };
        let governor: BoxGovernor<'a> = match *self {
            Self::Baseline => Box::new(BaselineGovernor::on_grid(grid)),
            Self::Cg => Box::new(harmonia(HarmoniaConfig::cg_only())),
            Self::Harmonia => Box::new(harmonia(HarmoniaConfig::default())),
            Self::FreqOnly => Box::new(harmonia(HarmoniaConfig::freq_only())),
            Self::Oracle => Box::new(res.oracle()),
            Self::PowerTune(tdp) => Box::new(PowerTuneGovernor::with_tdp(res.power, tdp)),
            Self::Capped(cap) => Box::new(
                CappedGovernor::new(harmonia(HarmoniaConfig::default()), res.power, cap)
                    .with_stats(&stats),
            ),
            Self::HardenedHarmonia => Box::new(hardened()),
            // The cap watchdog sits between the clamp and the counter
            // watchdog: it judges post-clamp grants (actuation against the
            // clamp's ledger) while the counter watchdog quarantines suspect
            // samples before Harmonia learns from them.
            Self::HardenedCapped(cap) => Box::new(
                CappedGovernor::checked(
                    |ledger| {
                        WatchdogGovernor::cap(hardened(), safe, res.power, cap, ledger)
                            .with_stats(&stats)
                    },
                    res.power,
                    cap,
                )
                .with_stats(&stats),
            ),
            // Sanitize sits *outside* the ladder so measurements are
            // conditioned on every rung; the ladder's own counter check
            // (plus sanitizer-reject pressure through the shared stats)
            // drives demotion, and checks actuation against the clamp's
            // ledger.
            Self::HardenedLadder(cap) => Box::new(
                CappedGovernor::checked(
                    |ledger| {
                        let ladder = DegradeGovernor::new(
                            harmonia(HarmoniaConfig::default()),
                            harmonia(HarmoniaConfig::cg_only()),
                            harmonia(HarmoniaConfig::freq_only()),
                            safe,
                            max_bw_gbps,
                            ledger,
                        )
                        .with_stats(&stats);
                        SanitizeGovernor::new(ladder, max_bw_gbps)
                            .with_power(res.power)
                            .with_stats(&stats)
                    },
                    res.power,
                    cap,
                )
                .with_stats(&stats),
            ),
        };
        Policy { governor, stats }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl FromStr for PolicySpec {
    type Err = String;

    /// Parses a registry name, e.g. `harmonia`, `capped@185`,
    /// `hardened:capped`. Budgeted specs accept `@<watts>` (an optional
    /// trailing `W` is tolerated).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn parse_budget(suffix: Option<&str>, default: Watts, spec: &str) -> Result<Watts, String> {
            match suffix {
                None => Ok(default),
                Some(raw) => raw
                    .trim_end_matches(['w', 'W'])
                    .parse::<f64>()
                    .ok()
                    .filter(|w| w.is_finite() && *w > 0.0)
                    .map(Watts)
                    .ok_or_else(|| format!("invalid power budget {raw:?} in {spec:?}")),
            }
        }
        let (base, suffix) = match s.split_once('@') {
            Some((b, w)) => (b, Some(w)),
            None => (s, None),
        };
        let reject_budget = |spec: Self| match suffix {
            None => Ok(spec),
            Some(_) => Err(format!("{base:?} does not take a power budget")),
        };
        match base {
            "baseline" => reject_budget(Self::Baseline),
            "cg" | "cg-only" => reject_budget(Self::Cg),
            "harmonia" => reject_budget(Self::Harmonia),
            "freq-only" => reject_budget(Self::FreqOnly),
            "oracle" => reject_budget(Self::Oracle),
            "powertune" => Ok(Self::PowerTune(parse_budget(suffix, DEFAULT_TDP, s)?)),
            "capped" => Ok(Self::Capped(parse_budget(suffix, DEFAULT_CAP, s)?)),
            "hardened:harmonia" => reject_budget(Self::HardenedHarmonia),
            "hardened:capped" => Ok(Self::HardenedCapped(parse_budget(suffix, DEFAULT_CAP, s)?)),
            "hardened:ladder" => Ok(Self::HardenedLadder(parse_budget(suffix, DEFAULT_CAP, s)?)),
            _ => Err(format!(
                "unknown policy {s:?}; expected one of: {}",
                Self::names().join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::IntervalModel;

    fn with_resources(f: impl FnOnce(PolicyResources<'_>)) {
        let predictor = SensitivityPredictor::paper_table3();
        let model = IntervalModel::default();
        let power = PowerModel::hd7970();
        f(PolicyResources::new(&predictor, &model, &power));
    }

    #[test]
    fn every_registry_name_parses_and_builds() {
        with_resources(|res| {
            for name in PolicySpec::names() {
                let spec: PolicySpec = name.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
                let policy = spec.build(&res);
                assert!(!policy.governor.name().is_empty(), "{name}");
            }
        });
    }

    #[test]
    fn built_governor_names_match_the_hand_assembled_stacks() {
        with_resources(|res| {
            let cases = [
                (PolicySpec::Baseline, "baseline"),
                (PolicySpec::Cg, "cg-only"),
                (PolicySpec::Harmonia, "harmonia"),
                (PolicySpec::FreqOnly, "freq-only"),
                (PolicySpec::Oracle, "oracle"),
                (PolicySpec::PowerTune(Watts(250.0)), "powertune"),
                (PolicySpec::Capped(DEFAULT_CAP), "harmonia@185W"),
                (PolicySpec::HardenedHarmonia, "harmonia"),
                (PolicySpec::HardenedCapped(DEFAULT_CAP), "harmonia@185W"),
                (PolicySpec::HardenedLadder(DEFAULT_CAP), "harmonia@185W"),
            ];
            for (spec, expected) in cases {
                assert_eq!(spec.build(&res).governor.name(), expected, "{spec:?}");
            }
        });
    }

    #[test]
    fn budgets_parse_and_round_trip() {
        assert_eq!(
            "capped@200".parse::<PolicySpec>().unwrap(),
            PolicySpec::Capped(Watts(200.0))
        );
        assert_eq!(
            "powertune@185W".parse::<PolicySpec>().unwrap(),
            PolicySpec::PowerTune(Watts(185.0))
        );
        assert_eq!(
            "hardened:capped@185".parse::<PolicySpec>().unwrap(),
            PolicySpec::HardenedCapped(DEFAULT_CAP)
        );
        for spec in [
            PolicySpec::Capped(Watts(200.0)),
            PolicySpec::Capped(DEFAULT_CAP),
            PolicySpec::HardenedCapped(Watts(150.0)),
            PolicySpec::HardenedLadder(Watts(200.0)),
            PolicySpec::HardenedLadder(DEFAULT_CAP),
            PolicySpec::PowerTune(DEFAULT_TDP),
        ] {
            assert_eq!(spec.name().parse::<PolicySpec>().unwrap(), spec);
        }
    }

    #[test]
    fn garbage_specs_are_rejected() {
        assert!("turbo".parse::<PolicySpec>().is_err());
        assert!("baseline@185".parse::<PolicySpec>().is_err());
        assert!("capped@zero".parse::<PolicySpec>().is_err());
        assert!("capped@-5".parse::<PolicySpec>().is_err());
        assert!("hardened:oracle".parse::<PolicySpec>().is_err());
    }

    #[test]
    fn every_stack_governs_every_catalog_device_on_its_own_grid() {
        let predictor = SensitivityPredictor::paper_table3();
        for device_name in DeviceSpec::catalog() {
            let device = DeviceSpec::lookup(device_name).expect(device_name);
            let model = IntervalModel::new(device.gpu);
            let power = PowerModel::for_device(&device);
            let res = PolicyResources::new(&predictor, &model, &power).with_device(&device);
            assert_eq!(res.device().name, device_name);
            let space = harmonia_types::ConfigSpace::for_grid(device.grid());
            let k = harmonia_sim::KernelProfile::builder("k")
                .workitems(1 << 18)
                .valu_insts_per_item(8.0)
                .vfetch_insts_per_item(2.0)
                .build();
            for spec_name in PolicySpec::names() {
                let spec: PolicySpec = spec_name.parse().unwrap();
                let mut governor = spec.build(&res).governor;
                for i in 0..3 {
                    let cfg = governor.decide(&k, i);
                    assert!(
                        space.contains(cfg),
                        "{device_name}/{spec_name}: decision {cfg} is off the device grid"
                    );
                    let c = harmonia_sim::TimingModel::simulate(&model, cfg, &k, i);
                    governor.observe(&k, i, cfg, &c.counters);
                }
            }
        }
    }

    #[test]
    fn hardened_stack_exposes_live_stats() {
        with_resources(|res| {
            let policy = PolicySpec::HardenedHarmonia.build(&res);
            let mut governor = policy.governor;
            let k = harmonia_sim::KernelProfile::builder("k").build();
            let garbage = harmonia_sim::CounterSample {
                duration: harmonia_types::Seconds(0.01),
                valu_busy_pct: f64::NAN,
                ..harmonia_sim::CounterSample::default()
            };
            for i in 0..3 {
                let cfg = governor.decide(&k, i);
                governor.condition(&k, i, cfg, harmonia_types::Seconds(0.01), garbage);
                governor.observe(&k, i, cfg, &garbage);
            }
            assert!(policy.stats.sanitizer_rejects() > 0);
            assert_eq!(policy.stats.fallback_engagements(), 1);
        });
    }

    #[test]
    fn ladder_stack_demotes_stepwise_instead_of_parking() {
        with_resources(|res| {
            let policy = PolicySpec::HardenedLadder(DEFAULT_CAP).build(&res);
            let mut governor = policy.governor;
            let k = harmonia_sim::KernelProfile::builder("k").build();
            let garbage = harmonia_sim::CounterSample {
                duration: harmonia_types::Seconds(0.01),
                valu_busy_pct: f64::NAN,
                ..harmonia_sim::CounterSample::default()
            };
            // Three anomalous intervals demote exactly one rung — the
            // parked watchdog would already be pinned at the safe state.
            for i in 0..3 {
                let cfg = governor.decide(&k, i);
                governor.condition(&k, i, cfg, harmonia_types::Seconds(0.01), garbage);
                governor.observe(&k, i, cfg, &garbage);
            }
            assert_eq!(policy.stats.rung_demotions(), 1);
            assert_eq!(policy.stats.fallback_engagements(), 0, "not parked yet");
            assert_eq!(policy.stats.rung_residency()[0], 3);
            assert!(policy.stats.sanitizer_rejects() > 0);
            assert_ne!(
                governor.decide(&k, 3),
                res.device().safe_state(),
                "cg-only rung still governs"
            );
        });
    }
}
