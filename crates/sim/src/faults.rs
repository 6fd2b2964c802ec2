//! Deterministic fault injection for robustness studies.
//!
//! Harmonia's controllers run on silicon where counters glitch, power
//! telemetry drops samples, and DVFS transitions are denied or land late —
//! the paper sidesteps this by averaging repeated runs (Section 6). This
//! module makes those failure modes first-class and *reproducible*:
//!
//! * [`FaultPlan`] — a seeded, schedulable set of [`FaultSpec`]s. Whether a
//!   fault fires for a given `(kernel, configuration, iteration)` is a pure
//!   function of the plan seed, so a chaos run is exactly repeatable.
//! * [`FaultyModel`] — wraps any [`TimingModel`] and corrupts the *measured*
//!   counters (dropout, stuck-at, spikes, sensor bias, power-sample
//!   glitches). The underlying timing is untouched: faults corrupt what the
//!   monitoring block *sees*, not what the hardware *does*.
//! * Actuator faults (denied / delayed / neighboring DVFS transitions,
//!   thermal throttling) are resolved on the device's grid by
//!   [`FaultPlan::actuate_attempt_on`]; the runtime applies them between
//!   the governor's decision and the simulated invocation.
//!
//! The seed discipline is shared with [`NoisyModel`](crate::noise::NoisyModel)
//! through [`mix_seed`]/[`rng_for`], so noise and faults compose under one
//! seed and an empty plan is bit-transparent.

use crate::device::GpuDescriptor;
use crate::model::{SimResult, TimingModel};
use crate::profile::KernelProfile;
use harmonia_types::{HwConfig, Seconds, Tunable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Environment variable selecting the fault seed for chaos runs and the
/// fault-seeded CI leg (`HARMONIA_FAULT_SEED=1`); re-exported from
/// [`harmonia_types::session`], where the parsing lives.
pub use harmonia_types::session::{DEFAULT_FAULT_SEED, FAULT_SEED_ENV};

/// Mixes a seed with the kernel name, configuration, and iteration into one
/// hash — the FNV-style discipline previously private to `NoisyModel`,
/// shared so noise and faults draw from one seeded stream family.
pub fn mix_seed(seed: u64, kernel: &str, cfg: HwConfig, iteration: u64) -> u64 {
    let mut h: u64 = seed ^ 0x517c_c1b7_2722_0a95;
    for b in kernel.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(cfg.compute.cu_count()) << 32;
    h ^= u64::from(cfg.compute.freq().value()) << 16;
    h ^= u64::from(cfg.memory.bus_freq().value());
    h ^= iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h
}

/// A small deterministic RNG keyed on `(seed, kernel, cfg, iteration)`.
pub fn rng_for(seed: u64, kernel: &str, cfg: HwConfig, iteration: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix_seed(seed, kernel, cfg, iteration))
}

/// FNV-1a style fold for composing [`TimingModel::fidelity_key`] values:
/// perturbing wrappers (noise, faults) mix a marker over the inner model's
/// key so a shared sweep cache keeps their results separate.
pub fn mix_fidelity(inner: u64, marker: u64) -> u64 {
    (inner ^ marker).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The fault taxonomy (see DESIGN.md "Robustness & fault model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The counter read fails: all dynamic counters report zero.
    CounterDropout,
    /// Counters latch a stale sample (the one from the spec's window start).
    CounterStuck,
    /// A transient multiplicative spike on a subset of counters.
    CounterSpike,
    /// A persistent multiplicative sensor bias.
    SensorBias,
    /// A power-telemetry glitch: the duration/bandwidth channel reads NaN.
    PowerGlitch,
    /// The requested DVFS transition is denied; the previous state holds.
    DvfsDeny,
    /// The requested DVFS transition lands one invocation late.
    DvfsDelay,
    /// The transition lands on a neighboring grid state instead.
    DvfsNeighbor,
    /// Firmware thermal throttling clamps the compute clock.
    ThermalThrottle,
}

impl FaultKind {
    /// Every fault kind, in declaration order. The index of a kind in this
    /// array is its stable wire code ([`code`](Self::code)).
    pub const ALL: [FaultKind; 9] = [
        FaultKind::CounterDropout,
        FaultKind::CounterStuck,
        FaultKind::CounterSpike,
        FaultKind::SensorBias,
        FaultKind::PowerGlitch,
        FaultKind::DvfsDeny,
        FaultKind::DvfsDelay,
        FaultKind::DvfsNeighbor,
        FaultKind::ThermalThrottle,
    ];

    /// Stable single-byte wire code, used by the session-trace codec. The
    /// mapping is append-only: existing codes never change meaning.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The kind for a wire code; `None` for codes this build does not know.
    pub fn from_code(code: u8) -> Option<FaultKind> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// Short stable label used in trace events and chaos tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CounterDropout => "counter-dropout",
            FaultKind::CounterStuck => "counter-stuck",
            FaultKind::CounterSpike => "counter-spike",
            FaultKind::SensorBias => "sensor-bias",
            FaultKind::PowerGlitch => "power-glitch",
            FaultKind::DvfsDeny => "dvfs-deny",
            FaultKind::DvfsDelay => "dvfs-delay",
            FaultKind::DvfsNeighbor => "dvfs-neighbor",
            FaultKind::ThermalThrottle => "thermal-throttle",
        }
    }

    /// Whether this fault corrupts the measurement path (applied by
    /// [`FaultyModel`]).
    pub fn is_counter(self) -> bool {
        matches!(
            self,
            FaultKind::CounterDropout
                | FaultKind::CounterStuck
                | FaultKind::CounterSpike
                | FaultKind::SensorBias
                | FaultKind::PowerGlitch
        )
    }

    /// Whether this fault corrupts the actuation path (applied by the
    /// runtime via [`FaultPlan::actuate_attempt_on`]).
    pub fn is_actuator(self) -> bool {
        !self.is_counter()
    }
}

/// Terminal outcome of the runtime's retrying actuator shim
/// (`Runtime::with_actuator`): what ultimately happened to one requested
/// DVFS transition after retries, rollback, or timeout. Carried by
/// `ActuationResolved` trace/session events; wire codes are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActuationOutcome {
    /// The transition completed on the first attempt (possibly at a
    /// firmware-clamped operating point — thermal throttling is an
    /// environmental constraint, not an actuation failure).
    Applied,
    /// Transient denials/delays were re-issued; the transition landed on
    /// the carried attempt ordinal (1-based: `Retried(2)` means two
    /// re-issues after the initial request).
    Retried(u32),
    /// The retry budget ran out with every attempt denied; the hardware
    /// stays at the last-good configuration.
    TimedOut,
    /// The transition landed on the wrong grid point (partial application)
    /// and was rolled back to the last-good configuration.
    RolledBack,
}

impl ActuationOutcome {
    /// Stable single-byte wire code (the retry count travels separately).
    pub fn code(self) -> u8 {
        match self {
            ActuationOutcome::Applied => 0,
            ActuationOutcome::Retried(_) => 1,
            ActuationOutcome::TimedOut => 2,
            ActuationOutcome::RolledBack => 3,
        }
    }

    /// The outcome for a wire code; `param` supplies `Retried`'s count.
    /// `None` for codes this build does not know.
    pub fn from_code(code: u8, param: u32) -> Option<ActuationOutcome> {
        match code {
            0 => Some(ActuationOutcome::Applied),
            1 => Some(ActuationOutcome::Retried(param)),
            2 => Some(ActuationOutcome::TimedOut),
            3 => Some(ActuationOutcome::RolledBack),
            _ => None,
        }
    }

    /// The `Retried` count, `0` for every other outcome — the wire-side
    /// companion of [`from_code`](Self::from_code).
    pub fn param(self) -> u32 {
        match self {
            ActuationOutcome::Retried(n) => n,
            _ => 0,
        }
    }

    /// Short stable label used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            ActuationOutcome::Applied => "applied",
            ActuationOutcome::Retried(_) => "retried",
            ActuationOutcome::TimedOut => "timed-out",
            ActuationOutcome::RolledBack => "rolled-back",
        }
    }
}

/// One scheduled fault: a kind, a per-invocation firing probability, a
/// kind-specific magnitude, and an iteration window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// Per-invocation probability of firing inside the window (1.0 = every
    /// invocation).
    pub probability: f64,
    /// Kind-specific magnitude: spike multiplier base, relative sensor
    /// bias, or throttle ceiling in MHz. Unused by the other kinds.
    pub magnitude: f64,
    /// First application iteration (inclusive) the fault may fire at.
    pub from_iteration: u64,
    /// End of the window (exclusive); `u64::MAX` leaves it open.
    pub until_iteration: u64,
}

impl FaultSpec {
    /// A fault active over the whole run with unit magnitude.
    pub fn new(kind: FaultKind, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "fault probability must be in [0, 1]"
        );
        Self {
            kind,
            probability,
            magnitude: 1.0,
            from_iteration: 0,
            until_iteration: u64::MAX,
        }
    }

    /// Sets the kind-specific magnitude.
    pub fn with_magnitude(mut self, magnitude: f64) -> Self {
        self.magnitude = magnitude;
        self
    }

    /// Restricts the fault to iterations `from..until`.
    pub fn with_window(mut self, from: u64, until: u64) -> Self {
        assert!(from < until, "fault window must be non-empty");
        self.from_iteration = from;
        self.until_iteration = until;
        self
    }

    fn in_window(&self, iteration: u64) -> bool {
        (self.from_iteration..self.until_iteration).contains(&iteration)
    }
}

/// A seeded, schedulable fault plan. Empty plans are bit-transparent: a
/// [`FaultyModel`] over an empty plan reproduces the wrapped model exactly,
/// and the runtime's actuator shim becomes a no-op.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan under the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds a fault spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The chaos seed from [`FAULT_SEED_ENV`], or [`DEFAULT_FAULT_SEED`]
    /// when unset/unparsable.
    pub fn seed_from_env() -> u64 {
        harmonia_types::Session::from_env().fault_seed()
    }

    /// Rolls spec `idx` for this invocation; `Some(rng)` when it fires, with
    /// the RNG positioned for the spec's magnitude draws. Deterministic in
    /// `(seed, idx, kind, kernel, cfg, iteration, attempt)`; `attempt` 0 is
    /// the original request (the historical byte-stable salt), nonzero
    /// attempts are the retry shim's re-issued requests, which roll fresh.
    fn roll(
        &self,
        idx: usize,
        spec: &FaultSpec,
        kernel: &str,
        cfg: HwConfig,
        iteration: u64,
        attempt: u32,
    ) -> Option<SmallRng> {
        if !spec.in_window(iteration) {
            return None;
        }
        let salt = 0xB105_F00D_u64
            ^ ((idx as u64) << 48)
            ^ ((spec.kind as u64) << 40)
            ^ (u64::from(attempt) << 16);
        let mut rng = rng_for(self.seed ^ salt, kernel, cfg, iteration);
        (rng.gen_range(0.0..1.0) < spec.probability).then_some(rng)
    }

    /// Resolves the actuation faults for one invocation attempt on `grid`:
    /// the governor wanted `wanted`, the previous invocation actually ran at
    /// `previous`. Returns the first firing actuator fault and the
    /// configuration that actually takes effect; `None` when actuation is
    /// clean. Neighbor and throttle faults step along `grid`'s lattice, so
    /// the returned configuration is always a point of that grid. Attempt 0
    /// is the invocation's first request; the retry shim's re-issued
    /// requests roll the fault probabilities fresh — a denied transition may
    /// succeed when re-issued, which is exactly what retry-with-backoff
    /// banks on.
    pub fn actuate_attempt_on(
        &self,
        grid: &harmonia_types::GridSpec,
        kernel: &str,
        wanted: HwConfig,
        previous: Option<HwConfig>,
        iteration: u64,
        attempt: u32,
    ) -> Option<(FaultKind, HwConfig)> {
        for (idx, spec) in self.specs.iter().enumerate() {
            if !spec.kind.is_actuator() {
                continue;
            }
            let Some(mut rng) = self.roll(idx, spec, kernel, wanted, iteration, attempt) else {
                continue;
            };
            let actual = match spec.kind {
                // Denied and late transitions both leave the hardware where
                // it was; they differ in duration (a delayed request is
                // typically re-issued and lands next invocation, a denied
                // one is dropped), which the per-invocation shim models
                // identically for a single boundary.
                FaultKind::DvfsDeny | FaultKind::DvfsDelay => previous.unwrap_or(wanted),
                FaultKind::DvfsNeighbor => {
                    let t = Tunable::ALL[rng.gen_range(0..Tunable::ALL.len())];
                    let up = rng.gen_range(0.0..1.0) < 0.5;
                    let stepped = if up {
                        wanted.step_up_on(grid, t)
                    } else {
                        wanted.step_down_on(grid, t)
                    };
                    stepped
                        .or_else(|| {
                            if up {
                                wanted.step_down_on(grid, t)
                            } else {
                                wanted.step_up_on(grid, t)
                            }
                        })
                        .unwrap_or(wanted)
                }
                FaultKind::ThermalThrottle => {
                    let ceiling = if spec.magnitude > 1.0 {
                        spec.magnitude
                    } else {
                        500.0
                    };
                    let mut cfg = wanted;
                    while f64::from(cfg.compute.freq().value()) > ceiling {
                        match cfg.step_down_on(grid, Tunable::CuFreq) {
                            Some(down) => cfg = down,
                            None => break,
                        }
                    }
                    cfg
                }
                _ => unreachable!("counter faults filtered above"),
            };
            return Some((spec.kind, actual));
        }
        None
    }

    /// Applies the measurement-path faults to a simulated result. `inner`
    /// supplies the stale sample for stuck-at faults.
    fn apply_counter_faults<M: TimingModel>(
        &self,
        inner: &M,
        cfg: HwConfig,
        kernel: &KernelProfile,
        iteration: u64,
        result: &mut SimResult,
    ) {
        for (idx, spec) in self.specs.iter().enumerate() {
            if !spec.kind.is_counter() {
                continue;
            }
            let Some(mut rng) = self.roll(idx, spec, &kernel.name, cfg, iteration, 0) else {
                continue;
            };
            let c = &mut result.counters;
            match spec.kind {
                FaultKind::CounterDropout => {
                    // The read failed: dynamic counters report zero. Static
                    // resource descriptors (registers, occupancy) and the
                    // wall-clock timer come from different hardware and
                    // survive.
                    c.valu_busy_pct = 0.0;
                    c.valu_utilization_pct = 0.0;
                    c.mem_unit_busy_pct = 0.0;
                    c.mem_unit_stalled_pct = 0.0;
                    c.write_unit_stalled_pct = 0.0;
                    c.ic_activity = 0.0;
                    c.valu_insts = 0;
                    c.vfetch_insts = 0;
                    c.vwrite_insts = 0;
                    c.dram_bytes = 0.0;
                    c.achieved_bw_gbps = 0.0;
                    c.l2_hit_rate = 0.0;
                }
                FaultKind::CounterStuck => {
                    // The sample latch is stuck on the reading from the
                    // window start; timing is unaffected.
                    let stale = inner.simulate(cfg, kernel, spec.from_iteration);
                    result.counters = stale.counters;
                }
                FaultKind::CounterSpike => {
                    let scale = 1.0 + spec.magnitude * rng.gen_range(0.5..1.5);
                    c.valu_busy_pct *= scale;
                    c.mem_unit_busy_pct *= scale;
                    c.dram_bytes *= scale;
                    c.achieved_bw_gbps *= scale;
                    c.valu_insts = (c.valu_insts as f64 * scale) as u64;
                }
                FaultKind::SensorBias => {
                    let scale = 1.0 + spec.magnitude;
                    c.valu_busy_pct *= scale;
                    c.valu_utilization_pct *= scale;
                    c.mem_unit_busy_pct *= scale;
                    c.mem_unit_stalled_pct *= scale;
                    c.write_unit_stalled_pct *= scale;
                    c.ic_activity *= scale;
                    c.dram_bytes *= scale;
                    c.achieved_bw_gbps *= scale;
                }
                FaultKind::PowerGlitch => {
                    // The power/telemetry DAQ channel glitches: the sample's
                    // timing and bandwidth read back as NaN. Unhardened
                    // pipelines propagate this into activity, power, and
                    // energy accounting.
                    c.duration = Seconds(f64::NAN);
                    c.achieved_bw_gbps = f64::NAN;
                }
                _ => unreachable!("actuator faults filtered above"),
            }
        }
    }
}

/// Wraps a [`TimingModel`] and applies a [`FaultPlan`]'s measurement-path
/// faults to its counter output. Composable with
/// [`NoisyModel`](crate::noise::NoisyModel) (wrap either way) and the sweep
/// cache (iteration-seeded faults keep the conservative
/// `phase_determined = false` memoization).
#[derive(Debug, Clone)]
pub struct FaultyModel<M> {
    inner: M,
    plan: FaultPlan,
}

impl<M: TimingModel> FaultyModel<M> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The fault plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<M: TimingModel> TimingModel for FaultyModel<M> {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        let mut result = self.inner.simulate(cfg, kernel, iteration);
        if !self.plan.is_empty() {
            self.plan
                .apply_counter_faults(&self.inner, cfg, kernel, iteration, &mut result);
        }
        result
    }

    fn gpu(&self) -> &GpuDescriptor {
        self.inner.gpu()
    }

    fn phase_determined(&self) -> bool {
        // Faults are seeded per raw iteration, so only the empty plan may
        // inherit the inner model's phase-collapsed memoization.
        self.plan.is_empty() && self.inner.phase_determined()
    }

    fn fidelity_key(&self) -> u64 {
        // An active plan corrupts the measurement path: mix its seed over
        // the inner key so faulted results never alias clean ones in a
        // shared sweep cache. The empty plan is bit-transparent and keeps
        // the inner key.
        if self.plan.is_empty() {
            self.inner.fidelity_key()
        } else {
            mix_fidelity(self.inner.fidelity_key(), 0xFA17) ^ self.plan.seed.rotate_left(21)
        }
    }

    fn device_key(&self) -> u64 {
        self.inner.device_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalModel;
    use crate::noise::NoisyModel;
    use harmonia_types::GridSpec;

    const HD: GridSpec = GridSpec::HD7970;

    fn kernel() -> KernelProfile {
        KernelProfile::builder("faulty").workitems(1 << 18).build()
    }

    #[test]
    fn empty_plan_is_bit_transparent() {
        let base = IntervalModel::default();
        let faulty = FaultyModel::new(IntervalModel::default(), FaultPlan::new(9));
        let cfg = HwConfig::max_hd7970();
        for i in 0..4 {
            assert_eq!(
                base.simulate(cfg, &kernel(), i),
                faulty.simulate(cfg, &kernel(), i)
            );
        }
        assert!(faulty.phase_determined() == base.phase_determined());
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let plan = FaultPlan::new(3).with(FaultSpec::new(FaultKind::CounterSpike, 0.5));
        let a = FaultyModel::new(IntervalModel::default(), plan.clone());
        let b = FaultyModel::new(IntervalModel::default(), plan);
        let cfg = HwConfig::max_hd7970();
        for i in 0..8 {
            assert_eq!(
                a.simulate(cfg, &kernel(), i),
                b.simulate(cfg, &kernel(), i)
            );
        }
    }

    #[test]
    fn different_seeds_fire_differently() {
        let spec = FaultSpec::new(FaultKind::CounterDropout, 0.5);
        let a = FaultyModel::new(IntervalModel::default(), FaultPlan::new(1).with(spec));
        let b = FaultyModel::new(IntervalModel::default(), FaultPlan::new(2).with(spec));
        let cfg = HwConfig::max_hd7970();
        let differs = (0..16).any(|i| {
            a.simulate(cfg, &kernel(), i).counters != b.simulate(cfg, &kernel(), i).counters
        });
        assert!(differs, "seeds 1 and 2 produced identical fault schedules");
    }

    #[test]
    fn dropout_zeroes_dynamic_counters_only() {
        let plan = FaultPlan::new(5).with(FaultSpec::new(FaultKind::CounterDropout, 1.0));
        let faulty = FaultyModel::new(IntervalModel::default(), plan);
        let cfg = HwConfig::max_hd7970();
        let clean = IntervalModel::default().simulate(cfg, &kernel(), 0);
        let r = faulty.simulate(cfg, &kernel(), 0);
        assert_eq!(r.counters.valu_insts, 0);
        assert_eq!(r.counters.valu_busy_pct, 0.0);
        assert_eq!(r.counters.dram_bytes, 0.0);
        // Timer and static descriptors survive.
        assert_eq!(r.time, clean.time);
        assert_eq!(r.counters.norm_vgpr, clean.counters.norm_vgpr);
        assert_eq!(r.counters.occupancy_fraction, clean.counters.occupancy_fraction);
    }

    #[test]
    fn stuck_latches_the_window_start_sample() {
        let plan = FaultPlan::new(5)
            .with(FaultSpec::new(FaultKind::CounterStuck, 1.0).with_window(2, 6));
        let faulty = FaultyModel::new(IntervalModel::default(), plan);
        let base = IntervalModel::default();
        // Phase-modulated kernel so iterations genuinely differ.
        let k = KernelProfile::builder("phased")
            .workitems(1 << 18)
            .phase(crate::profile::PhaseModulation::Decay {
                ratio: 0.5,
                floor: 0.1,
            })
            .build();
        let cfg = HwConfig::max_hd7970();
        let stale = base.simulate(cfg, &k, 2).counters;
        assert_eq!(faulty.simulate(cfg, &k, 4).counters, stale);
        // Outside the window the model is clean.
        assert_eq!(
            faulty.simulate(cfg, &k, 1).counters,
            base.simulate(cfg, &k, 1).counters
        );
    }

    #[test]
    fn glitch_injects_nan_on_the_telemetry_channel() {
        let plan = FaultPlan::new(5).with(FaultSpec::new(FaultKind::PowerGlitch, 1.0));
        let faulty = FaultyModel::new(IntervalModel::default(), plan);
        let r = faulty.simulate(HwConfig::max_hd7970(), &kernel(), 0);
        assert!(r.counters.duration.value().is_nan());
        assert!(r.counters.achieved_bw_gbps.is_nan());
        assert!(r.time.value().is_finite(), "true timing is unaffected");
    }

    #[test]
    fn actuation_faults_always_return_grid_points() {
        let plan = FaultPlan::new(11)
            .with(FaultSpec::new(FaultKind::DvfsNeighbor, 1.0))
            .with(FaultSpec::new(FaultKind::ThermalThrottle, 1.0));
        let space = harmonia_types::ConfigSpace::hd7970();
        for (i, cfg) in space.iter().enumerate() {
            if let Some((_, actual)) = plan.actuate_attempt_on(&HD, "k", cfg, None, i as u64, 0) {
                assert!(space.contains(actual), "{actual} is off the grid");
            }
        }
    }

    #[test]
    fn deny_holds_the_previous_state() {
        let plan = FaultPlan::new(1).with(FaultSpec::new(FaultKind::DvfsDeny, 1.0));
        let wanted = HwConfig::max_hd7970();
        let prev = wanted.step_down_on(&HD, Tunable::MemFreq).unwrap();
        let (kind, actual) = plan
            .actuate_attempt_on(&HD, "k", wanted, Some(prev), 0, 0)
            .unwrap();
        assert_eq!(kind, FaultKind::DvfsDeny);
        assert_eq!(actual, prev);
        // Without history the denial is a no-op.
        assert_eq!(
            plan.actuate_attempt_on(&HD, "k", wanted, None, 0, 0)
                .unwrap()
                .1,
            wanted
        );
    }

    #[test]
    fn throttle_clamps_the_compute_clock() {
        let plan = FaultPlan::new(1).with(FaultSpec::new(FaultKind::ThermalThrottle, 1.0));
        let (_, actual) = plan
            .actuate_attempt_on(&HD, "k", HwConfig::max_hd7970(), None, 0, 0)
            .unwrap();
        assert!(actual.compute.freq().value() <= 500);
        assert_eq!(actual.compute.cu_count(), 32, "only the clock throttles");
    }

    #[test]
    fn composes_with_noisy_model() {
        let plan = FaultPlan::new(2).with(FaultSpec::new(FaultKind::SensorBias, 1.0));
        let stack = FaultyModel::new(
            NoisyModel::new(IntervalModel::default(), 0.02, 7),
            plan,
        );
        let r = stack.simulate(HwConfig::max_hd7970(), &kernel(), 0);
        assert!(r.time.value() > 0.0);
        assert!(!stack.phase_determined());
    }

    #[test]
    fn shared_rng_matches_noise_discipline() {
        // NoisyModel's historical hash must be reproduced exactly by the
        // shared helper (regression guard for the dedup refactor).
        let cfg = HwConfig::max_hd7970();
        let a = mix_seed(7, "kern", cfg, 3);
        let b = mix_seed(7, "kern", cfg, 3);
        assert_eq!(a, b);
        assert_ne!(mix_seed(7, "kern", cfg, 4), a);
        assert_ne!(mix_seed(8, "kern", cfg, 3), a);
    }

    #[test]
    fn seed_from_env_delegates_to_session() {
        // Whatever the ambient environment holds, the plan seed is exactly
        // the session's parse of it (Session owns the HARMONIA_* semantics).
        assert_eq!(
            FaultPlan::seed_from_env(),
            harmonia_types::Session::from_env().fault_seed()
        );
    }

    #[test]
    #[should_panic(expected = "fault probability")]
    fn invalid_probability_rejected() {
        let _ = FaultSpec::new(FaultKind::CounterDropout, 1.5);
    }
}
