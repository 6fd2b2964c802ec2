//! Power-management governors.
//!
//! Every governor implements [`Governor`]: before each kernel invocation the
//! runtime asks it to [`decide`](Governor::decide) the hardware
//! configuration, and afterwards lets it [`observe`](Governor::observe) the
//! performance counters — exactly the monitoring-at-kernel-boundaries
//! structure of Section 5.1.
//!
//! * [`BaselineGovernor`] — the stock PowerTune behaviour: with thermal
//!   headroom it always runs the boost configuration.
//! * [`HarmoniaGovernor`] — the paper's contribution: coarse-grain
//!   sensitivity-driven jumps plus fine-grain feedback tuning, with switches
//!   to run CG-only or restrict the managed tunables (the compute-DVFS-only
//!   ablation of Section 7.2).
//! * [`OracleGovernor`] — exhaustive per-kernel-per-iteration ED²
//!   minimization over all ~450 configurations ("impractical to implement",
//!   but the paper's upper bound).
//!
//! Cross-cutting concerns — the power-cap clamp ([`CappedGovernor`]),
//! safe-state watchdogs ([`WatchdogGovernor`]), the graceful-degradation
//! ladder ([`DegradeGovernor`]), counter sanitization
//! ([`SanitizeGovernor`]) — are *not* baked into the governors. Each is a
//! decorator built by a constructor that takes its inner governor, and
//! named stacks are built from one place by the [`PolicySpec`] registry.
//! Every decorator emits into the one [`TraceHandle`] the runtime installs
//! through [`Governor::set_trace`].

mod baseline;
mod capped;
mod coarse;
mod fine;
#[allow(clippy::module_inception)]
mod harmonia;
mod ladder;
mod oracle;
mod powertune;
mod registry;
mod stack;
mod watchdog;

pub use baseline::BaselineGovernor;
pub use capped::CappedGovernor;
pub use coarse::{CoarseGrain, SensitivityBins};
pub use fine::{FgState, FineGrain};
pub use harmonia::{HarmoniaConfig, HarmoniaGovernor};
pub use ladder::{DegradeGovernor, Ladder, LadderSignal, LadderTransition, Rung};
pub use oracle::{Ed2Objective, KernelHandle, OracleGovernor, PlanStore, PowerAffine, PowerTable};
pub use powertune::PowerTuneGovernor;
pub use registry::{Policy, PolicyResources, PolicySpec, DEFAULT_CAP};
pub use stack::{BoxGovernor, DecisionLedger, PolicyStats, SanitizeGovernor};
pub use watchdog::{Watchdog, WatchdogGovernor, WatchdogTransition};

use crate::telemetry::TraceHandle;
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{HwConfig, Seconds};

/// Per-kernel state keyed by kernel name, found by scanning the stored
/// names: a lookup compares lengths, then bytes, and hashes nothing. One
/// governor sees one application's kernels (1–3 in the suite), so the scan
/// is a handful of short compares; a governor fed hundreds of distinct
/// kernels would want an index instead. Only the first
/// [`slot`](Self::slot) for a kernel copies its name. Every governor layer
/// that keeps per-kernel state stores it here, so a warm decision
/// allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct KernelMap<V> {
    names: Vec<Box<str>>,
    slots: Vec<V>,
}

impl<V> Default for KernelMap<V> {
    fn default() -> Self {
        Self {
            names: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<V> KernelMap<V> {
    fn position(&self, kernel: &str) -> Option<usize> {
        self.names.iter().position(|n| **n == *kernel)
    }

    /// The state stored for `kernel`, if the kernel has been seen.
    pub(crate) fn get(&self, kernel: &str) -> Option<&V> {
        self.position(kernel).map(|i| &self.slots[i])
    }

    /// The state for `kernel`, created by `init` the first time the kernel
    /// is seen.
    pub(crate) fn slot(&mut self, kernel: &str, init: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(kernel) {
            Some(i) => i,
            None => {
                self.names.push(kernel.into());
                self.slots.push(init());
                self.slots.len() - 1
            }
        };
        &mut self.slots[i]
    }
}

/// A runtime power-management policy.
pub trait Governor {
    /// Human-readable policy name used in reports.
    fn name(&self) -> &str;

    /// Installs a telemetry handle so the governor can emit decision-trace
    /// events. The default is a no-op for policies that make no traceable
    /// decisions (the always-boost baseline). Decorators must forward the
    /// handle to their inner governor (a contract tested by
    /// `tests/governor_stack.rs`).
    fn set_trace(&mut self, _trace: TraceHandle) {}

    /// Chooses the hardware configuration for the upcoming invocation of
    /// `kernel` (application iteration `iteration`).
    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig;

    /// Conditions the raw measurement of the invocation that just ran,
    /// *before* the runtime accounts power/energy from it and before
    /// [`observe`](Governor::observe) sees it. The default is the identity:
    /// governors trust their inputs unless wrapped in a [`SanitizeGovernor`],
    /// which overrides this to substitute implausible readings.
    fn condition(
        &mut self,
        _kernel: &KernelProfile,
        _iteration: u64,
        _cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        (time, counters)
    }

    /// Observes the counters produced by the invocation that just ran at
    /// `cfg`.
    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    );
}

/// Boxed governors govern: forwarding **every** method (including the
/// default-bodied ones) keeps layered stacks behaviourally identical to the
/// unboxed composition — a `Box<SanitizeGovernor>` whose `condition` fell
/// back to the identity default would silently disable sanitization.
impl<G: Governor + ?Sized> Governor for Box<G> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        (**self).set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        (**self).decide(kernel, iteration)
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        (**self).condition(kernel, iteration, cfg, time, counters)
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        (**self).observe(kernel, iteration, cfg, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::KernelMap;

    #[test]
    fn kernel_map_keys_on_the_name_not_the_allocation() {
        let mut map = KernelMap::default();
        *map.slot(&String::from("Sort.Scan"), || 0) += 1;
        // An equal name from another allocation finds the same slot.
        *map.slot(&String::from("Sort.Scan"), || 0) += 1;
        assert_eq!(map.get("Sort.Scan"), Some(&2));
        // A distinct name of the same length gets a slot of its own.
        *map.slot("Sort.Scam", || 10) += 1;
        assert_eq!(map.get("Sort.Scan"), Some(&2));
        assert_eq!(map.get("Sort.Scam"), Some(&11));
        // Neither a prefix nor an extension of a stored name matches it.
        assert_eq!(map.get("Sort.Sca"), None);
        assert_eq!(map.get("Sort.Scans"), None);
        assert_eq!(map.slots.len(), 2);
    }
}
