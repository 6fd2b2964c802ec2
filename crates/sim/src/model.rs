//! The timing-model abstraction.

use crate::batch::SweepTerms;
use crate::counters::CounterSample;
use crate::device::GpuDescriptor;
use crate::profile::KernelProfile;
use harmonia_types::{HwConfig, Seconds};
use serde::{Deserialize, Serialize};

/// Adaptive-fidelity accounting for one simulation: how many waves were
/// event-stepped exactly versus extrapolated analytically once the model
/// detected steady state (see
/// [`FastForwardPolicy`](crate::event::FastForwardPolicy)).
///
/// All-zero for models without a fast-forward notion (the default), so the
/// field is free for every existing consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FastForwardStats {
    /// Waves played out event by event.
    pub stepped_waves: u64,
    /// Waves whose completion was extrapolated from the converged
    /// steady-state throughput instead of being stepped.
    pub fast_forwarded_waves: u64,
}

impl FastForwardStats {
    /// Whether the run was exact: nothing was extrapolated (also true for
    /// models that never fast-forward and leave the stats at zero).
    pub fn is_exact(&self) -> bool {
        self.fast_forwarded_waves == 0
    }
}

/// Result of simulating one kernel invocation at one hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimResult {
    /// Kernel execution time.
    pub time: Seconds,
    /// Performance counters collected over the execution.
    pub counters: CounterSample,
    /// Fast-forward accounting (zero unless the producing model extrapolated
    /// part of the run). Omitted from serialization when exact so existing
    /// serialized artifacts keep their bytes; absent on input it defaults to
    /// exact. (Hand-written impls below: the vendored derive has no
    /// `skip_serializing_if`/`default` attributes.)
    pub fast_forward: FastForwardStats,
}

impl Serialize for SimResult {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("time".to_string(), self.time.to_value()),
            ("counters".to_string(), self.counters.to_value()),
        ];
        if !self.fast_forward.is_exact() {
            entries.push(("fast_forward".to_string(), self.fast_forward.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for SimResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(SimResult {
            time: Deserialize::from_value(v.field("time")?)?,
            counters: Deserialize::from_value(v.field("counters")?)?,
            fast_forward: match v.field("fast_forward") {
                Ok(ff) => Deserialize::from_value(ff)?,
                Err(_) => FastForwardStats::default(),
            },
        })
    }
}

/// A timing model: maps (configuration, kernel, iteration) to execution time
/// and counters.
///
/// Two implementations exist: the fast analytic [`IntervalModel`] used for
/// design-space sweeps and the oracle, and the discrete-event [`EventModel`]
/// used for cross-validation. Both are deterministic.
///
/// [`IntervalModel`]: crate::interval::IntervalModel
/// [`EventModel`]: crate::event::EventModel
pub trait TimingModel: Send + Sync {
    /// Simulates invocation `iteration` of `kernel` at `cfg`.
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult;

    /// Simulates invocation `iteration` of `kernel` at every configuration
    /// in `cfgs`, in order.
    ///
    /// The contract is **bit-identity with the scalar path**: lane `i` of
    /// the returned vector must equal `self.simulate(cfgs[i], kernel,
    /// iteration)` byte for byte, for any subset and ordering of
    /// configurations. The default implementation is the scalar loop;
    /// models with batch structure override it — the interval model
    /// evaluates the whole grid in one struct-of-arrays pass
    /// ([`IntervalModel::simulate_batch`](crate::interval::IntervalModel)),
    /// and the event model fans the loop out across the shared sweep pool.
    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        cfgs.iter()
            .map(|&cfg| self.simulate(cfg, kernel, iteration))
            .collect()
    }

    /// Per-configuration sweep terms for incremental re-sweeps, when the
    /// model can factor its timing expression by phase scale (see
    /// [`SweepTerms`]); `None` (the default) disables the incremental path
    /// and every new phase scale costs a full batch.
    ///
    /// Only phase-determined, analytically-factorable models should return
    /// terms — the interval model does; event, trace, noise, and fault
    /// models keep the default.
    fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
        let _ = (cfgs, kernel);
        None
    }

    /// The device being simulated.
    fn gpu(&self) -> &GpuDescriptor;

    /// Whether [`TimingModel::simulate`] depends on the iteration number
    /// *only* through the kernel's phase scale
    /// ([`PhaseModulation::scale_for`]).
    ///
    /// Phase-determined models let the sweep cache
    /// ([`crate::sweep::SimCache`]) collapse all iterations with identical
    /// phase scales into a single entry — the analytic interval and event
    /// models qualify. Models that additionally seed per-iteration
    /// randomness (the trace generator's burst jitter, measurement noise)
    /// must keep the conservative default `false`; they are then memoized
    /// per raw iteration instead.
    ///
    /// [`PhaseModulation::scale_for`]: crate::profile::PhaseModulation::scale_for
    fn phase_determined(&self) -> bool {
        false
    }

    /// A key identifying this model's *fidelity configuration* — every knob
    /// that changes its results for the same `(cfg, kernel, phase scale)`
    /// point without being part of that point: wave-cap truncation,
    /// fast-forward policy, injected noise or faults.
    ///
    /// The sweep cache ([`crate::sweep::SimCache`]) folds this key into its
    /// entries so an exact model and an approximating variant of the same
    /// model never alias each other's memoized results. Models with no such
    /// knobs keep the default `0`.
    fn fidelity_key(&self) -> u64 {
        0
    }

    /// A key identifying the *device* this model simulates, so caches keyed
    /// on `(kernel, fidelity)` never alias results across devices with
    /// different grids or machine parameters.
    ///
    /// Simulating models return the [`GpuDescriptor::fingerprint`] of their
    /// device, computed once at construction; wrappers forward their inner
    /// model's key alongside `fidelity_key`. The method has no default
    /// because the fingerprint is a byte-wise FNV-1a over the whole
    /// descriptor (hundreds of nanoseconds) and every sweep-cache lookup and
    /// plan decision asks for it — re-hashing [`TimingModel::gpu`] per call
    /// would cost more than a warm decision itself.
    fn device_key(&self) -> u64;
}

impl<T: TimingModel + ?Sized> TimingModel for &T {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        (**self).simulate(cfg, kernel, iteration)
    }

    // Forwarded explicitly: the default would re-dispatch to the scalar
    // loop and silently drop the inner model's batch implementation.
    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        (**self).simulate_batch(cfgs, kernel, iteration)
    }

    fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
        (**self).sweep_terms(cfgs, kernel)
    }

    fn gpu(&self) -> &GpuDescriptor {
        (**self).gpu()
    }

    fn phase_determined(&self) -> bool {
        (**self).phase_determined()
    }

    fn fidelity_key(&self) -> u64 {
        (**self).fidelity_key()
    }

    fn device_key(&self) -> u64 {
        (**self).device_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalModel;

    #[test]
    fn trait_object_usable_through_reference() {
        let model = IntervalModel::new(GpuDescriptor::hd7970());
        let k = KernelProfile::builder("k").build();
        let by_ref: &dyn TimingModel = &model;
        let r = by_ref.simulate(HwConfig::max_hd7970(), &k, 0);
        assert!(r.time.value() > 0.0);
        assert_eq!(by_ref.gpu().max_cu, 32);
    }
}
