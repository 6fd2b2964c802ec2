//! The [`TimingModel`] side of replay.
//!
//! Recording needs no model adapter: the runtime records each composite
//! sample the monitoring block saw (the outermost model's output, with
//! every stochastic perturbation baked in) as a
//! [`SessionEvent::Sample`](crate::SessionEvent::Sample). [`ReplayModel`]
//! is the other side: it has no inner model at all and serves recorded
//! samples from a [`Replayer`], which is what "the model's stochastic
//! sources swapped for trace playback" means mechanically.

use crate::Replayer;
use harmonia_sim::model::SimResult;
use harmonia_sim::{GpuDescriptor, KernelProfile, TimingModel};
use harmonia_types::HwConfig;

/// A [`TimingModel`] with no simulation inside: every `simulate` call is
/// answered from the recorded session via a [`Replayer`]. An exhausted or
/// mismatched trace is retained as a [`ReplayError`](crate::ReplayError)
/// (and an all-zero result is returned) so the run completes and the
/// differ can localize the damage.
pub struct ReplayModel {
    replayer: Replayer,
    gpu: GpuDescriptor,
    /// `gpu.fingerprint()`, computed once ([`TimingModel::device_key`]).
    device_key: u64,
}

impl ReplayModel {
    /// A playback model over `replayer`, describing `gpu`.
    pub fn new(replayer: Replayer, gpu: GpuDescriptor) -> Self {
        Self {
            replayer,
            device_key: gpu.fingerprint(),
            gpu,
        }
    }

    /// The shared replay cursor.
    pub fn replayer(&self) -> &Replayer {
        &self.replayer
    }
}

impl TimingModel for ReplayModel {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        self.replayer
            .sample_for(cfg, &kernel.name, iteration)
            .unwrap_or_default()
    }

    fn gpu(&self) -> &GpuDescriptor {
        &self.gpu
    }

    fn phase_determined(&self) -> bool {
        false
    }

    fn fidelity_key(&self) -> u64 {
        // Playback results must never alias a live model's in a shared
        // sweep cache.
        harmonia_sim::faults::mix_fidelity(0, 0x5e55_0000_0000_0001)
    }

    fn device_key(&self) -> u64 {
        self.device_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, SessionEvent};
    use harmonia_sim::{FaultKind, FaultPlan, FaultSpec, FaultyModel, IntervalModel, NoisyModel};

    fn kernel() -> KernelProfile {
        KernelProfile::builder("rr-model")
            .workitems(1 << 18)
            .build()
    }

    /// The full stochastic stack — noise under counter faults — recorded
    /// once and replayed bit-exactly without consulting any seed.
    #[test]
    fn record_then_replay_reproduces_a_noisy_faulty_stack() {
        let plan = FaultPlan::new(0xFA17)
            .with(FaultSpec::new(FaultKind::CounterSpike, 0.5).with_magnitude(4.0))
            .with(FaultSpec::new(FaultKind::PowerGlitch, 0.3));
        let stack = FaultyModel::new(NoisyModel::new(IntervalModel::default(), 0.05, 7), plan);
        let recorder = Recorder::new();

        let k = kernel();
        let cfg = HwConfig::max_hd7970();
        let low = cfg
            .step_down_on(&stack.gpu().grid, harmonia_types::Tunable::CuFreq)
            .unwrap();
        // Record each composite sample as the runtime does.
        let live: Vec<SimResult> = (0..8)
            .map(|i| {
                let at = if i % 2 == 0 { cfg } else { low };
                let result = stack.simulate(at, &k, i);
                recorder.record(SessionEvent::Sample {
                    kernel: k.name.clone(),
                    iteration: i,
                    cfg: at.into(),
                    time_s: result.time.value(),
                    counters: result.counters,
                    stepped_waves: result.fast_forward.stepped_waves,
                    fast_forwarded_waves: result.fast_forward.fast_forwarded_waves,
                });
                result
            })
            .collect();
        assert_eq!(recorder.len(), 8);

        let replay = ReplayModel::new(Replayer::new(recorder.events()), *stack.gpu());
        for (i, expected) in live.iter().enumerate() {
            let got = replay.simulate(if i % 2 == 0 { cfg } else { low }, &k, i as u64);
            assert_eq!(
                got.time.value().to_bits(),
                expected.time.value().to_bits(),
                "invocation {i} time"
            );
            assert!(
                crate::counters_eq(&got.counters, &expected.counters),
                "invocation {i} counters"
            );
            assert_eq!(got.fast_forward, expected.fast_forward);
        }
        assert!(replay.replayer().error().is_none());
    }

    #[test]
    fn exhausted_replay_returns_default_and_flags() {
        let replay = ReplayModel::new(Replayer::new(vec![]), *IntervalModel::default().gpu());
        let r = replay.simulate(HwConfig::max_hd7970(), &kernel(), 0);
        assert_eq!(r.time.value(), 0.0);
        assert!(replay.replayer().error().is_some());
    }
}
