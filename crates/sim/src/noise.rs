//! Measurement-noise injection for robustness studies.
//!
//! The paper runs on real hardware and runs "each application multiple
//! times and recorded the average to eliminate run-to-run variance"
//! (Section 6). The simulator is noiseless, which flatters any controller;
//! [`NoisyModel`] wraps a [`TimingModel`] and perturbs both the execution
//! time and the counter values with deterministic, seeded, bounded relative
//! noise — so experiments can ask how much run-to-run variance Harmonia's
//! predictors and feedback loop tolerate.

use crate::counters::CounterSample;
use crate::device::GpuDescriptor;
use crate::model::{SimResult, TimingModel};
use crate::profile::KernelProfile;
use harmonia_types::{HwConfig, Seconds};
use rand::rngs::SmallRng;
use rand::Rng;

/// Wraps a timing model and perturbs its outputs with bounded relative
/// noise. Deterministic: the perturbation is seeded from the kernel name,
/// configuration, iteration, and the wrapper's seed.
#[derive(Debug, Clone)]
pub struct NoisyModel<M> {
    inner: M,
    /// Maximum relative perturbation (0.05 = ±5%).
    amplitude: f64,
    seed: u64,
}

impl<M: TimingModel> NoisyModel<M> {
    /// Wraps `inner` with ±`amplitude` relative noise.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or ≥ 1.
    pub fn new(inner: M, amplitude: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&amplitude),
            "noise amplitude must be in [0, 1)"
        );
        Self {
            inner,
            amplitude,
            seed,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn rng_for(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SmallRng {
        crate::faults::rng_for(self.seed, &kernel.name, cfg, iteration)
    }
}

impl<M: TimingModel> TimingModel for NoisyModel<M> {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        let mut result = self.inner.simulate(cfg, kernel, iteration);
        if self.amplitude <= 0.0 {
            return result;
        }
        let mut rng = self.rng_for(cfg, kernel, iteration);
        let mut wobble = |v: f64| -> f64 {
            v * (1.0 + rng.gen_range(-self.amplitude..self.amplitude))
        };

        let t = wobble(result.time.value()).max(1e-12);
        result.time = Seconds(t);
        let c = &mut result.counters;
        let noisy = CounterSample {
            duration: Seconds(t),
            valu_busy_pct: wobble(c.valu_busy_pct).clamp(0.0, 100.0),
            valu_utilization_pct: wobble(c.valu_utilization_pct).clamp(0.0, 100.0),
            mem_unit_busy_pct: wobble(c.mem_unit_busy_pct).clamp(0.0, 100.0),
            mem_unit_stalled_pct: wobble(c.mem_unit_stalled_pct).clamp(0.0, 100.0),
            write_unit_stalled_pct: wobble(c.write_unit_stalled_pct).clamp(0.0, 100.0),
            // Static resource usage is exact on real counters too.
            norm_vgpr: c.norm_vgpr,
            norm_sgpr: c.norm_sgpr,
            ic_activity: wobble(c.ic_activity).clamp(0.0, 1.0),
            valu_insts: c.valu_insts,
            vfetch_insts: c.vfetch_insts,
            vwrite_insts: c.vwrite_insts,
            dram_bytes: wobble(c.dram_bytes).max(0.0),
            achieved_bw_gbps: wobble(c.achieved_bw_gbps).max(0.0),
            occupancy_fraction: c.occupancy_fraction,
            l2_hit_rate: c.l2_hit_rate,
        };
        result.counters = noisy;
        result
    }

    fn gpu(&self) -> &GpuDescriptor {
        self.inner.gpu()
    }

    fn fidelity_key(&self) -> u64 {
        // Active noise is a fidelity change of its own: mix the amplitude
        // and seed over the inner key so a noisy wrapper sharing a cache
        // with its clean inner model never serves perturbed results as
        // exact ones. Zero amplitude is transparent, so it inherits the
        // inner key unchanged.
        if self.amplitude <= 0.0 {
            self.inner.fidelity_key()
        } else {
            crate::faults::mix_fidelity(self.inner.fidelity_key(), 0x4e01)
                ^ self.amplitude.to_bits()
                ^ self.seed.rotate_left(13)
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

    fn kernel() -> KernelProfile {
        KernelProfile::builder("noisy").workitems(1 << 18).build()
    }

    #[test]
    fn zero_amplitude_is_transparent() {
        let base = IntervalModel::default();
        let noisy = NoisyModel::new(IntervalModel::default(), 0.0, 1);
        let cfg = HwConfig::max_hd7970();
        assert_eq!(
            base.simulate(cfg, &kernel(), 0),
            noisy.simulate(cfg, &kernel(), 0)
        );
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let base = IntervalModel::default();
        let noisy = NoisyModel::new(IntervalModel::default(), 0.05, 7);
        let cfg = HwConfig::max_hd7970();
        let clean = base.simulate(cfg, &kernel(), 0);
        let a = noisy.simulate(cfg, &kernel(), 0);
        let b = noisy.simulate(cfg, &kernel(), 0);
        assert_eq!(a, b, "seeded noise must be reproducible");
        let rel = (a.time.value() / clean.time.value() - 1.0).abs();
        assert!(rel <= 0.05 + 1e-12, "time perturbation {rel} exceeds amplitude");
        assert!(a.counters.valu_busy_pct <= 100.0);
        assert!(a.counters.ic_activity <= 1.0);
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let a = NoisyModel::new(IntervalModel::default(), 0.05, 1);
        let b = NoisyModel::new(IntervalModel::default(), 0.05, 2);
        let cfg = HwConfig::max_hd7970();
        assert_ne!(
            a.simulate(cfg, &kernel(), 0),
            b.simulate(cfg, &kernel(), 0)
        );
    }

    #[test]
    fn static_counters_stay_exact() {
        let noisy = NoisyModel::new(IntervalModel::default(), 0.2, 3);
        let clean = IntervalModel::default();
        let cfg = HwConfig::max_hd7970();
        let n = noisy.simulate(cfg, &kernel(), 0).counters;
        let c = clean.simulate(cfg, &kernel(), 0).counters;
        assert_eq!(n.norm_vgpr, c.norm_vgpr);
        assert_eq!(n.norm_sgpr, c.norm_sgpr);
        assert_eq!(n.occupancy_fraction, c.occupancy_fraction);
        assert_eq!(n.valu_insts, c.valu_insts);
    }

    #[test]
    #[should_panic(expected = "noise amplitude")]
    fn invalid_amplitude_rejected() {
        let _ = NoisyModel::new(IntervalModel::default(), 1.0, 0);
    }
}
