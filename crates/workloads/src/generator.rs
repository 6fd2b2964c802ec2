//! Randomized workload generation.
//!
//! Used by property tests (arbitrary-but-valid kernels must never crash the
//! timing models or the governors) and by robustness studies that check the
//! trained sensitivity predictors on kernels *outside* the training suite.

use harmonia_sim::{KernelProfile, PhaseModulation, PhaseScale};
use rand::Rng;
use std::sync::Arc;

/// Generates a random, always-valid kernel profile.
///
/// The distribution spans the suite's envelope: compute-bound, memory-bound,
/// divergent, register-hungry, and cache-thrashing kernels all occur.
pub fn random_profile<R: Rng + ?Sized>(rng: &mut R, name: impl Into<Arc<str>>) -> KernelProfile {
    let archetype = rng.gen_range(0..4u8);
    let mut b = KernelProfile::builder(name)
        .workitems(1 << rng.gen_range(14..23))
        .workgroup_size(
            *[64u32, 128, 256]
                .get(rng.gen_range(0..3))
                .expect("index in range"),
        )
        .vgprs(rng.gen_range(12..=128))
        .sgprs(rng.gen_range(12..=102))
        .branch_divergence(rng.gen_range(0.0..0.8))
        .mem_divergence(1.0 + rng.gen_range(0.0..3.0))
        .l1_hit_rate(rng.gen_range(0.0..0.9))
        .l2_hit_rate(rng.gen_range(0.0..0.9))
        .blocks_per_wave(rng.gen_range(2..24))
        .launch_overhead_us(rng.gen_range(2.0..20.0));
    b = match archetype {
        0 => b
            .valu_insts_per_item(rng.gen_range(500.0..3000.0))
            .vfetch_insts_per_item(rng.gen_range(0.5..2.0))
            .bytes_per_fetch(rng.gen_range(4.0..16.0)),
        1 => b
            .valu_insts_per_item(rng.gen_range(4.0..60.0))
            .vfetch_insts_per_item(rng.gen_range(4.0..10.0))
            .bytes_per_fetch(rng.gen_range(16.0..64.0)),
        2 => b
            .valu_insts_per_item(rng.gen_range(60.0..600.0))
            .vfetch_insts_per_item(rng.gen_range(2.0..8.0))
            .bytes_per_fetch(rng.gen_range(8.0..32.0))
            .l2_thrash_slope(rng.gen_range(0.0..0.6)),
        _ => b
            .valu_insts_per_item(rng.gen_range(8.0..200.0))
            .vfetch_insts_per_item(rng.gen_range(1.0..6.0))
            .bytes_per_fetch(rng.gen_range(4.0..32.0))
            .vwrite_insts_per_item(rng.gen_range(0.0..3.0))
            .bytes_per_write(rng.gen_range(4.0..32.0)),
    };
    if rng.gen_bool(0.3) {
        let len = rng.gen_range(2..8);
        let phases = (0..len)
            .map(|_| PhaseScale {
                compute: rng.gen_range(0.2..4.0),
                memory: rng.gen_range(0.2..4.0),
            })
            .collect();
        b = b.phase(PhaseModulation::Cycle(phases));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::{GpuDescriptor, IntervalModel, TimingModel};
    use harmonia_types::HwConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_profiles_are_valid_and_simulate() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = IntervalModel::default();
        let gpu = GpuDescriptor::hd7970();
        for i in 0..50 {
            let k = random_profile(&mut rng, format!("rand{i}"));
            assert!(k.vgprs_per_item <= gpu.vgprs_per_simd);
            assert!(k.mem_divergence >= 1.0);
            let r = model.simulate(HwConfig::max_hd7970(), &k, 0);
            assert!(r.time.value().is_finite() && r.time.value() > 0.0);
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = random_profile(&mut StdRng::seed_from_u64(42), "a");
        let b = random_profile(&mut StdRng::seed_from_u64(42), "a");
        assert_eq!(a, b);
    }
}
