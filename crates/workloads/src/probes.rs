//! Synthetic probe kernels for platform characterization.
//!
//! MaxFlops and DeviceMemory are the paper's two hardware-stress probes;
//! this module generalizes them into parameterized families used to
//! characterize a platform the way Section 3 does: bandwidth ceilings,
//! latency exposure at controlled occupancy, divergence ladders, and
//! ops/byte sweeps for locating balance knees.

use harmonia_sim::KernelProfile;

/// A pure-compute probe: measures the FLOP ceiling. `intensity` scales the
/// per-item instruction count (1.0 ≈ MaxFlops).
pub fn compute_probe(intensity: f64) -> KernelProfile {
    let intensity = intensity.max(0.01);
    KernelProfile::builder(format!("probe.compute:{intensity:.2}"))
        .workitems(1 << 20)
        .vgprs(24)
        .sgprs(16)
        .valu_insts_per_item(2048.0 * intensity)
        .vfetch_insts_per_item(1.0)
        .bytes_per_fetch(4.0)
        .l1_hit_rate(0.95)
        .l2_hit_rate(0.9)
        .blocks_per_wave(4)
        .build()
}

/// A streaming-bandwidth probe: measures the achievable DRAM ceiling.
/// `bytes_per_item` controls the stream width.
pub fn bandwidth_probe(bytes_per_item: f64) -> KernelProfile {
    let bytes = bytes_per_item.max(4.0);
    KernelProfile::builder(format!("probe.bandwidth:{bytes:.0}B"))
        .workitems(1 << 22)
        .vgprs(16)
        .sgprs(16)
        .valu_insts_per_item(4.0)
        .vfetch_insts_per_item((bytes / 32.0).max(1.0))
        .bytes_per_fetch(32.0)
        .l1_hit_rate(0.0)
        .l2_hit_rate(0.0)
        .blocks_per_wave(8)
        .build()
}

/// A latency probe at controlled occupancy: `waves_per_simd` (1–10) is
/// enforced through VGPR pressure, exposing DRAM latency when hiding runs
/// out (the Figure 7 mechanism, made into a dial).
///
/// # Panics
///
/// Panics if `waves_per_simd` is outside 1..=10.
pub fn occupancy_probe(waves_per_simd: u32) -> KernelProfile {
    assert!(
        (1..=10).contains(&waves_per_simd),
        "occupancy must be 1..=10 waves/SIMD"
    );
    // VGPRs per item forcing exactly `waves` resident: floor(256 / vgprs).
    let vgprs = match waves_per_simd {
        1 => 256,
        2 => 128,
        3 => 85,
        4 => 64,
        5 => 51,
        6 => 42,
        7 => 36,
        8 => 32,
        9 => 28,
        _ => 25,
    };
    KernelProfile::builder(format!("probe.occupancy:{waves_per_simd}"))
        .workitems(1 << 21)
        .vgprs(vgprs)
        .sgprs(16)
        .valu_insts_per_item(8.0)
        .vfetch_insts_per_item(4.0)
        .bytes_per_fetch(16.0)
        .l1_hit_rate(0.05)
        .l2_hit_rate(0.1)
        .blocks_per_wave(16)
        .build()
}

/// A divergence ladder: fixed instruction budget with `divergence` of the
/// lanes masked off (the Figure 8 mechanism).
pub fn divergence_probe(divergence: f64) -> KernelProfile {
    let divergence = divergence.clamp(0.0, 0.95);
    KernelProfile::builder(format!("probe.divergence:{divergence:.2}"))
        .workitems(1 << 20)
        .vgprs(32)
        .sgprs(24)
        .valu_insts_per_item(256.0)
        .vfetch_insts_per_item(2.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(divergence)
        .l1_hit_rate(0.4)
        .l2_hit_rate(0.5)
        .build()
}

/// An ops/byte ladder for locating a platform's balance knee (Figure 3):
/// demand intensity `ops_per_byte` with a fixed streaming denominator.
pub fn balance_probe(ops_per_byte: f64) -> KernelProfile {
    let opb = ops_per_byte.max(0.05);
    let bytes_per_item = 128.0;
    KernelProfile::builder(format!("probe.balance:{opb:.2}"))
        .workitems(1 << 21)
        .vgprs(24)
        .sgprs(16)
        .valu_insts_per_item(opb * bytes_per_item)
        .vfetch_insts_per_item(4.0)
        .bytes_per_fetch(32.0)
        .l1_hit_rate(0.0)
        .l2_hit_rate(0.0)
        .blocks_per_wave(8)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::{GpuDescriptor, IntervalModel, Occupancy, TimingModel};
    use harmonia_types::{ComputeConfig, GridSpec, HwConfig, MegaHertz, MemoryConfig};

    fn cfg(cu: u32, f: u32, m: u32) -> HwConfig {
        HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, cu, MegaHertz(f)).unwrap(),
            MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(m)).unwrap(),
        )
    }

    #[test]
    fn compute_probe_scales_linearly_with_compute() {
        let m = IntervalModel::default();
        let k = compute_probe(1.0);
        let slow = m.simulate(cfg(16, 500, 1375), &k, 0).time.value();
        let fast = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(slow / fast > 3.5, "speedup {}", slow / fast);
    }

    #[test]
    fn bandwidth_probe_saturates_the_bus() {
        let m = IntervalModel::default();
        let k = bandwidth_probe(128.0);
        let r = m.simulate(HwConfig::max_hd7970(), &k, 0);
        assert!(
            r.counters.ic_activity > 0.8,
            "bandwidth probe only reached {:.2} of peak",
            r.counters.ic_activity
        );
    }

    #[test]
    fn occupancy_probe_hits_exact_wave_counts() {
        let gpu = GpuDescriptor::hd7970();
        for waves in 1..=10 {
            let k = occupancy_probe(waves);
            let occ = Occupancy::compute(&gpu, &k, 32);
            assert_eq!(occ.waves_per_simd, waves, "probe {waves}");
        }
    }

    #[test]
    #[should_panic(expected = "occupancy must be")]
    fn occupancy_probe_validates_range() {
        let _ = occupancy_probe(11);
    }

    #[test]
    fn higher_occupancy_extracts_more_bandwidth() {
        let m = IntervalModel::default();
        let low = m
            .simulate(HwConfig::max_hd7970(), &occupancy_probe(1), 0)
            .counters
            .achieved_bw_gbps;
        let high = m
            .simulate(HwConfig::max_hd7970(), &occupancy_probe(10), 0)
            .counters
            .achieved_bw_gbps;
        assert!(
            high > low * 1.5,
            "occupancy 10 ({high} GB/s) should beat occupancy 1 ({low} GB/s)"
        );
    }

    #[test]
    fn divergence_probe_reports_its_utilization() {
        let m = IntervalModel::default();
        let r = m.simulate(HwConfig::max_hd7970(), &divergence_probe(0.75), 0);
        assert!((r.counters.valu_utilization_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn balance_ladder_crosses_from_memory_to_compute_bound() {
        let m = IntervalModel::default();
        let cfg = HwConfig::max_hd7970();
        let lean = m.simulate(cfg, &balance_probe(0.5), 0).counters;
        let heavy = m.simulate(cfg, &balance_probe(64.0), 0).counters;
        assert!(
            lean.ic_activity > 0.5,
            "low-intensity probe must be memory bound"
        );
        assert!(
            heavy.valu_busy_pct > 80.0,
            "high-intensity probe must be compute bound"
        );
        assert!(heavy.ic_activity < lean.ic_activity);
    }

    #[test]
    fn probes_have_unique_descriptive_names() {
        let names = [
            compute_probe(1.0).name,
            bandwidth_probe(128.0).name,
            occupancy_probe(3).name,
            divergence_probe(0.5).name,
            balance_probe(4.0).name,
        ];
        let mut sorted = names.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.iter().all(|n| n.starts_with("probe.")));
    }
}
