//! The 14 applications of Section 6, with per-kernel characterizations.
//!
//! Parameter choices encode what the paper reports about each kernel:
//!
//! * `Sort.BottomScan` uses 66 VGPRs → 30% occupancy, has 6% branch
//!   divergence across millions of instructions, is compute-frequency
//!   sensitive and can run the memory bus at 475 MHz (Sections 3.5, 7.1).
//! * `SRAD.Prepare` has ~75% branch divergence but only 8 ALU instructions,
//!   so compute frequency barely matters (Figure 8).
//! * `CoMD.AdvanceVelocity` has 100% occupancy and is bandwidth sensitive;
//!   `CoMD.EAM_Force_1` tolerates a slow memory bus (Figure 7, Section 7.1).
//! * `DeviceMemory` demands ~4 ops/byte with a poor L2 hit rate, making it
//!   compute-frequency sensitive through the clock-domain crossing
//!   (Figure 9) and bandwidth-bound otherwise (Figure 3b).
//! * `BPT`, `CFD` and `XSBench` thrash the L2 so power-gating CUs *improves*
//!   performance (+11%/+3%/+3%, Section 7.1).
//! * `Graph500.BottomStepUp` sweeps ops/byte from 0.64 to 264 across BFS
//!   levels (Figures 14–16).

use crate::app::Application;
use harmonia_sim::{KernelProfile, PhaseModulation, PhaseScale};

fn scales(pairs: &[(f64, f64)]) -> PhaseModulation {
    PhaseModulation::Cycle(
        pairs
            .iter()
            .map(|&(compute, memory)| PhaseScale { compute, memory })
            .collect(),
    )
}

/// SHOC `MaxFlops`: the pure-compute stress benchmark (Figure 3a).
pub fn maxflops() -> Application {
    let k = KernelProfile::builder("MaxFlops.Main")
        .workitems(1 << 20)
        .vgprs(24)
        .sgprs(16)
        .valu_insts_per_item(2048.0)
        .vfetch_insts_per_item(1.0)
        .vwrite_insts_per_item(0.25)
        .bytes_per_fetch(4.0)
        .bytes_per_write(4.0)
        .branch_divergence(0.0)
        .l1_hit_rate(0.95)
        .l2_hit_rate(0.9)
        .blocks_per_wave(4)
        .build();
    Application::new("MaxFlops", vec![k], 10)
}

/// SHOC `DeviceMemory`: the streaming memory stress benchmark (Figure 3b);
/// demand ops/byte ≈ 4 with a poor L2 hit rate (Figure 9).
pub fn devicememory() -> Application {
    let k = KernelProfile::builder("DeviceMemory.Stream")
        .workitems(1 << 22)
        .vgprs(28)
        .sgprs(20)
        .valu_insts_per_item(960.0)
        .vfetch_insts_per_item(8.0)
        .vwrite_insts_per_item(2.0)
        .bytes_per_fetch(32.0)
        .bytes_per_write(32.0)
        .branch_divergence(0.02)
        .l1_hit_rate(0.02)
        .l2_hit_rate(0.03)
        .blocks_per_wave(8)
        .build();
    Application::new("DeviceMemory", vec![k], 10)
}

/// Rodinia `LUD`: matrix decomposition; compute bound at high memory
/// bandwidth with its best balance near normalized ops/byte ≈ 15 (Fig 3c).
pub fn lud() -> Application {
    let diagonal = KernelProfile::builder("LUD.Diagonal")
        .workitems(1 << 14)
        .vgprs(48)
        .sgprs(40)
        .valu_insts_per_item(220.0)
        .vfetch_insts_per_item(3.0)
        .bytes_per_fetch(8.0)
        .branch_divergence(0.30)
        .l1_hit_rate(0.5)
        .l2_hit_rate(0.6)
        .launch_overhead_us(10.0)
        .build();
    let perimeter = KernelProfile::builder("LUD.Perimeter")
        .workitems(1 << 17)
        .vgprs(44)
        .sgprs(36)
        .valu_insts_per_item(320.0)
        .vfetch_insts_per_item(4.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.18)
        .l1_hit_rate(0.4)
        .l2_hit_rate(0.5)
        .build();
    let internal = KernelProfile::builder("LUD.Internal")
        .workitems(1 << 20)
        .vgprs(40)
        .sgprs(32)
        .valu_insts_per_item(480.0)
        .vfetch_insts_per_item(6.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.08)
        .l1_hit_rate(0.35)
        .l2_hit_rate(0.45)
        .lds_bytes(8 * 1024)
        .build();
    Application::new("LUD", vec![diagonal, perimeter, internal], 16)
}

/// Rodinia `SRAD`: speckle-reducing anisotropic diffusion. `Prepare` is the
/// Figure 8 example: 75% divergence but only 8 ALU instructions.
pub fn srad() -> Application {
    let prepare = KernelProfile::builder("SRAD.Prepare")
        .workitems(1 << 16)
        .vgprs(16)
        .sgprs(16)
        .valu_insts_per_item(8.0)
        .vfetch_insts_per_item(1.0)
        .bytes_per_fetch(8.0)
        .branch_divergence(0.75)
        .l1_hit_rate(0.3)
        .l2_hit_rate(0.4)
        .launch_overhead_us(12.0)
        .blocks_per_wave(2)
        .build();
    let reduce = KernelProfile::builder("SRAD.Reduce")
        .workitems(1 << 18)
        .vgprs(24)
        .sgprs(20)
        .valu_insts_per_item(24.0)
        .vfetch_insts_per_item(2.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.2)
        .l1_hit_rate(0.3)
        .l2_hit_rate(0.4)
        .build();
    let main = KernelProfile::builder("SRAD.Main")
        .workitems(1 << 20)
        .vgprs(36)
        .sgprs(28)
        .valu_insts_per_item(180.0)
        .vfetch_insts_per_item(5.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.1)
        .l1_hit_rate(0.5)
        .l2_hit_rate(0.5)
        .build();
    Application::new("SRAD", vec![prepare, reduce, main], 16)
}

/// SHOC `Sort` (radix sort). `BottomScan` is the paper's running example:
/// 66 VGPRs → 3 waves/SIMD (30% occupancy), 6% divergence over millions of
/// instructions, high compute sensitivity, low bandwidth sensitivity.
pub fn sort() -> Application {
    let bottom_scan = KernelProfile::builder("Sort.BottomScan")
        .workitems(1 << 21)
        .vgprs(66)
        .sgprs(48)
        .valu_insts_per_item(500.0)
        .vfetch_insts_per_item(4.0)
        .vwrite_insts_per_item(1.0)
        .bytes_per_fetch(8.0)
        .bytes_per_write(8.0)
        .branch_divergence(0.06)
        .l1_hit_rate(0.2)
        .l2_hit_rate(0.3)
        .blocks_per_wave(16)
        .build();
    let top_scan = KernelProfile::builder("Sort.TopScan")
        .workitems(1 << 13)
        .vgprs(32)
        .sgprs(32)
        .valu_insts_per_item(120.0)
        .vfetch_insts_per_item(2.0)
        .bytes_per_fetch(8.0)
        .branch_divergence(0.1)
        .l1_hit_rate(0.4)
        .l2_hit_rate(0.6)
        .launch_overhead_us(10.0)
        .build();
    let reduce = KernelProfile::builder("Sort.Reduce")
        .workitems(1 << 20)
        .vgprs(28)
        .sgprs(24)
        .valu_insts_per_item(48.0)
        .vfetch_insts_per_item(2.0)
        .bytes_per_fetch(32.0)
        .branch_divergence(0.05)
        .l1_hit_rate(0.1)
        .l2_hit_rate(0.2)
        .build();
    Application::new("Sort", vec![bottom_scan, top_scan, reduce], 12)
}

/// Exascale proxy `CoMD` (molecular dynamics). `AdvanceVelocity` has 100%
/// occupancy and is bandwidth sensitive (Figure 7); `EAM_Force_1` is
/// compute-heavy and tolerates a slow memory bus (Section 7.1).
pub fn comd() -> Application {
    let advance_velocity = KernelProfile::builder("CoMD.AdvanceVelocity")
        .workitems(1 << 21)
        .vgprs(20)
        .sgprs(20)
        .valu_insts_per_item(160.0)
        .vfetch_insts_per_item(6.0)
        .vwrite_insts_per_item(2.0)
        .bytes_per_fetch(16.0)
        .bytes_per_write(16.0)
        .branch_divergence(0.05)
        .l1_hit_rate(0.25)
        .l2_hit_rate(0.35)
        .build();
    let eam_force = KernelProfile::builder("CoMD.EAM_Force_1")
        .workitems(1 << 20)
        .vgprs(52)
        .sgprs(40)
        .valu_insts_per_item(700.0)
        .vfetch_insts_per_item(5.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.12)
        .l1_hit_rate(0.45)
        .l2_hit_rate(0.5)
        .blocks_per_wave(12)
        .build();
    let advance_position = KernelProfile::builder("CoMD.AdvancePosition")
        .workitems(1 << 21)
        .vgprs(18)
        .sgprs(16)
        .valu_insts_per_item(40.0)
        .vfetch_insts_per_item(3.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.02)
        .l1_hit_rate(0.2)
        .l2_hit_rate(0.3)
        .build();
    Application::new(
        "CoMD",
        vec![advance_velocity, eam_force, advance_position],
        16,
    )
}

/// Exascale proxy `XSBench` (Monte Carlo neutron transport lookup): memory
/// latency bound with heavy cache pressure; only 2 iterations, so
/// coarse-grain tuning must land in one step (Section 7.2).
pub fn xsbench() -> Application {
    let lookup = KernelProfile::builder("XSBench.Lookup")
        .workitems(1 << 21)
        .vgprs(36)
        .sgprs(36)
        .valu_insts_per_item(140.0)
        .vfetch_insts_per_item(6.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(3.0)
        .branch_divergence(0.25)
        .l1_hit_rate(0.05)
        .l2_hit_rate(0.5)
        .l2_thrash_slope(0.35)
        .blocks_per_wave(12)
        .build();
    Application::new("XSBench", vec![lookup], 2)
}

/// Exascale proxy `miniFE` (implicit finite elements): sparse matvec plus a
/// dot-product reduction.
pub fn minife() -> Application {
    let matvec = KernelProfile::builder("miniFE.MatVec")
        .workitems(1 << 20)
        .vgprs(34)
        .sgprs(30)
        .valu_insts_per_item(60.0)
        .vfetch_insts_per_item(5.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(2.2)
        .branch_divergence(0.15)
        .l1_hit_rate(0.15)
        .l2_hit_rate(0.3)
        .build();
    let dot = KernelProfile::builder("miniFE.Dot")
        .workitems(1 << 20)
        .vgprs(20)
        .sgprs(18)
        .valu_insts_per_item(24.0)
        .vfetch_insts_per_item(2.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.03)
        .l1_hit_rate(0.1)
        .l2_hit_rate(0.15)
        .build();
    Application::new("miniFE", vec![matvec, dot], 16)
}

/// `Graph500` breadth-first search. `BottomStepUp` carries the paper's
/// intra-kernel phase study: ops/byte swings from 0.64 to 264 across BFS
/// levels as the frontier grows and collapses (Figures 14–16).
pub fn graph500() -> Application {
    let bottom_step_up = KernelProfile::builder("Graph500.BottomStepUp")
        .workitems(1 << 20)
        .vgprs(36)
        .sgprs(34)
        .valu_insts_per_item(800.0) // divergent both-path execution inflates this
        .vfetch_insts_per_item(4.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(2.0)
        .branch_divergence(0.45)
        .l1_hit_rate(0.1)
        .l2_hit_rate(0.35)
        .l2_thrash_slope(0.15)
        .blocks_per_wave(12)
        .phase(scales(&[
            (1.2, 1.0),
            (2.2, 1.8),
            (3.2, 2.2),
            (2.6, 1.2),
            (1.8, 0.6),
            (1.0, 0.3),
            (0.7, 0.15),
            (0.5, 0.1),
        ]))
        .build();
    let top_down = KernelProfile::builder("Graph500.TopDown")
        .workitems(1 << 20)
        .vgprs(30)
        .sgprs(28)
        .valu_insts_per_item(80.0)
        .vfetch_insts_per_item(6.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(2.0)
        .branch_divergence(0.3)
        .l1_hit_rate(0.1)
        .l2_hit_rate(0.3)
        .phase(scales(&[
            (1.5, 1.8),
            (3.0, 3.5),
            (3.5, 4.0),
            (2.0, 2.2),
            (1.0, 1.0),
            (0.6, 0.5),
            (0.3, 0.3),
            (0.2, 0.2),
        ]))
        .build();
    let bitmap = KernelProfile::builder("Graph500.BitmapConstruct")
        .workitems(1 << 19)
        .vgprs(16)
        .sgprs(16)
        .valu_insts_per_item(30.0)
        .vfetch_insts_per_item(2.0)
        .bytes_per_fetch(32.0)
        .branch_divergence(0.05)
        .l1_hit_rate(0.1)
        .l2_hit_rate(0.2)
        .build();
    Application::new("Graph500", vec![bottom_step_up, top_down, bitmap], 8)
}

/// `BPT` (B+Tree search): heavy memory divergence and L2 thrashing —
/// power-gating CUs reduces cache interference and *improves* performance
/// by ~11% (Section 7.1); Harmonia's best ED² result (36%).
pub fn bpt() -> Application {
    let find_k = KernelProfile::builder("BPT.FindK")
        .workitems(1 << 20)
        .vgprs(48)
        .sgprs(40)
        .valu_insts_per_item(100.0)
        .vfetch_insts_per_item(8.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(3.2)
        .branch_divergence(0.2)
        .l1_hit_rate(0.05)
        .l2_hit_rate(0.8)
        .l2_thrash_slope(0.6)
        .blocks_per_wave(10)
        .build();
    let find_range = KernelProfile::builder("BPT.FindRangeK")
        .workitems(1 << 19)
        .vgprs(44)
        .sgprs(36)
        .valu_insts_per_item(80.0)
        .vfetch_insts_per_item(6.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(2.5)
        .branch_divergence(0.18)
        .l1_hit_rate(0.05)
        .l2_hit_rate(0.75)
        .l2_thrash_slope(0.5)
        .build();
    Application::new("BPT", vec![find_k, find_range], 12)
}

/// Rodinia `CFD` (unstructured-grid Euler solver): cache-pressure-limited
/// flux computation (+3% with Harmonia) plus a streaming time step.
pub fn cfd() -> Application {
    let flux = KernelProfile::builder("CFD.ComputeFlux")
        .workitems(1 << 20)
        .vgprs(46)
        .sgprs(38)
        .valu_insts_per_item(260.0)
        .vfetch_insts_per_item(7.0)
        .bytes_per_fetch(12.0)
        .mem_divergence(1.8)
        .branch_divergence(0.15)
        .l1_hit_rate(0.2)
        .l2_hit_rate(0.6)
        .l2_thrash_slope(0.3)
        .build();
    let time_step = KernelProfile::builder("CFD.TimeStep")
        .workitems(1 << 20)
        .vgprs(24)
        .sgprs(20)
        .valu_insts_per_item(60.0)
        .vfetch_insts_per_item(3.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.03)
        .l1_hit_rate(0.2)
        .l2_hit_rate(0.3)
        .build();
    Application::new("CFD", vec![flux, time_step], 16)
}

/// Rodinia `Streamcluster` (online clustering): sensitive to both compute
/// and memory; its predicted sensitivity sits near a bin edge, the paper's
/// worst case for coarse-grain-only tuning (−27%; Figure 13).
pub fn streamcluster() -> Application {
    let pgain = KernelProfile::builder("Streamcluster.PGain")
        .workitems(1 << 20)
        .vgprs(30)
        .sgprs(26)
        .valu_insts_per_item(240.0)
        .vfetch_insts_per_item(6.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.1)
        .l1_hit_rate(0.3)
        .l2_hit_rate(0.35)
        .build();
    Application::new("Streamcluster", vec![pgain], 16)
}

/// SHOC `Stencil` (2D 9-point stencil): good cache behaviour lets both the
/// memory bus and part of the compute throttle down — the paper's largest
/// power saving (19%, Figure 12).
pub fn stencil() -> Application {
    let stencil2d = KernelProfile::builder("Stencil.Stencil2D")
        .workitems(1 << 21)
        .vgprs(26)
        .sgprs(22)
        .valu_insts_per_item(100.0)
        .vfetch_insts_per_item(5.0)
        .bytes_per_fetch(16.0)
        .branch_divergence(0.05)
        .l1_hit_rate(0.3)
        .l2_hit_rate(0.75)
        .lds_bytes(4 * 1024)
        .blocks_per_wave(8)
        .build();
    Application::new("Stencil", vec![stencil2d], 16)
}

/// SHOC `SPMV` (CSR sparse matrix-vector): irregular accesses; a
/// coarse-grain prediction outlier that fine-grain tuning must correct
/// (Figure 18 discussion).
pub fn spmv() -> Application {
    let csr = KernelProfile::builder("SPMV.CsrScalar")
        .workitems(1 << 20)
        .vgprs(44)
        .sgprs(34)
        .valu_insts_per_item(45.0)
        .vfetch_insts_per_item(4.0)
        .bytes_per_fetch(8.0)
        .mem_divergence(2.8)
        .branch_divergence(0.3)
        .l1_hit_rate(0.1)
        .l2_hit_rate(0.25)
        .build();
    Application::new("SPMV", vec![csr], 12)
}

/// All 14 applications in the paper's listing order.
pub fn all() -> Vec<Application> {
    vec![
        comd(),
        xsbench(),
        minife(),
        graph500(),
        bpt(),
        cfd(),
        lud(),
        srad(),
        streamcluster(),
        stencil(),
        sort(),
        spmv(),
        maxflops(),
        devicememory(),
    ]
}

/// The two stress benchmarks excluded from the paper's "Geomean 2".
pub const STRESS_APPS: [&str; 2] = ["MaxFlops", "DeviceMemory"];

/// Looks up one application of the suite by name.
pub fn by_name(name: &str) -> Option<Application> {
    all().into_iter().find(|a| a.name == name)
}

/// Every kernel of the suite, paired with its application name — the
/// training population of Section 4 ("a total of 25 application kernels").
pub fn training_kernels() -> Vec<(String, harmonia_sim::KernelProfile)> {
    all()
        .into_iter()
        .flat_map(|app| {
            let name = app.name.clone();
            app.kernels.into_iter().map(move |k| (name.clone(), k))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::{GpuDescriptor, Occupancy, OccupancyLimiter};

    #[test]
    fn suite_has_14_apps_and_25plus_kernels() {
        let apps = all();
        assert_eq!(apps.len(), 14);
        let kernels = training_kernels();
        assert!(kernels.len() >= 25, "only {} kernels", kernels.len());
    }

    #[test]
    fn kernel_names_are_unique_and_prefixed() {
        let kernels = training_kernels();
        let mut names: Vec<&str> = kernels.iter().map(|(_, k)| &*k.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate kernel names");
        for (app, k) in &kernels {
            assert!(
                k.name.starts_with(app.as_str()),
                "{} not prefixed with {}",
                k.name,
                app
            );
        }
    }

    #[test]
    fn by_name_finds_every_app() {
        for app in all() {
            assert!(by_name(&app.name).is_some());
        }
        assert!(by_name("NotAnApp").is_none());
    }

    #[test]
    fn bottom_scan_is_vgpr_limited_at_30pct() {
        let app = sort();
        let k = app.kernel("Sort.BottomScan").unwrap();
        let occ = Occupancy::compute(&GpuDescriptor::hd7970(), k, 32);
        assert_eq!(occ.waves_per_simd, 3);
        assert_eq!(occ.limiter, OccupancyLimiter::Vgpr);
    }

    #[test]
    fn advance_velocity_has_full_occupancy() {
        let app = comd();
        let k = app.kernel("CoMD.AdvanceVelocity").unwrap();
        let occ = Occupancy::compute(&GpuDescriptor::hd7970(), k, 32);
        assert!((occ.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn srad_prepare_matches_figure8_shape() {
        let app = srad();
        let k = app.kernel("SRAD.Prepare").unwrap();
        assert!((k.branch_divergence - 0.75).abs() < 1e-12);
        assert!((k.valu_insts_per_item - 8.0).abs() < 1e-12);
    }

    #[test]
    fn thrash_prone_apps_have_thrash_slopes() {
        for (app_name, kernel_name) in [
            ("BPT", "BPT.FindK"),
            ("CFD", "CFD.ComputeFlux"),
            ("XSBench", "XSBench.Lookup"),
        ] {
            let app = by_name(app_name).unwrap();
            let k = app.kernel(kernel_name).unwrap();
            assert!(k.l2_thrash_slope > 0.2, "{kernel_name} lacks thrash");
        }
    }

    #[test]
    fn xsbench_runs_two_iterations() {
        assert_eq!(xsbench().iterations, 2);
    }

    #[test]
    fn graph500_phases_swing_ops_per_byte() {
        let app = graph500();
        let k = app.kernel("Graph500.BottomStepUp").unwrap();
        let ratios: Vec<f64> = (0..8)
            .map(|i| {
                let s = k.phase.scale_for(i);
                s.compute / s.memory
            })
            .collect();
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min > 4.0,
            "phase ops/byte swing too small: {ratios:?}"
        );
    }

    #[test]
    fn stress_apps_listed() {
        assert!(STRESS_APPS.contains(&"MaxFlops"));
        assert!(STRESS_APPS.contains(&"DeviceMemory"));
        for name in STRESS_APPS {
            assert!(by_name(name).is_some());
        }
    }

    #[test]
    fn every_kernel_is_valid_for_the_device() {
        let gpu = GpuDescriptor::hd7970();
        for (_, k) in training_kernels() {
            assert!(k.vgprs_per_item <= gpu.vgprs_per_simd);
            assert!(k.sgprs_per_wave <= gpu.sgprs_per_simd);
            assert!(u64::from(k.lds_per_group_bytes) <= u64::from(gpu.lds_per_cu_bytes));
            assert!(k.workitems > 0);
            assert!((0.0..=1.0).contains(&k.branch_divergence));
            assert!(k.mem_divergence >= 1.0);
        }
    }
}
