//! Characterization figures (Figures 1 and 3–9).

use crate::context::Context;
use crate::report::{num, pct, Report};
use harmonia::runtime::activity_of;
use harmonia::sensitivity;
use harmonia_sim::{Occupancy, SimCache, TimingModel};
use harmonia_types::{ComputeConfig, ConfigSpace, HwConfig, MegaHertz, MemoryConfig};
use harmonia_workloads::suite;

/// A compute-clock label for table headers: `300 MHz`, `1 GHz`.
fn mhz_label(f: harmonia_types::MegaHertz) -> String {
    if f.value().is_multiple_of(1000) {
        format!("{} GHz", f.value() / 1000)
    } else {
        format!("{} MHz", f.value())
    }
}

/// Figure 1: card power breakdown for a memory-intensive workload
/// (XSBench) at the maximum configuration.
pub fn fig1(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig1",
        "Power breakdown, memory-intensive workload (XSBench) at boost",
        &["component", "watts", "share"],
    );
    let app = suite::xsbench();
    let cfg = HwConfig::max_on(&ctx.model().gpu().grid);
    let sim = ctx.model().simulate(cfg, &app.kernels[0], 0);
    let p = ctx.power().breakdown(cfg, &activity_of(&sim.counters));
    let total = p.card_pwr().value();
    for (name, watts) in [
        ("GPU compute (CU dynamic)", p.cu_dynamic.value()),
        ("GPU leakage", p.leakage.value()),
        ("GPU uncore (L2/crossbar)", p.uncore.value()),
        ("memory controller", p.mem_controller.value()),
        ("DDR PHY + PLL", p.phy.value()),
        ("DRAM background", p.dram_background.value()),
        (
            "DRAM access (act/rw/term)",
            p.dram_activate.value() + p.dram_read_write.value() + p.dram_termination.value(),
        ),
        ("fan / VRM / board", p.other.value()),
    ] {
        r.push_row(vec![
            name.to_string(),
            num(watts, 1),
            format!("{:.1}%", 100.0 * watts / total),
        ]);
    }
    r.push_row(vec!["total card".into(), num(total, 1), "100.0%".into()]);
    let mem_share = p.mem_pwr().value() / total;
    r.note(format!(
        "memory system share: {:.1}% (paper's Figure 1 shows memory as a major consumer)",
        mem_share * 100.0
    ));
    r
}

/// Figure 2: the AMD HD7970 architecture — rendered as the machine
/// description the simulator runs.
pub fn fig2(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig2",
        "Simulated GPU architecture (AMD HD7970 / GCN)",
        &["parameter", "value"],
    );
    let g = ctx.model().gpu();
    let rows: [(&str, String); 12] = [
        ("compute units", g.max_cu.to_string()),
        ("SIMDs per CU", g.simds_per_cu.to_string()),
        ("lanes per SIMD", g.lanes_per_simd.to_string()),
        ("wavefront size", g.wave_size.to_string()),
        ("wave slots per SIMD", g.max_waves_per_simd.to_string()),
        ("VGPRs per SIMD", g.vgprs_per_simd.to_string()),
        ("SGPRs per SIMD", g.sgprs_per_simd.to_string()),
        ("LDS per CU", format!("{} KiB", g.lds_per_cu_bytes / 1024)),
        ("L1D per CU", format!("{} KiB", g.l1_per_cu_bytes / 1024)),
        ("shared L2", format!("{} KiB", g.l2_bytes / 1024)),
        ("memory channels", g.mem_channels.to_string()),
        (
            "peak FMAC throughput",
            format!(
                "{:.0} GFLOPS @ boost",
                ComputeConfig::max_on(&g.grid).peak_gflops_on(&g.grid)
            ),
        ),
    ];
    for (k, v) in rows {
        r.push_row(vec![k.to_string(), v]);
    }
    r.note("paper Figure 2 is the GCN block diagram; these are its parameters as simulated");
    r
}

/// Figure 3: hardware balance curves for MaxFlops, DeviceMemory and LUD.
/// For each memory configuration the row gives performance at the maximum
/// compute configuration and the ops/byte "knee" (where 95% of that peak is
/// first reached), all normalized to the minimum hardware configuration.
pub fn fig3(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig3",
        "Hardware balance points (normalized to 4 CU / 300 MHz / 90 GB/s)",
        &["kernel", "mem (GB/s)", "peak perf (norm)", "knee ops/byte (norm)"],
    );
    let kernels = [
        suite::maxflops().kernels[0].clone(),
        suite::devicememory().kernels[0].clone(),
        suite::lud().kernel("LUD.Internal").unwrap().clone(),
    ];
    let grid = ctx.model().gpu().grid;
    let min_cfg = HwConfig::min_on(&grid);
    for kernel in &kernels {
        let t_min = ctx.model().simulate(min_cfg, kernel, 0).time.value();
        for mem in grid.mem_freq_levels() {
            let mem_cfg = MemoryConfig::new_on(&grid, mem).expect("grid");
            // Points along increasing hardware ops/byte at this memory cfg.
            let mut points: Vec<(f64, f64)> = Vec::new();
            for cu in grid.cu_levels() {
                for f in grid.cu_freq_levels() {
                    let cfg =
                        HwConfig::new(ComputeConfig::new_on(&grid, cu, f).expect("grid"), mem_cfg);
                    let t = ctx.model().simulate(cfg, kernel, 0).time.value();
                    points.push((cfg.hw_ops_per_byte_normalized_on(&grid), t_min / t));
                }
            }
            points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let peak = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
            let knee = points
                .iter()
                .find(|p| p.1 >= 0.95 * peak)
                .map_or(f64::NAN, |p| p.0);
            r.push_row(vec![
                kernel.name.to_string(),
                num(mem_cfg.peak_bandwidth_on(&grid).value(), 0),
                num(peak, 1),
                num(knee, 1),
            ]);
        }
    }
    r.note("paper: MaxFlops peaks at ~27× at every memory configuration (pure compute)");
    r.note("paper: DeviceMemory's knee sits near normalized ops/byte ≈ 4 at 264 GB/s");
    r.note("paper: LUD's best balance lies around normalized ops/byte ≈ 15");
    r
}

/// Figure 4: card power across compute configurations for DeviceMemory at a
/// fixed 264 GB/s memory configuration, normalized to the minimum hardware
/// configuration's power.
pub fn fig4(ctx: &Context) -> Report {
    let grid = ctx.model().gpu().grid;
    let mut r = Report::new(
        "fig4",
        "DeviceMemory card power across compute configs @ 264 GB/s",
        &[
            "CUs",
            &format!("power @{} (norm)", mhz_label(grid.cu_freq_min)),
            &format!("power @{} (norm)", mhz_label(grid.cu_freq_max)),
        ],
    );
    let kernel = suite::devicememory().kernels[0].clone();
    let mem = MemoryConfig::max_on(&grid);
    let power_at = |cu: u32, f: MegaHertz| {
        let cfg = HwConfig::new(ComputeConfig::new_on(&grid, cu, f).expect("grid"), mem);
        let sim = ctx.model().simulate(cfg, &kernel, 0);
        ctx.power().card_pwr(cfg, &activity_of(&sim.counters)).value()
    };
    let min_cfg = HwConfig::min_on(&grid);
    let sim_min = ctx.model().simulate(min_cfg, &kernel, 0);
    let p_ref = ctx
        .power()
        .card_pwr(min_cfg, &activity_of(&sim_min.counters))
        .value();
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for cu in grid.cu_levels() {
        let a = power_at(cu, grid.cu_freq_min) / p_ref;
        let b = power_at(cu, grid.cu_freq_max) / p_ref;
        lo = lo.min(a).min(b);
        hi = hi.max(a).max(b);
        r.push_row(vec![cu.to_string(), num(a, 2), num(b, 2)]);
    }
    r.note(format!(
        "power span across compute configs: {:.0}% (paper: ~70%)",
        (hi / lo - 1.0) * 100.0
    ));
    r
}

/// Figure 5: card power across memory configurations for MaxFlops at the
/// maximum compute configuration.
pub fn fig5(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig5",
        "MaxFlops card power across memory configs @ 32 CU / 1 GHz",
        &["mem bus (MHz)", "bandwidth (GB/s)", "card power (W)", "vs max"],
    );
    let grid = ctx.model().gpu().grid;
    let kernel = suite::maxflops().kernels[0].clone();
    let mut p_max = 0.0;
    let mut rows = Vec::new();
    for mem in grid.mem_freq_levels() {
        let mc = MemoryConfig::new_on(&grid, mem).expect("grid");
        let cfg = HwConfig::new(ComputeConfig::max_on(&grid), mc);
        let sim = ctx.model().simulate(cfg, &kernel, 0);
        let p = ctx.power().card_pwr(cfg, &activity_of(&sim.counters)).value();
        p_max = f64::max(p_max, p);
        rows.push((mem.value(), mc.peak_bandwidth_on(&grid).value(), p));
    }
    let p_min = rows.iter().map(|r| r.2).fold(f64::MAX, f64::min);
    for (mhz, bw, p) in rows {
        r.push_row(vec![
            mhz.to_string(),
            num(bw, 0),
            num(p, 1),
            pct(p / p_max - 1.0),
        ]);
    }
    r.note(format!(
        "power span across memory configs: {:.1}% (paper: ~10%, memory voltage fixed)",
        (1.0 - p_min / p_max) * 100.0
    ));
    r
}

/// Figure 6: what the energy-optimal, ED²-optimal, and performance-optimal
/// configurations each cost, for LUD and DeviceMemory, normalized to the
/// best-performing configuration.
pub fn fig6(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig6",
        "Energy- vs ED²- vs performance-optimal configurations",
        &["app", "optimized for", "perf", "energy", "ED²", "config"],
    );
    let grid = ctx.model().gpu().grid;
    let configs: Vec<HwConfig> = ConfigSpace::for_grid(&grid).iter().collect();
    for app in [suite::lud(), suite::devicememory()] {
        // Exhaustive sweep: one batched grid pass per (invocation, kernel)
        // through the memoization cache (which collapses the iteration loop
        // for phase-less kernels), accumulated per configuration in the
        // same (invocation, kernel) order as the serial loop so the CSV
        // stays byte-identical.
        let cache = SimCache::new();
        let mut time = vec![0.0; configs.len()];
        let mut energy = vec![0.0; configs.len()];
        for i in 0..app.iterations {
            for k in &app.kernels {
                let sims = cache.simulate_batch(ctx.model(), &configs, k, i);
                for (ci, sim) in sims.iter().enumerate() {
                    let p = ctx
                        .power()
                        .card_pwr(configs[ci], &activity_of(&sim.counters));
                    time[ci] += sim.time.value();
                    energy[ci] += p.value() * sim.time.value();
                }
            }
        }
        let evals: Vec<(HwConfig, f64, f64)> = configs
            .iter()
            .zip(time.iter().zip(&energy))
            .map(|(&cfg, (&t, &e))| (cfg, t, e))
            .collect();
        let best_perf = *evals
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        let pick = |key: &dyn Fn(&(HwConfig, f64, f64)) -> f64| {
            *evals
                .iter()
                .min_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite"))
                .expect("non-empty")
        };
        let min_energy = pick(&|e| e.2);
        let min_ed2 = pick(&|e| e.2 * e.1 * e.1);
        for (label, e) in [
            ("min energy", &min_energy),
            ("min ED²", &min_ed2),
            ("max performance", &best_perf),
        ] {
            r.push_row(vec![
                app.name.clone(),
                label.to_string(),
                num(best_perf.1 / e.1, 2),
                num(e.2 / best_perf.2, 2),
                num((e.2 * e.1 * e.1) / (best_perf.2 * best_perf.1 * best_perf.1), 2),
                // `HwConfig`'s Display, with bandwidth on this device's bus.
                format!(
                    "{}, mem {} ({:.0} GB/s)",
                    e.0.compute,
                    e.0.memory.bus_freq(),
                    e.0.memory.peak_bandwidth_on(&grid).value()
                ),
            ]);
        }
    }
    r.note("paper: energy-optimal costs 69% (LUD) / 66% (DeviceMemory) of performance");
    r.note("paper: ED²-optimal loses only ~1% performance while saving substantial energy");
    r
}

/// Figure 7: VGPR-limited occupancy suppresses bandwidth sensitivity.
pub fn fig7(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig7",
        "Kernel occupancy and memory-bandwidth sensitivity",
        &["kernel", "occupancy", "limiter", "bandwidth sensitivity"],
    );
    let pairs = [
        suite::sort().kernel("Sort.BottomScan").unwrap().clone(),
        suite::comd().kernel("CoMD.AdvanceVelocity").unwrap().clone(),
    ];
    for k in &pairs {
        let gpu = ctx.model().gpu();
        let occ = Occupancy::compute(gpu, k, gpu.grid.cu_max);
        let s = sensitivity::Sensitivity::measure_on(&gpu.grid, ctx.model(), k);
        r.push_row(vec![
            k.name.to_string(),
            format!("{:.0}%", occ.fraction * 100.0),
            occ.limiter.to_string(),
            num(s.bandwidth, 2),
        ]);
    }
    r.note("paper: Sort.BottomScan is VGPR-limited at 30% occupancy (66 of 256 VGPRs)");
    r.note("paper: CoMD.AdvanceVelocity reaches 100% occupancy and is bandwidth sensitive");
    r
}

/// Figure 8: divergence alone does not imply compute-frequency sensitivity —
/// dynamic instruction count decides.
pub fn fig8(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig8",
        "Branch divergence vs compute-frequency sensitivity",
        &["kernel", "divergence", "VALU insts / item", "freq sensitivity"],
    );
    let kernels = [
        suite::srad().kernel("SRAD.Prepare").unwrap().clone(),
        suite::sort().kernel("Sort.BottomScan").unwrap().clone(),
    ];
    for k in &kernels {
        let s = sensitivity::freq_sensitivity_on(&ctx.model().gpu().grid, ctx.model(), k, 0);
        r.push_row(vec![
            k.name.to_string(),
            format!("{:.0}%", k.branch_divergence * 100.0),
            num(k.valu_insts_per_item, 0),
            num(s, 2),
        ]);
    }
    r.note("paper: SRAD.Prepare has ~75% divergence but only 8 ALU instructions → insensitive");
    r.note("paper: Sort.BottomScan has 6% divergence over millions of instructions → sensitive");
    r
}

/// Platform characterization using the synthetic probe families — the
/// Section 3 methodology packaged as a reusable tool: FLOP/bandwidth
/// ceilings, the occupancy→bandwidth curve, the divergence ladder, and the
/// balance knee per memory configuration.
pub fn characterize(ctx: &Context) -> Report {
    use harmonia_workloads::probes;
    let mut r = Report::new(
        "characterize",
        "Platform characterization from synthetic probes (boost config)",
        &["probe", "setting", "observation"],
    );
    let grid = ctx.model().gpu().grid;
    let cfg = HwConfig::max_on(&grid);
    let m = ctx.model();

    // Ceilings.
    let c = m.simulate(cfg, &probes::compute_probe(1.0), 0);
    let achieved_gflops = c.counters.valu_insts as f64 * 2.0 / c.time.value() / 1e9;
    let peak_gflops = ComputeConfig::max_on(&grid).peak_gflops_on(&grid);
    r.push_row(vec![
        "compute ceiling".into(),
        "intensity 1.0".into(),
        format!("{achieved_gflops:.0} GFLOPS (peak {peak_gflops:.0})"),
    ]);
    let b = m.simulate(cfg, &probes::bandwidth_probe(128.0), 0);
    let peak_bw = MemoryConfig::max_on(&grid).peak_bandwidth_on(&grid).value();
    r.push_row(vec![
        "bandwidth ceiling".into(),
        "128 B/item stream".into(),
        format!(
            "{:.0} GB/s achieved ({:.0}% of {peak_bw:.0} GB/s)",
            b.counters.achieved_bw_gbps,
            100.0 * b.counters.ic_activity
        ),
    ]);

    // Occupancy → bandwidth (the Figure 7 dial).
    for waves in [1, 3, 5, 10] {
        let o = m.simulate(cfg, &probes::occupancy_probe(waves), 0);
        r.push_row(vec![
            "occupancy→bandwidth".into(),
            format!("{waves} waves/SIMD"),
            format!("{:.0} GB/s", o.counters.achieved_bw_gbps),
        ]);
    }

    // Divergence ladder (the Figure 8 dial).
    for d in [0.0, 0.5, 0.75] {
        let k = probes::divergence_probe(d);
        let s = harmonia::sensitivity::freq_sensitivity_on(&grid, m, &k, 0);
        r.push_row(vec![
            "divergence ladder".into(),
            format!("{:.0}% masked", d * 100.0),
            format!("freq sensitivity {s:.2}"),
        ]);
    }

    // Balance knees per memory configuration.
    for mem in [MemoryConfig::min_on(&grid), MemoryConfig::max_on(&grid)] {
        let mut knee = f64::NAN;
        for opb in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let k = probes::balance_probe(opb);
            let cfg = HwConfig::new(ComputeConfig::max_on(&grid), mem);
            let c = m.simulate(cfg, &k, 0).counters;
            if c.valu_busy_pct > 90.0 {
                knee = opb;
                break;
            }
        }
        r.push_row(vec![
            "balance knee".into(),
            format!("{:.0} GB/s", mem.peak_bandwidth_on(&grid).value()),
            format!("compute-bound from demand ≈ {knee} ops/byte"),
        ]);
    }
    r.note("the probe families generalize MaxFlops/DeviceMemory into platform dials");
    r.note(
        "the divergence ladder holds executed instructions constant — sensitivity stays flat, \
         the paper's point that divergence alone does not imply frequency sensitivity (Fig 8)",
    );
    r
}

/// Figure 9: clock-domain crossing makes even a memory-bound kernel
/// sensitive to the compute clock.
pub fn fig9(ctx: &Context) -> Report {
    let mut r = Report::new(
        "fig9",
        "Clock-domain coupling for DeviceMemory",
        &["metric", "value"],
    );
    let grid = ctx.model().gpu().grid;
    let k = suite::devicememory().kernels[0].clone();
    let max_cfg = HwConfig::max_on(&grid);
    let sim = ctx.model().simulate(max_cfg, &k, 0);
    r.push_row(vec![
        "icActivity at boost".into(),
        format!("{:.2}", sim.counters.ic_activity),
    ]);
    let time_at = |f: MegaHertz| {
        let cfg = HwConfig::new(
            ComputeConfig::new_on(&grid, grid.cu_max, f).expect("grid"),
            MemoryConfig::max_on(&grid),
        );
        ctx.model().simulate(cfg, &k, 0).time.value()
    };
    // Two compute steps near the top of the grid, and two near the floor
    // (HD7970: 1000→800 MHz and 500→300 MHz, the paper's contrast points).
    let top = grid.cu_freq_max;
    let near_top = MegaHertz(top.value() - 2 * grid.cu_freq_step);
    let floor = grid.cu_freq_min;
    let above_floor = MegaHertz(floor.value() + 2 * grid.cu_freq_step);
    let slow_high = time_at(near_top) / time_at(top) - 1.0;
    let slow_low = time_at(floor) / time_at(above_floor) - 1.0;
    r.push_row(vec![
        format!("slowdown {}→{} MHz", top.value(), near_top.value()),
        pct(slow_high),
    ]);
    r.push_row(vec![
        format!("slowdown {}→{} MHz", above_floor.value(), floor.value()),
        pct(slow_low),
    ]);
    r.note(
        "paper: high icActivity + poor L2 hit rate makes compute frequency matter, \
         especially at low clocks where the L2→MC crossing throttles DRAM bandwidth",
    );
    r
}
