//! Analytic *interval* timing model.
//!
//! Each wavefront alternates compute blocks and memory waits. With `W` waves
//! resident per SIMD, a SIMD completes `W` blocks per steady-state period
//!
//! ```text
//! period = max(W · c, c + L)
//! ```
//!
//! where `c` is the compute-block time and `L` the average memory wait —
//! the classical interval analysis of GPU latency hiding. Execution time is
//! the maximum of this latency/compute path, the DRAM bandwidth bound, and
//! the L2 service bound. The model therefore reproduces the first-order
//! behaviours the paper builds Harmonia on:
//!
//! * **roofline knees** (Figure 3) from the compute/bandwidth max,
//! * **occupancy-limited latency hiding** (Figure 7) through `W`,
//! * **divergence serialization** (Figure 8) through executed-instruction
//!   counts and `VALUUtilization`,
//! * **clock-domain coupling** (Figure 9) because the L2→MC crossing caps
//!   DRAM bandwidth at `f_compute × crossing-width`,
//! * **CU-count-dependent L2 thrashing** (Section 7.1) via
//!   [`KernelProfile::l2_hit_rate_at`].

//!
//! # Batched evaluation
//!
//! The timing expression factors cleanly by configuration axis, and the
//! sweep hot path exploits that: the model's `simulate_batch` evaluates a
//! whole config grid in one struct-of-arrays pass — per-kernel quantities
//! (`KernelPre`) are computed once, per-CU-count quantities (`CuPre`,
//! including the occupancy solve and L2-thrash hit rate) once per
//! *distinct* CU count, per-memory-frequency quantities (`MemPre`) once per
//! distinct bus clock, and the per-lane combine is a short branch-free
//! max-of-rooflines over flat `f64` columns. The scalar
//! [`TimingModel::simulate`] runs the identical helpers for a single lane,
//! so batch and scalar results are bit-identical by construction, and
//! [`TimingModel::sweep_terms`] exposes the per-lane scale factorization
//! (`t_interval = max(A·s_c, B·s_c + C)` etc.) that powers incremental
//! re-sweeps ([`SweepPlan`](crate::batch::SweepPlan)).

use crate::batch::SweepTerms;
use crate::counters::CounterSample;
use crate::device::GpuDescriptor;
use crate::model::{SimResult, TimingModel};
use crate::occupancy::Occupancy;
use crate::profile::{KernelProfile, PhaseScale};
use harmonia_types::{HwConfig, MemoryConfig, Seconds};

/// Average L2 hit latency in compute cycles.
const L2_HIT_LATENCY_CYCLES: f64 = 150.0;
/// Average L1 hit latency in compute cycles.
const L1_HIT_LATENCY_CYCLES: f64 = 20.0;

/// The fast analytic timing model.
#[derive(Debug, Clone)]
pub struct IntervalModel {
    gpu: GpuDescriptor,
    /// `gpu.fingerprint()`, computed once ([`TimingModel::device_key`]).
    device_key: u64,
}

impl IntervalModel {
    /// Creates an interval model of `gpu`.
    pub fn new(gpu: GpuDescriptor) -> Self {
        Self {
            device_key: gpu.fingerprint(),
            gpu,
        }
    }
}

impl Default for IntervalModel {
    fn default() -> Self {
        Self::new(GpuDescriptor::hd7970())
    }
}

/// Per-kernel, per-phase-scale quantities — everything in the timing
/// expression that is independent of the hardware configuration, computed
/// once per sweep instead of once per config.
struct KernelPre {
    waves: f64,
    cycles_per_wave: f64,
    l2_bytes: f64,
    write_share: f64,
    blocks: f64,
    has_mem: bool,
    l1: f64,
    miss_l1: f64,
    overhead: f64,
    valu_insts: f64,
    vfetch_insts: f64,
    vwrite_insts: f64,
    valu_utilization_pct: f64,
    norm_vgpr: f64,
    norm_sgpr: f64,
}

/// Quantities that depend only on the active CU count — notably the
/// occupancy solve and the thrash-adjusted L2 hit rate, which a naive sweep
/// recomputes 56 times per distinct CU count on the 448-config grid.
struct CuPre {
    occupancy: Occupancy,
    waves_per_simd: f64,
    simds: f64,
    /// `simds * waves_per_simd`, the SIMD wave capacity.
    simd_waves: f64,
    l2_hit: f64,
    dram_bytes: f64,
    write_bytes: f64,
    resident_waves: f64,
    rounds: f64,
}

/// Quantities that depend only on the memory configuration.
struct MemPre {
    peak_bw_theoretical: f64,
    peak_bw: f64,
    dram_latency: f64,
}

/// Per-lane intermediate quantities shared by the timing computation and
/// the counter synthesis (kept internal; exposed only through
/// [`CounterSample`]).
struct Intermediates {
    t_total: f64,
    t_compute_busy: f64,
    t_mem_busy: f64,
    dram_bytes: f64,
    write_bytes: f64,
    l2_hit: f64,
    peak_bw_theoretical: f64,
    occupancy_fraction: f64,
}

impl IntervalModel {
    fn kernel_pre(&self, kernel: &KernelProfile, scale: PhaseScale) -> KernelPre {
        let gpu = &self.gpu;
        let waves = kernel.waves(gpu.wave_size) as f64;
        let items = kernel.workitems as f64;

        // --- Compute path -------------------------------------------------
        // A 64-wide wave takes wave_size/lanes cycles per VALU instruction.
        let cycles_per_inst = f64::from(gpu.wave_size) / f64::from(gpu.lanes_per_simd);
        let valu_per_item = kernel.valu_insts_per_item * scale.compute;
        let cycles_per_wave = cycles_per_inst * valu_per_item;

        // --- Memory traffic ----------------------------------------------
        let fetch_bytes_item =
            kernel.vfetch_insts_per_item * kernel.bytes_per_fetch * kernel.mem_divergence;
        let write_bytes_item =
            kernel.vwrite_insts_per_item * kernel.bytes_per_write * kernel.mem_divergence;
        let l1_bytes = (fetch_bytes_item + write_bytes_item) * scale.memory * items;
        let l2_bytes = l1_bytes * (1.0 - kernel.l1_hit_rate);
        let write_share = if fetch_bytes_item + write_bytes_item > 0.0 {
            write_bytes_item / (fetch_bytes_item + write_bytes_item)
        } else {
            0.0
        };

        KernelPre {
            waves,
            cycles_per_wave,
            l2_bytes,
            write_share,
            blocks: f64::from(kernel.blocks_per_wave),
            // A wave only waits if it touches memory at all.
            has_mem: kernel.vfetch_insts_per_item + kernel.vwrite_insts_per_item > 0.0,
            l1: kernel.l1_hit_rate,
            miss_l1: 1.0 - kernel.l1_hit_rate,
            overhead: kernel.launch_overhead_us * 1.0e-6,
            valu_insts: valu_per_item * items,
            vfetch_insts: kernel.vfetch_insts_per_item * scale.memory * items,
            vwrite_insts: kernel.vwrite_insts_per_item * scale.memory * items,
            valu_utilization_pct: kernel.valu_utilization_pct(),
            norm_vgpr: f64::from(kernel.vgprs_per_item) / f64::from(gpu.vgprs_per_simd),
            norm_sgpr: f64::from(kernel.sgprs_per_wave) / f64::from(gpu.max_sgprs_per_wave),
        }
    }

    fn cu_pre(&self, kernel: &KernelProfile, kp: &KernelPre, n_cu: u32) -> CuPre {
        let gpu = &self.gpu;
        let occupancy = Occupancy::compute(gpu, kernel, n_cu);
        let waves_per_simd = f64::from(occupancy.waves_per_simd);
        let simds = f64::from(gpu.simds(n_cu));
        let simd_waves = simds * waves_per_simd;
        let l2_hit = kernel.l2_hit_rate_at(n_cu, gpu.max_cu);
        let dram_bytes = kp.l2_bytes * (1.0 - l2_hit);
        CuPre {
            occupancy,
            waves_per_simd,
            simds,
            simd_waves,
            l2_hit,
            dram_bytes,
            write_bytes: dram_bytes * kp.write_share,
            resident_waves: simd_waves.min(kp.waves.max(1.0)),
            rounds: kp.waves / simd_waves,
        }
    }

    fn mem_pre(&self, memory: MemoryConfig) -> MemPre {
        let grid = &self.gpu.grid;
        let peak_bw_theoretical = memory.peak_bandwidth_on(grid).as_bytes_per_sec();
        MemPre {
            peak_bw_theoretical,
            peak_bw: peak_bw_theoretical * self.gpu.dram_efficiency,
            dram_latency: self
                .gpu
                .dram_latency_s(memory.bus_freq().as_hz(), grid.mem_freq_max.as_hz()),
        }
    }

    /// The per-lane combine: the branch-free max-of-rooflines over one
    /// `(f_compute, CU-precomp, memory-precomp)` lane. Both the scalar
    /// `simulate` and the batched sweep funnel through this single
    /// function, which is what makes them bit-identical.
    fn lane(&self, kp: &KernelPre, cu: &CuPre, mem: &MemPre, f_cu: f64) -> Intermediates {
        let gpu = &self.gpu;
        let t_compute_busy = kp.waves * kp.cycles_per_wave / (cu.simds * f_cu);

        // --- Bandwidth bounds ----------------------------------------------
        // Clock-domain crossing: L2→MC requests are delivered at the compute
        // clock (Section 3.5 / Figure 9).
        let crossing_bw = f_cu * gpu.crossing_bytes_per_cu_cycle;
        // Little's law: resident waves bound the requests in flight and
        // therefore the bandwidth extractable at a given DRAM latency — this
        // is how low occupancy mutes bandwidth sensitivity (Figure 7).
        let mlp_bw = cu.resident_waves * gpu.outstanding_per_wave * f64::from(gpu.line_bytes)
            / mem.dram_latency;
        let eff_bw = mem.peak_bw.min(crossing_bw).min(mlp_bw);
        let t_bw = cu.dram_bytes / eff_bw;

        // L2 service bound (compute-clock domain).
        let l2_bw = f_cu * gpu.l2_bytes_per_cu_cycle;
        let t_l2 = kp.l2_bytes / l2_bw;

        // --- Latency/interval path -----------------------------------------
        // Average memory wait per block mixes L1/L2/DRAM latencies.
        let wait_s = kp.l1 * (L1_HIT_LATENCY_CYCLES / f_cu)
            + kp.miss_l1 * cu.l2_hit * (L2_HIT_LATENCY_CYCLES / f_cu)
            + kp.miss_l1 * (1.0 - cu.l2_hit) * mem.dram_latency;
        let c_block = (kp.cycles_per_wave / kp.blocks) / f_cu;
        let l_block = if kp.has_mem { wait_s } else { 0.0 };
        let period = (cu.waves_per_simd * c_block).max(c_block + l_block);
        let t_interval = kp.blocks * cu.rounds * period;

        // --- Combine ---------------------------------------------------------
        let t_total = t_interval.max(t_bw).max(t_l2).max(t_compute_busy) + kp.overhead;

        // Memory-unit busy time: service plus exposed waits, per SIMD engine.
        let total_wait = kp.waves * kp.blocks * l_block / cu.simd_waves;
        let t_mem_busy = (t_bw.max(t_l2) + 0.5 * total_wait).min(t_total);

        Intermediates {
            t_total,
            t_compute_busy: t_compute_busy.min(t_total),
            t_mem_busy,
            dram_bytes: cu.dram_bytes,
            write_bytes: cu.write_bytes,
            l2_hit: cu.l2_hit,
            peak_bw_theoretical: mem.peak_bw_theoretical,
            occupancy_fraction: cu.occupancy.fraction,
        }
    }

    /// Synthesizes the counter sample for one evaluated lane.
    fn result_from(&self, kp: &KernelPre, m: &Intermediates) -> SimResult {
        let t = m.t_total;

        let achieved_bw = m.dram_bytes / t;
        let ic_activity = (achieved_bw / m.peak_bw_theoretical).clamp(0.0, 1.0);
        let valu_busy_pct = (100.0 * m.t_compute_busy / t).clamp(0.0, 100.0);
        let mem_unit_busy_pct = (100.0 * m.t_mem_busy / t).clamp(0.0, 100.0);
        // Stalls concentrate as the DRAM bus saturates.
        let saturation = (achieved_bw / (m.peak_bw_theoretical * self.gpu.dram_efficiency))
            .clamp(0.0, 1.0);
        let mem_unit_stalled_pct = mem_unit_busy_pct * saturation.powi(2) * 0.85;
        let write_share = if m.dram_bytes > 0.0 {
            m.write_bytes / m.dram_bytes
        } else {
            0.0
        };
        let write_unit_stalled_pct = mem_unit_stalled_pct * write_share;

        let counters = CounterSample {
            duration: Seconds(t),
            valu_busy_pct,
            valu_utilization_pct: kp.valu_utilization_pct,
            mem_unit_busy_pct,
            mem_unit_stalled_pct,
            write_unit_stalled_pct,
            norm_vgpr: kp.norm_vgpr,
            norm_sgpr: kp.norm_sgpr,
            ic_activity,
            valu_insts: kp.valu_insts as u64,
            vfetch_insts: kp.vfetch_insts as u64,
            vwrite_insts: kp.vwrite_insts as u64,
            dram_bytes: m.dram_bytes,
            achieved_bw_gbps: achieved_bw / 1.0e9,
            occupancy_fraction: m.occupancy_fraction,
            l2_hit_rate: m.l2_hit,
        };

        SimResult {
            time: Seconds(t),
            counters,
            fast_forward: Default::default(),
        }
    }
}

/// Deduplicated per-axis precomputations for one batch of configurations:
/// the flat per-lane columns (`f_cu`, axis indices) plus one `CuPre` per
/// distinct CU count and one `MemPre` per distinct bus clock.
struct BatchColumns {
    f_cu: Vec<f64>,
    cu_ix: Vec<usize>,
    mem_ix: Vec<usize>,
    cu_pres: Vec<(u32, CuPre)>,
    mem_pres: Vec<(u64, MemPre)>,
}

impl IntervalModel {
    fn columns(&self, cfgs: &[HwConfig], kernel: &KernelProfile, kp: &KernelPre) -> BatchColumns {
        let mut cols = BatchColumns {
            f_cu: Vec::with_capacity(cfgs.len()),
            cu_ix: Vec::with_capacity(cfgs.len()),
            mem_ix: Vec::with_capacity(cfgs.len()),
            cu_pres: Vec::new(),
            mem_pres: Vec::new(),
        };
        for &cfg in cfgs {
            let n_cu = cfg.compute.cu_count();
            // The grid has ~8 distinct values per axis; a linear scan beats
            // hashing at that size and keeps the path allocation-free after
            // the first occurrence of each value.
            let ci = match cols.cu_pres.iter().position(|(c, _)| *c == n_cu) {
                Some(i) => i,
                None => {
                    cols.cu_pres.push((n_cu, self.cu_pre(kernel, kp, n_cu)));
                    cols.cu_pres.len() - 1
                }
            };
            let mem_key = cfg.memory.bus_freq().as_hz().to_bits();
            let mi = match cols.mem_pres.iter().position(|(m, _)| *m == mem_key) {
                Some(i) => i,
                None => {
                    cols.mem_pres.push((mem_key, self.mem_pre(cfg.memory)));
                    cols.mem_pres.len() - 1
                }
            };
            cols.f_cu.push(cfg.compute.freq().as_hz());
            cols.cu_ix.push(ci);
            cols.mem_ix.push(mi);
        }
        cols
    }
}

impl TimingModel for IntervalModel {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        let kp = self.kernel_pre(kernel, kernel.phase.scale_for(iteration));
        let cu = self.cu_pre(kernel, &kp, cfg.compute.cu_count());
        let mem = self.mem_pre(cfg.memory);
        let m = self.lane(&kp, &cu, &mem, cfg.compute.freq().as_hz());
        self.result_from(&kp, &m)
    }

    /// One cache-warm struct-of-arrays pass over the whole batch: kernel
    /// quantities once, occupancy/L2-thrash once per distinct CU count,
    /// bandwidth/latency once per distinct bus clock, then a short
    /// branch-free per-lane combine. Bit-identical to the scalar path for
    /// every lane (they share `lane` and `result_from`).
    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        let kp = self.kernel_pre(kernel, kernel.phase.scale_for(iteration));
        let cols = self.columns(cfgs, kernel, &kp);
        (0..cfgs.len())
            .map(|i| {
                let m = self.lane(
                    &kp,
                    &cols.cu_pres[cols.cu_ix[i]].1,
                    &cols.mem_pres[cols.mem_ix[i]].1,
                    cols.f_cu[i],
                );
                self.result_from(&kp, &m)
            })
            .collect()
    }

    /// The interval expression factors by phase scale: `t_interval =
    /// max(A·s_c, B·s_c + C)`, the compute roofline is linear in `s_c`, and
    /// the bandwidth/L2 rooflines and DRAM traffic are linear in `s_m`.
    /// This returns those per-lane coefficients at unit scale, enabling
    /// [`SweepPlan`](crate::batch::SweepPlan)'s incremental re-sweep.
    fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
        let unit = PhaseScale {
            compute: 1.0,
            memory: 1.0,
        };
        let kp = self.kernel_pre(kernel, unit);
        let cols = self.columns(cfgs, kernel, &kp);
        let gpu = &self.gpu;
        let n = cfgs.len();
        let mut terms = SweepTerms {
            interval_wave: Vec::with_capacity(n),
            interval_base: Vec::with_capacity(n),
            interval_wait: Vec::with_capacity(n),
            compute_busy: Vec::with_capacity(n),
            mem_bound: Vec::with_capacity(n),
            dram_bytes: Vec::with_capacity(n),
            peak_bw: Vec::with_capacity(n),
            inv_peak_bw: Vec::with_capacity(n),
            overhead: kp.overhead,
            valu_utilization: kp.valu_utilization_pct / 100.0,
        };
        for i in 0..n {
            let cu = &cols.cu_pres[cols.cu_ix[i]].1;
            let mem = &cols.mem_pres[cols.mem_ix[i]].1;
            let f_cu = cols.f_cu[i];

            let t_compute_busy = kp.waves * kp.cycles_per_wave / (cu.simds * f_cu);
            let crossing_bw = f_cu * gpu.crossing_bytes_per_cu_cycle;
            let mlp_bw = cu.resident_waves * gpu.outstanding_per_wave * f64::from(gpu.line_bytes)
                / mem.dram_latency;
            let eff_bw = mem.peak_bw.min(crossing_bw).min(mlp_bw);
            let t_bw = cu.dram_bytes / eff_bw;
            let t_l2 = kp.l2_bytes / (f_cu * gpu.l2_bytes_per_cu_cycle);
            let wait_s = kp.l1 * (L1_HIT_LATENCY_CYCLES / f_cu)
                + kp.miss_l1 * cu.l2_hit * (L2_HIT_LATENCY_CYCLES / f_cu)
                + kp.miss_l1 * (1.0 - cu.l2_hit) * mem.dram_latency;
            let c_block = (kp.cycles_per_wave / kp.blocks) / f_cu;
            let l_block = if kp.has_mem { wait_s } else { 0.0 };
            let per_kernel = kp.blocks * cu.rounds;

            terms.interval_wave.push(per_kernel * (cu.waves_per_simd * c_block));
            terms.interval_base.push(per_kernel * c_block);
            terms.interval_wait.push(per_kernel * l_block);
            terms.compute_busy.push(t_compute_busy);
            terms.mem_bound.push(t_bw.max(t_l2));
            terms.dram_bytes.push(cu.dram_bytes);
            terms.peak_bw.push(mem.peak_bw_theoretical);
            terms.inv_peak_bw.push(mem.peak_bw_theoretical.recip());
        }
        Some(terms)
    }

    fn gpu(&self) -> &GpuDescriptor {
        &self.gpu
    }

    /// Purely analytic: the iteration number enters only via the phase
    /// scale, so sweeps may memoize across iterations.
    fn phase_determined(&self) -> bool {
        true
    }

    fn device_key(&self) -> u64 {
        self.device_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ComputeConfig, GridSpec, MegaHertz, MemoryConfig};

    fn cfg(cu: u32, f: u32, m: u32) -> HwConfig {
        HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, cu, MegaHertz(f)).unwrap(),
            MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(m)).unwrap(),
        )
    }

    fn model() -> IntervalModel {
        IntervalModel::default()
    }

    fn compute_kernel() -> KernelProfile {
        KernelProfile::builder("maxflops")
            .workitems(1 << 20)
            .valu_insts_per_item(4096.0)
            .vfetch_insts_per_item(1.0)
            .bytes_per_fetch(4.0)
            .l1_hit_rate(0.9)
            .l2_hit_rate(0.9)
            .build()
    }

    fn memory_kernel() -> KernelProfile {
        KernelProfile::builder("devicememory")
            .workitems(1 << 22)
            .valu_insts_per_item(4.0)
            .vfetch_insts_per_item(8.0)
            .bytes_per_fetch(32.0)
            .l1_hit_rate(0.05)
            .l2_hit_rate(0.05)
            .build()
    }

    #[test]
    fn compute_kernel_scales_with_compute_config() {
        let m = model();
        let k = compute_kernel();
        let slow = m.simulate(cfg(8, 500, 1375), &k, 0).time.value();
        let fast = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        // 8× the raw compute throughput → close to 8× faster.
        let speedup = slow / fast;
        assert!(speedup > 6.0, "speedup {speedup} too small for compute-bound kernel");
    }

    #[test]
    fn compute_kernel_insensitive_to_memory_config() {
        let m = model();
        let k = compute_kernel();
        let hi = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        let lo = m.simulate(cfg(32, 1000, 475), &k, 0).time.value();
        assert!((lo / hi - 1.0).abs() < 0.05, "MaxFlops must not care about memory clock");
    }

    #[test]
    fn memory_kernel_saturates_with_compute_config() {
        // Figure 3b: beyond the balance point more compute gives ~nothing.
        let m = model();
        let k = memory_kernel();
        let half = m.simulate(cfg(16, 1000, 1375), &k, 0).time.value();
        let full = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(half / full < 1.1, "memory-bound kernel should saturate");
    }

    #[test]
    fn memory_kernel_scales_with_bandwidth() {
        let m = model();
        let k = memory_kernel();
        let lo = m.simulate(cfg(32, 1000, 475), &k, 0).time.value();
        let hi = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        let speedup = lo / hi;
        assert!(speedup > 2.0, "bandwidth speedup {speedup} too small (expect ~2.9)");
    }

    #[test]
    fn clock_domain_crossing_hurts_memory_kernel_at_low_compute_clock() {
        // Figure 9: poor-L2 memory-bound kernels lose bandwidth when the
        // compute clock drops because the L2→MC crossing slows down.
        let m = model();
        let k = memory_kernel();
        let full_clock = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        let low_clock = m.simulate(cfg(32, 300, 1375), &k, 0).time.value();
        assert!(
            low_clock / full_clock > 1.5,
            "crossing should throttle DRAM bandwidth at 300 MHz"
        );
    }

    #[test]
    fn low_occupancy_reduces_bandwidth_sensitivity() {
        // Figure 7: a VGPR-limited kernel (3 waves/SIMD) hides less latency
        // and extracts less bandwidth, so it reacts less to bus frequency
        // than the same kernel at full occupancy.
        let m = model();
        let mut k = KernelProfile::builder("scan")
            .workitems(1 << 21)
            .valu_insts_per_item(24.0)
            .vfetch_insts_per_item(6.0)
            .bytes_per_fetch(16.0)
            .l1_hit_rate(0.1)
            .l2_hit_rate(0.2)
            .blocks_per_wave(24)
            .build();
        let sens = |k: &KernelProfile| {
            let hi = m.simulate(cfg(32, 1000, 1375), k, 0).time.value();
            let lo = m.simulate(cfg(32, 1000, 475), k, 0).time.value();
            lo / hi - 1.0
        };
        // Only the VGPR budget differs between the variants, so mutate one
        // profile in place instead of cloning the whole kernel per variant.
        k.vgprs_per_item = 24;
        let s_full = sens(&k);
        k.vgprs_per_item = 120; // 2 waves/SIMD
        let s_low = sens(&k);
        assert!(
            s_full > s_low + 0.05,
            "full-occupancy sensitivity {s_full} should exceed low-occupancy {s_low}"
        );
    }

    #[test]
    fn tiny_kernel_dominated_by_launch_overhead() {
        // Figure 8: SRAD.Prepare has 8 ALU instructions — compute frequency
        // barely matters.
        let m = model();
        let k = KernelProfile::builder("srad_prepare")
            .workitems(1 << 14)
            .valu_insts_per_item(8.0)
            .vfetch_insts_per_item(1.0)
            .launch_overhead_us(10.0)
            .build();
        let slow = m.simulate(cfg(32, 300, 1375), &k, 0).time.value();
        let fast = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(slow / fast < 1.3, "tiny kernel should be overhead-dominated");
    }

    #[test]
    fn l2_thrashing_makes_fewer_cus_faster() {
        // Section 7.1: BPT gains performance when CUs are power gated.
        let m = model();
        let k = KernelProfile::builder("bpt_findk")
            .workitems(1 << 21)
            .valu_insts_per_item(12.0)
            .vfetch_insts_per_item(10.0)
            .bytes_per_fetch(16.0)
            .mem_divergence(3.0)
            .l1_hit_rate(0.05)
            .l2_hit_rate(0.75)
            .l2_thrash_slope(0.55)
            .build();
        let full = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        let gated = m.simulate(cfg(12, 1000, 1375), &k, 0).time.value();
        assert!(
            gated < full,
            "thrash-prone kernel should speed up with fewer CUs ({gated} !< {full})"
        );
    }

    #[test]
    fn counters_are_within_ranges() {
        let m = model();
        for k in [compute_kernel(), memory_kernel()] {
            for c in [cfg(4, 300, 475), cfg(32, 1000, 1375), cfg(16, 600, 925)] {
                let r = m.simulate(c, &k, 0);
                let s = &r.counters;
                assert!(r.time.value() > 0.0);
                for pct in [
                    s.valu_busy_pct,
                    s.valu_utilization_pct,
                    s.mem_unit_busy_pct,
                    s.mem_unit_stalled_pct,
                    s.write_unit_stalled_pct,
                ] {
                    assert!((0.0..=100.0).contains(&pct), "counter {pct} out of range");
                }
                assert!((0.0..=1.0).contains(&s.ic_activity));
                assert!((0.0..=1.0).contains(&s.occupancy_fraction));
                assert!(s.dram_bytes >= 0.0);
            }
        }
    }

    #[test]
    fn memory_kernel_counters_look_memory_bound() {
        let m = model();
        let r = m.simulate(cfg(32, 1000, 1375), &memory_kernel(), 0);
        assert!(r.counters.mem_unit_busy_pct > 60.0);
        assert!(r.counters.ic_activity > 0.5);
        assert!(r.counters.valu_busy_pct < 50.0);
    }

    #[test]
    fn compute_kernel_counters_look_compute_bound() {
        let m = model();
        let r = m.simulate(cfg(32, 1000, 1375), &compute_kernel(), 0);
        assert!(r.counters.valu_busy_pct > 80.0);
        assert!(r.counters.ic_activity < 0.2);
    }

    #[test]
    fn phase_modulation_changes_time() {
        use crate::profile::{PhaseModulation, PhaseScale};
        let m = model();
        let k = KernelProfile::builder("bfs")
            .workitems(1 << 20)
            .phase(PhaseModulation::Cycle(vec![
                PhaseScale { compute: 1.0, memory: 1.0 },
                PhaseScale { compute: 4.0, memory: 4.0 },
            ]))
            .build();
        let t0 = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        let t1 = m.simulate(cfg(32, 1000, 1375), &k, 1).time.value();
        assert!(t1 > 2.0 * t0);
    }

    #[test]
    fn deterministic() {
        let m = model();
        let k = memory_kernel();
        let a = m.simulate(cfg(16, 700, 925), &k, 3);
        let b = m.simulate(cfg(16, 700, 925), &k, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn more_resources_never_slow_down_well_behaved_kernels() {
        // For thrash-free kernels, time is non-increasing in every tunable.
        let m = model();
        for k in [compute_kernel(), memory_kernel()] {
            let base = m.simulate(cfg(16, 600, 925), &k, 0).time.value();
            for c in [cfg(20, 600, 925), cfg(16, 700, 925), cfg(16, 600, 1075)] {
                let t = m.simulate(c, &k, 0).time.value();
                assert!(t <= base * 1.0001, "{} slower at bigger config", k.name);
            }
        }
    }
}
