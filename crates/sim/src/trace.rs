//! Synthetic instruction traces and trace replay.
//!
//! The interval and event models treat a wave as uniform compute/memory
//! blocks. Real kernels are lumpier: ALU bursts of varying length, memory
//! operations of varying width, scalar work, and LDS traffic.
//! [`TraceGenerator`] expands a [`KernelProfile`] into explicit
//! per-wave instruction traces with deterministic, seeded jitter, and
//! [`TraceModel`] replays them through the same machine abstractions the
//! event model uses (SIMD issue serialization, the L2→MC crossing, memory
//! channels, DRAM latency) at *operation* granularity.
//!
//! Its future-event set is the event model's too: a [`SlotQueue`] with one
//! slot per resident wave. A wave has one op in flight at a time, so each
//! completion refills its slot with the wave's next op, or with the first
//! op of the wave dispatched in its place, or vacates it; events pop in
//! exact `(time, wave id)` order.
//!
//! The three models form a fidelity ladder — interval (closed form) →
//! event (uniform blocks) → trace (jittered operations) — and are
//! cross-validated against each other in tests and in the `ablations`
//! bench. All three are deterministic: the trace jitter is seeded from the
//! kernel name, wave index, and iteration.

use crate::counters::CounterSample;
use crate::device::GpuDescriptor;
use crate::model::{SimResult, TimingModel};
use crate::occupancy::Occupancy;
use crate::profile::KernelProfile;
use crate::servers::{MemoryPath, SimdBank, SlotQueue};
use harmonia_types::{HwConfig, Seconds};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::servers::PS;
/// Average L2 hit latency in compute cycles (matches the other models).
const L2_HIT_LATENCY_CYCLES: f64 = 150.0;
/// Average L1 hit latency in compute cycles.
const L1_HIT_LATENCY_CYCLES: f64 = 20.0;
/// LDS access latency in compute cycles.
const LDS_LATENCY_CYCLES: f64 = 32.0;

/// One operation of a wave's instruction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// A burst of vector-ALU instructions.
    Valu {
        /// Number of consecutive VALU instructions.
        count: u32,
    },
    /// A burst of scalar-ALU instructions (issued alongside vector work;
    /// costs a fraction of the vector issue bandwidth).
    Salu {
        /// Number of consecutive SALU instructions.
        count: u32,
    },
    /// A vector memory read touching `bytes` at the L1 level (per wave).
    Fetch {
        /// L1-level bytes requested by the whole wave.
        bytes: u32,
    },
    /// A vector memory write of `bytes` at the L1 level (per wave).
    Write {
        /// L1-level bytes written by the whole wave.
        bytes: u32,
    },
    /// An LDS (scratchpad) access burst.
    Lds {
        /// Number of LDS operations.
        count: u32,
    },
}

/// The instruction trace of one wavefront.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaveTrace {
    /// Operations in program order.
    pub ops: Vec<TraceOp>,
}

impl WaveTrace {
    /// Total VALU instructions in the trace.
    pub fn valu_insts(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Valu { count } => u64::from(*count),
                _ => 0,
            })
            .sum()
    }

    /// Total L1-level bytes touched (reads + writes).
    pub fn l1_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Fetch { bytes } | TraceOp::Write { bytes } => u64::from(*bytes),
                _ => 0,
            })
            .sum()
    }
}

/// Deterministic synthetic trace generation from a kernel profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    jitter: f64,
}

impl TraceGenerator {
    /// Creates a generator with the default ±35% burst-size jitter.
    pub fn new() -> Self {
        Self { jitter: 0.35 }
    }

    /// Overrides the burst-size jitter fraction (0 = perfectly uniform
    /// blocks, i.e. the event model's assumption).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 0.9);
        self
    }

    /// Generates the trace of wave `wave_index` for invocation `iteration`
    /// of `kernel`. Deterministic in all three arguments.
    pub fn wave_trace(
        &self,
        kernel: &KernelProfile,
        gpu: &GpuDescriptor,
        wave_index: u64,
        iteration: u64,
    ) -> WaveTrace {
        let scale = kernel.phase.scale_for(iteration);
        let mut rng = SmallRng::seed_from_u64(seed_of(&kernel.name, wave_index, iteration));
        let items = f64::from(gpu.wave_size);

        let valu_total = (kernel.valu_insts_per_item * scale.compute).max(0.0);
        let salu_total = (kernel.salu_insts_per_item * scale.compute).max(0.0);
        let fetch_ops = (kernel.vfetch_insts_per_item * scale.memory).max(0.0);
        let write_ops = (kernel.vwrite_insts_per_item * scale.memory).max(0.0);
        let lds_total = if kernel.lds_per_group_bytes > 0 {
            // Rough heuristic: one LDS op per 8 VALU instructions for
            // scratchpad-using kernels.
            valu_total / 8.0
        } else {
            0.0
        };

        let blocks = kernel.blocks_per_wave.max(1);
        let mut ops = Vec::with_capacity(blocks as usize * 3);
        let mut jittered = |mean: f64| -> f64 {
            if mean <= 0.0 {
                return 0.0;
            }
            if self.jitter <= 0.0 {
                return mean;
            }
            let lo = 1.0 - self.jitter;
            let hi = 1.0 + self.jitter;
            mean * rng.gen_range(lo..hi)
        };

        for block in 0..blocks {
            let _ = block;
            let valu = jittered(valu_total / f64::from(blocks)).round() as u32;
            if valu > 0 {
                ops.push(TraceOp::Valu { count: valu });
            }
            let salu = jittered(salu_total / f64::from(blocks)).round() as u32;
            if salu > 0 {
                ops.push(TraceOp::Salu { count: salu });
            }
            let lds = jittered(lds_total / f64::from(blocks)).round() as u32;
            if lds > 0 {
                ops.push(TraceOp::Lds { count: lds });
            }
            let fetches = jittered(fetch_ops / f64::from(blocks));
            let fetch_bytes =
                (fetches * kernel.bytes_per_fetch * kernel.mem_divergence * items).round() as u32;
            if fetch_bytes > 0 {
                ops.push(TraceOp::Fetch { bytes: fetch_bytes });
            }
            let writes = jittered(write_ops / f64::from(blocks));
            let write_bytes =
                (writes * kernel.bytes_per_write * kernel.mem_divergence * items).round() as u32;
            if write_bytes > 0 {
                ops.push(TraceOp::Write { bytes: write_bytes });
            }
        }
        WaveTrace { ops }
    }
}

impl Default for TraceGenerator {
    fn default() -> Self {
        Self::new()
    }
}

fn seed_of(name: &str, wave: u64, iteration: u64) -> u64 {
    // FNV-1a over the kernel name, mixed with wave and iteration.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= wave.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= iteration.rotate_left(32).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h
}

/// Trace-replay timing model: the finest member of the fidelity ladder.
#[derive(Debug, Clone)]
pub struct TraceModel {
    gpu: GpuDescriptor,
    /// `gpu.fingerprint()`, computed once ([`TimingModel::device_key`]).
    device_key: u64,
    generator: TraceGenerator,
    max_waves: u64,
}

impl TraceModel {
    /// Creates a trace model with the default generator and a 2048-wave cap
    /// (trace replay is the slowest model; the cap keeps sweeps feasible).
    pub fn new(gpu: GpuDescriptor) -> Self {
        Self {
            device_key: gpu.fingerprint(),
            gpu,
            generator: TraceGenerator::new(),
            max_waves: 2048,
        }
    }

    /// Overrides the trace generator.
    pub fn with_generator(mut self, generator: TraceGenerator) -> Self {
        self.generator = generator;
        self
    }

    /// Overrides the simulated-wave cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_waves` is zero.
    pub fn with_max_waves(mut self, max_waves: u64) -> Self {
        assert!(max_waves > 0, "wave cap must be positive");
        self.max_waves = max_waves;
        self
    }
}

impl Default for TraceModel {
    fn default() -> Self {
        Self::new(GpuDescriptor::hd7970())
    }
}

struct WaveState {
    simd: usize,
    trace: WaveTrace,
    next_op: usize,
}

/// The machine a trace replays on: the servers, the run's rates, and the
/// counters the replay accumulates.
struct Replay {
    simd_bank: SimdBank,
    memory: MemoryPath,
    cycles_per_inst: f64,
    f_cu: f64,
    l1_hit: f64,
    l2_hit: f64,
    l2_latency_ps: u64,
    l1_latency_ps: u64,
    lds_latency_ps: u64,
    mem_residence_ps: u64,
    mem_wait_ps: u64,
    dram_bytes_sim: f64,
    valu_insts_sim: u64,
}

impl Replay {
    /// Puts `wave`'s next op on the machine at `now`; returns the time the
    /// op completes, or `None` once the wave's trace is exhausted.
    fn advance(&mut self, wave: &mut WaveState, now: u64) -> Option<u64> {
        let op = wave.trace.ops.get(wave.next_op).copied()?;
        wave.next_op += 1;
        Some(match op {
            TraceOp::Valu { count } => {
                // Divergence is already encoded in the *executed*
                // instruction counts (both sides of divergent branches),
                // exactly as in the interval/event models.
                let cycles = self.cycles_per_inst * f64::from(count);
                let dur = ((cycles / self.f_cu) * PS).max(1.0) as u64;
                self.valu_insts_sim += u64::from(count);
                self.simd_bank.issue(wave.simd, now, dur)
            }
            TraceOp::Salu { count } => {
                // Scalar work issues on the scalar unit: cheap, partly
                // overlapped; modelled as a quarter-rate issue cost.
                let cycles = f64::from(count) * 0.25;
                let dur = ((cycles / self.f_cu) * PS).max(1.0) as u64;
                now + dur
            }
            TraceOp::Lds { count } => {
                let dur = self.lds_latency_ps.saturating_mul(u64::from(count.min(64))) / 8
                    + self.lds_latency_ps;
                now + dur
            }
            TraceOp::Fetch { bytes } | TraceOp::Write { bytes } => {
                // Filter through the cache hierarchy (expected values).
                let l2_bytes = f64::from(bytes) * (1.0 - self.l1_hit);
                let dram = l2_bytes * (1.0 - self.l2_hit);
                self.dram_bytes_sim += dram;
                if dram < 1.0 {
                    // Served by caches: latency only.
                    let lat = if l2_bytes >= 1.0 {
                        self.l2_latency_ps
                    } else {
                        self.l1_latency_ps
                    };
                    now + lat
                } else {
                    let (done, wait) = self.memory.service(now, dram);
                    self.mem_residence_ps += done - now;
                    self.mem_wait_ps += wait;
                    done
                }
            }
        })
    }
}

/// The [`SlotQueue`] kind of every trace event. A wave has one pending
/// event, its current op, so `(time, wave id)` alone orders the queue.
const OP_DONE: u8 = 0;

impl TimingModel for TraceModel {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        let gpu = &self.gpu;
        let n_cu = cfg.compute.cu_count();
        let f_cu = cfg.compute.freq().as_hz();
        let occ = Occupancy::compute(gpu, kernel, n_cu);
        let simds = gpu.simds(n_cu) as usize;

        let total_waves = kernel.waves(gpu.wave_size).max(1);
        let sim_waves = total_waves.min(self.max_waves);
        let scale_factor = total_waves as f64 / sim_waves as f64;
        assert!(
            sim_waves <= u64::from(u32::MAX),
            "simulated wave ids must fit in u32"
        );

        let l2_hit = kernel.l2_hit_rate_at(n_cu, gpu.max_cu);
        let mut replay = Replay {
            simd_bank: SimdBank::new(simds),
            memory: MemoryPath::new(gpu, cfg),
            cycles_per_inst: f64::from(gpu.wave_size) / f64::from(gpu.lanes_per_simd),
            f_cu,
            l1_hit: kernel.l1_hit_rate,
            l2_hit,
            l2_latency_ps: (L2_HIT_LATENCY_CYCLES / f_cu * PS) as u64,
            l1_latency_ps: (L1_HIT_LATENCY_CYCLES / f_cu * PS) as u64,
            lds_latency_ps: (LDS_LATENCY_CYCLES / f_cu * PS) as u64,
            mem_residence_ps: 0,
            mem_wait_ps: 0,
            dram_bytes_sim: 0.0,
            valu_insts_sim: 0,
        };
        let mut waves: Vec<WaveState> = Vec::with_capacity(sim_waves as usize);
        let mut pending = sim_waves;
        let dispatch = |waves: &mut Vec<WaveState>, simd: usize| {
            let id = waves.len();
            let trace = self.generator.wave_trace(kernel, gpu, id as u64, iteration);
            waves.push(WaveState {
                simd,
                trace,
                next_op: 0,
            });
            id
        };

        // Initial fill to the occupancy limit: one queue slot per resident
        // wave with an op to run.
        let slots = u64::from(occ.waves_per_simd);
        let mut initial = Vec::with_capacity((slots * simds as u64).min(sim_waves) as usize);
        'fill: for _slot in 0..slots {
            for simd in 0..simds {
                if pending == 0 {
                    break 'fill;
                }
                pending -= 1;
                let id = dispatch(&mut waves, simd);
                if let Some(done) = replay.advance(&mut waves[id], 0) {
                    initial.push(SlotQueue::key(done, id as u32, OP_DONE));
                }
            }
        }
        let mut queue = SlotQueue::new(initial);

        // Every event refills its slot with the wave's next op, or with the
        // first op of the wave dispatched in its place, or vacates it.
        let mut now = 0u64;
        while let Some((t, id, _)) = queue.min() {
            now = t;
            let mut wave = id as usize;
            let mut next = replay.advance(&mut waves[wave], now);
            if next.is_none() && pending > 0 {
                // Wave finished: dispatch a fresh one into its slot.
                pending -= 1;
                let simd = waves[wave].simd;
                wave = dispatch(&mut waves, simd);
                next = replay.advance(&mut waves[wave], now);
            }
            match next {
                Some(done) => queue.refill(done, wave as u32, OP_DONE),
                None => queue.vacate(),
            }
        }

        // Rescale the truncated-wave estimate to the full grid.
        let t_sim = now as f64 / PS;
        let overhead = kernel.launch_overhead_us * 1.0e-6;
        let t_total = t_sim * scale_factor + overhead;
        let dram_bytes = replay.dram_bytes_sim * scale_factor;
        let achieved_bw = dram_bytes / t_total;
        let peak_theoretical = cfg.memory.peak_bandwidth_on(&gpu.grid).as_bytes_per_sec();

        let valu_busy =
            replay.simd_bank.busy_total() as f64 / PS / (simds as f64 * t_sim.max(1e-12));
        let mem_busy =
            (replay.mem_residence_ps as f64 / PS / (f64::from(n_cu) * t_sim.max(1e-12))).min(1.0);
        let mem_stalled =
            (replay.mem_wait_ps as f64 / PS / (f64::from(n_cu) * t_sim.max(1e-12))).min(mem_busy);

        let scale = kernel.phase.scale_for(iteration);
        let items = kernel.workitems as f64;
        let fetch_b = kernel.vfetch_insts_per_item * kernel.bytes_per_fetch;
        let write_b = kernel.vwrite_insts_per_item * kernel.bytes_per_write;
        let write_share = if fetch_b + write_b > 0.0 {
            write_b / (fetch_b + write_b)
        } else {
            0.0
        };

        let counters = CounterSample {
            duration: Seconds(t_total),
            valu_busy_pct: (100.0 * valu_busy).clamp(0.0, 100.0),
            valu_utilization_pct: kernel.valu_utilization_pct(),
            mem_unit_busy_pct: 100.0 * mem_busy,
            mem_unit_stalled_pct: 100.0 * mem_stalled,
            write_unit_stalled_pct: 100.0 * mem_stalled * write_share,
            norm_vgpr: f64::from(kernel.vgprs_per_item) / f64::from(gpu.vgprs_per_simd),
            norm_sgpr: f64::from(kernel.sgprs_per_wave) / f64::from(gpu.max_sgprs_per_wave),
            ic_activity: (achieved_bw / peak_theoretical).clamp(0.0, 1.0),
            // Trace ops count *wavefront* instructions; the counter reports
            // per-item totals like the other models (one wave instruction
            // covers `wave_size` work-items).
            valu_insts: (replay.valu_insts_sim as f64 * f64::from(gpu.wave_size) * scale_factor)
                as u64,
            vfetch_insts: (kernel.vfetch_insts_per_item * scale.memory * items) as u64,
            vwrite_insts: (kernel.vwrite_insts_per_item * scale.memory * items) as u64,
            dram_bytes,
            achieved_bw_gbps: achieved_bw / 1.0e9,
            occupancy_fraction: occ.fraction,
            l2_hit_rate: l2_hit,
        };

        SimResult {
            time: Seconds(t_total),
            counters,
            fast_forward: Default::default(),
        }
    }

    fn gpu(&self) -> &GpuDescriptor {
        &self.gpu
    }

    fn device_key(&self) -> u64 {
        self.device_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalModel;
    use harmonia_types::{ComputeConfig, GridSpec, MegaHertz, MemoryConfig};

    fn cfg(cu: u32, f: u32, m: u32) -> HwConfig {
        HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, cu, MegaHertz(f)).unwrap(),
            MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(m)).unwrap(),
        )
    }

    fn compute_kernel() -> KernelProfile {
        KernelProfile::builder("maxflops")
            .workitems(1 << 17)
            .valu_insts_per_item(1024.0)
            .vfetch_insts_per_item(1.0)
            .bytes_per_fetch(4.0)
            .l1_hit_rate(0.9)
            .l2_hit_rate(0.9)
            .build()
    }

    fn memory_kernel() -> KernelProfile {
        KernelProfile::builder("devicememory")
            .workitems(1 << 19)
            .valu_insts_per_item(4.0)
            .vfetch_insts_per_item(8.0)
            .bytes_per_fetch(32.0)
            .l1_hit_rate(0.05)
            .l2_hit_rate(0.05)
            .build()
    }

    #[test]
    fn traces_are_deterministic_and_distinct_per_wave() {
        let generator = TraceGenerator::new();
        let gpu = GpuDescriptor::hd7970();
        let k = compute_kernel();
        let a = generator.wave_trace(&k, &gpu, 7, 2);
        let b = generator.wave_trace(&k, &gpu, 7, 2);
        assert_eq!(a, b, "same (kernel, wave, iteration) → same trace");
        let c = generator.wave_trace(&k, &gpu, 8, 2);
        assert_ne!(a, c, "different waves should jitter differently");
    }

    #[test]
    fn trace_totals_match_the_profile_in_expectation() {
        let generator = TraceGenerator::new();
        let gpu = GpuDescriptor::hd7970();
        let k = compute_kernel();
        let n = 256;
        let total: u64 = (0..n)
            .map(|w| generator.wave_trace(&k, &gpu, w, 0).valu_insts())
            .sum();
        // One wave instruction covers all 64 lanes: per-wave instruction
        // count equals the per-item count.
        let expected = k.valu_insts_per_item * n as f64;
        let ratio = total as f64 / expected;
        assert!(
            (0.95..1.05).contains(&ratio),
            "trace VALU total off by {ratio}"
        );
    }

    #[test]
    fn zero_jitter_traces_are_uniform() {
        let generator = TraceGenerator::new().with_jitter(0.0);
        let gpu = GpuDescriptor::hd7970();
        let k = compute_kernel();
        let a = generator.wave_trace(&k, &gpu, 1, 0);
        let b = generator.wave_trace(&k, &gpu, 2, 0);
        assert_eq!(a, b, "no jitter → identical traces");
    }

    #[test]
    fn replay_is_deterministic() {
        let m = TraceModel::default();
        let k = memory_kernel();
        assert_eq!(
            m.simulate(cfg(16, 700, 925), &k, 1),
            m.simulate(cfg(16, 700, 925), &k, 1)
        );
    }

    #[test]
    fn compute_kernel_scales_with_compute_config() {
        let m = TraceModel::default();
        let k = compute_kernel();
        let slow = m.simulate(cfg(8, 500, 1375), &k, 0).time.value();
        let fast = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(slow / fast > 4.5, "speedup {}", slow / fast);
    }

    #[test]
    fn memory_kernel_scales_with_bandwidth() {
        let m = TraceModel::default();
        let k = memory_kernel();
        let lo = m.simulate(cfg(32, 1000, 475), &k, 0).time.value();
        let hi = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(lo / hi > 1.8, "bandwidth speedup {}", lo / hi);
    }

    #[test]
    fn agrees_with_interval_model_within_the_ladder_band() {
        let tr = TraceModel::default();
        let iv = IntervalModel::default();
        for k in [compute_kernel(), memory_kernel()] {
            for c in [cfg(32, 1000, 1375), cfg(16, 700, 925)] {
                let tt = tr.simulate(c, &k, 0).time.value();
                let ti = iv.simulate(c, &k, 0).time.value();
                let ratio = tt / ti;
                assert!(
                    (0.3..3.0).contains(&ratio),
                    "{} at {c}: trace {tt} vs interval {ti}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn counters_in_range() {
        let m = TraceModel::default();
        for k in [compute_kernel(), memory_kernel()] {
            let r = m.simulate(cfg(32, 1000, 1375), &k, 0);
            let s = &r.counters;
            for pct in [
                s.valu_busy_pct,
                s.valu_utilization_pct,
                s.mem_unit_busy_pct,
                s.mem_unit_stalled_pct,
                s.write_unit_stalled_pct,
            ] {
                assert!((0.0..=100.0).contains(&pct), "{pct} out of range");
            }
            assert!((0.0..=1.0).contains(&s.ic_activity));
            assert!(s.dram_bytes >= 0.0);
        }
    }

    #[test]
    fn lds_kernels_include_lds_ops() {
        let generator = TraceGenerator::new();
        let gpu = GpuDescriptor::hd7970();
        let k = KernelProfile::builder("lds")
            .workitems(1 << 16)
            .valu_insts_per_item(64.0)
            .lds_bytes(8 * 1024)
            .build();
        let trace = generator.wave_trace(&k, &gpu, 0, 0);
        assert!(
            trace.ops.iter().any(|op| matches!(op, TraceOp::Lds { .. })),
            "scratchpad kernels should emit LDS ops"
        );
    }

    #[test]
    #[should_panic(expected = "wave cap")]
    fn zero_wave_cap_panics() {
        let _ = TraceModel::default().with_max_waves(0);
    }
}
