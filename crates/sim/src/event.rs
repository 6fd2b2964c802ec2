//! Discrete-event queueing model of the GPU.
//!
//! Where [`IntervalModel`](crate::interval::IntervalModel) solves the
//! steady-state analytically, this model *plays out* the execution: waves
//! alternate compute blocks (served serially by their SIMD) and memory
//! batches (served by the L2→MC crossing and the six memory channels, plus
//! DRAM latency), with occupancy-limited residency and round-robin dispatch.
//! It exists to validate that the interval model's shortcuts do not distort
//! the behaviours Harmonia depends on; the two are compared in tests and in
//! the `ablations` bench.
//!
//! Large grids are simulated as a truncated prefix of waves (default 8192)
//! and rescaled — steady-state throughput dominates for the HPC kernels the
//! paper studies, so the truncation error is small and is itself measured in
//! the cross-validation tests.
//!
//! Two mechanisms keep the model cheap enough for cold 448-config sweeps:
//!
//! * the future-event set is a [`SlotQueue`], a tournament tree with one
//!   slot per resident wave: each event refills or vacates the slot of the
//!   event before it, replaying one leaf-to-root path, in the exact
//!   deterministic `(time, wave id, kind)` order;
//! * an optional steady-state fast-forward ([`FastForwardPolicy::Auto`])
//!   watches the wave-completion throughput over residency-aligned windows
//!   and, once consecutive windows agree within an epsilon, skips whole
//!   steady generations analytically — time and the busy/wait counters
//!   advance together at the converged per-window rates, and the final
//!   cohort's drain-out is still stepped exactly. The default is
//!   [`FastForwardPolicy::Off`], which is bit-identical to the historical
//!   always-step behaviour.

use crate::counters::CounterSample;
use crate::device::GpuDescriptor;
use crate::model::{FastForwardStats, SimResult, TimingModel};
use crate::occupancy::Occupancy;
use crate::profile::KernelProfile;
use crate::servers::{MemoryPath, SimdBank, SlotQueue, WaveSet, PS};
use harmonia_types::{HwConfig, Seconds};

/// Average L2 hit latency in compute cycles (matches the interval model).
const L2_HIT_LATENCY_CYCLES: f64 = 150.0;
/// Average L1 hit latency in compute cycles.
const L1_HIT_LATENCY_CYCLES: f64 = 20.0;

/// Default relative tolerance for two window throughputs to "agree".
pub const DEFAULT_FF_EPSILON: f64 = 0.005;
/// Default steady-state detection window floor (wave completions; the
/// effective window is rounded up to a whole residency period at run time).
pub const DEFAULT_FF_WINDOW: u64 = 64;

/// Steady-state fast-forward policy for the [`EventModel`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FastForwardPolicy {
    /// Step every event: exact, bit-identical to the historical behaviour.
    #[default]
    Off,
    /// Detect steady state and extrapolate the tail analytically: the
    /// wave-completion rate is sampled over windows of at least `window`
    /// completions — rounded up to a whole residency period, the completion
    /// process's natural period — and once the rate agrees with its
    /// predecessor within relative `epsilon` at two consecutive boundaries,
    /// the not-yet-dispatched whole windows are skipped at the converged
    /// rate (a pure time shift of the periodic steady state) while the
    /// final cohort's drain-out is still stepped exactly.
    Auto {
        /// Relative rate tolerance for two windows to agree (e.g. 0.005).
        epsilon: f64,
        /// Minimum wave completions per detection window.
        window: u64,
    },
}

impl FastForwardPolicy {
    /// The recommended adaptive policy
    /// (`epsilon` = [`DEFAULT_FF_EPSILON`], `window` = [`DEFAULT_FF_WINDOW`]).
    pub fn auto() -> Self {
        Self::Auto {
            epsilon: DEFAULT_FF_EPSILON,
            window: DEFAULT_FF_WINDOW,
        }
    }
}

/// The discrete-event timing model.
#[derive(Debug, Clone)]
pub struct EventModel {
    gpu: GpuDescriptor,
    /// `gpu.fingerprint()`, computed once ([`TimingModel::device_key`]).
    device_key: u64,
    max_waves: u64,
    fast_forward: FastForwardPolicy,
}

impl EventModel {
    /// Creates an event model of `gpu` with the default 8192-wave cap and
    /// fast-forward off.
    pub fn new(gpu: GpuDescriptor) -> Self {
        Self {
            device_key: gpu.fingerprint(),
            gpu,
            max_waves: 8192,
            fast_forward: FastForwardPolicy::Off,
        }
    }

    /// Overrides the simulated-wave cap (larger = slower, more faithful).
    ///
    /// # Panics
    ///
    /// Panics if `max_waves` is zero.
    pub fn with_max_waves(mut self, max_waves: u64) -> Self {
        assert!(max_waves > 0, "wave cap must be positive");
        self.max_waves = max_waves;
        self
    }

    /// Sets the steady-state fast-forward policy.
    ///
    /// # Panics
    ///
    /// Panics if an `Auto` policy has a non-positive/non-finite epsilon or a
    /// zero window.
    pub fn with_fast_forward(mut self, policy: FastForwardPolicy) -> Self {
        if let FastForwardPolicy::Auto { epsilon, window } = policy {
            assert!(
                epsilon.is_finite() && epsilon > 0.0,
                "fast-forward epsilon must be positive and finite"
            );
            assert!(window > 0, "fast-forward window must be positive");
        }
        self.fast_forward = policy;
        self
    }

    /// The fast-forward policy in effect.
    pub fn fast_forward(&self) -> FastForwardPolicy {
        self.fast_forward
    }
}

impl Default for EventModel {
    fn default() -> Self {
        Self::new(GpuDescriptor::hd7970())
    }
}

/// A wave's compute block finished issuing on its SIMD ([`SlotQueue`] kind).
const COMPUTE_DONE: u8 = 0;
/// A wave's memory batch returned ([`SlotQueue`] kind).
const MEM_DONE: u8 = 1;

/// Per-window rates measured at a steady-state detection boundary, in units
/// per picosecond.
#[derive(Debug, Clone, Copy)]
struct WindowRates {
    completions: f64,
    valu_busy: f64,
    mem_residence: f64,
    mem_wait: f64,
}

/// Sliding-window steady-state detector.
///
/// Windows are `window` wave completions long; a boundary is only evaluated
/// once simulated time has advanced past the window base (batches of
/// simultaneous completions defer the boundary rather than dividing by a
/// zero interval). The detector trips once window-over-window completion
/// rates agree within relative `epsilon` at two consecutive boundaries.
///
/// The caller must pick `window` as a whole number of *residency periods*:
/// round-robin wave replacement makes the completion process periodic with
/// the resident set size (each generation of waves drains the same queue
/// shape, including the long inter-generation memory stall), so only
/// period-aligned windows see comparable gap structure. Sub-period windows
/// oscillate forever and never agree.
struct SteadyStateDetector {
    epsilon: f64,
    window: u64,
    base_completed: u64,
    base_time: u64,
    base_valu_busy: u64,
    base_mem_residence: u64,
    base_mem_wait: u64,
    prev_rate: f64,
    agreeing: u32,
}

impl SteadyStateDetector {
    fn new(epsilon: f64, window: u64) -> Self {
        Self {
            epsilon,
            window: window.max(1),
            base_completed: 0,
            base_time: 0,
            base_valu_busy: 0,
            base_mem_residence: 0,
            base_mem_wait: 0,
            prev_rate: 0.0,
            agreeing: 0,
        }
    }

    /// Whether a window boundary is due (cheap check before the caller
    /// gathers counter snapshots).
    fn due(&self, completed: u64, now: u64) -> bool {
        completed - self.base_completed >= self.window && now > self.base_time
    }

    /// Closes the current window and opens the next; returns the window's
    /// rates when steady state has been established.
    fn advance(
        &mut self,
        now: u64,
        completed: u64,
        valu_busy: u64,
        mem_residence: u64,
        mem_wait: u64,
    ) -> Option<WindowRates> {
        let dt = (now - self.base_time) as f64;
        let rates = WindowRates {
            completions: (completed - self.base_completed) as f64 / dt,
            valu_busy: (valu_busy - self.base_valu_busy) as f64 / dt,
            mem_residence: (mem_residence - self.base_mem_residence) as f64 / dt,
            mem_wait: (mem_wait - self.base_mem_wait) as f64 / dt,
        };
        if self.prev_rate > 0.0 && (rates.completions / self.prev_rate - 1.0).abs() <= self.epsilon
        {
            self.agreeing += 1;
        } else {
            self.agreeing = 0;
        }
        self.prev_rate = rates.completions;
        self.base_completed = completed;
        self.base_time = now;
        self.base_valu_busy = valu_busy;
        self.base_mem_residence = mem_residence;
        self.base_mem_wait = mem_wait;
        // Two consecutive agreements: the first window holds the pipeline
        // fill transient, so demanding that windows 2 and 3 both agree with
        // their predecessor means the converged rate was measured entirely
        // in steady state.
        (self.agreeing >= 2).then_some(rates)
    }
}

impl EventModel {
    #[allow(clippy::too_many_lines)]
    fn run(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        let gpu = &self.gpu;
        let scale = kernel.phase.scale_for(iteration);
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

        // Per-wave work at this iteration's phase scale. All of these are
        // loop invariants: nothing below depends on the event being served.
        let cycles_per_inst = f64::from(gpu.wave_size) / f64::from(gpu.lanes_per_simd);
        let items_per_wave = f64::from(gpu.wave_size);
        let valu_cycles_wave = cycles_per_inst * kernel.valu_insts_per_item * scale.compute;
        let blocks = kernel.blocks_per_wave.max(1);
        let c_block_ps = (valu_cycles_wave / f64::from(blocks) / f_cu * PS).max(1.0) as u64;

        // Memory bytes per wave per block.
        let l1_bytes_wave = (kernel.vfetch_insts_per_item * kernel.bytes_per_fetch
            + kernel.vwrite_insts_per_item * kernel.bytes_per_write)
            * kernel.mem_divergence
            * scale.memory
            * items_per_wave;
        let l2_hit = kernel.l2_hit_rate_at(n_cu, gpu.max_cu);
        let l2_bytes_wave = l1_bytes_wave * (1.0 - kernel.l1_hit_rate);
        let dram_bytes_wave = l2_bytes_wave * (1.0 - l2_hit);
        let dram_block = dram_bytes_wave / f64::from(blocks);
        let l2_block = l2_bytes_wave / f64::from(blocks);

        // Service rates, resolved once per run instead of once per block:
        // a batch fully served by the caches costs latency only, and which
        // cache serves it is a per-run property of the block's footprint.
        let l2_latency_ps = (L2_HIT_LATENCY_CYCLES / f_cu * PS) as u64;
        let l1_latency_ps = (L1_HIT_LATENCY_CYCLES / f_cu * PS) as u64;
        let has_mem = kernel.vfetch_insts_per_item + kernel.vwrite_insts_per_item > 0.0;
        let latency_only = dram_block < 1.0;
        let cache_latency_ps = if l2_block >= 1.0 {
            l2_latency_ps
        } else {
            l1_latency_ps
        };

        // --- build initial state -------------------------------------------
        let mut memory = MemoryPath::new(gpu, cfg);
        let mut simd_bank = SimdBank::new(simds);
        let mut waves = WaveSet::with_capacity(sim_waves as usize);
        let mut pending = sim_waves; // waves not yet dispatched
        let mut mem_residence_ps: u64 = 0;
        let mut mem_wait_ps: u64 = 0;

        // Fill each SIMD to its occupancy limit: one queue slot per
        // resident wave.
        let slots = u64::from(occ.waves_per_simd);
        let resident = (slots * simds as u64).min(sim_waves) as usize;
        let mut initial = Vec::with_capacity(resident);
        'fill: for _slot in 0..slots {
            for simd in 0..simds {
                if pending == 0 {
                    break 'fill;
                }
                pending -= 1;
                let id = waves.dispatch(simd as u32, blocks);
                // Start with a compute block at t=0 (queued on the SIMD).
                let done = simd_bank.issue(simd, 0, c_block_ps);
                initial.push(SlotQueue::key(done, id, COMPUTE_DONE));
            }
        }
        let mut queue = SlotQueue::new(initial);

        // --- event loop ------------------------------------------------------
        let mut detector = match self.fast_forward {
            FastForwardPolicy::Off => None,
            FastForwardPolicy::Auto { epsilon, window } => {
                // The policy window is a floor; the effective window must be
                // a whole number of residency periods (see the detector doc),
                // and the resident set size is known exactly right here.
                let resident = (waves.len() as u64).max(1);
                let aligned = window.div_ceil(resident).max(1) * resident;
                Some(SteadyStateDetector::new(epsilon, aligned))
            }
        };
        let auto_policy = detector.is_some();
        let mut completed: u64 = 0;
        let mut extra_valu_busy_ps: u64 = 0;
        // Simulated time skipped over the fast-forwarded generations; added
        // to the final clock after the drain is stepped out.
        let mut skip_time_ps: u64 = 0;
        let mut ff = FastForwardStats::default();

        // Every event refills or vacates the slot it was popped from.
        let mut now: u64 = 0;
        while let Some((t, id, kind)) = queue.min() {
            now = t;
            match kind {
                COMPUTE_DONE => {
                    if has_mem {
                        // Issue the memory batch for this block. Batches
                        // fully served by the caches cost latency only; the
                        // DRAM-bound remainder goes through the shared
                        // crossing/channel pipeline.
                        let arrival = now;
                        let (done, waited) = if latency_only {
                            (arrival + cache_latency_ps, 0)
                        } else {
                            memory.service(arrival, dram_block)
                        };
                        mem_residence_ps += done - arrival;
                        mem_wait_ps += waited;
                        queue.refill(done, id, MEM_DONE);
                    } else {
                        queue.refill(now, id, MEM_DONE);
                    }
                }
                _ => {
                    // MEM_DONE: the block's memory batch returned.
                    let simd = waves.simd(id) as usize;
                    if waves.retire_block(id) > 0 {
                        // Next compute block queues on the SIMD.
                        let done = simd_bank.issue(simd, now, c_block_ps);
                        queue.refill(done, id, COMPUTE_DONE);
                        continue;
                    }
                    completed += 1;
                    if pending > 0 {
                        // Slot freed: dispatch a fresh wave here.
                        pending -= 1;
                        let new_id = waves.dispatch(simd as u32, blocks);
                        let done = simd_bank.issue(simd, now, c_block_ps);
                        queue.refill(done, new_id, COMPUTE_DONE);
                    } else {
                        queue.vacate();
                    }
                    let mut tripped = None;
                    if let Some(det) = detector.as_mut() {
                        if det.due(completed, now) {
                            tripped = det.advance(
                                now,
                                completed,
                                simd_bank.busy_total(),
                                mem_residence_ps,
                                mem_wait_ps,
                            );
                        }
                    }
                    if let Some(rates) = tripped {
                        // Steady state. The completion process is periodic
                        // with the residency window, so removing whole
                        // not-yet-dispatched windows from `pending` and
                        // crediting their time/counters at the converged
                        // rates is a pure time shift of the remaining run —
                        // the loop then steps the drain-out of the final
                        // cohort exactly, which a flat rate extrapolation
                        // would mispredict (the last waves lose pipelining
                        // overlap as the machine empties).
                        let det = detector.take().expect("tripped implies detector");
                        let skip = (pending / det.window) * det.window;
                        if skip > 0 && rates.completions > 0.0 {
                            pending -= skip;
                            let extra = skip as f64 / rates.completions;
                            skip_time_ps = extra as u64;
                            extra_valu_busy_ps = (rates.valu_busy * extra) as u64;
                            mem_residence_ps += (rates.mem_residence * extra) as u64;
                            mem_wait_ps += (rates.mem_wait * extra) as u64;
                            ff.fast_forwarded_waves = skip;
                        }
                    }
                }
            }
        }
        now += skip_time_ps;
        if auto_policy {
            ff.stepped_waves = completed;
        }
        debug_assert!(
            completed + ff.fast_forwarded_waves == sim_waves,
            "event loop lost waves: completed {completed} + ffw {} != {sim_waves}",
            ff.fast_forwarded_waves
        );

        // --- rescale and synthesize counters --------------------------------
        let t_sim = now as f64 / PS;
        let overhead = kernel.launch_overhead_us * 1.0e-6;
        let t_total = t_sim * scale_factor + overhead;

        let items = kernel.workitems as f64;
        let dram_bytes = dram_bytes_wave * total_waves as f64;
        let achieved_bw = dram_bytes / t_total;
        let peak_theoretical = cfg.memory.peak_bandwidth_on(&gpu.grid).as_bytes_per_sec();
        let ic_activity = (achieved_bw / peak_theoretical).clamp(0.0, 1.0);

        let valu_busy = (simd_bank.busy_total() + extra_valu_busy_ps) as f64
            / PS
            / (simds as f64 * t_sim.max(1e-12));
        let mem_busy =
            (mem_residence_ps as f64 / PS / (f64::from(n_cu) * t_sim.max(1e-12))).min(1.0);
        let mem_stalled =
            (mem_wait_ps as f64 / PS / (f64::from(n_cu) * t_sim.max(1e-12))).min(mem_busy);
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
            ic_activity,
            valu_insts: (kernel.valu_insts_per_item * scale.compute * items) as u64,
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
            fast_forward: ff,
        }
    }
}

/// FNV-1a style fold used by [`EventModel::fidelity_key`].
fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

impl TimingModel for EventModel {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        self.run(cfg, kernel, iteration)
    }

    /// Event-stepped lanes are independent and each costs orders of
    /// magnitude more than an interval lane, so the batch fans out across
    /// the shared sweep pool instead of a struct-of-arrays pass. Results
    /// come back in lane order, bit-identical to the scalar loop.
    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        crate::sweep::run_indexed(cfgs.len(), |i| self.run(cfgs[i], kernel, iteration))
    }

    fn gpu(&self) -> &GpuDescriptor {
        &self.gpu
    }

    /// Deterministic queueing with no per-iteration randomness: the
    /// iteration number enters only via the phase scale, so sweeps may
    /// memoize across iterations. This holds for fast-forwarded runs too —
    /// steady-state detection is pure arithmetic over the event stream.
    fn phase_determined(&self) -> bool {
        true
    }

    /// Folds every fidelity knob — the wave cap and the fast-forward policy
    /// — so a shared sweep cache never serves an extrapolated result to a
    /// caller that asked for the exact model (or vice versa).
    fn fidelity_key(&self) -> u64 {
        let mut h = fnv_mix(0xcbf2_9ce4_8422_2325, self.max_waves);
        h = match self.fast_forward {
            FastForwardPolicy::Off => fnv_mix(h, 1),
            FastForwardPolicy::Auto { epsilon, window } => {
                fnv_mix(fnv_mix(fnv_mix(h, 2), epsilon.to_bits()), window)
            }
        };
        h
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
            .workitems(1 << 18)
            .valu_insts_per_item(1024.0)
            .vfetch_insts_per_item(1.0)
            .bytes_per_fetch(4.0)
            .l1_hit_rate(0.9)
            .l2_hit_rate(0.9)
            .build()
    }

    fn memory_kernel() -> KernelProfile {
        KernelProfile::builder("devicememory")
            .workitems(1 << 20)
            .valu_insts_per_item(4.0)
            .vfetch_insts_per_item(8.0)
            .bytes_per_fetch(32.0)
            .l1_hit_rate(0.05)
            .l2_hit_rate(0.05)
            .build()
    }

    #[test]
    fn deterministic() {
        let m = EventModel::default();
        let k = memory_kernel();
        let a = m.simulate(cfg(16, 700, 925), &k, 0);
        let b = m.simulate(cfg(16, 700, 925), &k, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn compute_kernel_scales_with_compute_config() {
        let m = EventModel::default();
        let k = compute_kernel();
        let slow = m.simulate(cfg(8, 500, 1375), &k, 0).time.value();
        let fast = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(slow / fast > 5.0);
    }

    #[test]
    fn memory_kernel_scales_with_bandwidth() {
        let m = EventModel::default();
        let k = memory_kernel();
        let lo = m.simulate(cfg(32, 1000, 475), &k, 0).time.value();
        let hi = m.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!(lo / hi > 2.0, "bandwidth speedup {} too small", lo / hi);
    }

    #[test]
    fn agrees_with_interval_model_on_extremes() {
        // The two models should agree within a factor of 2 on strongly
        // bound kernels (they share traffic and rate constants; queueing
        // details differ).
        let ev = EventModel::default();
        let iv = IntervalModel::default();
        for k in [compute_kernel(), memory_kernel()] {
            for c in [cfg(32, 1000, 1375), cfg(8, 500, 775), cfg(4, 300, 475)] {
                let te = ev.simulate(c, &k, 0).time.value();
                let ti = iv.simulate(c, &k, 0).time.value();
                let ratio = te / ti;
                // The widest disagreement is at tiny configs where the
                // interval model's Little's-law cap is stricter than the
                // event model's batched pipelining.
                assert!(
                    (0.35..2.2).contains(&ratio),
                    "{} at {c}: event {te} vs interval {ti} (ratio {ratio})",
                    k.name
                );
            }
        }
    }

    #[test]
    fn wave_cap_rescaling_is_consistent() {
        // Doubling the cap must not change the estimated time by more than a
        // few percent for a steady-state kernel.
        let k = memory_kernel();
        let small = EventModel::default().with_max_waves(2048);
        let large = EventModel::default().with_max_waves(8192);
        let ts = small.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        let tl = large.simulate(cfg(32, 1000, 1375), &k, 0).time.value();
        assert!((ts / tl - 1.0).abs() < 0.10, "cap sensitivity {}", ts / tl);
    }

    #[test]
    fn counters_in_range() {
        let m = EventModel::default();
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
                assert!((0.0..=100.0).contains(&pct));
            }
            assert!((0.0..=1.0).contains(&s.ic_activity));
        }
    }

    #[test]
    fn memory_kernel_shows_stalls_at_saturation() {
        let m = EventModel::default();
        let r = m.simulate(cfg(32, 1000, 475), &memory_kernel(), 0);
        assert!(r.counters.mem_unit_stalled_pct > 5.0);
    }

    #[test]
    #[should_panic(expected = "wave cap")]
    fn zero_wave_cap_panics() {
        let _ = EventModel::default().with_max_waves(0);
    }

    #[test]
    fn off_policy_reports_exact_run() {
        let m = EventModel::default();
        let r = m.simulate(cfg(32, 1000, 1375), &memory_kernel(), 0);
        assert!(r.fast_forward.is_exact());
        assert_eq!(r.fast_forward, FastForwardStats::default());
    }

    #[test]
    fn auto_fast_forwards_steady_kernels_within_epsilon() {
        let exact = EventModel::default();
        let fast = EventModel::default().with_fast_forward(FastForwardPolicy::auto());
        for k in [compute_kernel(), memory_kernel()] {
            for c in [cfg(32, 1000, 1375), cfg(8, 500, 775), cfg(16, 700, 925)] {
                let re = exact.simulate(c, &k, 0);
                let rf = fast.simulate(c, &k, 0);
                let dev = (rf.time.value() / re.time.value() - 1.0).abs();
                assert!(
                    dev <= 0.01,
                    "{} at {c}: fast-forward deviates {dev:.4}",
                    k.name
                );
                assert_eq!(
                    rf.fast_forward.stepped_waves + rf.fast_forward.fast_forwarded_waves,
                    exact.max_waves.min(k.waves(exact.gpu.wave_size).max(1)),
                    "accounting must cover every simulated wave"
                );
            }
        }
    }

    #[test]
    fn auto_actually_skips_most_waves_on_large_grids() {
        // A raised cap is where fast-forward pays: detection plus drain cost
        // a fixed few residency periods while the skipped cruise scales.
        let fast = EventModel::default()
            .with_max_waves(32768)
            .with_fast_forward(FastForwardPolicy::auto());
        let r = fast.simulate(cfg(32, 1000, 1375), &memory_kernel(), 0);
        let ffw = r.fast_forward.fast_forwarded_waves;
        let stepped = r.fast_forward.stepped_waves;
        assert!(
            ffw > stepped,
            "expected the steady tail to dominate: stepped {stepped}, fast-forwarded {ffw}"
        );
    }

    #[test]
    fn fidelity_keys_distinguish_policies_and_caps() {
        let off = EventModel::default();
        let auto = EventModel::default().with_fast_forward(FastForwardPolicy::auto());
        let tight = EventModel::default().with_fast_forward(FastForwardPolicy::Auto {
            epsilon: 0.001,
            window: 32,
        });
        let capped = EventModel::default().with_max_waves(2048);
        let keys = [
            off.fidelity_key(),
            auto.fidelity_key(),
            tight.fidelity_key(),
            capped.fidelity_key(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "fidelity keys must not alias");
            }
        }
        assert_ne!(off.fidelity_key(), 0, "event fidelity is never the trait default");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_rejected() {
        let _ = EventModel::default().with_fast_forward(FastForwardPolicy::Auto {
            epsilon: 0.0,
            window: 64,
        });
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = EventModel::default().with_fast_forward(FastForwardPolicy::Auto {
            epsilon: 0.005,
            window: 0,
        });
    }
}
