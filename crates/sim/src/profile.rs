//! Characterization-driven kernel models.
//!
//! The controller in the paper never inspects kernel code: it observes
//! performance counters and execution times. A [`KernelProfile`] therefore
//! describes a kernel by the quantities that determine those observables —
//! instruction mix, register and LDS usage, branch and memory divergence,
//! cache behaviour, and how the kernel's work scales across invocations
//! ([`PhaseModulation`], used e.g. to model Graph500's BFS frontier, whose
//! ops/byte swings between 0.64 and 264 across iterations in Figure 14).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-invocation scaling of a kernel's work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseScale {
    /// Multiplier on executed ALU instructions.
    pub compute: f64,
    /// Multiplier on memory traffic (fetch/write instructions and bytes).
    pub memory: f64,
}

impl PhaseScale {
    /// The identity scaling.
    pub const UNIT: PhaseScale = PhaseScale {
        compute: 1.0,
        memory: 1.0,
    };
}

impl Default for PhaseScale {
    fn default() -> Self {
        Self::UNIT
    }
}

/// How a kernel's work varies across successive invocations (iterations).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum PhaseModulation {
    /// Every invocation performs the same work.
    #[default]
    Constant,
    /// Invocation `i` uses `scales[i % scales.len()]` — models data-dependent
    /// phases such as BFS frontier growth and collapse.
    Cycle(Vec<PhaseScale>),
    /// Work decays geometrically: invocation `i` is scaled by `ratio^i`
    /// (bounded below by `floor`) — models convergence-driven algorithms.
    Decay {
        /// Per-iteration ratio (0 < ratio ≤ 1).
        ratio: f64,
        /// Lower bound on the scale.
        floor: f64,
    },
}

impl PhaseModulation {
    /// The scaling for invocation `iteration` (0-based).
    pub fn scale_for(&self, iteration: u64) -> PhaseScale {
        match self {
            PhaseModulation::Constant => PhaseScale::UNIT,
            PhaseModulation::Cycle(scales) => {
                if scales.is_empty() {
                    PhaseScale::UNIT
                } else {
                    scales[(iteration as usize) % scales.len()]
                }
            }
            PhaseModulation::Decay { ratio, floor } => {
                let s = ratio.powi(iteration as i32).max(*floor);
                PhaseScale {
                    compute: s,
                    memory: s,
                }
            }
        }
    }
}

/// A characterization-driven model of one GPU kernel.
///
/// Construct with [`KernelProfile::builder`]; the builder defaults describe a
/// medium-sized, well-behaved streaming kernel and every field can be
/// overridden. Fields are public and plain data — the profile is a passive
/// description consumed by the timing models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name, e.g. `"Sort.BottomScan"`. Shared: session traces, run
    /// reports and invocation records hold clones of this one allocation.
    pub name: Arc<str>,
    /// Total work-items launched per invocation.
    pub workitems: u64,
    /// Work-items per workgroup.
    pub workgroup_size: u32,
    /// Vector registers used per work-item (limits occupancy; max 256).
    pub vgprs_per_item: u32,
    /// Scalar registers used per wave (max 102 usable).
    pub sgprs_per_wave: u32,
    /// LDS bytes used per workgroup.
    pub lds_per_group_bytes: u32,
    /// Vector-ALU instructions *executed* per work-item (includes both sides
    /// of divergent branches).
    pub valu_insts_per_item: f64,
    /// Scalar-ALU instructions per work-item.
    pub salu_insts_per_item: f64,
    /// Vector memory fetch instructions per work-item.
    pub vfetch_insts_per_item: f64,
    /// Vector memory write instructions per work-item.
    pub vwrite_insts_per_item: f64,
    /// Average bytes touched per lane per fetch (coalescing quality; 4–64).
    pub bytes_per_fetch: f64,
    /// Average bytes written per lane per write.
    pub bytes_per_write: f64,
    /// Average fraction of inactive lanes due to branch divergence (0..1).
    /// `VALUUtilization = 100·(1 − divergence)`.
    pub branch_divergence: f64,
    /// Memory-request replication factor due to uncoalesced or divergent
    /// addressing (≥ 1).
    pub mem_divergence: f64,
    /// L1 hit rate (0..1).
    pub l1_hit_rate: f64,
    /// L2 hit rate at the 4-CU reference point (0..1).
    pub l2_hit_rate: f64,
    /// L2 hit-rate degradation when scaling from 4 to 32 active CUs
    /// (cache-thrash-prone kernels lose hit rate as more CUs contend;
    /// Section 7.1's BPT/CFD/XSBench effect).
    pub l2_thrash_slope: f64,
    /// Number of compute/memory alternations per wave (phase granularity of
    /// the event model).
    pub blocks_per_wave: u32,
    /// Fixed launch overhead per invocation, in microseconds.
    pub launch_overhead_us: f64,
    /// How work scales across invocations.
    pub phase: PhaseModulation,
}

impl KernelProfile {
    /// Starts building a profile with the given kernel name.
    pub fn builder(name: impl Into<Arc<str>>) -> KernelProfileBuilder {
        KernelProfileBuilder::new(name)
    }

    /// Total wavefronts per invocation for a given wave size.
    pub fn waves(&self, wave_size: u32) -> u64 {
        self.workitems.div_ceil(u64::from(wave_size))
    }

    /// Demand operations per byte of this kernel at unit phase scale:
    /// executed lane-operations over DRAM-visible bytes (before caching).
    /// A rough characterization used in reports; the timing models compute
    /// traffic precisely.
    pub fn demand_ops_per_byte(&self) -> f64 {
        let ops = self.valu_insts_per_item * (1.0 - self.branch_divergence).max(1.0 / 64.0);
        let bytes = (self.vfetch_insts_per_item * self.bytes_per_fetch
            + self.vwrite_insts_per_item * self.bytes_per_write)
            .max(1e-9);
        ops / bytes
    }

    /// `VALUUtilization` in percent implied by the divergence field.
    pub fn valu_utilization_pct(&self) -> f64 {
        100.0 * (1.0 - self.branch_divergence)
    }

    /// Effective L2 hit rate at `active_cus` active CUs, applying the
    /// thrash slope between the 4-CU reference and the 32-CU maximum.
    pub fn l2_hit_rate_at(&self, active_cus: u32, max_cu: u32) -> f64 {
        let span = f64::from(max_cu - 4).max(1.0);
        let frac = (f64::from(active_cus) - 4.0).max(0.0) / span;
        (self.l2_hit_rate - self.l2_thrash_slope * frac).clamp(0.0, 1.0)
    }

    /// A cheap 64-bit fingerprint of every field that influences simulation
    /// *except* [`KernelProfile::phase`].
    ///
    /// The timing models consume the phase modulation only through
    /// [`PhaseModulation::scale_for`], so an invocation is fully identified
    /// by `(cache_key, configuration, scale_for(iteration))` — the key used
    /// by the sweep engine's memoization cache ([`crate::sweep::SimCache`]).
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.name.as_bytes());
        h.write_u64(self.workitems);
        h.write_u64(u64::from(self.workgroup_size));
        h.write_u64(u64::from(self.vgprs_per_item));
        h.write_u64(u64::from(self.sgprs_per_wave));
        h.write_u64(u64::from(self.lds_per_group_bytes));
        h.write_u64(self.valu_insts_per_item.to_bits());
        h.write_u64(self.salu_insts_per_item.to_bits());
        h.write_u64(self.vfetch_insts_per_item.to_bits());
        h.write_u64(self.vwrite_insts_per_item.to_bits());
        h.write_u64(self.bytes_per_fetch.to_bits());
        h.write_u64(self.bytes_per_write.to_bits());
        h.write_u64(self.branch_divergence.to_bits());
        h.write_u64(self.mem_divergence.to_bits());
        h.write_u64(self.l1_hit_rate.to_bits());
        h.write_u64(self.l2_hit_rate.to_bits());
        h.write_u64(self.l2_thrash_slope.to_bits());
        h.write_u64(u64::from(self.blocks_per_wave));
        h.write_u64(self.launch_overhead_us.to_bits());
        h.finish()
    }
}

/// 64-bit FNV-1a, enough for a process-local memoization fingerprint.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        // One mixing round per word rather than per byte: the fingerprint is
        // recomputed on every memoized simulation, so this is on the
        // cache-hit fast path.
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builder for [`KernelProfile`]. All setters take and return `self` so
/// profiles can be declared in one expression.
#[derive(Debug, Clone)]
pub struct KernelProfileBuilder {
    profile: KernelProfile,
}

impl KernelProfileBuilder {
    fn new(name: impl Into<Arc<str>>) -> Self {
        Self {
            profile: KernelProfile {
                name: name.into(),
                workitems: 1 << 20,
                workgroup_size: 256,
                vgprs_per_item: 32,
                sgprs_per_wave: 32,
                lds_per_group_bytes: 0,
                valu_insts_per_item: 32.0,
                salu_insts_per_item: 4.0,
                vfetch_insts_per_item: 4.0,
                vwrite_insts_per_item: 1.0,
                bytes_per_fetch: 16.0,
                bytes_per_write: 16.0,
                branch_divergence: 0.05,
                mem_divergence: 1.0,
                l1_hit_rate: 0.35,
                l2_hit_rate: 0.4,
                l2_thrash_slope: 0.0,
                blocks_per_wave: 8,
                launch_overhead_us: 8.0,
                phase: PhaseModulation::Constant,
            },
        }
    }

    /// Sets the total work-items per invocation.
    pub fn workitems(mut self, v: u64) -> Self {
        self.profile.workitems = v;
        self
    }

    /// Sets the workgroup size.
    pub fn workgroup_size(mut self, v: u32) -> Self {
        self.profile.workgroup_size = v;
        self
    }

    /// Sets VGPRs used per work-item.
    pub fn vgprs(mut self, v: u32) -> Self {
        self.profile.vgprs_per_item = v;
        self
    }

    /// Sets SGPRs used per wave.
    pub fn sgprs(mut self, v: u32) -> Self {
        self.profile.sgprs_per_wave = v;
        self
    }

    /// Sets LDS bytes per workgroup.
    pub fn lds_bytes(mut self, v: u32) -> Self {
        self.profile.lds_per_group_bytes = v;
        self
    }

    /// Sets executed vector-ALU instructions per work-item.
    pub fn valu_insts_per_item(mut self, v: f64) -> Self {
        self.profile.valu_insts_per_item = v;
        self
    }

    /// Sets scalar-ALU instructions per work-item.
    pub fn salu_insts_per_item(mut self, v: f64) -> Self {
        self.profile.salu_insts_per_item = v;
        self
    }

    /// Sets vector fetch instructions per work-item.
    pub fn vfetch_insts_per_item(mut self, v: f64) -> Self {
        self.profile.vfetch_insts_per_item = v;
        self
    }

    /// Sets vector write instructions per work-item.
    pub fn vwrite_insts_per_item(mut self, v: f64) -> Self {
        self.profile.vwrite_insts_per_item = v;
        self
    }

    /// Sets average bytes per lane per fetch.
    pub fn bytes_per_fetch(mut self, v: f64) -> Self {
        self.profile.bytes_per_fetch = v;
        self
    }

    /// Sets average bytes per lane per write.
    pub fn bytes_per_write(mut self, v: f64) -> Self {
        self.profile.bytes_per_write = v;
        self
    }

    /// Sets the branch-divergence fraction (0..1).
    pub fn branch_divergence(mut self, v: f64) -> Self {
        self.profile.branch_divergence = v.clamp(0.0, 1.0);
        self
    }

    /// Sets the memory-divergence replication factor (≥ 1).
    pub fn mem_divergence(mut self, v: f64) -> Self {
        self.profile.mem_divergence = v.max(1.0);
        self
    }

    /// Sets the L1 hit rate (0..1).
    pub fn l1_hit_rate(mut self, v: f64) -> Self {
        self.profile.l1_hit_rate = v.clamp(0.0, 1.0);
        self
    }

    /// Sets the reference L2 hit rate (0..1).
    pub fn l2_hit_rate(mut self, v: f64) -> Self {
        self.profile.l2_hit_rate = v.clamp(0.0, 1.0);
        self
    }

    /// Sets the L2 thrash slope (hit-rate loss from 4 → 32 CUs).
    pub fn l2_thrash_slope(mut self, v: f64) -> Self {
        self.profile.l2_thrash_slope = v.clamp(0.0, 1.0);
        self
    }

    /// Sets compute/memory alternations per wave.
    pub fn blocks_per_wave(mut self, v: u32) -> Self {
        self.profile.blocks_per_wave = v.max(1);
        self
    }

    /// Sets launch overhead in microseconds.
    pub fn launch_overhead_us(mut self, v: f64) -> Self {
        self.profile.launch_overhead_us = v.max(0.0);
        self
    }

    /// Sets the per-invocation phase modulation.
    pub fn phase(mut self, v: PhaseModulation) -> Self {
        self.profile.phase = v;
        self
    }

    /// Finishes building the profile.
    pub fn build(self) -> KernelProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let k = KernelProfile::builder("k").build();
        assert_eq!(&*k.name, "k");
        assert!(k.workitems > 0);
        assert!(k.vgprs_per_item <= 256);
        assert!(k.branch_divergence >= 0.0 && k.branch_divergence <= 1.0);
        assert_eq!(k.phase, PhaseModulation::Constant);
    }

    #[test]
    fn builder_setters_stick() {
        let k = KernelProfile::builder("bottom_scan")
            .workitems(2_000_000)
            .vgprs(66)
            .sgprs(48)
            .branch_divergence(0.06)
            .l2_hit_rate(0.2)
            .build();
        assert_eq!(k.vgprs_per_item, 66);
        assert_eq!(k.sgprs_per_wave, 48);
        assert!((k.branch_divergence - 0.06).abs() < 1e-12);
    }

    #[test]
    fn waves_round_up() {
        let k = KernelProfile::builder("k").workitems(65).build();
        assert_eq!(k.waves(64), 2);
        let k = KernelProfile::builder("k").workitems(64).build();
        assert_eq!(k.waves(64), 1);
    }

    #[test]
    fn valu_utilization_reflects_divergence() {
        let k = KernelProfile::builder("k").branch_divergence(0.75).build();
        assert!((k.valu_utilization_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn thrash_slope_degrades_hit_rate_with_cus() {
        let k = KernelProfile::builder("bpt")
            .l2_hit_rate(0.6)
            .l2_thrash_slope(0.4)
            .build();
        assert!((k.l2_hit_rate_at(4, 32) - 0.6).abs() < 1e-12);
        assert!((k.l2_hit_rate_at(32, 32) - 0.2).abs() < 1e-12);
        assert!(k.l2_hit_rate_at(16, 32) < k.l2_hit_rate_at(8, 32));
    }

    #[test]
    fn hit_rate_clamped_to_unit_interval() {
        let k = KernelProfile::builder("k")
            .l2_hit_rate(0.1)
            .l2_thrash_slope(1.0)
            .build();
        assert_eq!(k.l2_hit_rate_at(32, 32), 0.0);
    }

    #[test]
    fn phase_constant_is_unit() {
        assert_eq!(PhaseModulation::Constant.scale_for(7), PhaseScale::UNIT);
    }

    #[test]
    fn phase_cycle_wraps() {
        let m = PhaseModulation::Cycle(vec![
            PhaseScale {
                compute: 1.0,
                memory: 2.0,
            },
            PhaseScale {
                compute: 3.0,
                memory: 0.5,
            },
        ]);
        assert_eq!(m.scale_for(0).memory, 2.0);
        assert_eq!(m.scale_for(1).compute, 3.0);
        assert_eq!(m.scale_for(2).memory, 2.0);
        // Empty cycle falls back to unit.
        assert_eq!(PhaseModulation::Cycle(vec![]).scale_for(5), PhaseScale::UNIT);
    }

    #[test]
    fn phase_decay_bounded_by_floor() {
        let m = PhaseModulation::Decay {
            ratio: 0.5,
            floor: 0.2,
        };
        assert_eq!(m.scale_for(0).compute, 1.0);
        assert_eq!(m.scale_for(1).compute, 0.5);
        assert_eq!(m.scale_for(10).compute, 0.2);
    }

    #[test]
    fn cache_key_distinguishes_profiles_but_not_phase() {
        let a = KernelProfile::builder("k").build();
        let b = KernelProfile::builder("k").build();
        assert_eq!(a.cache_key(), b.cache_key());
        let renamed = KernelProfile::builder("other").build();
        assert_ne!(a.cache_key(), renamed.cache_key());
        let tweaked = KernelProfile::builder("k").vgprs(64).build();
        assert_ne!(a.cache_key(), tweaked.cache_key());
        // The phase modulation is deliberately excluded: two kernels that
        // agree on everything else hit the same cache lines whenever their
        // per-iteration scales coincide.
        let phased = KernelProfile::builder("k")
            .phase(PhaseModulation::Decay {
                ratio: 0.5,
                floor: 0.1,
            })
            .build();
        assert_eq!(a.cache_key(), phased.cache_key());
    }

    #[test]
    fn demand_ops_per_byte_orders_kernels() {
        let compute_bound = KernelProfile::builder("maxflops")
            .valu_insts_per_item(4000.0)
            .vfetch_insts_per_item(1.0)
            .bytes_per_fetch(4.0)
            .build();
        let memory_bound = KernelProfile::builder("devicememory")
            .valu_insts_per_item(2.0)
            .vfetch_insts_per_item(8.0)
            .bytes_per_fetch(32.0)
            .build();
        assert!(compute_bound.demand_ops_per_byte() > 100.0 * memory_bound.demand_ops_per_byte());
    }
}
