//! The device catalog: every hardware number in one place.
//!
//! Historically the workspace hardcoded the paper's AMD Radeon HD7970 test
//! bed — its config grid in `config.rs` constants, its geometry in the
//! simulator's `GpuDescriptor`, its DVFS table in `dvfs.rs`, and its power
//! calibration in `harmonia_power`'s parameter defaults. [`DeviceSpec`]
//! bundles all four so a session can target any catalog device:
//!
//! * [`GridSpec`] — the managed configuration grid (CU counts, compute
//!   clocks, memory clocks) plus the peak-throughput scalars derived from
//!   the bus ([`GridSpec::HD7970`] is the paper's 448-point space);
//! * [`GpuDescriptor`] — microarchitectural geometry the timing models
//!   consume (SIMDs, wave slots, caches, DRAM latency), carrying its grid;
//! * [`crate::DvfsTable`] — voltage/frequency operating points;
//! * [`DevicePower`] — the power-model calibration
//!   ([`ComputePowerParams`], [`MemoryPowerParams`], board overhead).
//!
//! Catalog entries are selected by name ([`DeviceSpec::from_str`] /
//! `Display`): the paper's `hd7970`, a V100-class and an H100-class
//! big-HBM part, and a Jetson-class edge part. The hd7970 entry reproduces
//! the legacy constructors bit for bit; every other device is pure new
//! capability. Simulation caches key on [`GpuDescriptor::fingerprint`] so
//! results for different devices never alias.

use crate::config::ConfigSpace;
use crate::dvfs::{DpmState, DvfsTable};
use crate::units::{MegaHertz, Volts, Watts};
use crate::HwConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// GridSpec
// ---------------------------------------------------------------------------

/// The managed configuration grid of one device: the ranges and step sizes
/// of the three tunables, plus the scalars that turn a configuration into
/// peak throughput numbers. All fields are plain scalars so grids are
/// `const`-constructible ([`GridSpec::HD7970`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Minimum number of active compute units.
    pub cu_min: u32,
    /// Maximum number of compute units physically present.
    pub cu_max: u32,
    /// Granularity of compute-unit power gating.
    pub cu_step: u32,
    /// Minimum compute (shader) clock.
    pub cu_freq_min: MegaHertz,
    /// Maximum compute clock.
    pub cu_freq_max: MegaHertz,
    /// Compute clock granularity in MHz.
    pub cu_freq_step: u32,
    /// Minimum memory bus clock.
    pub mem_freq_min: MegaHertz,
    /// Maximum memory bus clock.
    pub mem_freq_max: MegaHertz,
    /// Memory bus clock granularity in MHz.
    pub mem_freq_step: u32,
    /// Width of the memory interface in bits.
    pub mem_bus_width_bits: u32,
    /// Data words moved per bus clock (GDDR5: 4, DDR-style HBM: 2).
    pub mem_transfer_rate: f64,
    /// Peak FLOPs one CU retires per clock (FMAC counts two): for the
    /// HD7970's GCN CUs, 4 SIMDs × 16 lanes × 2 = 128.
    pub flops_per_cu_clock: f64,
}

impl GridSpec {
    /// The paper's HD7970 grid: 8 CU levels × 8 compute clocks × 7 memory
    /// clocks = 448 operating points.
    pub const HD7970: GridSpec = GridSpec {
        cu_min: 4,
        cu_max: 32,
        cu_step: 4,
        cu_freq_min: MegaHertz(300),
        cu_freq_max: MegaHertz(1000),
        cu_freq_step: 100,
        mem_freq_min: MegaHertz(475),
        mem_freq_max: MegaHertz(1375),
        mem_freq_step: 150,
        mem_bus_width_bits: 384,
        mem_transfer_rate: 4.0,
        flops_per_cu_clock: 128.0,
    };

    /// All valid CU counts, ascending.
    pub fn cu_levels(&self) -> Vec<u32> {
        (self.cu_min..=self.cu_max)
            .step_by(self.cu_step as usize)
            .collect()
    }

    /// All valid compute frequencies, ascending.
    pub fn cu_freq_levels(&self) -> Vec<MegaHertz> {
        (self.cu_freq_min.value()..=self.cu_freq_max.value())
            .step_by(self.cu_freq_step as usize)
            .map(MegaHertz)
            .collect()
    }

    /// All valid memory bus frequencies, ascending.
    pub fn mem_freq_levels(&self) -> Vec<MegaHertz> {
        (self.mem_freq_min.value()..=self.mem_freq_max.value())
            .step_by(self.mem_freq_step as usize)
            .map(MegaHertz)
            .collect()
    }

    /// Number of CU levels on the grid.
    pub fn cu_level_count(&self) -> usize {
        ((self.cu_max - self.cu_min) / self.cu_step + 1) as usize
    }

    /// Number of compute-clock levels on the grid.
    pub fn cu_freq_level_count(&self) -> usize {
        ((self.cu_freq_max.value() - self.cu_freq_min.value()) / self.cu_freq_step + 1) as usize
    }

    /// Number of memory-clock levels on the grid.
    pub fn mem_freq_level_count(&self) -> usize {
        ((self.mem_freq_max.value() - self.mem_freq_min.value()) / self.mem_freq_step + 1) as usize
    }

    /// Total operating points (the cross product of the three tunables).
    pub fn len(&self) -> usize {
        self.cu_level_count() * self.cu_freq_level_count() * self.mem_freq_level_count()
    }

    /// Whether the grid is degenerate (never true for catalog grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An upper bound on the number of downward steps any greedy descent
    /// can take before hitting the grid floor (sum of the per-tunable level
    /// counts).
    pub fn descent_bound(&self) -> usize {
        self.cu_level_count() + self.cu_freq_level_count() + self.mem_freq_level_count()
    }

    /// Bytes the memory interface moves per bus clock
    /// (`width/8 × transfer-rate`; 192 for the HD7970).
    pub fn bytes_per_clock(&self) -> f64 {
        f64::from(self.mem_bus_width_bits / 8) * self.mem_transfer_rate
    }

    /// The nearest on-grid compute clock to `freq` (ties round down), used
    /// to map published DVFS states onto the managed grid.
    pub fn snap_cu_freq(&self, freq: MegaHertz) -> MegaHertz {
        let lo = self.cu_freq_min.value();
        let hi = self.cu_freq_max.value();
        let v = freq.value().clamp(lo, hi);
        let level = (v - lo + self.cu_freq_step / 2) / self.cu_freq_step;
        let level = (level as usize).min(self.cu_freq_level_count() - 1) as u32;
        MegaHertz(lo + level * self.cu_freq_step)
    }

    /// Folds every grid field into an FNV-1a fingerprint (device cache
    /// keying — see [`GpuDescriptor::fingerprint`]).
    fn hash_into(&self, h: &mut Fnv) {
        h.u32(self.cu_min);
        h.u32(self.cu_max);
        h.u32(self.cu_step);
        h.u32(self.cu_freq_min.value());
        h.u32(self.cu_freq_max.value());
        h.u32(self.cu_freq_step);
        h.u32(self.mem_freq_min.value());
        h.u32(self.mem_freq_max.value());
        h.u32(self.mem_freq_step);
        h.u32(self.mem_bus_width_bits);
        h.f64(self.mem_transfer_rate);
        h.f64(self.flops_per_cu_clock);
    }
}

/// Minimal FNV-1a accumulator for device fingerprints (same constants the
/// fleet digests use).
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

// ---------------------------------------------------------------------------
// GpuDescriptor (moved here from harmonia_sim so the catalog owns it)
// ---------------------------------------------------------------------------

/// Static hardware parameters of the simulated GPU.
///
/// Defaults ([`GpuDescriptor::hd7970`]) follow Section 2.2 of the paper:
/// up to 32 CUs with four 16-lane SIMD units each, 16 KiB L1 data cache and
/// 64 KiB LDS per CU, a shared 768 KiB L2, and six 64-bit dual-channel
/// GDDR5 memory controllers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuDescriptor {
    /// The managed configuration grid of this device.
    pub grid: GridSpec,
    /// Maximum number of compute units physically present.
    pub max_cu: u32,
    /// SIMD vector units per CU.
    pub simds_per_cu: u32,
    /// Processing elements (lanes) per SIMD.
    pub lanes_per_simd: u32,
    /// Work-items per wavefront (GCN: 64).
    pub wave_size: u32,
    /// Hardware wave slots per SIMD (GCN: 10).
    pub max_waves_per_simd: u32,
    /// Vector registers available per SIMD lane pool (GCN: 256 per thread).
    pub vgprs_per_simd: u32,
    /// Scalar registers available per SIMD (GCN: 512).
    pub sgprs_per_simd: u32,
    /// Maximum SGPRs one wave may use (the paper normalizes by 102).
    pub max_sgprs_per_wave: u32,
    /// Local data share per CU, in bytes (64 KiB).
    pub lds_per_cu_bytes: u32,
    /// L1 data cache per CU, in bytes (16 KiB).
    pub l1_per_cu_bytes: u32,
    /// Shared L2 cache, in bytes (768 KiB).
    pub l2_bytes: u32,
    /// Number of memory channels (six dual-channel controllers).
    pub mem_channels: u32,
    /// Cache line / memory transaction size in bytes.
    pub line_bytes: u32,
    /// Fraction of theoretical DRAM bandwidth achievable by a perfect
    /// streaming access pattern (bank conflicts, refresh, bus turnaround).
    pub dram_efficiency: f64,
    /// Bytes per *compute-domain* cycle the L2→memory-controller crossing
    /// can deliver. This is the clock-domain coupling of Section 3.5: at low
    /// compute clocks the crossing, not the DRAM, can bound bandwidth.
    pub crossing_bytes_per_cu_cycle: f64,
    /// Bytes per compute-domain cycle the L2 can serve to the CUs.
    pub l2_bytes_per_cu_cycle: f64,
    /// Unloaded DRAM access latency in nanoseconds at the maximum memory
    /// bus clock.
    pub dram_latency_ns: f64,
    /// Additional latency in nanoseconds per unit of memory-clock slowdown
    /// (the controller and PHY run slower too).
    pub dram_latency_slowdown_ns: f64,
    /// Memory requests a single wave can keep in flight (vector memory
    /// unit depth).
    pub outstanding_per_wave: f64,
}

impl GpuDescriptor {
    /// The AMD Radeon HD7970 test bed of the paper.
    pub fn hd7970() -> Self {
        Self {
            grid: GridSpec::HD7970,
            max_cu: 32,
            simds_per_cu: 4,
            lanes_per_simd: 16,
            wave_size: 64,
            max_waves_per_simd: 10,
            vgprs_per_simd: 256,
            sgprs_per_simd: 512,
            max_sgprs_per_wave: 102,
            lds_per_cu_bytes: 64 * 1024,
            l1_per_cu_bytes: 16 * 1024,
            l2_bytes: 768 * 1024,
            mem_channels: 6,
            line_bytes: 64,
            dram_efficiency: 0.85,
            crossing_bytes_per_cu_cycle: 320.0,
            l2_bytes_per_cu_cycle: 512.0,
            dram_latency_ns: 190.0,
            dram_latency_slowdown_ns: 110.0,
            outstanding_per_wave: 1.5,
        }
    }

    /// Total SIMDs for a given active CU count.
    pub fn simds(&self, active_cus: u32) -> u32 {
        active_cus * self.simds_per_cu
    }

    /// Peak vector issue rate in lane-operations per second for an active CU
    /// count and compute clock in hertz.
    pub fn peak_lane_ops_per_sec(&self, active_cus: u32, cu_freq_hz: f64) -> f64 {
        f64::from(self.simds(active_cus) * self.lanes_per_simd) * cu_freq_hz
    }

    /// DRAM latency in seconds at a given memory bus frequency (hertz),
    /// relative to the maximum clock `max_hz`.
    pub fn dram_latency_s(&self, mem_freq_hz: f64, max_hz: f64) -> f64 {
        let slowdown = (max_hz / mem_freq_hz - 1.0).max(0.0);
        (self.dram_latency_ns + self.dram_latency_slowdown_ns * slowdown) * 1.0e-9
    }

    /// An FNV-1a digest of every descriptor field (grid included). Folded
    /// into simulation cache keys and sweep-plan identities so results for
    /// different devices never alias each other.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        self.grid.hash_into(&mut h);
        h.u32(self.max_cu);
        h.u32(self.simds_per_cu);
        h.u32(self.lanes_per_simd);
        h.u32(self.wave_size);
        h.u32(self.max_waves_per_simd);
        h.u32(self.vgprs_per_simd);
        h.u32(self.sgprs_per_simd);
        h.u32(self.max_sgprs_per_wave);
        h.u32(self.lds_per_cu_bytes);
        h.u32(self.l1_per_cu_bytes);
        h.u32(self.l2_bytes);
        h.u32(self.mem_channels);
        h.u32(self.line_bytes);
        h.f64(self.dram_efficiency);
        h.f64(self.crossing_bytes_per_cu_cycle);
        h.f64(self.l2_bytes_per_cu_cycle);
        h.f64(self.dram_latency_ns);
        h.f64(self.dram_latency_slowdown_ns);
        h.f64(self.outstanding_per_wave);
        h.0
    }
}

// ---------------------------------------------------------------------------
// Power calibration (moved here from harmonia_power so the catalog owns it)
// ---------------------------------------------------------------------------

/// Tunable parameters of the chip power model. Defaults are calibrated so a
/// fully busy 32-CU/1 GHz chip draws ≈180 W, matching the HD7970's ~250 W
/// board TDP once memory and board overheads are added.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputePowerParams {
    /// Effective switched capacitance per CU, in W / (V²·GHz) at activity 1.
    pub c_dyn_per_cu: f64,
    /// Fraction of a CU's dynamic power burned just by clocking it while it
    /// is active but not issuing (clock tree, scheduler).
    pub idle_clock_fraction: f64,
    /// Leakage per active CU at the reference voltage, in watts.
    pub leak_per_cu_ref: f64,
    /// Leakage of the always-on uncore at the reference voltage, in watts.
    pub leak_uncore_ref: f64,
    /// Reference voltage for the leakage constants.
    pub leak_ref_voltage: Volts,
    /// Exponent of the leakage–voltage relationship (super-linear).
    pub leak_voltage_exponent: f64,
    /// Uncore (L2, crossbar, command processor) switched capacitance in
    /// W / (V²·GHz).
    pub c_dyn_uncore: f64,
    /// Additional uncore dynamic power per unit of L2↔DRAM traffic fraction.
    pub uncore_traffic_coeff: f64,
    /// Integrated memory-controller power per memory-bus GHz (always-on part).
    pub mc_per_mem_ghz: f64,
    /// Memory-controller power at full DRAM traffic, in watts.
    pub mc_traffic_coeff: f64,
}

impl Default for ComputePowerParams {
    fn default() -> Self {
        Self {
            c_dyn_per_cu: 2.9,
            idle_clock_fraction: 0.25,
            leak_per_cu_ref: 0.72,
            leak_uncore_ref: 7.0,
            leak_ref_voltage: Volts(1.19),
            leak_voltage_exponent: 3.0,
            c_dyn_uncore: 9.0,
            uncore_traffic_coeff: 6.0,
            mc_per_mem_ghz: 0.8,
            mc_traffic_coeff: 1.2,
        }
    }
}

/// Tunable parameters of the GDDR5 + PHY power model. Defaults are
/// calibrated so streaming at 264 GB/s costs ≈50 W of memory power —
/// a significant share of card power, as Figure 1 shows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryPowerParams {
    /// DRAM background power per memory-bus GHz (all devices), in watts.
    pub background_per_ghz: f64,
    /// PLL plus DDR PHY power per memory-bus GHz, in watts.
    pub phy_per_ghz: f64,
    /// Static floor of PHY/PLL power independent of frequency, in watts.
    pub phy_static: f64,
    /// Activate/pre-charge energy per byte of DRAM traffic, in pJ/byte.
    pub activate_pj_per_byte: f64,
    /// Read/write array energy per byte, in pJ/byte.
    pub rw_pj_per_byte: f64,
    /// I/O termination energy per byte, in pJ/byte.
    pub termination_pj_per_byte: f64,
    /// Fractional increase in per-byte read/write + termination energy per
    /// unit of slowdown relative to the maximum bus clock (the "longer
    /// intervals between array accesses" effect).
    pub slow_clock_energy_penalty: f64,
    /// When `true`, scales DRAM power with the square of a hypothetical
    /// frequency-proportional voltage — the what-if the paper could not
    /// measure. `false` models the real fixed-voltage platform.
    pub voltage_scaling: bool,
}

impl Default for MemoryPowerParams {
    fn default() -> Self {
        Self {
            background_per_ghz: 9.5,
            phy_per_ghz: 7.5,
            phy_static: 2.0,
            activate_pj_per_byte: 25.0,
            rw_pj_per_byte: 70.0,
            termination_pj_per_byte: 30.0,
            slow_clock_energy_penalty: 0.06,
            voltage_scaling: false,
        }
    }
}

/// One device's full power calibration: chip-side and memory-side model
/// parameters plus the constant board overhead (fan, VRMs, traces).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePower {
    /// Chip (compute-side) power parameters.
    pub compute: ComputePowerParams,
    /// Off-chip memory power parameters.
    pub memory: MemoryPowerParams,
    /// Rest-of-card power (the paper's OtherPwr), constant.
    pub other: Watts,
}

impl Default for DevicePower {
    /// The HD7970 calibration.
    fn default() -> Self {
        Self {
            compute: ComputePowerParams::default(),
            memory: MemoryPowerParams::default(),
            other: Watts(33.0),
        }
    }
}

// ---------------------------------------------------------------------------
// DeviceSpec + catalog
// ---------------------------------------------------------------------------

/// A complete device: name, geometry + grid, DVFS table, and power
/// calibration. Everything a session needs to simulate and govern one GPU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Canonical catalog name (`hd7970`, `v100`, `h100`, `jetson-orin`).
    pub name: String,
    /// Microarchitectural geometry, carrying the managed grid.
    pub gpu: GpuDescriptor,
    /// Voltage/frequency operating points.
    pub dvfs: DvfsTable,
    /// Power-model calibration.
    pub power: DevicePower,
}

impl DeviceSpec {
    /// The paper's AMD Radeon HD7970 test bed — bit-identical to the legacy
    /// `hd7970()` constructors scattered through the workspace.
    pub fn hd7970() -> Self {
        Self {
            name: "hd7970".to_string(),
            gpu: GpuDescriptor::hd7970(),
            dvfs: DvfsTable::hd7970(),
            power: DevicePower::default(),
        }
    }

    /// A V100-class big-HBM datacenter part: 80 wide CUs behind a 4096-bit
    /// HBM2 interface (≈15.4 TFLOPS, ≈896 GB/s, ~300 W).
    pub fn v100() -> Self {
        Self {
            name: "v100".to_string(),
            gpu: GpuDescriptor {
                grid: GridSpec {
                    cu_min: 8,
                    cu_max: 80,
                    cu_step: 8,
                    cu_freq_min: MegaHertz(600),
                    cu_freq_max: MegaHertz(1500),
                    cu_freq_step: 100,
                    mem_freq_min: MegaHertz(500),
                    mem_freq_max: MegaHertz(875),
                    mem_freq_step: 75,
                    mem_bus_width_bits: 4096,
                    mem_transfer_rate: 2.0,
                    flops_per_cu_clock: 128.0,
                },
                max_cu: 80,
                simds_per_cu: 4,
                lanes_per_simd: 16,
                wave_size: 32,
                max_waves_per_simd: 16,
                vgprs_per_simd: 256,
                sgprs_per_simd: 512,
                max_sgprs_per_wave: 102,
                lds_per_cu_bytes: 96 * 1024,
                l1_per_cu_bytes: 128 * 1024,
                l2_bytes: 6 * 1024 * 1024,
                mem_channels: 32,
                line_bytes: 32,
                dram_efficiency: 0.83,
                crossing_bytes_per_cu_cycle: 1024.0,
                l2_bytes_per_cu_cycle: 2048.0,
                dram_latency_ns: 220.0,
                dram_latency_slowdown_ns: 120.0,
                outstanding_per_wave: 2.0,
            },
            dvfs: DvfsTable::from_states(
                vec![
                    DpmState {
                        name: "DPM0",
                        freq: MegaHertz(600),
                        voltage: Volts(0.70),
                    },
                    DpmState {
                        name: "DPM1",
                        freq: MegaHertz(900),
                        voltage: Volts(0.78),
                    },
                    DpmState {
                        name: "DPM2",
                        freq: MegaHertz(1300),
                        voltage: Volts(0.95),
                    },
                    DpmState {
                        name: "BOOST",
                        freq: MegaHertz(1500),
                        voltage: Volts(1.05),
                    },
                ],
                Volts(1.2),
            ),
            power: DevicePower {
                compute: ComputePowerParams {
                    c_dyn_per_cu: 1.2,
                    idle_clock_fraction: 0.25,
                    leak_per_cu_ref: 0.5,
                    leak_uncore_ref: 10.0,
                    leak_ref_voltage: Volts(1.05),
                    leak_voltage_exponent: 3.0,
                    c_dyn_uncore: 14.0,
                    uncore_traffic_coeff: 8.0,
                    mc_per_mem_ghz: 6.0,
                    mc_traffic_coeff: 3.0,
                },
                memory: MemoryPowerParams {
                    background_per_ghz: 12.0,
                    phy_per_ghz: 8.0,
                    phy_static: 3.0,
                    activate_pj_per_byte: 8.0,
                    rw_pj_per_byte: 18.0,
                    termination_pj_per_byte: 3.0,
                    slow_clock_energy_penalty: 0.05,
                    voltage_scaling: false,
                },
                other: Watts(20.0),
            },
        }
    }

    /// An H100-class part: 132 double-width CUs behind a 5120-bit HBM3
    /// interface (≈67 TFLOPS, ≈3.3 TB/s, ~700 W).
    pub fn h100() -> Self {
        Self {
            name: "h100".to_string(),
            gpu: GpuDescriptor {
                grid: GridSpec {
                    cu_min: 24,
                    cu_max: 132,
                    cu_step: 12,
                    cu_freq_min: MegaHertz(780),
                    cu_freq_max: MegaHertz(1980),
                    cu_freq_step: 120,
                    mem_freq_min: MegaHertz(1200),
                    mem_freq_max: MegaHertz(2600),
                    mem_freq_step: 200,
                    mem_bus_width_bits: 5120,
                    mem_transfer_rate: 2.0,
                    flops_per_cu_clock: 256.0,
                },
                max_cu: 132,
                simds_per_cu: 4,
                lanes_per_simd: 32,
                wave_size: 32,
                max_waves_per_simd: 16,
                vgprs_per_simd: 256,
                sgprs_per_simd: 512,
                max_sgprs_per_wave: 102,
                lds_per_cu_bytes: 228 * 1024,
                l1_per_cu_bytes: 256 * 1024,
                l2_bytes: 50 * 1024 * 1024,
                mem_channels: 40,
                line_bytes: 32,
                dram_efficiency: 0.82,
                crossing_bytes_per_cu_cycle: 2048.0,
                l2_bytes_per_cu_cycle: 4096.0,
                dram_latency_ns: 260.0,
                dram_latency_slowdown_ns: 130.0,
                outstanding_per_wave: 2.5,
            },
            dvfs: DvfsTable::from_states(
                vec![
                    DpmState {
                        name: "DPM0",
                        freq: MegaHertz(780),
                        voltage: Volts(0.62),
                    },
                    DpmState {
                        name: "DPM1",
                        freq: MegaHertz(1260),
                        voltage: Volts(0.72),
                    },
                    DpmState {
                        name: "DPM2",
                        freq: MegaHertz(1740),
                        voltage: Volts(0.85),
                    },
                    DpmState {
                        name: "BOOST",
                        freq: MegaHertz(1980),
                        voltage: Volts(0.95),
                    },
                ],
                Volts(1.1),
            ),
            power: DevicePower {
                compute: ComputePowerParams {
                    c_dyn_per_cu: 1.7,
                    idle_clock_fraction: 0.25,
                    leak_per_cu_ref: 0.55,
                    leak_uncore_ref: 15.0,
                    leak_ref_voltage: Volts(0.95),
                    leak_voltage_exponent: 3.0,
                    c_dyn_uncore: 30.0,
                    uncore_traffic_coeff: 12.0,
                    mc_per_mem_ghz: 8.0,
                    mc_traffic_coeff: 5.0,
                },
                memory: MemoryPowerParams {
                    background_per_ghz: 10.0,
                    phy_per_ghz: 6.0,
                    phy_static: 4.0,
                    activate_pj_per_byte: 6.0,
                    rw_pj_per_byte: 14.0,
                    termination_pj_per_byte: 2.0,
                    slow_clock_energy_penalty: 0.05,
                    voltage_scaling: false,
                },
                other: Watts(30.0),
            },
        }
    }

    /// A Jetson-class edge part: 16 CUs on a 256-bit LPDDR5 interface
    /// (≈5.3 TFLOPS, ≈205 GB/s, ~50 W module envelope).
    pub fn jetson_orin() -> Self {
        Self {
            name: "jetson-orin".to_string(),
            gpu: GpuDescriptor {
                grid: GridSpec {
                    cu_min: 4,
                    cu_max: 16,
                    cu_step: 2,
                    cu_freq_min: MegaHertz(300),
                    cu_freq_max: MegaHertz(1300),
                    cu_freq_step: 100,
                    mem_freq_min: MegaHertz(800),
                    mem_freq_max: MegaHertz(3200),
                    mem_freq_step: 300,
                    mem_bus_width_bits: 256,
                    mem_transfer_rate: 2.0,
                    flops_per_cu_clock: 256.0,
                },
                max_cu: 16,
                simds_per_cu: 4,
                lanes_per_simd: 32,
                wave_size: 32,
                max_waves_per_simd: 12,
                vgprs_per_simd: 256,
                sgprs_per_simd: 512,
                max_sgprs_per_wave: 102,
                lds_per_cu_bytes: 128 * 1024,
                l1_per_cu_bytes: 192 * 1024,
                l2_bytes: 4 * 1024 * 1024,
                mem_channels: 16,
                line_bytes: 32,
                dram_efficiency: 0.75,
                crossing_bytes_per_cu_cycle: 256.0,
                l2_bytes_per_cu_cycle: 512.0,
                dram_latency_ns: 320.0,
                dram_latency_slowdown_ns: 150.0,
                outstanding_per_wave: 1.8,
            },
            dvfs: DvfsTable::from_states(
                vec![
                    DpmState {
                        name: "DPM0",
                        freq: MegaHertz(300),
                        voltage: Volts(0.55),
                    },
                    DpmState {
                        name: "DPM1",
                        freq: MegaHertz(600),
                        voltage: Volts(0.65),
                    },
                    DpmState {
                        name: "DPM2",
                        freq: MegaHertz(1000),
                        voltage: Volts(0.80),
                    },
                    DpmState {
                        name: "BOOST",
                        freq: MegaHertz(1300),
                        voltage: Volts(0.95),
                    },
                ],
                Volts(1.05),
            ),
            power: DevicePower {
                compute: ComputePowerParams {
                    c_dyn_per_cu: 1.1,
                    idle_clock_fraction: 0.2,
                    leak_per_cu_ref: 0.3,
                    leak_uncore_ref: 3.0,
                    leak_ref_voltage: Volts(0.95),
                    leak_voltage_exponent: 3.0,
                    c_dyn_uncore: 4.0,
                    uncore_traffic_coeff: 2.5,
                    mc_per_mem_ghz: 1.2,
                    mc_traffic_coeff: 1.0,
                },
                memory: MemoryPowerParams {
                    background_per_ghz: 0.8,
                    phy_per_ghz: 0.7,
                    phy_static: 0.5,
                    activate_pj_per_byte: 6.0,
                    rw_pj_per_byte: 12.0,
                    termination_pj_per_byte: 1.5,
                    slow_clock_energy_penalty: 0.06,
                    voltage_scaling: false,
                },
                other: Watts(6.0),
            },
        }
    }

    /// Canonical names of every catalog device, in catalog order.
    pub fn catalog() -> [&'static str; 4] {
        ["hd7970", "v100", "h100", "jetson-orin"]
    }

    /// Looks a catalog device up by name (case-insensitive).
    pub fn lookup(name: &str) -> Option<Self> {
        let name = name.trim();
        if name.eq_ignore_ascii_case("hd7970") {
            Some(Self::hd7970())
        } else if name.eq_ignore_ascii_case("v100") {
            Some(Self::v100())
        } else if name.eq_ignore_ascii_case("h100") {
            Some(Self::h100())
        } else if name.eq_ignore_ascii_case("jetson-orin") {
            Some(Self::jetson_orin())
        } else {
            None
        }
    }

    /// The default device, interned: the paper's HD7970. Consumers that
    /// need a `&'static` borrow (registry defaults) share this instance.
    pub fn hd7970_static() -> &'static DeviceSpec {
        static HD7970: OnceLock<DeviceSpec> = OnceLock::new();
        HD7970.get_or_init(DeviceSpec::hd7970)
    }

    /// The device's managed configuration grid.
    pub fn grid(&self) -> &GridSpec {
        &self.gpu.grid
    }

    /// The device's full configuration space.
    pub fn config_space(&self) -> ConfigSpace {
        ConfigSpace::for_grid(&self.gpu.grid)
    }

    /// The device fingerprint (the descriptor's — what simulation caches
    /// and sweep plans key on).
    pub fn fingerprint(&self) -> u64 {
        self.gpu.fingerprint()
    }

    /// The watchdog safe state for this device: every CU active (gating is
    /// what misbehaves under faults), the compute clock at the second DVFS
    /// state snapped onto the grid, memory at full bandwidth. For the
    /// HD7970 this is 32 CUs @ 500 MHz with the 1375 MHz bus, the PowerTune
    /// DPM state.
    pub fn safe_state(&self) -> HwConfig {
        let states = self.dvfs.states();
        let target = states.get(1).unwrap_or(&states[0]).freq;
        let freq = self.gpu.grid.snap_cu_freq(target);
        HwConfig::new(
            crate::ComputeConfig::new_on(&self.gpu.grid, self.gpu.grid.cu_max, freq)
                .expect("snapped safe-state clock is on the grid"),
            crate::MemoryConfig::max_on(&self.gpu.grid),
        )
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Error returned when a device name does not match any catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDeviceError {
    got: String,
}

impl fmt::Display for ParseDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown device '{}' (known: {})",
            self.got,
            DeviceSpec::catalog().join(", ")
        )
    }
}

impl std::error::Error for ParseDeviceError {}

impl FromStr for DeviceSpec {
    type Err = ParseDeviceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DeviceSpec::lookup(s).ok_or_else(|| ParseDeviceError { got: s.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeConfig, MegaHertz, MemoryConfig};

    #[test]
    fn hd7970_geometry_matches_paper() {
        let g = GpuDescriptor::hd7970();
        assert_eq!(g.max_cu, 32);
        assert_eq!(g.simds_per_cu, 4);
        assert_eq!(g.lanes_per_simd, 16);
        assert_eq!(g.wave_size, 64);
        assert_eq!(g.max_waves_per_simd, 10);
        assert_eq!(g.vgprs_per_simd, 256);
        assert_eq!(g.max_sgprs_per_wave, 102);
        assert_eq!(g.lds_per_cu_bytes, 65536);
        assert_eq!(g.l2_bytes, 786432);
        assert_eq!(g.mem_channels, 6);
        assert_eq!(g.grid, GridSpec::HD7970);
    }

    #[test]
    fn simd_count_scales_with_cus() {
        let g = GpuDescriptor::hd7970();
        assert_eq!(g.simds(32), 128);
        assert_eq!(g.simds(4), 16);
    }

    #[test]
    fn peak_lane_ops_at_max_is_128_gops() {
        // 128 SIMDs × 16 lanes × 1 GHz = 2048 G lane-ops/s (4096 GFLOPS with
        // FMAC counting two ops).
        let g = GpuDescriptor::hd7970();
        let ops = g.peak_lane_ops_per_sec(32, 1.0e9);
        assert!((ops - 2048.0e9).abs() < 1.0);
    }

    #[test]
    fn dram_latency_grows_as_clock_drops() {
        let g = GpuDescriptor::hd7970();
        let max = 1375.0e6;
        let at_max = g.dram_latency_s(max, max);
        let at_min = g.dram_latency_s(475.0e6, max);
        assert!((at_max - 190.0e-9).abs() < 1e-12);
        assert!(at_min > at_max);
    }

    #[test]
    fn hd7970_grid_matches_legacy_constants() {
        let g = GridSpec::HD7970;
        assert_eq!(g.cu_levels(), vec![4, 8, 12, 16, 20, 24, 28, 32]);
        assert_eq!(g.cu_level_count(), 8);
        assert_eq!(g.cu_freq_level_count(), 8);
        assert_eq!(g.mem_freq_level_count(), 7);
        assert_eq!(g.len(), 448);
        assert!(!g.is_empty());
        assert_eq!(g.bytes_per_clock(), 192.0);
    }

    #[test]
    fn snap_cu_freq_maps_dpm_states_onto_the_grid() {
        let g = GridSpec::HD7970;
        assert_eq!(g.snap_cu_freq(MegaHertz(300)), MegaHertz(300));
        assert_eq!(g.snap_cu_freq(MegaHertz(500)), MegaHertz(500));
        // 925 is 25 MHz from 900 and 75 MHz from 1000: snaps down.
        assert_eq!(g.snap_cu_freq(MegaHertz(925)), MegaHertz(900));
        assert_eq!(g.snap_cu_freq(MegaHertz(1000)), MegaHertz(1000));
        // Out-of-range clocks clamp to the grid ends.
        assert_eq!(g.snap_cu_freq(MegaHertz(100)), MegaHertz(300));
        assert_eq!(g.snap_cu_freq(MegaHertz(2000)), MegaHertz(1000));
    }

    #[test]
    fn catalog_round_trips_through_fromstr_and_display() {
        for name in DeviceSpec::catalog() {
            let spec: DeviceSpec = name.parse().expect(name);
            assert_eq!(spec.to_string(), name, "Display must return the name");
            let again: DeviceSpec = spec.to_string().parse().expect(name);
            assert_eq!(spec, again, "round trip must be lossless");
        }
        // Case-insensitive lookup, canonical Display.
        let spec: DeviceSpec = "V100".parse().unwrap();
        assert_eq!(spec.to_string(), "v100");
    }

    #[test]
    fn unknown_device_name_is_an_error_listing_the_catalog() {
        let err = "gtx480".parse::<DeviceSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gtx480"), "{msg}");
        for name in DeviceSpec::catalog() {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn fingerprints_are_distinct_across_the_catalog() {
        let prints: Vec<u64> = DeviceSpec::catalog()
            .iter()
            .map(|n| n.parse::<DeviceSpec>().unwrap().fingerprint())
            .collect();
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(prints[i], prints[j], "devices {i} and {j} alias");
            }
        }
        // Stable across calls.
        assert_eq!(
            DeviceSpec::hd7970().fingerprint(),
            DeviceSpec::hd7970().fingerprint()
        );
    }

    #[test]
    fn every_catalog_grid_is_internally_consistent() {
        for name in DeviceSpec::catalog() {
            let spec: DeviceSpec = name.parse().unwrap();
            let grid = spec.grid();
            assert_eq!(
                grid.cu_max, spec.gpu.max_cu,
                "{name}: grid cu_max must equal the descriptor's max_cu"
            );
            assert_eq!(grid.cu_levels().len(), grid.cu_level_count(), "{name}");
            assert_eq!(
                grid.cu_levels().last().copied(),
                Some(grid.cu_max),
                "{name}: the CU range must land exactly on cu_max"
            );
            assert_eq!(
                grid.cu_freq_levels().last().copied(),
                Some(grid.cu_freq_max),
                "{name}: the clock range must land exactly on cu_freq_max"
            );
            assert_eq!(
                grid.mem_freq_levels().last().copied(),
                Some(grid.mem_freq_max),
                "{name}: the bus range must land exactly on mem_freq_max"
            );
            assert_eq!(spec.config_space().len(), grid.len(), "{name}");
            // Every grid point constructs without error.
            for cfg in spec.config_space().iter() {
                assert!(spec.config_space().contains(cfg), "{name}: {cfg}");
            }
            // The DVFS table spans the grid's clock range.
            let states = spec.dvfs.states();
            assert!(states.len() >= 2, "{name}: need at least two DVFS states");
            assert_eq!(states[0].freq, grid.cu_freq_min, "{name}");
            assert_eq!(
                states.last().unwrap().freq,
                grid.cu_freq_max,
                "{name}: boost state must be the grid maximum"
            );
        }
    }

    #[test]
    fn hd7970_safe_state_matches_the_legacy_one() {
        let spec = DeviceSpec::hd7970();
        let safe = spec.safe_state();
        assert_eq!(safe.compute.cu_count(), 32);
        assert_eq!(safe.compute.freq(), MegaHertz(500));
        assert_eq!(safe.memory.bus_freq(), MegaHertz(1375));
    }

    #[test]
    fn safe_states_are_grid_valid_for_every_device() {
        for name in DeviceSpec::catalog() {
            let spec: DeviceSpec = name.parse().unwrap();
            let safe = spec.safe_state();
            assert!(
                spec.config_space().contains(safe),
                "{name}: safe state {safe} off the grid"
            );
            assert_eq!(safe.compute.cu_count(), spec.gpu.grid.cu_max, "{name}");
        }
    }

    #[test]
    fn peak_throughput_scales_match_the_hardware_params_table() {
        // Headline numbers, within rounding of the real parts.
        let v100 = DeviceSpec::v100();
        let peak = ComputeConfig::max_on(v100.grid()).peak_gflops_on(v100.grid());
        assert!((peak - 15360.0).abs() < 1.0, "v100 {peak} GFLOPS");
        let bw = MemoryConfig::max_on(v100.grid()).peak_bandwidth_on(v100.grid());
        assert!((bw.value() - 896.0).abs() < 1.0, "v100 {bw}");

        let h100 = DeviceSpec::h100();
        let peak = ComputeConfig::max_on(h100.grid()).peak_gflops_on(h100.grid());
        assert!((peak - 66890.0).abs() < 100.0, "h100 {peak} GFLOPS");
        let bw = MemoryConfig::max_on(h100.grid()).peak_bandwidth_on(h100.grid());
        assert!((bw.value() - 3328.0).abs() < 1.0, "h100 {bw}");

        let orin = DeviceSpec::jetson_orin();
        let peak = ComputeConfig::max_on(orin.grid()).peak_gflops_on(orin.grid());
        assert!((peak - 5324.8).abs() < 1.0, "jetson-orin {peak} GFLOPS");
        let bw = MemoryConfig::max_on(orin.grid()).peak_bandwidth_on(orin.grid());
        assert!((bw.value() - 204.8).abs() < 0.1, "jetson-orin {bw}");
    }

    #[test]
    fn hd7970_static_is_interned() {
        let a = DeviceSpec::hd7970_static();
        let b = DeviceSpec::hd7970_static();
        assert!(std::ptr::eq(a, b));
        assert_eq!(*a, DeviceSpec::hd7970());
    }
}
