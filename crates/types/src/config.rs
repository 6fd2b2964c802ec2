//! Hardware configuration space of the managed platform.
//!
//! The paper (Section 3.1) manages three tunables on an AMD Radeon HD7970:
//!
//! * **active compute-unit count** — 4 to 32 in steps of 4,
//! * **compute-unit frequency** — 300 MHz to 1 GHz in steps of 100 MHz,
//! * **memory bus frequency** — 475 MHz to 1375 MHz in steps of 150 MHz
//!   (equivalently 90 GB/s to 264 GB/s of bandwidth in steps of ~30 GB/s).
//!
//! A ([`ComputeConfig`], [`MemoryConfig`]) pair is an [`HwConfig`]; the full
//! cross product is [`ConfigSpace`] with 8 × 8 × 7 = 448 points — the
//! "approximately 450" combinations the paper sweeps.
//!
//! The ranges and steps above are one [`GridSpec`] — the HD7970 entry of the
//! device catalog (`crate::device`). Every grid-dependent operation takes
//! the grid it works on (`*_on(&GridSpec)`), so a path for another catalog
//! device cannot pick up the HD7970 lattice by omission. The names that
//! still mean the HD7970 say so: `min_hd7970`/`max_hd7970` and
//! [`ConfigSpace::hd7970`]. Two conveniences remain HD7970-only and are
//! documented as such: [`ConfigPoint::to_hw`] and the bandwidth that
//! [`MemoryConfig`]'s `Display` prints.

use crate::device::GridSpec;
use crate::units::{GigabytesPerSec, MegaHertz};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned when constructing a configuration outside the platform's
/// supported range or off its step grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    what: &'static str,
    got: u32,
}

impl ConfigError {
    fn new(what: &'static str, got: u32) -> Self {
        Self { what, got }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.what, self.got)
    }
}

impl Error for ConfigError {}

/// One of the three hardware tunables Harmonia manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tunable {
    /// Number of active compute units (inactive ones are power gated).
    CuCount,
    /// Compute-unit (shader) clock frequency.
    CuFreq,
    /// Memory bus clock frequency (sets memory bandwidth).
    MemFreq,
}

impl Tunable {
    /// All tunables, in the order the paper lists them.
    pub const ALL: [Tunable; 3] = [Tunable::CuCount, Tunable::CuFreq, Tunable::MemFreq];
}

impl fmt::Display for Tunable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tunable::CuCount => write!(f, "#CUs"),
            Tunable::CuFreq => write!(f, "CU freq"),
            Tunable::MemFreq => write!(f, "Mem freq"),
        }
    }
}

/// A discrete level of one tunable: its index on the step grid and the value
/// normalized to `[0, 1]` across the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunableLevel {
    /// 0-based index on the tunable's step grid.
    pub index: usize,
    /// Number of levels on the grid.
    pub count: usize,
    /// `index / (count - 1)`, i.e. 0.0 at minimum and 1.0 at maximum.
    pub fraction: f64,
}

/// Compute-side configuration: active CU count and CU frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ComputeConfig {
    cu_count: u32,
    freq: MegaHertz,
}

impl ComputeConfig {
    /// Creates a compute configuration on an arbitrary device grid.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cu_count` or `freq` is outside the grid's
    /// range or off its step lattice.
    pub fn new_on(grid: &GridSpec, cu_count: u32, freq: MegaHertz) -> Result<Self, ConfigError> {
        if !(grid.cu_min..=grid.cu_max).contains(&cu_count)
            || !(cu_count - grid.cu_min).is_multiple_of(grid.cu_step)
        {
            return Err(ConfigError::new("CU count", cu_count));
        }
        if freq < grid.cu_freq_min
            || freq > grid.cu_freq_max
            || !(freq.value() - grid.cu_freq_min.value()).is_multiple_of(grid.cu_freq_step)
        {
            return Err(ConfigError::new("CU frequency (MHz)", freq.value()));
        }
        Ok(Self { cu_count, freq })
    }

    /// Minimum compute configuration of the HD7970 (4 CUs at 300 MHz) — the
    /// normalization point of the paper's Figures 3–5.
    pub fn min_hd7970() -> Self {
        Self::min_on(&GridSpec::HD7970)
    }

    /// Maximum compute configuration (32 CUs at the 1 GHz boost clock).
    pub fn max_hd7970() -> Self {
        Self::max_on(&GridSpec::HD7970)
    }

    /// Minimum compute configuration of a device grid.
    pub fn min_on(grid: &GridSpec) -> Self {
        Self {
            cu_count: grid.cu_min,
            freq: grid.cu_freq_min,
        }
    }

    /// Maximum compute configuration of a device grid.
    pub fn max_on(grid: &GridSpec) -> Self {
        Self {
            cu_count: grid.cu_max,
            freq: grid.cu_freq_max,
        }
    }

    /// Number of active compute units.
    #[inline]
    pub fn cu_count(self) -> u32 {
        self.cu_count
    }

    /// Compute clock frequency.
    #[inline]
    pub fn freq(self) -> MegaHertz {
        self.freq
    }

    /// Peak single-precision throughput in GFLOP/s on a device grid:
    /// `CUs × flops-per-CU-clock × GHz`, counting fused multiply-accumulate
    /// as two operations. On the HD7970 at 32 CUs and 1 GHz this is the
    /// paper's headline 4096 GFLOPS.
    pub fn peak_gflops_on(self, grid: &GridSpec) -> f64 {
        f64::from(self.cu_count) * grid.flops_per_cu_clock * self.freq.as_ghz()
    }
}

impl fmt::Display for ComputeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} CUs @ {}", self.cu_count, self.freq)
    }
}

/// Memory-side configuration: the memory bus frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MemoryConfig {
    bus_freq: MegaHertz,
}

impl MemoryConfig {
    /// Creates a memory configuration on an arbitrary device grid.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `bus_freq` is outside the grid's range or
    /// off its step lattice.
    pub fn new_on(grid: &GridSpec, bus_freq: MegaHertz) -> Result<Self, ConfigError> {
        let v = bus_freq.value();
        if bus_freq < grid.mem_freq_min
            || bus_freq > grid.mem_freq_max
            || !(v - grid.mem_freq_min.value()).is_multiple_of(grid.mem_freq_step)
        {
            return Err(ConfigError::new("memory bus frequency (MHz)", v));
        }
        Ok(Self { bus_freq })
    }

    /// Minimum memory configuration (475 MHz bus, ~90 GB/s).
    pub fn min_hd7970() -> Self {
        Self::min_on(&GridSpec::HD7970)
    }

    /// Maximum memory configuration (1375 MHz bus, 264 GB/s).
    pub fn max_hd7970() -> Self {
        Self::max_on(&GridSpec::HD7970)
    }

    /// Minimum memory configuration of a device grid.
    pub fn min_on(grid: &GridSpec) -> Self {
        Self {
            bus_freq: grid.mem_freq_min,
        }
    }

    /// Maximum memory configuration of a device grid.
    pub fn max_on(grid: &GridSpec) -> Self {
        Self {
            bus_freq: grid.mem_freq_max,
        }
    }

    /// Memory bus clock frequency.
    #[inline]
    pub fn bus_freq(self) -> MegaHertz {
        self.bus_freq
    }

    /// Peak DRAM bandwidth delivered at this bus frequency on a device grid
    /// (Equation 2 of the paper): `freq × bus-width × transfer-rate`. On the
    /// HD7970 at 1375 MHz: `1375e6 × 48 B × 4 = 264 GB/s`.
    pub fn peak_bandwidth_on(self, grid: &GridSpec) -> GigabytesPerSec {
        GigabytesPerSec::from_bytes_per_sec(self.bus_freq.as_hz() * grid.bytes_per_clock())
    }
}

impl fmt::Display for MemoryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display is an HD7970 convenience: bandwidth is computed on the
        // HD7970 bus. Device-aware reporting formats bandwidth through
        // `peak_bandwidth_on` with the session's grid.
        let bandwidth = self.peak_bandwidth_on(&GridSpec::HD7970);
        write!(f, "mem {} ({:.0} GB/s)", self.bus_freq, bandwidth.value())
    }
}

/// A full hardware operating point: compute plus memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HwConfig {
    /// Compute-side settings.
    pub compute: ComputeConfig,
    /// Memory-side settings.
    pub memory: MemoryConfig,
}

impl HwConfig {
    /// Pairs a compute and a memory configuration.
    pub fn new(compute: ComputeConfig, memory: MemoryConfig) -> Self {
        Self { compute, memory }
    }

    /// The minimum hardware configuration (4 CUs, 300 MHz, 90 GB/s): the
    /// normalization baseline of Figures 3–5.
    pub fn min_hd7970() -> Self {
        Self::min_on(&GridSpec::HD7970)
    }

    /// The maximum hardware configuration (32 CUs, 1 GHz, 264 GB/s): the
    /// stock PowerTune baseline under thermal headroom.
    pub fn max_hd7970() -> Self {
        Self::max_on(&GridSpec::HD7970)
    }

    /// The minimum hardware configuration of a device grid (the grid's
    /// normalization baseline).
    pub fn min_on(grid: &GridSpec) -> Self {
        Self::new(ComputeConfig::min_on(grid), MemoryConfig::min_on(grid))
    }

    /// The maximum hardware configuration of a device grid (the stock
    /// boost-everything baseline).
    pub fn max_on(grid: &GridSpec) -> Self {
        Self::new(ComputeConfig::max_on(grid), MemoryConfig::max_on(grid))
    }

    /// The ops/byte the *hardware* can deliver at this operating point on a
    /// device grid: peak compute throughput over peak memory bandwidth. The
    /// paper plots performance against this quantity in Figure 3.
    pub fn hw_ops_per_byte_on(self, grid: &GridSpec) -> f64 {
        self.compute.peak_gflops_on(grid) / self.memory.peak_bandwidth_on(grid).value()
    }

    /// Hardware ops/byte normalized to the grid's minimum configuration.
    pub fn hw_ops_per_byte_normalized_on(self, grid: &GridSpec) -> f64 {
        self.hw_ops_per_byte_on(grid) / Self::min_on(grid).hw_ops_per_byte_on(grid)
    }

    /// The level of one tunable on a device grid.
    pub fn level_on(self, grid: &GridSpec, tunable: Tunable) -> TunableLevel {
        let (index, count) = match tunable {
            Tunable::CuCount => (
                ((self.compute.cu_count - grid.cu_min) / grid.cu_step) as usize,
                grid.cu_level_count(),
            ),
            Tunable::CuFreq => (
                ((self.compute.freq.value() - grid.cu_freq_min.value()) / grid.cu_freq_step)
                    as usize,
                grid.cu_freq_level_count(),
            ),
            Tunable::MemFreq => (
                ((self.memory.bus_freq.value() - grid.mem_freq_min.value()) / grid.mem_freq_step)
                    as usize,
                grid.mem_freq_level_count(),
            ),
        };
        TunableLevel {
            index,
            count,
            fraction: index as f64 / (count - 1) as f64,
        }
    }

    /// Steps one tunable up by one step of a device grid. Returns `None` at
    /// the maximum.
    ///
    /// This is the "increment state" operation of the fine-grain tuning loop
    /// (Algorithm 1); on the HD7970 the core step is 100 MHz, the memory
    /// step 150 MHz (~30 GB/s) and the CU step 4.
    pub fn step_up_on(self, grid: &GridSpec, tunable: Tunable) -> Option<Self> {
        let mut next = self;
        match tunable {
            Tunable::CuCount => {
                if self.compute.cu_count >= grid.cu_max {
                    return None;
                }
                next.compute.cu_count += grid.cu_step;
            }
            Tunable::CuFreq => {
                if self.compute.freq >= grid.cu_freq_max {
                    return None;
                }
                next.compute.freq = MegaHertz(self.compute.freq.value() + grid.cu_freq_step);
            }
            Tunable::MemFreq => {
                if self.memory.bus_freq >= grid.mem_freq_max {
                    return None;
                }
                next.memory.bus_freq = MegaHertz(self.memory.bus_freq.value() + grid.mem_freq_step);
            }
        }
        Some(next)
    }

    /// Steps one tunable down by one step of a device grid. Returns `None`
    /// at the minimum.
    pub fn step_down_on(self, grid: &GridSpec, tunable: Tunable) -> Option<Self> {
        let mut next = self;
        match tunable {
            Tunable::CuCount => {
                if self.compute.cu_count <= grid.cu_min {
                    return None;
                }
                next.compute.cu_count -= grid.cu_step;
            }
            Tunable::CuFreq => {
                if self.compute.freq <= grid.cu_freq_min {
                    return None;
                }
                next.compute.freq = MegaHertz(self.compute.freq.value() - grid.cu_freq_step);
            }
            Tunable::MemFreq => {
                if self.memory.bus_freq <= grid.mem_freq_min {
                    return None;
                }
                next.memory.bus_freq = MegaHertz(self.memory.bus_freq.value() - grid.mem_freq_step);
            }
        }
        Some(next)
    }

    /// Sets one tunable to the device-grid level nearest `fraction`
    /// (0.0 = minimum, 1.0 = maximum). Used by coarse-grain tuning to
    /// translate a sensitivity bin into a proportional tunable value.
    pub fn with_fraction_on(self, grid: &GridSpec, tunable: Tunable, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        // The nearest of `count` levels. Level `i` is `min + i·step`, the
        // value the grid's level list holds at index `i`.
        let level = |count: usize| (fraction * (count - 1) as f64).round() as u32;
        let mut next = self;
        match tunable {
            Tunable::CuCount => {
                next.compute.cu_count = grid.cu_min + level(grid.cu_level_count()) * grid.cu_step;
            }
            Tunable::CuFreq => {
                let i = level(grid.cu_freq_level_count());
                next.compute.freq = MegaHertz(grid.cu_freq_min.value() + i * grid.cu_freq_step);
            }
            Tunable::MemFreq => {
                let i = level(grid.mem_freq_level_count());
                next.memory.bus_freq =
                    MegaHertz(grid.mem_freq_min.value() + i * grid.mem_freq_step);
            }
        }
        next
    }

    /// The value of one tunable as a raw number (CU count, or MHz).
    pub fn raw_value(self, tunable: Tunable) -> u32 {
        match tunable {
            Tunable::CuCount => self.compute.cu_count,
            Tunable::CuFreq => self.compute.freq.value(),
            Tunable::MemFreq => self.memory.bus_freq.value(),
        }
    }
}

impl fmt::Display for HwConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, {}", self.compute, self.memory)
    }
}

/// A hardware operating point as traces record it: the raw
/// `(CU count, compute MHz, memory MHz)` triple, unvalidated. The decision
/// trace (JSONL) and the session trace (HRRTRACE) both carry it — compact
/// and trivially diffable, unlike the nested [`HwConfig`] serialization.
/// Which grid a point belongs to is the reader's to say, through
/// [`to_hw_on`](Self::to_hw_on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConfigPoint {
    /// Active compute units.
    pub cu: u32,
    /// Compute clock in MHz.
    pub cu_mhz: u32,
    /// Memory bus clock in MHz.
    pub mem_mhz: u32,
}

impl From<HwConfig> for ConfigPoint {
    fn from(cfg: HwConfig) -> Self {
        Self {
            cu: cfg.compute.cu_count,
            cu_mhz: cfg.compute.freq.value(),
            mem_mhz: cfg.memory.bus_freq.value(),
        }
    }
}

impl ConfigPoint {
    /// Reconstructs the validated [`HwConfig`] on `grid`; `None` if the
    /// point is off that grid (a hand-edited trace, or one recorded on
    /// another device).
    pub fn to_hw_on(self, grid: &GridSpec) -> Option<HwConfig> {
        Some(HwConfig::new(
            ComputeConfig::new_on(grid, self.cu, MegaHertz(self.cu_mhz)).ok()?,
            MemoryConfig::new_on(grid, MegaHertz(self.mem_mhz)).ok()?,
        ))
    }

    /// [`to_hw_on`](Self::to_hw_on) on the HD7970 grid only: a point
    /// recorded on any other catalog device is `None` here. Replay and the
    /// chaos campaign validate on the replaying device's grid instead.
    pub fn to_hw(self) -> Option<HwConfig> {
        self.to_hw_on(&GridSpec::HD7970)
    }
}

impl fmt::Display for ConfigPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cu/{}MHz/{}MHz", self.cu, self.cu_mhz, self.mem_mhz)
    }
}

/// The full design space of hardware operating points (Section 3.1). For the
/// HD7970: 8 CU counts × 8 compute frequencies × 7 memory frequencies = 448
/// points; other catalog devices carry their own grids.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    grid: GridSpec,
    cu_levels: Vec<u32>,
    cu_freqs: Vec<MegaHertz>,
    mem_freqs: Vec<MegaHertz>,
}

impl ConfigSpace {
    /// The HD7970 design space the paper sweeps.
    pub fn hd7970() -> Self {
        Self::for_grid(&GridSpec::HD7970)
    }

    /// The design space of an arbitrary device grid.
    pub fn for_grid(grid: &GridSpec) -> Self {
        Self {
            grid: *grid,
            cu_levels: grid.cu_levels(),
            cu_freqs: grid.cu_freq_levels(),
            mem_freqs: grid.mem_freq_levels(),
        }
    }

    /// The grid this space enumerates.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Number of operating points in the space.
    pub fn len(&self) -> usize {
        self.cu_levels.len() * self.cu_freqs.len() * self.mem_freqs.len()
    }

    /// Whether the space is empty (never true for catalog spaces).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `cfg` lies in this space.
    pub fn contains(&self, cfg: HwConfig) -> bool {
        self.cu_levels.contains(&cfg.compute.cu_count())
            && self.cu_freqs.contains(&cfg.compute.freq())
            && self.mem_freqs.contains(&cfg.memory.bus_freq())
    }

    /// Iterates over every operating point, memory-major then CU count then
    /// frequency (the order is stable and documented so experiment output is
    /// reproducible).
    pub fn iter(&self) -> impl Iterator<Item = HwConfig> + '_ {
        self.mem_freqs.iter().flat_map(move |&m| {
            self.cu_levels.iter().flat_map(move |&c| {
                self.cu_freqs.iter().map(move |&f| {
                    HwConfig::new(
                        ComputeConfig::new_on(&self.grid, c, f).expect("grid values are valid"),
                        MemoryConfig::new_on(&self.grid, m).expect("grid values are valid"),
                    )
                })
            })
        })
    }

    /// All valid CU counts.
    pub fn cu_levels(&self) -> &[u32] {
        &self.cu_levels
    }

    /// All valid compute frequencies.
    pub fn cu_freqs(&self) -> &[MegaHertz] {
        &self.cu_freqs
    }

    /// All valid memory bus frequencies.
    pub fn mem_freqs(&self) -> &[MegaHertz] {
        &self.mem_freqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    const HD: GridSpec = GridSpec::HD7970;

    fn hd_cfg(cu: u32, f: u32, m: u32) -> HwConfig {
        HwConfig::new(
            ComputeConfig::new_on(&HD, cu, MegaHertz(f)).unwrap(),
            MemoryConfig::new_on(&HD, MegaHertz(m)).unwrap(),
        )
    }

    #[test]
    fn space_has_448_points() {
        let space = ConfigSpace::hd7970();
        assert_eq!(space.len(), 448);
        assert_eq!(space.iter().count(), 448);
        assert!(!space.is_empty());
    }

    #[test]
    fn compute_config_validation() {
        assert!(ComputeConfig::new_on(&HD, 4, MegaHertz(300)).is_ok());
        assert!(ComputeConfig::new_on(&HD, 32, MegaHertz(1000)).is_ok());
        assert!(ComputeConfig::new_on(&HD, 0, MegaHertz(300)).is_err());
        assert!(ComputeConfig::new_on(&HD, 5, MegaHertz(300)).is_err());
        assert!(ComputeConfig::new_on(&HD, 36, MegaHertz(300)).is_err());
        assert!(ComputeConfig::new_on(&HD, 4, MegaHertz(250)).is_err());
        assert!(ComputeConfig::new_on(&HD, 4, MegaHertz(1100)).is_err());
    }

    #[test]
    fn memory_config_validation() {
        assert!(MemoryConfig::new_on(&HD, MegaHertz(475)).is_ok());
        assert!(MemoryConfig::new_on(&HD, MegaHertz(1375)).is_ok());
        assert!(MemoryConfig::new_on(&HD, MegaHertz(500)).is_err());
        assert!(MemoryConfig::new_on(&HD, MegaHertz(400)).is_err());
        assert!(MemoryConfig::new_on(&HD, MegaHertz(1500)).is_err());
    }

    #[test]
    fn config_error_displays() {
        let err = ComputeConfig::new_on(&HD, 5, MegaHertz(300)).unwrap_err();
        assert!(err.to_string().contains("CU count"));
    }

    #[test]
    fn peak_gflops_matches_paper() {
        // 32 CUs × 4 SIMD × 16 lanes × 2 ops (FMAC) × 1 GHz = 4096 GFLOPS.
        assert!((ComputeConfig::max_hd7970().peak_gflops_on(&HD) - 4096.0).abs() < 1e-9);
    }

    #[test]
    fn peak_bandwidth_matches_paper() {
        let max = MemoryConfig::max_hd7970().peak_bandwidth_on(&HD);
        assert!((max.value() - 264.0).abs() < 0.1);
        let min = MemoryConfig::min_hd7970().peak_bandwidth_on(&HD);
        assert!((min.value() - 91.2).abs() < 0.1);
    }

    #[test]
    fn bandwidth_steps_are_about_30gbs() {
        let levels = HD.mem_freq_levels();
        assert_eq!(levels.len(), 7);
        for w in levels.windows(2) {
            let bw = |m| {
                MemoryConfig::new_on(&HD, m)
                    .unwrap()
                    .peak_bandwidth_on(&HD)
                    .value()
            };
            assert!((bw(w[1]) - bw(w[0]) - 28.8).abs() < 0.1); // "steps of 30GB/s" (≈28.8)
        }
    }

    #[test]
    fn hw_ops_per_byte_at_extremes() {
        let max = HwConfig::max_hd7970();
        // 4096 GFLOPS / 264 GB/s ≈ 15.5 ops/byte.
        assert!((max.hw_ops_per_byte_on(&HD) - 15.51).abs() < 0.05);
        let min = HwConfig::min_hd7970();
        // 4 CUs × 128 ops × 0.3 GHz = 153.6 GFLOPS / 91.2 GB/s ≈ 1.68.
        assert!((min.hw_ops_per_byte_on(&HD) - 1.684).abs() < 0.01);
        assert!((min.hw_ops_per_byte_normalized_on(&HD) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stepping_up_and_down_is_inverse() {
        let cfg = hd_cfg(16, 600, 925);
        for t in Tunable::ALL {
            let up = cfg.step_up_on(&HD, t).unwrap();
            assert_eq!(up.step_down_on(&HD, t).unwrap(), cfg);
        }
    }

    #[test]
    fn stepping_saturates_at_bounds() {
        let max = HwConfig::max_hd7970();
        let min = HwConfig::min_hd7970();
        for t in Tunable::ALL {
            assert!(max.step_up_on(&HD, t).is_none());
            assert!(min.step_down_on(&HD, t).is_none());
            assert!(max.step_down_on(&HD, t).is_some());
            assert!(min.step_up_on(&HD, t).is_some());
        }
    }

    #[test]
    fn levels_and_fractions() {
        let min = HwConfig::min_hd7970();
        let max = HwConfig::max_hd7970();
        for t in Tunable::ALL {
            assert_eq!(min.level_on(&HD, t).index, 0);
            assert_eq!(min.level_on(&HD, t).fraction, 0.0);
            assert_eq!(max.level_on(&HD, t).fraction, 1.0);
            assert_eq!(max.level_on(&HD, t).index, max.level_on(&HD, t).count - 1);
        }
        assert_eq!(max.level_on(&HD, Tunable::CuCount).count, 8);
        assert_eq!(max.level_on(&HD, Tunable::CuFreq).count, 8);
        assert_eq!(max.level_on(&HD, Tunable::MemFreq).count, 7);
    }

    #[test]
    fn with_fraction_hits_grid_extremes() {
        let cfg = HwConfig::min_hd7970();
        let high = cfg
            .with_fraction_on(&HD, Tunable::CuCount, 1.0)
            .with_fraction_on(&HD, Tunable::CuFreq, 1.0)
            .with_fraction_on(&HD, Tunable::MemFreq, 1.0);
        assert_eq!(high, HwConfig::max_hd7970());
        let low = HwConfig::max_hd7970()
            .with_fraction_on(&HD, Tunable::CuCount, 0.0)
            .with_fraction_on(&HD, Tunable::CuFreq, 0.0)
            .with_fraction_on(&HD, Tunable::MemFreq, 0.0);
        assert_eq!(low, HwConfig::min_hd7970());
    }

    #[test]
    fn with_fraction_rounds_to_nearest_level() {
        let cfg = HwConfig::min_hd7970().with_fraction_on(&HD, Tunable::CuCount, 0.5);
        // Levels are 4..=32; 0.5 of 7 steps rounds to index 4 → 20 CUs.
        assert_eq!(cfg.compute.cu_count(), 20);
    }

    #[test]
    fn raw_values() {
        let max = HwConfig::max_hd7970();
        assert_eq!(max.raw_value(Tunable::CuCount), 32);
        assert_eq!(max.raw_value(Tunable::CuFreq), 1000);
        assert_eq!(max.raw_value(Tunable::MemFreq), 1375);
    }

    #[test]
    fn space_contains_every_iterated_point() {
        let space = ConfigSpace::hd7970();
        for cfg in space.iter() {
            assert!(space.contains(cfg));
        }
    }

    #[test]
    fn display_formats() {
        let max = HwConfig::max_hd7970();
        let text = max.to_string();
        assert!(text.contains("32 CUs"));
        assert!(text.contains("1000 MHz"));
        assert!(text.contains("264 GB/s"));
        assert_eq!(Tunable::CuCount.to_string(), "#CUs");
    }

    #[test]
    fn named_hd7970_helpers_are_the_hd7970_grid_extremes() {
        assert_eq!(HwConfig::min_on(&HD), HwConfig::min_hd7970());
        assert_eq!(HwConfig::max_on(&HD), HwConfig::max_hd7970());
        assert_eq!(ComputeConfig::max_on(&HD), ComputeConfig::max_hd7970());
        assert_eq!(MemoryConfig::min_on(&HD), MemoryConfig::min_hd7970());
    }

    #[test]
    fn config_points_validate_on_the_grid_they_are_read_on() {
        let cfg = HwConfig::max_hd7970();
        let p = ConfigPoint::from(cfg);
        assert_eq!(p.to_string(), "32cu/1000MHz/1375MHz");
        assert_eq!(p.to_hw_on(&HD), Some(cfg));
        assert_eq!(p.to_hw(), Some(cfg), "to_hw reads the HD7970 grid");
        let off = ConfigPoint { cu: 33, ..p };
        assert_eq!(off.to_hw_on(&HD), None, "off-grid points reject");
        // Every catalog device's points round-trip on its own grid, and
        // `to_hw` reads them on the HD7970's.
        for name in DeviceSpec::catalog() {
            let spec = DeviceSpec::lookup(name).expect("catalog name");
            let grid = spec.grid();
            let max = HwConfig::max_on(grid);
            let p = ConfigPoint::from(max);
            assert_eq!(p.to_hw_on(grid), Some(max), "{name}");
            assert_eq!(p.to_hw(), p.to_hw_on(&HD), "{name}");
        }
        let v100 = DeviceSpec::lookup("v100").expect("v100 in the catalog");
        let p = ConfigPoint::from(HwConfig::max_on(v100.grid()));
        assert_eq!(p.to_hw(), None, "a v100 point is off the HD7970 grid");
    }

    #[test]
    fn foreign_grid_space_validates_its_own_lattice() {
        let grid = GridSpec {
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
        };
        assert!(ComputeConfig::new_on(&grid, 80, MegaHertz(1500)).is_ok());
        assert!(ComputeConfig::new_on(&grid, 32, MegaHertz(1000)).is_ok());
        assert!(ComputeConfig::new_on(&grid, 4, MegaHertz(1000)).is_err());
        assert!(ComputeConfig::new_on(&grid, 80, MegaHertz(1550)).is_err());
        assert!(MemoryConfig::new_on(&grid, MegaHertz(875)).is_ok());
        assert!(MemoryConfig::new_on(&grid, MegaHertz(1375)).is_err());
        let space = ConfigSpace::for_grid(&grid);
        assert_eq!(space.len(), 10 * 10 * 6);
        for cfg in space.iter() {
            assert!(space.contains(cfg));
            for t in Tunable::ALL {
                let level = cfg.level_on(&grid, t);
                assert!(level.index < level.count);
                if let Some(up) = cfg.step_up_on(&grid, t) {
                    assert_eq!(up.step_down_on(&grid, t).unwrap(), cfg);
                    assert!(space.contains(up));
                }
            }
        }
        // Stepping respects the foreign bounds, not the HD7970 ones.
        let max = HwConfig::max_on(&grid);
        for t in Tunable::ALL {
            assert!(max.step_up_on(&grid, t).is_none());
        }
    }
}
