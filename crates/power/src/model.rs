//! The combined card power model and its observable breakdown.

use crate::compute::{
    chip_power_from, mem_controller_clock, ComputeClockTerms, ComputePowerParams,
};
use crate::memory::{memory_power_from, MemoryClockTerms, MemoryPowerParams};
use harmonia_types::{DeviceSpec, DvfsTable, GridSpec, HwConfig, MegaHertz, Watts};
use serde::{Deserialize, Serialize};

/// Activity factors the power model consumes, produced by the simulator's
/// counters for each kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Activity {
    /// Fraction of time the vector ALUs are issuing (VALUBusy/100 ×
    /// VALUUtilization/100) — drives CU dynamic power.
    pub valu_activity: f64,
    /// Achieved DRAM traffic in bytes per second — drives DRAM access power.
    pub dram_bytes_per_sec: f64,
    /// Achieved DRAM bandwidth over the configuration's peak (0..1) — the
    /// icActivity metric; drives uncore and MC switching.
    pub dram_traffic_fraction: f64,
}

impl Activity {
    /// Convenience constructor for a streaming workload on a device grid:
    /// `valu` ALU activity and a memory system running at `traffic_fraction`
    /// of the grid's peak bandwidth at the maximum bus clock (on the HD7970,
    /// 1375 MHz × 192 B/clk = 264 GB/s exactly).
    pub fn streaming_on(grid: &GridSpec, valu: f64, traffic_fraction: f64) -> Self {
        let traffic_fraction = traffic_fraction.clamp(0.0, 1.0);
        let peak = grid.mem_freq_max.as_hz() * grid.bytes_per_clock();
        Self {
            valu_activity: valu.clamp(0.0, 1.0),
            dram_bytes_per_sec: traffic_fraction * peak,
            dram_traffic_fraction: traffic_fraction,
        }
    }

    /// A fully idle card.
    pub fn idle() -> Self {
        Self::default()
    }
}

/// Full power breakdown of the card at one operating point, mirroring the
/// paper's measurement taxonomy (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// CU dynamic power (switching + idle clocking).
    pub cu_dynamic: Watts,
    /// Chip leakage (CUs + uncore).
    pub leakage: Watts,
    /// Uncore dynamic power (L2, crossbar, command processor).
    pub uncore: Watts,
    /// Integrated memory-controller power (counted inside GPUPwr, as in the
    /// paper — "memory controller power is not included in measured memory
    /// power, instead it is part of GPUPwr").
    pub mem_controller: Watts,
    /// DDR PHY + PLL power (counted inside MemPwr per Equation 4).
    pub phy: Watts,
    /// DRAM background power.
    pub dram_background: Watts,
    /// DRAM activate/pre-charge power.
    pub dram_activate: Watts,
    /// DRAM array read/write power.
    pub dram_read_write: Watts,
    /// DRAM I/O termination power.
    pub dram_termination: Watts,
    /// Fan, voltage regulators, board trace losses — constant because the
    /// fan is pinned at maximum RPM.
    pub other: Watts,
}

impl PowerBreakdown {
    /// GPU chip power — the paper's **GPUPwr** (compute + integrated MC).
    pub fn gpu_pwr(&self) -> Watts {
        self.cu_dynamic + self.leakage + self.uncore + self.mem_controller
    }

    /// Memory power — the paper's **MemPwr** (off-chip GDDR5 + DDR PHYs),
    /// i.e. Equation 4's `GPUCardPwr − GPUPwr − OtherPwr`.
    pub fn mem_pwr(&self) -> Watts {
        self.phy
            + self.dram_background
            + self.dram_activate
            + self.dram_read_write
            + self.dram_termination
    }

    /// Rest-of-card power — the paper's **OtherPwr**.
    pub fn other_pwr(&self) -> Watts {
        self.other
    }

    /// Total card power at the PCIe connector — the paper's **GPUCardPwr**.
    pub fn card_pwr(&self) -> Watts {
        self.gpu_pwr() + self.mem_pwr() + self.other_pwr()
    }
}

/// What a [`PowerModel`] is: one device's calibration and grid. It alone
/// defines the model's equality and serialized form.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct Calibration {
    compute: ComputePowerParams,
    memory: MemoryPowerParams,
    dvfs: DvfsTable,
    other: Watts,
    grid: GridSpec,
}

/// A memory bus clock's clock-only terms: the DRAM side's and the
/// integrated memory controller's.
#[derive(Debug, Clone, Copy)]
struct MemoryClock {
    dram: MemoryClockTerms,
    mem_controller: f64,
}

/// The clock-only power terms at every clock step of a calibration's grid,
/// ascending from the grid's minimum. Derived state: built whenever the
/// calibration or the grid is set.
#[derive(Debug, Clone)]
struct ClockTables {
    compute: Vec<ComputeClockTerms>,
    memory: Vec<MemoryClock>,
}

/// The position of `freq` on the clock lattice `min + k·step`, if on it.
fn step_index(freq: MegaHertz, min: MegaHertz, step: u32) -> Option<usize> {
    let offset = freq.value().checked_sub(min.value())?;
    (offset.checked_rem(step)? == 0).then(|| (offset / step) as usize)
}

impl Calibration {
    fn compute_clock(&self, freq: MegaHertz) -> ComputeClockTerms {
        ComputeClockTerms::at(&self.compute, &self.dvfs, freq)
    }

    fn memory_clock(&self, bus_freq: MegaHertz) -> MemoryClock {
        MemoryClock {
            dram: MemoryClockTerms::at(&self.memory, bus_freq, self.grid.mem_freq_max.as_ghz()),
            mem_controller: mem_controller_clock(&self.compute, bus_freq),
        }
    }

    fn tables(&self) -> ClockTables {
        ClockTables {
            compute: self
                .grid
                .cu_freq_levels()
                .into_iter()
                .map(|f| self.compute_clock(f))
                .collect(),
            memory: self
                .grid
                .mem_freq_levels()
                .into_iter()
                .map(|f| self.memory_clock(f))
                .collect(),
        }
    }
}

/// The calibrated card power model of one device (default: the HD7970).
///
/// Every term of the model that depends only on the clocks (the DVFS
/// voltage and everything derived from it, leakage scaling, the memory
/// clock's background, PHY and per-byte access penalties) is computed once
/// per clock step of the grid when the model is built;
/// [`breakdown`](Self::breakdown) looks them up and adds the activity
/// terms. A configuration off the grid computes its clock terms on the
/// spot, through the same functions.
#[derive(Debug, Clone)]
pub struct PowerModel {
    calibration: Calibration,
    clocks: ClockTables,
}

impl PartialEq for PowerModel {
    /// Models are equal when their calibrations and grids are: the clock
    /// tables are derived from them.
    fn eq(&self, other: &Self) -> bool {
        self.calibration == other.calibration
    }
}

impl Serialize for PowerModel {
    fn to_value(&self) -> serde::Value {
        self.calibration.to_value()
    }
}

impl PowerModel {
    /// Builds the model of `calibration`, tabulating its clock terms.
    fn calibrated(calibration: Calibration) -> Self {
        let clocks = calibration.tables();
        Self {
            calibration,
            clocks,
        }
    }

    /// The default calibration for the HD7970 test bed.
    pub fn hd7970() -> Self {
        Self::calibrated(Calibration {
            compute: ComputePowerParams::default(),
            memory: MemoryPowerParams::default(),
            dvfs: DvfsTable::hd7970(),
            other: Watts(33.0),
            grid: GridSpec::HD7970,
        })
    }

    /// The power model of a catalog device: its calibration, DVFS table,
    /// and grid. `for_device(&DeviceSpec::hd7970())` equals `hd7970()`.
    pub fn for_device(spec: &DeviceSpec) -> Self {
        Self::calibrated(Calibration {
            compute: spec.power.compute.clone(),
            memory: spec.power.memory.clone(),
            dvfs: spec.dvfs.clone(),
            other: spec.power.other,
            grid: spec.gpu.grid,
        })
    }

    /// A forward-looking *on-package stacked memory* calibration — the
    /// future system the paper's conclusion points at ("compute and memory
    /// will share tighter package power envelopes"). Per-byte DRAM energies
    /// and interface power drop (short in-package links, no board-level
    /// termination), and the board overhead shrinks; compute is unchanged.
    pub fn stacked_package() -> Self {
        Self::calibrated(Calibration {
            compute: ComputePowerParams::default(),
            memory: MemoryPowerParams {
                background_per_ghz: 6.0,
                phy_per_ghz: 2.5,
                phy_static: 1.0,
                activate_pj_per_byte: 10.0,
                rw_pj_per_byte: 28.0,
                termination_pj_per_byte: 4.0,
                slow_clock_energy_penalty: 0.04,
                voltage_scaling: true, // on-package rails are scalable
            },
            dvfs: DvfsTable::hd7970(),
            other: Watts(18.0),
            grid: GridSpec::HD7970,
        })
    }

    /// Builds a model with custom parameters on the HD7970 grid (for
    /// calibration studies).
    pub fn with_params(
        compute: ComputePowerParams,
        memory: MemoryPowerParams,
        dvfs: DvfsTable,
        other: Watts,
    ) -> Self {
        Self::calibrated(Calibration {
            compute,
            memory,
            dvfs,
            other,
            grid: GridSpec::HD7970,
        })
    }

    /// Rebinds the model to another device grid (for what-if studies that
    /// start from [`with_params`](Self::with_params) on a catalog device).
    pub fn with_grid(self, grid: GridSpec) -> Self {
        Self::calibrated(Calibration {
            grid,
            ..self.calibration
        })
    }

    /// The chip (compute-side) calibration.
    pub fn compute_params(&self) -> &ComputePowerParams {
        &self.calibration.compute
    }

    /// The off-chip memory calibration.
    pub fn memory_params(&self) -> &MemoryPowerParams {
        &self.calibration.memory
    }

    /// The constant rest-of-card power (the paper's OtherPwr).
    pub fn other_power(&self) -> Watts {
        self.calibration.other
    }

    /// The DVFS table the model uses for voltage lookup.
    pub fn dvfs(&self) -> &DvfsTable {
        &self.calibration.dvfs
    }

    /// The configuration grid of the device this model is calibrated for.
    /// Governors derive grid-stepping bounds from here, so a model built by
    /// [`for_device`](Self::for_device) steps on its own device's lattice.
    pub fn grid(&self) -> &GridSpec {
        &self.calibration.grid
    }

    /// Evaluates the full card power breakdown at `cfg` under `activity`.
    pub fn breakdown(&self, cfg: HwConfig, activity: &Activity) -> PowerBreakdown {
        let c = &self.calibration;
        let (freq, bus_freq) = (cfg.compute.freq(), cfg.memory.bus_freq());
        let compute_clock = step_index(freq, c.grid.cu_freq_min, c.grid.cu_freq_step)
            .and_then(|i| self.clocks.compute.get(i).copied())
            .unwrap_or_else(|| c.compute_clock(freq));
        let memory_clock = step_index(bus_freq, c.grid.mem_freq_min, c.grid.mem_freq_step)
            .and_then(|i| self.clocks.memory.get(i).copied())
            .unwrap_or_else(|| c.memory_clock(bus_freq));
        let chip = chip_power_from(
            &c.compute,
            &compute_clock,
            memory_clock.mem_controller,
            cfg.compute.cu_count(),
            activity.valu_activity,
            activity.dram_traffic_fraction,
        );
        let mem = memory_power_from(&c.memory, &memory_clock.dram, activity.dram_bytes_per_sec);
        PowerBreakdown {
            cu_dynamic: chip.cu_dynamic,
            leakage: chip.leakage,
            uncore: chip.uncore,
            mem_controller: chip.mem_controller,
            phy: mem.phy,
            dram_background: mem.background,
            dram_activate: mem.activate,
            dram_read_write: mem.read_write,
            dram_termination: mem.termination,
            other: c.other,
        }
    }

    /// Total card power — shorthand for `breakdown(..).card_pwr()`.
    pub fn card_pwr(&self, cfg: HwConfig, activity: &Activity) -> Watts {
        self.breakdown(cfg, activity).card_pwr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ComputeConfig, MegaHertz, MemoryConfig};

    const HD: GridSpec = GridSpec::HD7970;

    fn cfg(cu: u32, f: u32, m: u32) -> HwConfig {
        HwConfig::new(
            ComputeConfig::new_on(&HD, cu, MegaHertz(f)).unwrap(),
            MemoryConfig::new_on(&HD, MegaHertz(m)).unwrap(),
        )
    }

    #[test]
    fn eq4_accounting_is_consistent() {
        let model = PowerModel::hd7970();
        let p = model.breakdown(
            HwConfig::max_hd7970(),
            &Activity::streaming_on(&HD, 0.5, 0.8),
        );
        let derived_mem = p.card_pwr() - p.gpu_pwr() - p.other_pwr();
        assert!((derived_mem.value() - p.mem_pwr().value()).abs() < 1e-9);
    }

    #[test]
    fn memory_is_significant_for_memory_bound_work() {
        // Figure 1: memory is a major consumer for memory-intensive
        // workloads: expect ≥20% of card power.
        let model = PowerModel::hd7970();
        let p = model.breakdown(
            HwConfig::max_hd7970(),
            &Activity::streaming_on(&HD, 0.25, 0.95),
        );
        let share = p.mem_pwr() / p.card_pwr();
        assert!(share > 0.20, "memory share {share} too small");
        assert!(share < 0.50, "memory share {share} implausibly large");
    }

    #[test]
    fn compute_config_span_is_large() {
        // Figure 4: board power varies by roughly 70% across compute
        // configurations at fixed max memory bandwidth.
        let model = PowerModel::hd7970();
        let act = Activity::streaming_on(&HD, 0.3, 0.9);
        let hi = model.card_pwr(cfg(32, 1000, 1375), &act).value();
        let lo = model.card_pwr(cfg(4, 300, 1375), &act).value();
        let span = (hi - lo) / lo;
        assert!(
            (0.4..1.2).contains(&span),
            "compute-config power span {span} outside Figure 4 band"
        );
    }

    #[test]
    fn memory_config_span_is_modest() {
        // Figure 5: ~10% power variation across memory configs at the max
        // compute configuration, fixed memory voltage.
        let model = PowerModel::hd7970();
        let act = Activity::streaming_on(&HD, 1.0, 0.05);
        let hi = model.card_pwr(cfg(32, 1000, 1375), &act).value();
        let lo = model.card_pwr(cfg(32, 1000, 475), &act).value();
        let span = (hi - lo) / hi;
        assert!(
            (0.04..0.18).contains(&span),
            "memory-config power span {span} outside Figure 5 band"
        );
    }

    #[test]
    fn other_power_is_constant() {
        let model = PowerModel::hd7970();
        let a = model.breakdown(cfg(4, 300, 475), &Activity::idle());
        let b = model.breakdown(cfg(32, 1000, 1375), &Activity::streaming_on(&HD, 1.0, 1.0));
        assert_eq!(a.other_pwr(), b.other_pwr());
    }

    #[test]
    fn card_power_monotone_in_each_tunable() {
        let model = PowerModel::hd7970();
        let act = Activity::streaming_on(&HD, 0.6, 0.6);
        assert!(model.card_pwr(cfg(8, 500, 925), &act) < model.card_pwr(cfg(16, 500, 925), &act));
        assert!(model.card_pwr(cfg(8, 500, 925), &act) < model.card_pwr(cfg(8, 800, 925), &act));
        assert!(model.card_pwr(cfg(8, 500, 475), &act) < model.card_pwr(cfg(8, 500, 1375), &act));
    }

    #[test]
    fn max_config_tdp_plausible() {
        let model = PowerModel::hd7970();
        let p = model.card_pwr(
            HwConfig::max_hd7970(),
            &Activity::streaming_on(&HD, 1.0, 0.9),
        );
        assert!(
            (200.0..300.0).contains(&p.value()),
            "card power {p} not in HD7970 TDP ballpark"
        );
    }

    #[test]
    fn stacked_package_memory_is_cheaper() {
        let discrete = PowerModel::hd7970();
        let stacked = PowerModel::stacked_package();
        let act = Activity::streaming_on(&HD, 0.3, 0.9);
        let cfg = HwConfig::max_hd7970();
        let d = discrete.breakdown(cfg, &act);
        let s = stacked.breakdown(cfg, &act);
        assert!(
            s.mem_pwr() < d.mem_pwr() * 0.7,
            "stacked memory should be much cheaper"
        );
        assert!(s.other_pwr() < d.other_pwr());
        // Compute side is identical.
        assert_eq!(s.cu_dynamic, d.cu_dynamic);
    }

    #[test]
    fn for_device_hd7970_equals_the_legacy_model() {
        let legacy = PowerModel::hd7970();
        let device = PowerModel::for_device(&DeviceSpec::hd7970());
        assert_eq!(legacy, device);
        // And it evaluates bit-identically.
        let act = Activity::streaming_on(&HD, 0.5, 0.8);
        let cfg = HwConfig::max_hd7970();
        assert_eq!(legacy.breakdown(cfg, &act), device.breakdown(cfg, &act));
    }

    #[test]
    fn catalog_device_tdps_are_plausible() {
        // Busy streaming power at each device's max config lands near its
        // published board/module envelope.
        let bands = [
            ("hd7970", 200.0, 300.0),
            ("v100", 230.0, 350.0),
            ("h100", 500.0, 800.0),
            ("jetson-orin", 25.0, 70.0),
        ];
        for (name, lo, hi) in bands {
            let spec: DeviceSpec = name.parse().unwrap();
            let model = PowerModel::for_device(&spec);
            let cfg = HwConfig::max_on(spec.grid());
            let act = Activity::streaming_on(spec.grid(), 1.0, 0.9);
            let p = model.card_pwr(cfg, &act).value();
            assert!(
                (lo..hi).contains(&p),
                "{name}: card power {p:.0} W outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn catalog_devices_save_power_at_lower_operating_points() {
        // The governor premise holds on every device: stepping any tunable
        // down from max reduces card power.
        for name in DeviceSpec::catalog() {
            let spec: DeviceSpec = name.parse().unwrap();
            let model = PowerModel::for_device(&spec);
            let act = Activity::streaming_on(spec.grid(), 0.6, 0.6);
            let max = HwConfig::max_on(spec.grid());
            let p_max = model.card_pwr(max, &act);
            for t in harmonia_types::Tunable::ALL {
                let down = max.step_down_on(spec.grid(), t).unwrap();
                assert!(
                    model.card_pwr(down, &act) < p_max,
                    "{name}: stepping {t} down did not save power"
                );
            }
        }
    }

    #[test]
    fn clock_tables_are_derived_state() {
        // Rebinding to another grid and back gives an equal model, and the
        // serialized form is the calibration and grid alone: neither sees
        // the tables.
        let hd7970: DeviceSpec = "hd7970".parse().unwrap();
        let v100: DeviceSpec = "v100".parse().unwrap();
        let model = PowerModel::for_device(&hd7970);
        let rebound = model
            .clone()
            .with_grid(*v100.grid())
            .with_grid(*hd7970.grid());
        assert_eq!(model, rebound);
        assert_ne!(model, model.clone().with_grid(*v100.grid()));
        let serde::Value::Object(fields) = model.to_value() else {
            panic!("a power model serializes to an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["compute", "memory", "dvfs", "other", "grid"]);
        assert_eq!(model.to_value(), rebound.to_value());
    }

    #[test]
    fn idle_power_well_below_busy() {
        let model = PowerModel::hd7970();
        let idle = model.card_pwr(HwConfig::max_hd7970(), &Activity::idle());
        let busy = model.card_pwr(
            HwConfig::max_hd7970(),
            &Activity::streaming_on(&HD, 1.0, 0.9),
        );
        assert!(idle.value() < 0.7 * busy.value());
    }
}
