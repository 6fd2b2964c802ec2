//! Off-chip GDDR5 memory and DDR PHY power.
//!
//! Section 2.4 of the paper decomposes DRAM power into *background*,
//! *activation/pre-charge*, *read-write*, and *termination* power and
//! explains how bus frequency affects each:
//!
//! * lowering bus frequency lowers background, PLL, and PHY power;
//! * but it *increases* per-access read/write and termination energy
//!   "due to longer intervals between array accesses".
//!
//! This module models exactly those components. The memory voltage is fixed
//! (the platform cannot scale it — Section 3.3), so only frequency-dependent
//! and traffic-dependent terms vary; the paper's observation that savings
//! "would actually be greater if we are able to scale memory bus voltage" is
//! captured by [`MemoryPowerParams::voltage_scaling`], off by default to
//! mirror the real platform and available for what-if studies.

use harmonia_types::{HwConfig, MegaHertz, Watts};
use serde::{Deserialize, Serialize};

// The parameter struct lives in the device catalog (`harmonia_types`) so
// each catalog entry carries its own memory calibration; re-exported here so
// existing `harmonia_power::memory::MemoryPowerParams` paths keep working.
pub use harmonia_types::device::MemoryPowerParams;

/// Result of evaluating the memory power model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryPower {
    /// DRAM background power (refresh, standby, clocking).
    pub background: Watts,
    /// DDR PHY and PLL power (integrated on the GPU die but counted as
    /// memory power per the paper's Equation 4 accounting).
    pub phy: Watts,
    /// Row activate/pre-charge power.
    pub activate: Watts,
    /// Array read/write power.
    pub read_write: Watts,
    /// I/O termination power.
    pub termination: Watts,
}

impl MemoryPower {
    /// Total memory-system power (the paper's MemPwr).
    pub fn total(&self) -> Watts {
        self.background + self.phy + self.activate + self.read_write + self.termination
    }
}

/// Evaluates memory power for a configuration and observed DRAM traffic
/// (`dram_bytes_per_sec`, achieved read+write traffic) against the device's
/// reference (maximum) bus clock `f_max_ghz` — 1.375 on the HD7970.
/// Slow-clock access penalties and the voltage-scaling what-if are both
/// relative to `f_max_ghz`.
pub fn memory_power_at(
    params: &MemoryPowerParams,
    cfg: HwConfig,
    dram_bytes_per_sec: f64,
    f_max_ghz: f64,
) -> MemoryPower {
    memory_power_from(
        params,
        &MemoryClockTerms::at(params, cfg.memory.bus_freq(), f_max_ghz),
        dram_bytes_per_sec,
    )
}

/// The clock-only terms of [`memory_power_at`] at one bus clock: everything
/// that depends on the bus clock but not on traffic.
/// [`PowerModel`](crate::PowerModel) tabulates these once per clock step of
/// its grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoryClockTerms {
    /// DRAM background power (W).
    background: f64,
    /// DDR PHY + PLL power (W).
    phy: f64,
    /// Voltage-scaling factor of the what-if (1 on the real platform).
    v_scale: f64,
    /// Array read/write energy per byte with the slow-clock penalty (pJ).
    rw_pj_per_byte: f64,
    /// I/O termination energy per byte with the slow-clock penalty (pJ).
    termination_pj_per_byte: f64,
}

impl MemoryClockTerms {
    /// The clock-only terms at bus clock `bus_freq`, relative to the
    /// reference (maximum) bus clock `f_max_ghz`.
    pub(crate) fn at(params: &MemoryPowerParams, bus_freq: MegaHertz, f_max_ghz: f64) -> Self {
        let f_ghz = bus_freq.as_ghz();

        // Hypothetical voltage scaling (off on the real platform).
        let v_scale = if params.voltage_scaling {
            let v_rel = 0.7 + 0.3 * (f_ghz / f_max_ghz);
            v_rel * v_rel
        } else {
            1.0
        };

        // Per-byte energies rise slightly as the bus slows down.
        let slowdown = (f_max_ghz / f_ghz - 1.0).max(0.0);
        let access_penalty = 1.0 + params.slow_clock_energy_penalty * slowdown;
        Self {
            background: params.background_per_ghz * f_ghz * v_scale,
            phy: (params.phy_static + params.phy_per_ghz * f_ghz) * v_scale,
            v_scale,
            rw_pj_per_byte: params.rw_pj_per_byte * access_penalty,
            termination_pj_per_byte: params.termination_pj_per_byte * access_penalty,
        }
    }
}

/// The traffic part of [`memory_power_at`]: memory power from the bus
/// clock's terms (`clock`) and the achieved DRAM traffic.
pub(crate) fn memory_power_from(
    params: &MemoryPowerParams,
    clock: &MemoryClockTerms,
    dram_bytes_per_sec: f64,
) -> MemoryPower {
    let pj_to_w = 1.0e-12 * dram_bytes_per_sec.max(0.0);
    MemoryPower {
        background: Watts(clock.background),
        phy: Watts(clock.phy),
        activate: Watts(params.activate_pj_per_byte * pj_to_w * clock.v_scale),
        read_write: Watts(clock.rw_pj_per_byte * pj_to_w * clock.v_scale),
        termination: Watts(clock.termination_pj_per_byte * pj_to_w * clock.v_scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ComputeConfig, GridSpec, MegaHertz, MemoryConfig};

    const HD: GridSpec = GridSpec::HD7970;

    fn cfg_mem(m: u32) -> HwConfig {
        HwConfig::new(
            ComputeConfig::max_hd7970(),
            MemoryConfig::new_on(&HD, MegaHertz(m)).unwrap(),
        )
    }

    /// Memory power on the HD7970, whose 1375 MHz bus is the reference.
    fn memory_power(params: &MemoryPowerParams, cfg: HwConfig, traffic: f64) -> MemoryPower {
        memory_power_at(params, cfg, traffic, HD.mem_freq_max.as_ghz())
    }

    #[test]
    fn idle_memory_draws_only_background_and_phy() {
        let p = memory_power(&MemoryPowerParams::default(), cfg_mem(1375), 0.0);
        assert!(p.background.value() > 0.0);
        assert!(p.phy.value() > 0.0);
        assert_eq!(p.activate, Watts(0.0));
        assert_eq!(p.read_write, Watts(0.0));
        assert_eq!(p.termination, Watts(0.0));
    }

    #[test]
    fn streaming_power_in_calibration_band() {
        // Full 264 GB/s stream at max bus clock: ~45-60 W of memory power.
        let p = memory_power(&MemoryPowerParams::default(), cfg_mem(1375), 264.0e9);
        let total = p.total().value();
        assert!(
            (40.0..65.0).contains(&total),
            "memory power {total} W outside calibration band"
        );
    }

    #[test]
    fn background_and_phy_track_frequency() {
        let params = MemoryPowerParams::default();
        let hi = memory_power(&params, cfg_mem(1375), 0.0);
        let lo = memory_power(&params, cfg_mem(475), 0.0);
        assert!(hi.background > lo.background);
        assert!(hi.phy > lo.phy);
        // Frequency-proportional parts scale ~2.9×.
        let ratio = hi.background.value() / lo.background.value();
        assert!((ratio - 1375.0 / 475.0).abs() < 1e-9);
    }

    #[test]
    fn per_byte_energy_rises_at_low_clock() {
        // Same traffic, slower bus: read/write + termination power is higher
        // per Section 2.4, even though background power drops.
        let params = MemoryPowerParams::default();
        let traffic = 80.0e9;
        let hi = memory_power(&params, cfg_mem(1375), traffic);
        let lo = memory_power(&params, cfg_mem(475), traffic);
        assert!(lo.read_write > hi.read_write);
        assert!(lo.termination > hi.termination);
        assert!(lo.background < hi.background);
    }

    #[test]
    fn lowering_clock_saves_net_power_for_light_traffic() {
        // The paper's Figure 5 scenario: compute-bound workload, little
        // memory traffic — dropping the bus clock must save power overall.
        let params = MemoryPowerParams::default();
        let traffic = 10.0e9;
        let hi = memory_power(&params, cfg_mem(1375), traffic);
        let lo = memory_power(&params, cfg_mem(475), traffic);
        assert!(lo.total() < hi.total());
    }

    #[test]
    fn traffic_monotonically_increases_power() {
        let params = MemoryPowerParams::default();
        let mut prev = 0.0;
        for gbps in [0.0, 50.0, 100.0, 200.0, 264.0] {
            let p = memory_power(&params, cfg_mem(1375), gbps * 1e9)
                .total()
                .value();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn negative_traffic_treated_as_zero() {
        let params = MemoryPowerParams::default();
        let a = memory_power(&params, cfg_mem(1375), -5.0);
        let b = memory_power(&params, cfg_mem(1375), 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn voltage_scaling_what_if_saves_more() {
        let fixed = MemoryPowerParams::default();
        let scaled = MemoryPowerParams {
            voltage_scaling: true,
            ..MemoryPowerParams::default()
        };
        let traffic = 80.0e9;
        // At min clock the voltage-scaled model must be cheaper than fixed.
        let fixed_lo = memory_power(&fixed, cfg_mem(475), traffic).total();
        let scaled_lo = memory_power(&scaled, cfg_mem(475), traffic).total();
        assert!(scaled_lo < fixed_lo);
        // And the hi→lo saving is larger with voltage scaling (the paper's
        // "differences would actually be greater" remark).
        let fixed_hi = memory_power(&fixed, cfg_mem(1375), traffic).total();
        let scaled_hi = memory_power(&scaled, cfg_mem(1375), traffic).total();
        let fixed_saving = fixed_hi.value() - fixed_lo.value();
        let scaled_saving = scaled_hi.value() - scaled_lo.value();
        assert!(scaled_saving > fixed_saving);
    }
}
