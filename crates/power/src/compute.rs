//! GPU chip (compute-side) power: dynamic CV²f, leakage, and uncore.
//!
//! The HD7970's CUs share one frequency domain and one voltage plane
//! (Section 2.2), and inactive CUs are power gated (Section 6). Chip power is
//! modelled as
//!
//! ```text
//! P_chip = N_cu · C_cu · V² · f · a  +  N_cu · idle-clock fraction
//!        + leakage(N_cu, V) + uncore(f, V, traffic) + MC(f_mem, traffic)
//! ```
//!
//! where `a` is the measured VALU activity. The integrated memory controller
//! is part of GPUPwr in the paper's accounting (it notes the MC is "about 3%
//! of the overall memory power"), so it lives here, not in the DRAM model.

use harmonia_types::{DvfsTable, HwConfig, MegaHertz, Watts};
use serde::{Deserialize, Serialize};

// The parameter struct lives in the device catalog (`harmonia_types`) so
// each catalog entry carries its own chip calibration; re-exported here so
// existing `harmonia_power::compute::ComputePowerParams` paths keep working.
pub use harmonia_types::device::ComputePowerParams;

/// Result of evaluating the chip power model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ComputePower {
    /// Dynamic power of the active CUs (including idle clocking).
    pub cu_dynamic: Watts,
    /// Leakage of active CUs plus the uncore.
    pub leakage: Watts,
    /// Uncore dynamic power (L2, crossbar).
    pub uncore: Watts,
    /// Integrated memory-controller power.
    pub mem_controller: Watts,
}

impl ComputePower {
    /// Total chip power (the paper's GPUPwr).
    pub fn total(&self) -> Watts {
        self.cu_dynamic + self.leakage + self.uncore + self.mem_controller
    }
}

/// The clock-only terms of [`chip_power`] at one compute clock: everything
/// that depends on the clock (through its DVFS voltage) but not on the CU
/// count or on activity. [`PowerModel`](crate::PowerModel) tabulates these
/// once per clock step of its grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComputeClockTerms {
    /// One active CU's full switching power, `c_dyn_per_cu · V² · f` (W).
    cu_full: f64,
    /// Leakage scale `(V / V_ref)^k` at the clock's voltage.
    leak_scale: f64,
    /// Clock-driven uncore power, `c_dyn_uncore · V² · f` (W).
    uncore: f64,
}

impl ComputeClockTerms {
    /// The clock-only terms at compute clock `freq`, its voltage looked up
    /// in `dvfs`.
    pub(crate) fn at(params: &ComputePowerParams, dvfs: &DvfsTable, freq: MegaHertz) -> Self {
        let v = dvfs.voltage_for(freq);
        let v2 = v.value() * v.value();
        let f_ghz = freq.as_ghz();
        Self {
            cu_full: params.c_dyn_per_cu * v2 * f_ghz,
            // Leakage scales super-linearly with voltage.
            leak_scale: (v.value() / params.leak_ref_voltage.value())
                .powf(params.leak_voltage_exponent),
            uncore: params.c_dyn_uncore * v2 * f_ghz,
        }
    }
}

/// The integrated memory controller's clock-driven power at memory bus
/// clock `bus_freq`, `mc_per_mem_ghz · f_mem` (W) — the clock-only term of
/// [`chip_power`] that lives in the memory clock domain.
pub(crate) fn mem_controller_clock(params: &ComputePowerParams, bus_freq: MegaHertz) -> f64 {
    params.mc_per_mem_ghz * bus_freq.as_ghz()
}

/// Evaluates chip power for a configuration and activity level.
///
/// * `valu_activity` — fraction of time CU SIMDs are issuing (0..1).
/// * `dram_traffic_fraction` — achieved DRAM bandwidth over peak (0..1),
///   which drives uncore and MC switching.
pub fn chip_power(
    params: &ComputePowerParams,
    dvfs: &DvfsTable,
    cfg: HwConfig,
    valu_activity: f64,
    dram_traffic_fraction: f64,
) -> ComputePower {
    chip_power_from(
        params,
        &ComputeClockTerms::at(params, dvfs, cfg.compute.freq()),
        mem_controller_clock(params, cfg.memory.bus_freq()),
        cfg.compute.cu_count(),
        valu_activity,
        dram_traffic_fraction,
    )
}

/// The activity part of [`chip_power`]: chip power for `cu_count` active
/// CUs from the clock-only terms (`clock`, and the memory controller's
/// `mem_controller_clock`) and the activity levels.
pub(crate) fn chip_power_from(
    params: &ComputePowerParams,
    clock: &ComputeClockTerms,
    mem_controller_clock: f64,
    cu_count: u32,
    valu_activity: f64,
    dram_traffic_fraction: f64,
) -> ComputePower {
    let valu_activity = valu_activity.clamp(0.0, 1.0);
    let dram_traffic_fraction = dram_traffic_fraction.clamp(0.0, 1.0);
    let n_cu = f64::from(cu_count);

    // Active CUs burn idle-clock power all the time and full switching power
    // while issuing.
    let activity_share =
        params.idle_clock_fraction + (1.0 - params.idle_clock_fraction) * valu_activity;
    let cu_dynamic = Watts(n_cu * clock.cu_full * activity_share);

    // Gated CUs leak nothing.
    let leakage =
        Watts((n_cu * params.leak_per_cu_ref + params.leak_uncore_ref) * clock.leak_scale);

    // Uncore switches with the compute clock and with L2↔DRAM traffic.
    let uncore = Watts(clock.uncore + params.uncore_traffic_coeff * dram_traffic_fraction);

    // The integrated MC runs in the memory clock domain.
    let mem_controller =
        Watts(mem_controller_clock + params.mc_traffic_coeff * dram_traffic_fraction);

    ComputePower {
        cu_dynamic,
        leakage,
        uncore,
        mem_controller,
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

    #[test]
    fn full_activity_max_config_in_expected_band() {
        let p = chip_power(
            &ComputePowerParams::default(),
            &DvfsTable::hd7970(),
            HwConfig::max_hd7970(),
            1.0,
            0.2,
        );
        let total = p.total().value();
        assert!(
            (150.0..230.0).contains(&total),
            "chip power {total} W outside calibration band"
        );
    }

    #[test]
    fn power_monotone_in_cu_count() {
        let params = ComputePowerParams::default();
        let dvfs = DvfsTable::hd7970();
        let mut prev = 0.0;
        for cu in (4..=32).step_by(4) {
            let p = chip_power(&params, &dvfs, cfg(cu, 900, 1375), 0.8, 0.5)
                .total()
                .value();
            assert!(p > prev, "not monotone at {cu} CUs");
            prev = p;
        }
    }

    #[test]
    fn power_monotone_in_frequency() {
        let params = ComputePowerParams::default();
        let dvfs = DvfsTable::hd7970();
        let mut prev = 0.0;
        for f in (300..=1000).step_by(100) {
            let p = chip_power(&params, &dvfs, cfg(32, f, 1375), 0.8, 0.5)
                .total()
                .value();
            assert!(p > prev, "not monotone at {f} MHz");
            prev = p;
        }
    }

    #[test]
    fn idle_chip_still_draws_clock_and_leakage() {
        let p = chip_power(
            &ComputePowerParams::default(),
            &DvfsTable::hd7970(),
            HwConfig::max_hd7970(),
            0.0,
            0.0,
        );
        assert!(
            p.cu_dynamic.value() > 0.0,
            "idle clocking should draw power"
        );
        assert!(p.leakage.value() > 0.0);
    }

    #[test]
    fn gating_cus_cuts_both_dynamic_and_leakage() {
        let params = ComputePowerParams::default();
        let dvfs = DvfsTable::hd7970();
        let full = chip_power(&params, &dvfs, cfg(32, 900, 1375), 0.8, 0.5);
        let quarter = chip_power(&params, &dvfs, cfg(8, 900, 1375), 0.8, 0.5);
        assert!(quarter.cu_dynamic.value() < full.cu_dynamic.value() / 3.0);
        assert!(quarter.leakage < full.leakage);
    }

    #[test]
    fn dvfs_gives_superlinear_savings() {
        // Halving frequency should cut dynamic power by more than half
        // because voltage drops too.
        let params = ComputePowerParams::default();
        let dvfs = DvfsTable::hd7970();
        let hi = chip_power(&params, &dvfs, cfg(32, 1000, 1375), 1.0, 0.0);
        let lo = chip_power(&params, &dvfs, cfg(32, 500, 1375), 1.0, 0.0);
        assert!(lo.cu_dynamic.value() < 0.5 * hi.cu_dynamic.value());
    }

    #[test]
    fn mc_power_tracks_memory_clock() {
        let params = ComputePowerParams::default();
        let dvfs = DvfsTable::hd7970();
        let hi = chip_power(&params, &dvfs, cfg(32, 900, 1375), 0.5, 0.5);
        let lo = chip_power(&params, &dvfs, cfg(32, 900, 475), 0.5, 0.5);
        assert!(hi.mem_controller > lo.mem_controller);
    }

    #[test]
    fn activity_clamped() {
        let params = ComputePowerParams::default();
        let dvfs = DvfsTable::hd7970();
        let a = chip_power(&params, &dvfs, HwConfig::max_hd7970(), 2.0, 2.0);
        let b = chip_power(&params, &dvfs, HwConfig::max_hd7970(), 1.0, 1.0);
        assert_eq!(a, b);
    }
}
