//! The power model's per-clock tables change no watt.
//!
//! `PowerModel` computes the terms that depend only on the clocks once per
//! clock step of its grid and looks them up in `breakdown`. This test holds
//! every field of `breakdown`, bit for bit, to a local copy of the formulas
//! evaluated from scratch on every call: every configuration of each
//! model's grid plus configurations off it, under activities that include
//! zero, negative, out-of-range and non-finite values.

use harmonia_power::{Activity, ComputePowerParams, MemoryPowerParams, PowerModel};
use harmonia_types::{ConfigSpace, DeviceSpec, DvfsTable, HwConfig};

/// Chip power evaluated from scratch: `[cu_dynamic, leakage, uncore,
/// mem_controller]` in watts.
fn reference_chip(
    params: &ComputePowerParams,
    dvfs: &DvfsTable,
    cfg: HwConfig,
    valu_activity: f64,
    dram_traffic_fraction: f64,
) -> [f64; 4] {
    let valu_activity = valu_activity.clamp(0.0, 1.0);
    let dram_traffic_fraction = dram_traffic_fraction.clamp(0.0, 1.0);

    let v = dvfs.voltage_for(cfg.compute.freq());
    let v2 = v.value() * v.value();
    let f_ghz = cfg.compute.freq().as_ghz();
    let n_cu = f64::from(cfg.compute.cu_count());

    let per_cu_full = params.c_dyn_per_cu * v2 * f_ghz;
    let activity_share =
        params.idle_clock_fraction + (1.0 - params.idle_clock_fraction) * valu_activity;
    let cu_dynamic = n_cu * per_cu_full * activity_share;

    let leak_scale =
        (v.value() / params.leak_ref_voltage.value()).powf(params.leak_voltage_exponent);
    let leakage = (n_cu * params.leak_per_cu_ref + params.leak_uncore_ref) * leak_scale;

    let uncore =
        params.c_dyn_uncore * v2 * f_ghz + params.uncore_traffic_coeff * dram_traffic_fraction;

    let f_mem_ghz = cfg.memory.bus_freq().as_ghz();
    let mem_controller =
        params.mc_per_mem_ghz * f_mem_ghz + params.mc_traffic_coeff * dram_traffic_fraction;

    [cu_dynamic, leakage, uncore, mem_controller]
}

/// Memory power evaluated from scratch: `[background, phy, activate,
/// read_write, termination]` in watts.
fn reference_memory(
    params: &MemoryPowerParams,
    cfg: HwConfig,
    dram_bytes_per_sec: f64,
    f_max_ghz: f64,
) -> [f64; 5] {
    let f_ghz = cfg.memory.bus_freq().as_ghz();
    let dram_bytes_per_sec = dram_bytes_per_sec.max(0.0);

    let v_scale = if params.voltage_scaling {
        let v_rel = 0.7 + 0.3 * (f_ghz / f_max_ghz);
        v_rel * v_rel
    } else {
        1.0
    };

    let background = params.background_per_ghz * f_ghz * v_scale;
    let phy = (params.phy_static + params.phy_per_ghz * f_ghz) * v_scale;

    let slowdown = (f_max_ghz / f_ghz - 1.0).max(0.0);
    let access_penalty = 1.0 + params.slow_clock_energy_penalty * slowdown;
    let pj_to_w = 1.0e-12 * dram_bytes_per_sec;
    let activate = params.activate_pj_per_byte * pj_to_w * v_scale;
    let read_write = params.rw_pj_per_byte * access_penalty * pj_to_w * v_scale;
    let termination = params.termination_pj_per_byte * access_penalty * pj_to_w * v_scale;

    [background, phy, activate, read_write, termination]
}

/// Every model constructor: each catalog device, the stacked-package
/// what-if (memory voltage scaling on), and custom parameters rebound to a
/// catalog grid.
fn models() -> Vec<(String, PowerModel)> {
    let mut models: Vec<(String, PowerModel)> = DeviceSpec::catalog()
        .iter()
        .map(|name| {
            let spec = DeviceSpec::lookup(name).expect("catalog device");
            (name.to_string(), PowerModel::for_device(&spec))
        })
        .collect();
    models.push(("stacked-package".to_string(), PowerModel::stacked_package()));
    let v100 = DeviceSpec::lookup("v100").expect("catalog device");
    let custom = PowerModel::with_params(
        ComputePowerParams {
            leak_voltage_exponent: 3.1,
            ..v100.power.compute.clone()
        },
        MemoryPowerParams {
            voltage_scaling: true,
            ..v100.power.memory.clone()
        },
        v100.dvfs.clone(),
        v100.power.other,
    )
    .with_grid(*v100.grid());
    models.push(("with_params+v100 grid".to_string(), custom));
    models
}

/// Activities spanning idle, busy, saturated, negative, out-of-range and
/// non-finite inputs.
fn activities() -> Vec<Activity> {
    let valu = [0.0, 0.37, 1.0, -0.25, 1.8, f64::NAN];
    let bytes = [0.0, 91.5e9, 900.0e9, -4.0e9, 1.0e13, f64::INFINITY];
    let traffic = [0.0, 0.61, 1.0, -0.4, 2.5, f64::NAN];
    let mut out = Vec::new();
    for &valu_activity in &valu {
        for &dram_bytes_per_sec in &bytes {
            for &dram_traffic_fraction in &traffic {
                out.push(Activity {
                    valu_activity,
                    dram_bytes_per_sec,
                    dram_traffic_fraction,
                });
            }
        }
    }
    out
}

#[test]
fn breakdown_matches_the_formulas_bit_for_bit() {
    // Every catalog device's extreme operating points: off the grid of
    // most models here (a v100 point on an hd7970 grid, say).
    let foreign: Vec<HwConfig> = DeviceSpec::catalog()
        .iter()
        .map(|name| *DeviceSpec::lookup(name).expect("catalog device").grid())
        .flat_map(|grid| [HwConfig::min_on(&grid), HwConfig::max_on(&grid)])
        .collect();
    let activities = activities();
    for (name, model) in models() {
        let space = ConfigSpace::for_grid(model.grid());
        let off_grid = foreign.iter().filter(|&&cfg| !space.contains(cfg)).count();
        assert!(off_grid > 0, "{name}: no configuration off its grid");
        let f_max_ghz = model.grid().mem_freq_max.as_ghz();
        for cfg in space.iter().chain(foreign.iter().copied()) {
            for a in &activities {
                let got = model.breakdown(cfg, a);
                let chip = reference_chip(
                    model.compute_params(),
                    model.dvfs(),
                    cfg,
                    a.valu_activity,
                    a.dram_traffic_fraction,
                );
                let mem =
                    reference_memory(model.memory_params(), cfg, a.dram_bytes_per_sec, f_max_ghz);
                let fields = [
                    ("cu_dynamic", got.cu_dynamic.value(), chip[0]),
                    ("leakage", got.leakage.value(), chip[1]),
                    ("uncore", got.uncore.value(), chip[2]),
                    ("mem_controller", got.mem_controller.value(), chip[3]),
                    ("dram_background", got.dram_background.value(), mem[0]),
                    ("phy", got.phy.value(), mem[1]),
                    ("dram_activate", got.dram_activate.value(), mem[2]),
                    ("dram_read_write", got.dram_read_write.value(), mem[3]),
                    ("dram_termination", got.dram_termination.value(), mem[4]),
                    ("other", got.other.value(), model.other_power().value()),
                ];
                for (field, got, want) in fields {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name}: {field} at {cfg} under {a:?}: {got} != {want}"
                    );
                }
            }
        }
    }
}
