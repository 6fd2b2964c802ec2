//! Property tests for the configuration space and DVFS tables.

use harmonia_types::{
    ComputeConfig, ConfigSpace, DeviceSpec, DvfsTable, GridSpec, HwConfig, MegaHertz, MemoryConfig,
    Tunable,
};
use proptest::prelude::*;

const HD: GridSpec = GridSpec::HD7970;

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    (0usize..DeviceSpec::catalog().len())
        .prop_map(|i| DeviceSpec::lookup(DeviceSpec::catalog()[i]).expect("catalog names resolve"))
}

fn arb_config() -> impl Strategy<Value = HwConfig> {
    (0u32..8, 0u32..8, 0u32..7).prop_map(|(cu, f, m)| {
        HwConfig::new(
            ComputeConfig::new_on(&HD, 4 + cu * 4, MegaHertz(300 + f * 100)).expect("grid"),
            MemoryConfig::new_on(&HD, MegaHertz(475 + m * 150)).expect("grid"),
        )
    })
}

proptest! {
    #[test]
    fn stepping_stays_on_grid_and_inverts(cfg in arb_config()) {
        let space = ConfigSpace::hd7970();
        for t in Tunable::ALL {
            if let Some(up) = cfg.step_up_on(&HD, t) {
                prop_assert!(space.contains(up));
                prop_assert_eq!(up.step_down_on(&HD, t).expect("inverse"), cfg);
            }
            if let Some(down) = cfg.step_down_on(&HD, t) {
                prop_assert!(space.contains(down));
                prop_assert_eq!(down.step_up_on(&HD, t).expect("inverse"), cfg);
            }
        }
    }

    #[test]
    fn with_fraction_is_idempotent_and_on_grid(cfg in arb_config(), frac in 0.0f64..1.0) {
        let space = ConfigSpace::hd7970();
        for t in Tunable::ALL {
            let once = cfg.with_fraction_on(&HD, t, frac);
            prop_assert!(space.contains(once));
            prop_assert_eq!(once.with_fraction_on(&HD, t, frac), once);
        }
    }

    #[test]
    fn with_fraction_is_monotone(cfg in arb_config(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for t in Tunable::ALL {
            let l = cfg.with_fraction_on(&HD, t, lo);
            let h = cfg.with_fraction_on(&HD, t, hi);
            prop_assert!(l.level_on(&HD, t).index <= h.level_on(&HD, t).index);
        }
    }

    #[test]
    fn level_fraction_round_trips(cfg in arb_config()) {
        for t in Tunable::ALL {
            let level = cfg.level_on(&HD, t);
            prop_assert!((0.0..=1.0).contains(&level.fraction));
            let rebuilt = cfg.with_fraction_on(&HD, t, level.fraction);
            prop_assert_eq!(rebuilt.raw_value(t), cfg.raw_value(t));
        }
    }

    #[test]
    fn hw_ops_per_byte_is_monotone_in_compute_and_antitone_in_memory(cfg in arb_config()) {
        let base = cfg.hw_ops_per_byte_on(&HD);
        if let Some(up) = cfg.step_up_on(&HD, Tunable::CuFreq) {
            prop_assert!(up.hw_ops_per_byte_on(&HD) > base);
        }
        if let Some(up) = cfg.step_up_on(&HD, Tunable::CuCount) {
            prop_assert!(up.hw_ops_per_byte_on(&HD) > base);
        }
        if let Some(up) = cfg.step_up_on(&HD, Tunable::MemFreq) {
            prop_assert!(up.hw_ops_per_byte_on(&HD) < base);
        }
    }

    #[test]
    fn dvfs_voltage_monotone_and_bounded(f in 300u32..=1000) {
        let table = DvfsTable::hd7970();
        let v = table.voltage_for(MegaHertz(f));
        prop_assert!((0.85..=1.19).contains(&v.value()));
        let v_next = table.voltage_for(MegaHertz(f + 50));
        prop_assert!(v_next >= v);
    }

    #[test]
    fn catalog_fractions_land_on_each_devices_grid(
        dev in arb_device(),
        fc in 0.0f64..1.0,
        ff in 0.0f64..1.0,
        fm in 0.0f64..1.0,
    ) {
        let grid = *dev.grid();
        let space = ConfigSpace::for_grid(&grid);
        let cfg = HwConfig::max_on(&grid)
            .with_fraction_on(&grid, Tunable::CuCount, fc)
            .with_fraction_on(&grid, Tunable::CuFreq, ff)
            .with_fraction_on(&grid, Tunable::MemFreq, fm);
        prop_assert!(space.contains(cfg), "{cfg} off the {} grid", dev.name);
        // Stepping on the device's own grid stays on it and inverts.
        for t in Tunable::ALL {
            if let Some(up) = cfg.step_up_on(&grid, t) {
                prop_assert!(space.contains(up));
                prop_assert_eq!(up.step_down_on(&grid, t).expect("inverse"), cfg);
            }
            if let Some(down) = cfg.step_down_on(&grid, t) {
                prop_assert!(space.contains(down));
                prop_assert_eq!(down.step_up_on(&grid, t).expect("inverse"), cfg);
            }
        }
    }

    #[test]
    fn catalog_snap_cu_freq_lands_on_grid(dev in arb_device(), f in 0u32..4000) {
        let grid = *dev.grid();
        let snapped = grid.snap_cu_freq(MegaHertz(f));
        prop_assert!(
            grid.cu_freq_levels().contains(&snapped),
            "{snapped} not a {} CU-frequency level", dev.name
        );
        // Snapping an on-grid frequency is the identity.
        prop_assert_eq!(grid.snap_cu_freq(snapped), snapped);
    }

    #[test]
    fn catalog_dvfs_covers_each_devices_grid(dev in arb_device(), frac in 0.0f64..=1.0) {
        let grid = *dev.grid();
        let span = f64::from(grid.cu_freq_max.value() - grid.cu_freq_min.value());
        let f = MegaHertz(grid.cu_freq_min.value() + (frac * span) as u32);
        let v = dev.dvfs.voltage_for(f);
        prop_assert!(v.value() > 0.0, "{} voltage must be positive at {f}", dev.name);
        let v_up = dev.dvfs.voltage_for(MegaHertz(f.value() + grid.cu_freq_step));
        prop_assert!(v_up >= v, "{} voltage must be monotone in frequency", dev.name);
    }

    #[test]
    fn serde_round_trip_config(cfg in arb_config()) {
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: HwConfig = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, cfg);
    }
}

#[test]
fn space_iteration_is_stable_and_unique() {
    let space = ConfigSpace::hd7970();
    let a: Vec<HwConfig> = space.iter().collect();
    let b: Vec<HwConfig> = space.iter().collect();
    assert_eq!(a, b, "iteration order must be deterministic");
    let mut set = std::collections::HashSet::new();
    for cfg in a {
        assert!(set.insert(cfg), "duplicate config {cfg}");
    }
    assert_eq!(set.len(), 448);
}

#[test]
fn every_catalog_space_is_unique_and_counts_its_levels() {
    for name in DeviceSpec::catalog() {
        let dev = DeviceSpec::lookup(name).expect("catalog names resolve");
        let grid = *dev.grid();
        let space = ConfigSpace::for_grid(&grid);
        let configs: Vec<HwConfig> = space.iter().collect();
        let mut set = std::collections::HashSet::new();
        for cfg in &configs {
            assert!(set.insert(*cfg), "{name}: duplicate config {cfg}");
        }
        assert_eq!(
            set.len(),
            grid.cu_level_count() * grid.cu_freq_level_count() * grid.mem_freq_level_count(),
            "{name}: space size must be the product of the per-tunable level counts"
        );
        assert!(
            space.contains(dev.safe_state()),
            "{name}: the safe state must lie on the device's own grid"
        );
    }
}
