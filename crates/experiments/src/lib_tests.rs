//! Tests for the experiment harness (fast experiments run for real; the
//! full evaluation matrix is covered by the workspace integration tests and
//! by the `full_matrix` test below, which is ignored by default because it
//! runs five governors over the whole suite).

use crate::{run, Context, ALL_EXPERIMENTS};
use harmonia_types::{DeviceSpec, MegaHertz, MemoryConfig};

fn ctx() -> Context {
    Context::new()
}

#[test]
fn experiment_ids_are_unique_and_dispatchable() {
    let mut ids: Vec<&str> = ALL_EXPERIMENTS.to_vec();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "duplicate experiment ids");
    assert!(run(&ctx(), "no-such-experiment").is_none());
    assert!(
        run(&ctx(), "appendix-notanapp").is_none(),
        "unknown deep-dive targets must not dispatch"
    );
}

#[test]
fn table1_lists_the_dvfs_states() {
    let r = run(&ctx(), "table1").expect("known id");
    assert_eq!(r.rows.len(), 4);
    assert_eq!(r.rows[0][0], "DPM0");
    assert_eq!(r.rows[3][0], "BOOST");
}

#[test]
fn table2_covers_all_table2_counters() {
    let r = run(&ctx(), "table2").expect("known id");
    let names: Vec<&str> = r.rows.iter().map(|row| row[0].as_str()).collect();
    for expected in [
        "VALUUtilization",
        "MemUnitBusy",
        "MemUnitStalled",
        "WriteUnitStalled",
        "NormVGPR",
        "NormSGPR",
        "icActivity",
        "C-to-M Intensity",
    ] {
        assert!(names.contains(&expected), "missing counter {expected}");
    }
}

#[test]
fn fig1_shares_sum_to_100_percent() {
    let r = run(&ctx(), "fig1").expect("known id");
    let sum: f64 = r
        .rows
        .iter()
        .filter(|row| row[0] != "total card")
        .map(|row| row[2].trim_end_matches('%').parse::<f64>().expect("share"))
        .sum();
    assert!((sum - 100.0).abs() < 0.5, "component shares sum to {sum}");
}

#[test]
fn fig7_shows_the_occupancy_contrast() {
    let r = run(&ctx(), "fig7").expect("known id");
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][1], "30%");
    assert_eq!(r.rows[1][1], "100%");
    let low: f64 = r.rows[0][3].parse().expect("number");
    let high: f64 = r.rows[1][3].parse().expect("number");
    assert!(high > low + 0.3, "bandwidth sensitivities must contrast");
}

#[test]
fn fig8_shows_the_divergence_contrast() {
    let r = run(&ctx(), "fig8").expect("known id");
    let prepare: f64 = r.rows[0][3].parse().expect("number");
    let bottom_scan: f64 = r.rows[1][3].parse().expect("number");
    assert!(prepare < 0.3, "SRAD.Prepare must be compute-insensitive");
    assert!(bottom_scan > 0.7, "Sort.BottomScan must be compute-sensitive");
}

#[test]
fn fig9_low_clock_slowdown_dominates() {
    let r = run(&ctx(), "fig9").expect("known id");
    let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().expect("pct");
    let high_clock = parse(&r.rows[1][1]);
    let low_clock = parse(&r.rows[2][1]);
    assert!(low_clock > high_clock + 10.0, "crossing effect must be clock-asymmetric");
}

#[test]
fn fig2_matches_the_device_descriptor() {
    let r = run(&ctx(), "fig2").expect("known id");
    let find = |name: &str| {
        r.rows
            .iter()
            .find(|row| row[0] == name)
            .unwrap_or_else(|| panic!("{name} row"))[1]
            .clone()
    };
    assert_eq!(find("compute units"), "32");
    assert_eq!(find("memory channels"), "6");
    assert_eq!(find("shared L2"), "768 KiB");
}

#[test]
fn fig6_configs_print_bandwidth_on_the_devices_bus() {
    for name in DeviceSpec::catalog() {
        let device = DeviceSpec::lookup(name).expect("catalog names resolve");
        let grid = *device.grid();
        let r = run(&Context::for_device(device), "fig6").expect("known id");
        for row in &r.rows {
            // "<compute>, mem 875 MHz (896 GB/s)"
            let config = &row[5];
            let mem = config.split("mem ").nth(1).expect("a memory clock");
            let mhz: u32 = mem.split(' ').next().and_then(|v| v.parse().ok()).expect("MHz");
            let bw = MemoryConfig::new_on(&grid, MegaHertz(mhz))
                .expect("a clock of the device's grid")
                .peak_bandwidth_on(&grid);
            assert!(config.ends_with(&format!("({:.0} GB/s)", bw.value())), "{name}: {config}");
        }
    }
}

#[test]
fn characterize_reports_ceilings_near_peak() {
    let r = run(&ctx(), "characterize").expect("known id");
    let compute = r
        .rows
        .iter()
        .find(|row| row[0] == "compute ceiling")
        .expect("compute ceiling row");
    let gflops: f64 = compute[2]
        .split_whitespace()
        .next()
        .expect("number")
        .parse()
        .expect("parse");
    assert!(gflops > 3800.0, "compute ceiling {gflops} too far from 4096");
}

#[test]
fn fig14_instruction_totals_vary_across_iterations() {
    let r = run(&ctx(), "fig14").expect("known id");
    assert_eq!(r.rows.len(), 8);
    let insts: Vec<f64> = r
        .rows
        .iter()
        .map(|row| row[1].parse::<f64>().expect("count"))
        .collect();
    let max = insts.iter().cloned().fold(f64::MIN, f64::max);
    let min = insts.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min > 3.0, "BFS levels should vary instruction totals");
}

#[test]
fn every_report_has_consistent_row_arity() {
    // The cheap experiments exercise the Report arity assertion end to end.
    let c = ctx();
    for id in [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig7",
        "fig8",
        "fig9",
        "fig14",
        "characterize",
    ] {
        let r = run(&c, id).expect("known id");
        for row in &r.rows {
            assert_eq!(row.len(), r.headers.len(), "{id} row arity");
        }
        assert!(!r.rows.is_empty(), "{id} produced no rows");
    }
}

#[test]
#[ignore = "runs five governors over the whole suite (~30 s in debug)"]
fn full_matrix_experiments_produce_all_rows() {
    let c = ctx();
    for id in ALL_EXPERIMENTS {
        let r = run(&c, id).expect("known id");
        assert!(!r.rows.is_empty(), "{id} produced no rows");
    }
}
