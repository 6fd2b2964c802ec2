//! Balance explorer: sweep the full ~450-point configuration space for a
//! kernel and print its hardware balance curve (the Figure 3 analysis),
//! plus the energy-, ED²- and performance-optimal operating points.
//!
//! ```text
//! cargo run --release --example balance_explorer [kernel-name]
//! ```
//!
//! `kernel-name` is any suite kernel (default `DeviceMemory.Stream`).

use harmonia_power::{Activity, PowerModel};
use harmonia_sim::{IntervalModel, TimingModel};
use harmonia_types::{ConfigSpace, HwConfig, MemoryConfig};
use harmonia_workloads::suite;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "DeviceMemory.Stream".to_string());
    let Some((_, kernel)) = suite::training_kernels()
        .into_iter()
        .find(|(_, k)| *k.name == *name)
    else {
        eprintln!("unknown kernel {name}; available kernels:");
        for (_, k) in suite::training_kernels() {
            eprintln!("  {}", k.name);
        }
        std::process::exit(1);
    };

    let model = IntervalModel::default();
    let power = PowerModel::hd7970();
    let space = ConfigSpace::hd7970();
    let grid = space.grid();
    let min_cfg = HwConfig::min_on(grid);
    let t_min = model.simulate(min_cfg, &kernel, 0).time.value();

    println!("balance curve for {name} (normalized to 4 CU / 300 MHz / 90 GB/s)\n");
    println!(
        "{:>10}  {:>12}  {:>12}  {:>10}",
        "mem GB/s", "hw ops/byte", "perf (norm)", "power W"
    );

    let mut best: Option<(HwConfig, f64)> = None; // (config, ED²)
    for &mem in space.mem_freqs() {
        let mc = MemoryConfig::new_on(grid, mem).expect("grid");
        // Walk the compute configs in increasing hardware ops/byte and print
        // a coarse subsample of the curve.
        let mut curve: Vec<(HwConfig, f64, f64)> = space
            .iter()
            .filter(|c| c.memory == mc)
            .map(|c| {
                let sim = model.simulate(c, &kernel, 0);
                let activity = Activity {
                    valu_activity: sim.counters.valu_activity(),
                    dram_bytes_per_sec: sim.counters.dram_bytes_per_sec(),
                    dram_traffic_fraction: sim.counters.ic_activity,
                };
                let watts = power.card_pwr(c, &activity).value();
                (c, sim.time.value(), watts)
            })
            .collect();
        curve.sort_by(|a, b| {
            a.0.hw_ops_per_byte_on(grid)
                .partial_cmp(&b.0.hw_ops_per_byte_on(grid))
                .expect("finite")
        });
        for (cfg, t, watts) in curve.iter().step_by(16) {
            println!(
                "{:>10.0}  {:>12.1}  {:>12.1}  {:>10.1}",
                mc.peak_bandwidth_on(grid).value(),
                cfg.hw_ops_per_byte_normalized_on(grid),
                t_min / t,
                watts
            );
        }
        for (cfg, t, watts) in curve {
            let ed2 = watts * t * t * t;
            if best.as_ref().is_none_or(|(_, b)| ed2 < *b) {
                best = Some((cfg, ed2));
            }
        }
    }

    let (best_cfg, _) = best.expect("non-empty space");
    let sim = model.simulate(best_cfg, &kernel, 0);
    println!(
        "\nED²-optimal operating point: {best_cfg}\n  time {:.3} ms, perf {:.1}× the minimum config",
        sim.time.value() * 1e3,
        t_min / sim.time.value()
    );
}
