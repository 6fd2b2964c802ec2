//! Golden timing-model results: the discrete-event and trace-replay models
//! must reproduce the committed `SimResult` bits exactly.
//!
//! Each line of `golden/timing_models.txt` is one FNV-1a digest, per
//! (device, model), over the `to_bits()` of every result the model gives
//! for the 27 training kernels at the device's boost configuration: the
//! time, every `CounterSample` field and the `FastForwardStats`. The matrix:
//!
//! * hd7970 at the default wave caps, event and trace — the pair the
//!   `ablation-models` experiment runs;
//! * every catalog device with the event model capped at 1,024 waves, the
//!   event model under `FastForwardPolicy::auto()` capped at 4,096 waves,
//!   and the trace model capped at 512 waves.
//!
//! The event-queue order decides every simulated time, so any change to the
//! models' schedulers that is not bit-identical moves a digest here.

use harmonia_sim::{
    CounterSample, EventModel, FastForwardPolicy, FastForwardStats, KernelProfile, SimResult,
    TimingModel, TraceModel,
};
use harmonia_types::{DeviceSpec, HwConfig};
use harmonia_workloads::suite;

const GOLDEN: &str = include_str!("golden/timing_models.txt");

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every bit of one result, in field order. The destructuring is
/// exhaustive, so a new field fails to compile until it is digested too.
fn result_words(r: &SimResult) -> Vec<u64> {
    let SimResult {
        time,
        counters,
        fast_forward,
    } = r;
    let CounterSample {
        duration,
        valu_busy_pct,
        valu_utilization_pct,
        mem_unit_busy_pct,
        mem_unit_stalled_pct,
        write_unit_stalled_pct,
        norm_vgpr,
        norm_sgpr,
        ic_activity,
        valu_insts,
        vfetch_insts,
        vwrite_insts,
        dram_bytes,
        achieved_bw_gbps,
        occupancy_fraction,
        l2_hit_rate,
    } = counters;
    let FastForwardStats {
        stepped_waves,
        fast_forwarded_waves,
    } = fast_forward;
    vec![
        time.value().to_bits(),
        duration.value().to_bits(),
        valu_busy_pct.to_bits(),
        valu_utilization_pct.to_bits(),
        mem_unit_busy_pct.to_bits(),
        mem_unit_stalled_pct.to_bits(),
        write_unit_stalled_pct.to_bits(),
        norm_vgpr.to_bits(),
        norm_sgpr.to_bits(),
        ic_activity.to_bits(),
        *valu_insts,
        *vfetch_insts,
        *vwrite_insts,
        dram_bytes.to_bits(),
        achieved_bw_gbps.to_bits(),
        occupancy_fraction.to_bits(),
        l2_hit_rate.to_bits(),
        *stepped_waves,
        *fast_forwarded_waves,
    ]
}

/// One golden line: `model` over every training kernel at boost on `device`.
fn digest_line(
    device: &DeviceSpec,
    label: &str,
    model: &dyn TimingModel,
    kernels: &[KernelProfile],
) -> String {
    let boost = HwConfig::max_on(&device.gpu.grid);
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut ffw = 0;
    for k in kernels {
        let r = model.simulate(boost, k, 0);
        ffw += r.fast_forward.fast_forwarded_waves;
        h = fnv1a(h, &result_words(&r));
    }
    format!(
        "{} {label} kernels={} ffw={ffw} digest={h:016x}",
        device.name,
        kernels.len()
    )
}

fn training_kernels() -> Vec<KernelProfile> {
    suite::training_kernels()
        .into_iter()
        .map(|(_, k)| k)
        .collect()
}

/// Asserts each live line equals the golden line of the same device and
/// model, listing every mismatch.
fn check_against_golden(live: &[String]) {
    let mut drifted = Vec::new();
    for line in live {
        let key: Vec<&str> = line.split(' ').take(2).collect();
        let golden = GOLDEN
            .lines()
            .find(|g| g.split(' ').take(2).eq(key.iter().copied()));
        if golden != Some(line.as_str()) {
            drifted.push(format!(
                "  golden: {}\n  live:   {line}",
                golden.unwrap_or("<missing>")
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "timing-model results drifted from tests/golden/timing_models.txt:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn golden_covers_the_whole_matrix() {
    assert_eq!(GOLDEN.lines().count(), 2 + 3 * DeviceSpec::catalog().len());
}

#[test]
fn hd7970_at_default_caps_matches_the_golden() {
    let kernels = training_kernels();
    let hd7970 = DeviceSpec::lookup("hd7970").expect("catalog device");
    check_against_golden(&[
        digest_line(&hd7970, "event", &EventModel::new(hd7970.gpu), &kernels),
        digest_line(&hd7970, "trace", &TraceModel::new(hd7970.gpu), &kernels),
    ]);
}

#[test]
fn capped_models_on_every_catalog_device_match_the_golden() {
    let kernels = training_kernels();
    let mut live = Vec::new();
    for name in DeviceSpec::catalog() {
        let device = DeviceSpec::lookup(name).expect("catalog device");
        let event = EventModel::new(device.gpu).with_max_waves(1024);
        let auto = EventModel::new(device.gpu)
            .with_max_waves(4096)
            .with_fast_forward(FastForwardPolicy::auto());
        let trace = TraceModel::new(device.gpu).with_max_waves(512);
        live.push(digest_line(&device, "event@1024", &event, &kernels));
        live.push(digest_line(&device, "event-auto@4096", &auto, &kernels));
        live.push(digest_line(&device, "trace@512", &trace, &kernels));
    }
    check_against_golden(&live);
}
