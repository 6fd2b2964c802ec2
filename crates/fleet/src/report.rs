//! Deterministic fleet results, and their bit-exact canonical form.
//!
//! [`FleetReport`] holds only values that are reproducible for any worker
//! interleaving: per-device accounting, cluster cap compliance, and the
//! shared-store accounting totals. Wall-clock throughput lives in
//! [`FleetRun`], *outside* the report, so byte-comparing reports across
//! thread counts is meaningful. [`FleetReport::canonical`] renders every
//! float as its IEEE-754 bit pattern — the form the determinism tests and
//! the CI smoke leg compare.

use crate::device::DeviceReport;
use harmonia_sim::{CacheStats, PlanStats};
use std::fmt::Write as _;
use std::time::Duration;

/// The deterministic outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The policy spec the fleet ran (display form).
    pub spec: String,
    /// Number of device sessions.
    pub devices: usize,
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// The global cluster cap, when the spec enforced one.
    pub global_cap_w: Option<f64>,
    /// Per-device accounting, in device-id order.
    pub per_device: Vec<DeviceReport>,
    /// Ticks whose summed device draw exceeded the global cap.
    pub cluster_violation_ticks: u64,
    /// Ticks where even the grid floors exceeded the cap (no partition
    /// could honor it).
    pub infeasible_ticks: u64,
    /// Largest summed cluster draw seen on any tick, watts.
    pub max_cluster_power_w: f64,
    /// Shared-cache accounting at the end of the run.
    pub cache: CacheStats,
    /// Sweep-plan accounting summed over every kernel.
    pub plans: PlanStats,
    /// Distinct kernel fingerprints the store planned.
    pub unique_kernels: usize,
}

impl FleetReport {
    /// Total decisions across the fleet.
    pub fn total_decisions(&self) -> u64 {
        self.per_device.iter().map(|d| d.decisions).sum()
    }

    /// Total device-local cap violations across the fleet.
    pub fn total_device_violations(&self) -> u64 {
        self.per_device.iter().map(|d| d.cap_violations).sum()
    }

    /// A bit-exact textual form: every `f64` appears as its hexadecimal
    /// IEEE-754 bit pattern, so two reports are byte-identical iff every
    /// deterministic quantity matches to the last bit. This is what the
    /// interleave-determinism tests compare across worker counts.
    pub fn canonical(&self) -> String {
        fn bits(x: f64) -> String {
            format!("{:016x}", x.to_bits())
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "spec={} devices={} ticks={}",
            self.spec, self.devices, self.ticks
        );
        let _ = writeln!(
            out,
            "cap={} violations={} infeasible={} max_power={}",
            self.global_cap_w.map_or_else(|| "none".into(), bits),
            self.cluster_violation_ticks,
            self.infeasible_ticks,
            bits(self.max_cluster_power_w),
        );
        let _ = writeln!(
            out,
            "cache hits={} misses={} entries={}",
            self.cache.hits, self.cache.misses, self.cache.entries
        );
        let _ = writeln!(
            out,
            "plans cold={} incremental={} memo={} lanes={} kernels={}",
            self.plans.cold_sweeps,
            self.plans.incremental_sweeps,
            self.plans.memo_hits,
            self.plans.exact_lanes,
            self.unique_kernels,
        );
        for d in &self.per_device {
            let _ = writeln!(
                out,
                "dev {} class={} app={} gov={} time={} energy={} ed2={} decisions={} violations={} digest={:016x} cap={}",
                d.id,
                d.class,
                d.app,
                d.governor,
                bits(d.total_time.value()),
                bits(d.card_energy.value()),
                bits(d.ed2),
                d.decisions,
                d.cap_violations,
                d.config_digest,
                d.final_cap_w.map_or_else(|| "none".into(), bits),
            );
        }
        out
    }
}

/// One fleet execution: the deterministic report plus the wall-clock
/// measurements that are *not* part of it.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The deterministic results.
    pub report: FleetReport,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl FleetRun {
    /// Aggregate decision throughput (decisions per wall-clock second).
    pub fn decisions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.report.total_decisions() as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}
