//! Evaluation metrics and run reports.
//!
//! The paper evaluates with energy-delay² (ED², Section 3.4), reports
//! improvements relative to the stock baseline as geometric means, and
//! studies power-state *residency* — the fraction of time each tunable
//! spends at each value (Figures 15–16).
//!
//! A [`RunReport`] holds aggregates only. Per-invocation records —
//! configurations, times, powers, counters — and the residency derived
//! from them come from the decision trace
//! ([`telemetry`](crate::telemetry)), which a run writes when a
//! [`TraceHandle`](crate::telemetry::TraceHandle) is installed.

use harmonia_types::{ConfigPoint, Joules, Seconds, Tunable, Watts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregate statistics for one kernel across a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// Kernel name, sharing one allocation with the kernel's profile.
    pub kernel: Arc<str>,
    /// Number of invocations.
    pub invocations: u64,
    /// Total execution time.
    pub total_time: Seconds,
    /// Total card energy.
    pub card_energy: Joules,
}

/// Time-weighted residency of each tunable across its grid values.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Residency {
    cu_count: BTreeMap<u32, f64>,
    cu_freq: BTreeMap<u32, f64>,
    mem_freq: BTreeMap<u32, f64>,
    total: f64,
}

impl Residency {
    /// Creates an empty residency accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `dt` seconds spent at `cfg`, keyed by its raw tunable values
    /// (whatever grid they lie on).
    pub fn record(&mut self, cfg: ConfigPoint, dt: Seconds) {
        let dt = dt.value();
        if dt <= 0.0 {
            return;
        }
        *self.cu_count.entry(cfg.cu).or_insert(0.0) += dt;
        *self.cu_freq.entry(cfg.cu_mhz).or_insert(0.0) += dt;
        *self.mem_freq.entry(cfg.mem_mhz).or_insert(0.0) += dt;
        self.total += dt;
    }

    fn map_of(&self, tunable: Tunable) -> &BTreeMap<u32, f64> {
        match tunable {
            Tunable::CuCount => &self.cu_count,
            Tunable::CuFreq => &self.cu_freq,
            Tunable::MemFreq => &self.mem_freq,
        }
    }

    /// Fraction of total time spent with `tunable` at `value` (0 when the
    /// value was never used or nothing has been recorded).
    pub fn fraction(&self, tunable: Tunable, value: u32) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.map_of(tunable).get(&value).copied().unwrap_or(0.0) / self.total
    }

    /// The full residency distribution of one tunable: `(value, fraction)`
    /// pairs in ascending value order.
    pub fn distribution(&self, tunable: Tunable) -> Vec<(u32, f64)> {
        if self.total <= 0.0 {
            return Vec::new();
        }
        self.map_of(tunable)
            .iter()
            .map(|(&v, &t)| (v, t / self.total))
            .collect()
    }

    /// Number of distinct values a tunable visited.
    pub fn distinct_values(&self, tunable: Tunable) -> usize {
        self.map_of(tunable).len()
    }
}

/// The complete result of running an application under one governor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Governor name.
    pub governor: String,
    /// Total execution time (the paper's D).
    pub total_time: Seconds,
    /// Total card energy (the paper's E).
    pub card_energy: Joules,
    /// GPU chip share of the energy.
    pub gpu_energy: Joules,
    /// Memory share of the energy.
    pub mem_energy: Joules,
    /// Per-kernel aggregates, one per distinct kernel that ran, in name
    /// order.
    pub per_kernel: Vec<KernelReport>,
}

impl RunReport {
    /// Energy-delay product `E·D`.
    pub fn ed(&self) -> f64 {
        self.card_energy.value() * self.total_time.value()
    }

    /// Energy-delay-squared product `E·D²` — the paper's primary metric.
    pub fn ed2(&self) -> f64 {
        self.card_energy.value() * self.total_time.value().powi(2)
    }

    /// Time-average card power over the run.
    pub fn avg_power(&self) -> Watts {
        if self.total_time.value() <= 0.0 {
            return Watts(0.0);
        }
        self.card_energy / self.total_time
    }

    /// Per-kernel report lookup.
    pub fn kernel_report(&self, name: &str) -> Option<&KernelReport> {
        self.per_kernel.iter().find(|k| &*k.kernel == name)
    }
}

/// Relative improvement of `candidate` over `baseline` for a
/// lower-is-better metric: `1 − candidate/baseline` (0.12 = 12% better).
pub fn improvement(baseline: f64, candidate: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    1.0 - candidate / baseline
}

/// Relative performance of `candidate` versus `baseline` execution times:
/// `baseline/candidate` (>1 means the candidate is faster).
pub fn relative_performance(baseline: Seconds, candidate: Seconds) -> f64 {
    if candidate.value() <= 0.0 {
        return 0.0;
    }
    baseline.value() / candidate.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(cu: u32, cu_mhz: u32, mem_mhz: u32) -> ConfigPoint {
        ConfigPoint { cu, cu_mhz, mem_mhz }
    }

    fn report(time: f64, energy: f64) -> RunReport {
        RunReport {
            app: "demo".into(),
            governor: "test".into(),
            total_time: Seconds(time),
            card_energy: Joules(energy),
            gpu_energy: Joules(energy * 0.6),
            mem_energy: Joules(energy * 0.25),
            per_kernel: vec![],
        }
    }

    #[test]
    fn ed_metrics() {
        let r = report(2.0, 100.0);
        assert_eq!(r.ed(), 200.0);
        assert_eq!(r.ed2(), 400.0);
        assert_eq!(r.avg_power(), Watts(50.0));
    }

    #[test]
    fn zero_time_average_power_is_zero() {
        assert_eq!(report(0.0, 10.0).avg_power(), Watts(0.0));
    }

    #[test]
    fn improvement_signs() {
        assert!((improvement(100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(improvement(100.0, 120.0) < 0.0);
        assert_eq!(improvement(0.0, 1.0), 0.0);
    }

    #[test]
    fn relative_performance_signs() {
        assert!(relative_performance(Seconds(2.0), Seconds(1.0)) > 1.0);
        assert!(relative_performance(Seconds(1.0), Seconds(2.0)) < 1.0);
        assert_eq!(relative_performance(Seconds(1.0), Seconds(0.0)), 0.0);
    }

    #[test]
    fn residency_fractions_sum_to_one_per_tunable() {
        let mut r = Residency::new();
        r.record(pt(32, 1000, 1375), Seconds(3.0));
        r.record(pt(32, 1000, 775), Seconds(1.0));
        assert!((r.fraction(Tunable::MemFreq, 1375) - 0.75).abs() < 1e-12);
        assert!((r.fraction(Tunable::MemFreq, 775) - 0.25).abs() < 1e-12);
        assert_eq!(r.fraction(Tunable::MemFreq, 475), 0.0);
        let dist = r.distribution(Tunable::MemFreq);
        let total: f64 = dist.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(r.distinct_values(Tunable::MemFreq), 2);
        assert_eq!(r.distinct_values(Tunable::CuCount), 1);
        assert!((r.fraction(Tunable::CuCount, 32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn residency_ignores_nonpositive_durations() {
        let mut r = Residency::new();
        r.record(pt(32, 1000, 1375), Seconds(0.0));
        r.record(pt(32, 1000, 1375), Seconds(-1.0));
        assert!(r.distribution(Tunable::CuCount).is_empty());
        assert_eq!(r.fraction(Tunable::CuCount, 32), 0.0);
    }
}
