//! Performance counters (Table 2 of the paper) and derived metrics.
//!
//! The monitoring block samples these at kernel boundaries. Two metrics are
//! not raw counters and are computed here exactly as in the paper:
//!
//! * **icActivity** (Eqs. 1–2): achieved read/write DRAM bandwidth over the
//!   configuration's peak bandwidth;
//! * **C-to-M intensity** (Eq. 3): VALU-busy time (scaled by lane
//!   utilization) over memory-unit-busy time, normalized to 100.

use harmonia_types::Seconds;
use serde::{Deserialize, Serialize};

/// One performance-counter sample covering a single kernel execution.
///
/// Percentages are expressed 0–100 as in CodeXL; normalized register counts
/// and icActivity are fractions 0–1 as in the paper's Table 2/3 usage.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CounterSample {
    /// Kernel execution time covered by the sample.
    pub duration: Seconds,
    /// Percentage of time the vector ALUs are issuing instructions.
    pub valu_busy_pct: f64,
    /// Percentage of active lanes in issued waves (100 − divergence).
    pub valu_utilization_pct: f64,
    /// Percentage of time the memory fetch/read unit is active, including
    /// stalls and cache effects.
    pub mem_unit_busy_pct: f64,
    /// Percentage of time the memory fetch/read unit is stalled.
    pub mem_unit_stalled_pct: f64,
    /// Percentage of time the memory write/store unit is stalled.
    pub write_unit_stalled_pct: f64,
    /// VGPRs used by the kernel normalized by the 256 maximum.
    pub norm_vgpr: f64,
    /// SGPRs used by the kernel normalized by the 102 maximum.
    pub norm_sgpr: f64,
    /// Off-chip interconnect utilization between L2 and DRAM (Eq. 1): 0–1.
    pub ic_activity: f64,
    /// Total vector-ALU instructions executed.
    pub valu_insts: u64,
    /// Total vector fetch instructions executed.
    pub vfetch_insts: u64,
    /// Total vector write instructions executed.
    pub vwrite_insts: u64,
    /// DRAM read+write traffic in bytes.
    pub dram_bytes: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub achieved_bw_gbps: f64,
    /// Kernel occupancy fraction (waves per SIMD over the maximum).
    pub occupancy_fraction: f64,
    /// Effective L2 hit rate during the execution.
    pub l2_hit_rate: f64,
}

impl CounterSample {
    /// Compute-to-memory intensity (Eq. 3), normalized to a 0–100 scale:
    /// the ratio `((VALUBusy × VALUUtilization)/100) / MemUnitBusy` mapped
    /// through `r/(1+r)` so a balanced kernel reads 50, a pure-compute
    /// kernel approaches 100, and a pure-memory kernel approaches 0. A raw
    /// clamp at 100 would saturate for every compute-leaning kernel and
    /// destroy the discrimination the compute-sensitivity model needs.
    ///
    /// Returns 100 (pure compute) when the memory unit is essentially idle.
    pub fn c_to_m_intensity(&self) -> f64 {
        let compute_time_pct = self.valu_busy_pct * self.valu_utilization_pct / 100.0;
        if self.mem_unit_busy_pct < 1e-6 {
            return 100.0;
        }
        let ratio = compute_time_pct / self.mem_unit_busy_pct;
        100.0 * ratio / (1.0 + ratio)
    }

    /// Fraction of time the ALUs are doing useful lane work — the activity
    /// factor the power model consumes (0..1).
    pub fn valu_activity(&self) -> f64 {
        (self.valu_busy_pct / 100.0) * (self.valu_utilization_pct / 100.0)
    }

    /// DRAM traffic rate in bytes/second over the sample.
    pub fn dram_bytes_per_sec(&self) -> f64 {
        if self.duration.value() <= 0.0 {
            return 0.0;
        }
        self.dram_bytes / self.duration.value()
    }

    /// Achieved operations per byte: executed lane operations over DRAM
    /// bytes (∞-safe: returns a large value when traffic is ~0).
    pub fn achieved_ops_per_byte(&self) -> f64 {
        let ops = self.valu_insts as f64 * 64.0 * (self.valu_utilization_pct / 100.0);
        ops / self.dram_bytes.max(1.0)
    }

    /// The predictor feature vector for *bandwidth* sensitivity, in the
    /// order of Table 3: VALUUtilization, WriteUnitStalled, MemUnitBusy,
    /// MemUnitStalled, icActivity, NormVGPR, NormSGPR.
    ///
    /// Percent counters are scaled to 0–1 fractions so every feature has a
    /// comparable range ("we normalize all counter values to a percentage of
    /// its maximum possible value", Section 4.2).
    pub fn bandwidth_features(&self) -> [f64; 7] {
        [
            self.valu_utilization_pct / 100.0,
            self.write_unit_stalled_pct / 100.0,
            self.mem_unit_busy_pct / 100.0,
            self.mem_unit_stalled_pct / 100.0,
            self.ic_activity,
            self.norm_vgpr,
            self.norm_sgpr,
        ]
    }

    /// The predictor feature vector for *compute* sensitivity: C-to-M
    /// intensity, NormVGPR, NormSGPR (the Table 3 set) plus VALUBusy.
    ///
    /// Table 3 folds VALUBusy into the C-to-M ratio only; this simulator's
    /// memory-busy statistics compress that ratio, so the busy fraction is
    /// exposed as its own feature. The published-coefficient model assigns
    /// it zero weight, keeping Table 3 semantics; fitted models learn it.
    pub fn compute_features(&self) -> [f64; 6] {
        [
            self.c_to_m_intensity() / 100.0,
            self.norm_vgpr,
            self.norm_sgpr,
            self.valu_busy_pct / 100.0,
            self.ic_activity,
            self.mem_unit_busy_pct / 100.0,
        ]
    }

    /// Exponentially weighted moving average toward `new`: each field moves
    /// `alpha` of the way from `self` to `new`. This is the *online*
    /// equivalent of Section 4.2's per-kernel nominal counter values — the
    /// predictor consumes a slowly-moving per-kernel average rather than the
    /// instantaneous sample, which varies with the active configuration.
    pub fn ewma_toward(&self, new: &CounterSample, alpha: f64) -> CounterSample {
        let alpha = alpha.clamp(0.0, 1.0);
        let lerp = |a: f64, b: f64| a + alpha * (b - a);
        CounterSample {
            duration: harmonia_types::Seconds(lerp(self.duration.value(), new.duration.value())),
            valu_busy_pct: lerp(self.valu_busy_pct, new.valu_busy_pct),
            valu_utilization_pct: lerp(self.valu_utilization_pct, new.valu_utilization_pct),
            mem_unit_busy_pct: lerp(self.mem_unit_busy_pct, new.mem_unit_busy_pct),
            mem_unit_stalled_pct: lerp(self.mem_unit_stalled_pct, new.mem_unit_stalled_pct),
            write_unit_stalled_pct: lerp(self.write_unit_stalled_pct, new.write_unit_stalled_pct),
            norm_vgpr: lerp(self.norm_vgpr, new.norm_vgpr),
            norm_sgpr: lerp(self.norm_sgpr, new.norm_sgpr),
            ic_activity: lerp(self.ic_activity, new.ic_activity),
            valu_insts: lerp(self.valu_insts as f64, new.valu_insts as f64) as u64,
            vfetch_insts: lerp(self.vfetch_insts as f64, new.vfetch_insts as f64) as u64,
            vwrite_insts: lerp(self.vwrite_insts as f64, new.vwrite_insts as f64) as u64,
            dram_bytes: lerp(self.dram_bytes, new.dram_bytes),
            achieved_bw_gbps: lerp(self.achieved_bw_gbps, new.achieved_bw_gbps),
            occupancy_fraction: lerp(self.occupancy_fraction, new.occupancy_fraction),
            l2_hit_rate: lerp(self.l2_hit_rate, new.l2_hit_rate),
        }
    }

    /// Element-wise average of many samples (counter values for a kernel are
    /// replaced by their average across configurations in Section 4.2).
    /// Returns `None` on empty input.
    pub fn average(samples: &[CounterSample]) -> Option<CounterSample> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mut acc = CounterSample::default();
        for s in samples {
            acc.duration += s.duration;
            acc.valu_busy_pct += s.valu_busy_pct;
            acc.valu_utilization_pct += s.valu_utilization_pct;
            acc.mem_unit_busy_pct += s.mem_unit_busy_pct;
            acc.mem_unit_stalled_pct += s.mem_unit_stalled_pct;
            acc.write_unit_stalled_pct += s.write_unit_stalled_pct;
            acc.norm_vgpr += s.norm_vgpr;
            acc.norm_sgpr += s.norm_sgpr;
            acc.ic_activity += s.ic_activity;
            acc.valu_insts += s.valu_insts;
            acc.vfetch_insts += s.vfetch_insts;
            acc.vwrite_insts += s.vwrite_insts;
            acc.dram_bytes += s.dram_bytes;
            acc.achieved_bw_gbps += s.achieved_bw_gbps;
            acc.occupancy_fraction += s.occupancy_fraction;
            acc.l2_hit_rate += s.l2_hit_rate;
        }
        Some(CounterSample {
            duration: acc.duration / n,
            valu_busy_pct: acc.valu_busy_pct / n,
            valu_utilization_pct: acc.valu_utilization_pct / n,
            mem_unit_busy_pct: acc.mem_unit_busy_pct / n,
            mem_unit_stalled_pct: acc.mem_unit_stalled_pct / n,
            write_unit_stalled_pct: acc.write_unit_stalled_pct / n,
            norm_vgpr: acc.norm_vgpr / n,
            norm_sgpr: acc.norm_sgpr / n,
            ic_activity: acc.ic_activity / n,
            valu_insts: (acc.valu_insts as f64 / n) as u64,
            vfetch_insts: (acc.vfetch_insts as f64 / n) as u64,
            vwrite_insts: (acc.vwrite_insts as f64 / n) as u64,
            dram_bytes: acc.dram_bytes / n,
            achieved_bw_gbps: acc.achieved_bw_gbps / n,
            occupancy_fraction: acc.occupancy_fraction / n,
            l2_hit_rate: acc.l2_hit_rate / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSample {
        CounterSample {
            duration: Seconds(0.5),
            valu_busy_pct: 60.0,
            valu_utilization_pct: 80.0,
            mem_unit_busy_pct: 40.0,
            mem_unit_stalled_pct: 10.0,
            write_unit_stalled_pct: 5.0,
            norm_vgpr: 66.0 / 256.0,
            norm_sgpr: 48.0 / 102.0,
            ic_activity: 0.7,
            valu_insts: 1_000_000,
            vfetch_insts: 200_000,
            vwrite_insts: 50_000,
            dram_bytes: 3.0e9,
            achieved_bw_gbps: 6.0,
            occupancy_fraction: 0.3,
            l2_hit_rate: 0.4,
        }
    }

    #[test]
    fn c_to_m_matches_eq3() {
        let s = sample();
        // ratio = (60·80/100)/40 = 1.2 → 100·1.2/2.2 ≈ 54.5.
        assert!((s.c_to_m_intensity() - 100.0 * 1.2 / 2.2).abs() < 1e-9);
        let balanced = CounterSample {
            valu_busy_pct: 60.0,
            valu_utilization_pct: 100.0,
            mem_unit_busy_pct: 60.0,
            ..sample()
        };
        // Balanced kernel reads 50.
        assert!((balanced.c_to_m_intensity() - 50.0).abs() < 1e-9);
        // Ordering: compute-hot > balanced > memory-hot.
        let memory_hot = CounterSample {
            valu_busy_pct: 10.0,
            valu_utilization_pct: 100.0,
            mem_unit_busy_pct: 90.0,
            ..sample()
        };
        assert!(memory_hot.c_to_m_intensity() < 20.0);
    }

    #[test]
    fn c_to_m_pure_compute_when_memory_idle() {
        let s = CounterSample {
            mem_unit_busy_pct: 0.0,
            ..sample()
        };
        assert_eq!(s.c_to_m_intensity(), 100.0);
    }

    #[test]
    fn valu_activity_is_product_of_fractions() {
        let s = sample();
        assert!((s.valu_activity() - 0.48).abs() < 1e-12);
    }

    #[test]
    fn dram_rate_and_zero_duration() {
        let s = sample();
        assert!((s.dram_bytes_per_sec() - 6.0e9).abs() < 1.0);
        let z = CounterSample::default();
        assert_eq!(z.dram_bytes_per_sec(), 0.0);
    }

    #[test]
    fn feature_vectors_have_table3_arity() {
        let s = sample();
        assert_eq!(s.bandwidth_features().len(), 7);
        assert_eq!(s.compute_features().len(), 6);
        // All features are fractions.
        for f in s.bandwidth_features().into_iter().chain(s.compute_features()) {
            assert!((0.0..=1.5).contains(&f), "feature {f} out of range");
        }
    }

    #[test]
    fn average_of_identical_is_identity() {
        let s = sample();
        let avg = CounterSample::average(&[s, s]).unwrap();
        assert!((avg.valu_busy_pct - s.valu_busy_pct).abs() < 1e-12);
        assert_eq!(avg.valu_insts, s.valu_insts);
        assert!((avg.duration.value() - s.duration.value()).abs() < 1e-12);
    }

    #[test]
    fn average_mixes_values() {
        let a = CounterSample {
            valu_busy_pct: 0.0,
            ..sample()
        };
        let b = CounterSample {
            valu_busy_pct: 100.0,
            ..sample()
        };
        let avg = CounterSample::average(&[a, b]).unwrap();
        assert!((avg.valu_busy_pct - 50.0).abs() < 1e-12);
    }

    #[test]
    fn average_empty_is_none() {
        assert!(CounterSample::average(&[]).is_none());
    }

    #[test]
    fn ewma_moves_partway() {
        let a = CounterSample {
            valu_busy_pct: 0.0,
            valu_insts: 0,
            ..sample()
        };
        let b = CounterSample {
            valu_busy_pct: 100.0,
            valu_insts: 1000,
            ..sample()
        };
        let mid = a.ewma_toward(&b, 0.25);
        assert!((mid.valu_busy_pct - 25.0).abs() < 1e-12);
        assert_eq!(mid.valu_insts, 250);
        // alpha=1 jumps to the new sample; alpha=0 stays.
        assert_eq!(a.ewma_toward(&b, 1.0).valu_busy_pct, 100.0);
        assert_eq!(a.ewma_toward(&b, 0.0).valu_busy_pct, 0.0);
        // Out-of-range alpha is clamped.
        assert_eq!(a.ewma_toward(&b, 2.0).valu_busy_pct, 100.0);
    }

    #[test]
    fn achieved_ops_per_byte_large_for_compute_kernels() {
        let s = CounterSample {
            dram_bytes: 1.0,
            ..sample()
        };
        assert!(s.achieved_ops_per_byte() > 1e6);
    }
}
