//! Training-data collection (Sections 4.1–4.2).
//!
//! For every kernel of the suite, the pipeline:
//!
//! 1. executes the kernel across the full ~450-point configuration space and
//!    records the performance counters at each point,
//! 2. replaces each counter by its average across configurations ("for the
//!    same kernel ... across multiple hardware configurations, there are
//!    generally only small variations around the nominal values"),
//! 3. labels the averaged counter vector with the kernel's *measured*
//!    compute and bandwidth sensitivities.
//!
//! Collection runs on the shared sweep engine ([`harmonia_sim::sweep`]):
//! the `kernel × configuration` grid is evaluated on the bounded worker
//! pool through a sharded memoization cache, and the sensitivity probes are
//! then served from the same cache (their probe points are all grid
//! points). Results are assembled in index order, so the parallel path is
//! byte-identical to the serial reference ([`TrainingSet::collect_serial`]).

use crate::sensitivity::Sensitivity;
use harmonia_sim::{sweep, CachedModel, CounterSample, KernelProfile, SimCache, TimingModel};
use harmonia_types::ConfigSpace;
use harmonia_workloads::suite;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a training set (or an operation on one) was rejected.
///
/// Collection from the in-process simulator always yields well-formed rows,
/// but sets also arrive from JSON files and from fault-injected pipelines —
/// malformed rows must surface as errors, not panics, before they poison a
/// regression.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetError {
    /// The set contains no rows at all.
    Empty,
    /// `split_every(k)` was called with a period that cannot partition
    /// (`k < 2` would place every row in the test split).
    SplitPeriod {
        /// The rejected period.
        k: usize,
    },
    /// A row carries a non-finite or out-of-domain value in the named
    /// field.
    BadValue {
        /// Kernel name of the offending row.
        kernel: String,
        /// Which counter or label field failed validation.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "training set has no rows"),
            DatasetError::SplitPeriod { k } => {
                write!(f, "split period must be at least 2, got {k}")
            }
            DatasetError::BadValue {
                kernel,
                field,
                value,
            } => write!(f, "kernel {kernel:?}: field {field} has invalid value {value}"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Invocations averaged per configuration during collection, so
/// phase-modulated kernels contribute their nominal behaviour.
pub const AVERAGED_ITERATIONS: u64 = 4;

/// One training observation: a kernel's averaged counters and its measured
/// sensitivities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingRow {
    /// Kernel name.
    pub kernel: String,
    /// Counters averaged across the configuration space.
    pub counters: CounterSample,
    /// Measured sensitivities (the regression target).
    pub measured: Sensitivity,
}

impl TrainingRow {
    /// Validates the row: every float feature and label must be finite and
    /// the sample must cover a positive duration.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BadValue`] naming the first offending field.
    pub fn validate(&self) -> Result<(), DatasetError> {
        let c = &self.counters;
        let bad = |field: &'static str, value: f64| DatasetError::BadValue {
            kernel: self.kernel.clone(),
            field,
            value,
        };
        let finite: [(&'static str, f64); 12] = [
            ("VALUBusy", c.valu_busy_pct),
            ("VALUUtilization", c.valu_utilization_pct),
            ("MemUnitBusy", c.mem_unit_busy_pct),
            ("MemUnitStalled", c.mem_unit_stalled_pct),
            ("WriteUnitStalled", c.write_unit_stalled_pct),
            ("NormVGPR", c.norm_vgpr),
            ("NormSGPR", c.norm_sgpr),
            ("icActivity", c.ic_activity),
            ("dram_bytes", c.dram_bytes),
            ("achieved_bw_gbps", c.achieved_bw_gbps),
            ("occupancy_fraction", c.occupancy_fraction),
            ("l2_hit_rate", c.l2_hit_rate),
        ];
        for (field, value) in finite {
            if !value.is_finite() {
                return Err(bad(field, value));
            }
        }
        if !(c.duration.value().is_finite() && c.duration.value() > 0.0) {
            return Err(bad("duration", c.duration.value()));
        }
        let labels = [
            ("measured.cu", self.measured.cu),
            ("measured.freq", self.measured.freq),
            ("measured.bandwidth", self.measured.bandwidth),
        ];
        for (field, value) in labels {
            if !value.is_finite() {
                return Err(bad(field, value));
            }
        }
        Ok(())
    }
}

/// A labelled training set over the workload suite.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingSet {
    /// One row per kernel.
    pub rows: Vec<TrainingRow>,
}

impl TrainingSet {
    /// Collects the training set for the paper's 14-application suite.
    pub fn collect<M: TimingModel>(model: &M) -> TrainingSet {
        Self::collect_for(model, &suite::training_kernels())
    }

    /// Collects a training set for arbitrary kernels on the shared sweep
    /// engine: one pool job per kernel, each sweeping the full grid with a
    /// single batched call per averaged invocation through the memoization
    /// cache. Row order, counter-sample order, and therefore every float
    /// sum match [`TrainingSet::collect_serial`] exactly.
    pub fn collect_for<M: TimingModel>(
        model: &M,
        kernels: &[(String, KernelProfile)],
    ) -> TrainingSet {
        // The swept lattice and the sensitivity probe points both come from
        // the model's device grid, so catalog devices train on their own
        // configuration spaces (HD7970 models reproduce the legacy
        // collection bit for bit).
        let grid = model.gpu().grid;
        let configs: Vec<_> = ConfigSpace::for_grid(&grid).iter().collect();
        let cache = SimCache::new();
        let cached = CachedModel::new(model, &cache);
        // Each job sweeps iteration-major (one cache-warm batch per
        // invocation), then reassembles configuration-major /
        // iteration-minor so the flattened sequence reproduces the serial
        // sample order byte for byte.
        let samples: Vec<Vec<CounterSample>> = sweep::run_indexed(kernels.len(), |k| {
            let kernel = &kernels[k].1;
            let per_iter: Vec<Vec<CounterSample>> = (0..AVERAGED_ITERATIONS)
                .map(|i| {
                    cached
                        .simulate_batch(&configs, kernel, i)
                        .into_iter()
                        .map(|r| r.counters)
                        .collect()
                })
                .collect();
            (0..configs.len())
                .flat_map(|c| per_iter.iter().map(move |it| it[c]))
                .collect()
        });
        let rows = kernels
            .iter()
            .zip(&samples)
            .map(|((_, kernel), flat)| {
                let counters = CounterSample::average(flat).expect("config space is non-empty");
                TrainingRow {
                    kernel: kernel.name.to_string(),
                    counters,
                    // Every probe point is a grid point already swept above,
                    // so the measurement is pure cache hits.
                    measured: Sensitivity::measure_cached_on(&grid, model, &cache, kernel),
                }
            })
            .collect();
        TrainingSet { rows }
    }

    /// The serial reference implementation of [`TrainingSet::collect_for`]:
    /// a plain nested loop with no pool and no cache, kept as the ground
    /// truth the parallel path is tested against.
    pub fn collect_serial<M: TimingModel>(
        model: &M,
        kernels: &[(String, KernelProfile)],
    ) -> TrainingSet {
        let grid = model.gpu().grid;
        let space = ConfigSpace::for_grid(&grid);
        let rows = kernels
            .iter()
            .map(|(_, kernel)| {
                // Average over configurations *and* the first few
                // invocations so phase-modulated kernels contribute their
                // nominal behaviour.
                let samples: Vec<CounterSample> = space
                    .iter()
                    .flat_map(|cfg| (0..AVERAGED_ITERATIONS).map(move |i| (cfg, i)))
                    .map(|(cfg, i)| model.simulate(cfg, kernel, i).counters)
                    .collect();
                let counters =
                    CounterSample::average(&samples).expect("config space is non-empty");
                TrainingRow {
                    kernel: kernel.name.to_string(),
                    counters,
                    measured: Sensitivity::measure_on(&grid, model, kernel),
                }
            })
            .collect();
        TrainingSet { rows }
    }

    /// Number of model invocations the serial reference pipeline issues for
    /// this set: per kernel, the full configuration space times the
    /// averaged invocations, plus the sensitivity probes. The paper's
    /// "11250 vectors" (25 kernels × 450 configs) becomes ~27 kernels ×
    /// (448 configs × 4 iterations + 24 probe simulations) here — the
    /// memoizing parallel path answers most of these from cache.
    pub fn simulated_points(&self) -> usize {
        let per_kernel = ConfigSpace::hd7970().len() * AVERAGED_ITERATIONS as usize
            + Sensitivity::SIMULATIONS_PER_MEASURE;
        self.rows.len() * per_kernel
    }

    /// Validates every row of the set.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Empty`] for a rowless set, or the first
    /// per-row [`DatasetError::BadValue`] in row order.
    pub fn validate(&self) -> Result<(), DatasetError> {
        if self.rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        for row in &self.rows {
            row.validate()?;
        }
        Ok(())
    }

    /// Splits into (train, test) by taking every `k`-th row as test — used
    /// for the leave-out error evaluation reported in `EXPERIMENTS.md`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::SplitPeriod`] if `k < 2` (every row would
    /// land in the test split).
    pub fn split_every(&self, k: usize) -> Result<(TrainingSet, TrainingSet), DatasetError> {
        if k < 2 {
            return Err(DatasetError::SplitPeriod { k });
        }
        let mut train = TrainingSet::default();
        let mut test = TrainingSet::default();
        for (i, row) in self.rows.iter().enumerate() {
            if i % k == 0 {
                test.rows.push(row.clone());
            } else {
                train.rows.push(row.clone());
            }
        }
        Ok((train, test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::IntervalModel;

    #[test]
    fn collect_covers_all_suite_kernels() {
        let model = IntervalModel::default();
        let data = TrainingSet::collect(&model);
        assert!(data.rows.len() >= 25);
        assert_eq!(
            data.simulated_points(),
            data.rows.len() * (448 * 4 + 24),
            "simulated_points must count the averaged iterations and probes"
        );
        for row in &data.rows {
            assert!(row.counters.duration.value() > 0.0);
            assert!(row.measured.compute().is_finite());
            assert!(row.measured.bandwidth.is_finite());
        }
    }

    #[test]
    fn parallel_collection_matches_serial_reference() {
        let model = IntervalModel::default();
        let kernels: Vec<_> = suite::training_kernels().into_iter().take(3).collect();
        let parallel = TrainingSet::collect_for(&model, &kernels);
        let serial = TrainingSet::collect_serial(&model, &kernels);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn labels_match_direct_measurement() {
        let model = IntervalModel::default();
        let kernels = vec![(
            "MaxFlops".to_string(),
            suite::maxflops().kernels[0].clone(),
        )];
        let data = TrainingSet::collect_for(&model, &kernels);
        let direct = Sensitivity::measure(&model, &kernels[0].1);
        assert_eq!(data.rows[0].measured, direct);
    }

    #[test]
    fn split_partitions_rows() {
        let model = IntervalModel::default();
        let data = TrainingSet::collect(&model);
        let (train, test) = data.split_every(5).expect("valid period");
        assert_eq!(train.rows.len() + test.rows.len(), data.rows.len());
        assert!(!test.rows.is_empty());
        assert!(train.rows.len() > test.rows.len());
    }

    #[test]
    fn split_rejects_small_k() {
        assert_eq!(
            TrainingSet::default().split_every(1),
            Err(DatasetError::SplitPeriod { k: 1 })
        );
    }

    #[test]
    fn collected_set_validates_clean() {
        let model = IntervalModel::default();
        let kernels: Vec<_> = suite::training_kernels().into_iter().take(3).collect();
        let data = TrainingSet::collect_for(&model, &kernels);
        assert_eq!(data.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_malformed_rows() {
        assert_eq!(TrainingSet::default().validate(), Err(DatasetError::Empty));

        let model = IntervalModel::default();
        let kernels = vec![(
            "MaxFlops".to_string(),
            suite::maxflops().kernels[0].clone(),
        )];
        let mut data = TrainingSet::collect_for(&model, &kernels);

        let mut poisoned = data.clone();
        poisoned.rows[0].counters.ic_activity = f64::NAN;
        let err = poisoned.validate().expect_err("NaN feature must fail");
        assert!(
            matches!(&err, DatasetError::BadValue { field, .. } if *field == "icActivity"),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("icActivity"));

        data.rows[0].measured.bandwidth = f64::INFINITY;
        let err = data.validate().expect_err("non-finite label must fail");
        assert!(matches!(
            err,
            DatasetError::BadValue {
                field: "measured.bandwidth",
                ..
            }
        ));
    }
}
