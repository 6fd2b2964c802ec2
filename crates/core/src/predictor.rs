//! Linear sensitivity predictors (Section 4.3, Tables 2–3).
//!
//! Two linear models map performance-counter features to sensitivities:
//!
//! * **bandwidth sensitivity** from VALUUtilization, WriteUnitStalled,
//!   MemUnitBusy, MemUnitStalled, icActivity, NormVGPR, NormSGPR;
//! * **compute sensitivity** from C-to-M intensity, NormVGPR, NormSGPR.
//!
//! [`SensitivityPredictor::paper_table3`] carries the paper's published
//! coefficients; [`SensitivityPredictor::fit`] retrains both models on a
//! [`TrainingSet`] collected from this
//! workspace's simulator (the coefficients differ from Table 3 because the
//! platform is a model, not the authors' silicon — `EXPERIMENTS.md` reports
//! both).

use crate::dataset::{DatasetError, TrainingSet};
use crate::sensitivity::Sensitivity;
use harmonia_sim::CounterSample;
use harmonia_stats::regression::{Ols, RegressionError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why training a [`SensitivityPredictor`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// The training set itself is malformed (empty, or a row carries
    /// non-finite values) — rejected before any regression runs.
    Dataset(DatasetError),
    /// The design matrix is degenerate (too few kernels, collinear
    /// counters).
    Regression(RegressionError),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Dataset(e) => write!(f, "invalid training set: {e}"),
            FitError::Regression(e) => write!(f, "regression failed: {e}"),
        }
    }
}

impl std::error::Error for FitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FitError::Dataset(e) => Some(e),
            FitError::Regression(e) => Some(e),
        }
    }
}

impl From<DatasetError> for FitError {
    fn from(e: DatasetError) -> Self {
        FitError::Dataset(e)
    }
}

impl From<RegressionError> for FitError {
    fn from(e: RegressionError) -> Self {
        FitError::Regression(e)
    }
}

/// Names of the bandwidth-model features, in feature-vector order.
pub const BANDWIDTH_FEATURES: [&str; 7] = [
    "VALUUtilization",
    "WriteUnitStalled",
    "MemUnitBusy",
    "MemUnitStalled",
    "icActivity",
    "NormVGPR",
    "NormSGPR",
];

/// Names of the compute-model features, in feature-vector order. VALUBusy
/// supplements the published Table 3 set (it carries zero weight in the
/// published-coefficient model — see
/// [`CounterSample::compute_features`](harmonia_sim::CounterSample::compute_features)).
pub const COMPUTE_FEATURES: [&str; 6] = [
    "C-to-M Intensity",
    "NormVGPR",
    "NormSGPR",
    "VALUBusy",
    "icActivity",
    "MemUnitBusy",
];

/// A single linear model: intercept plus one coefficient per feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Model intercept.
    pub intercept: f64,
    /// Slope coefficients in feature order.
    pub coefficients: Vec<f64>,
    /// Multiple correlation coefficient of the fit (1.0 for hand-specified
    /// models).
    pub multiple_r: f64,
}

impl LinearModel {
    /// Evaluates the model on a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the coefficient count.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature arity mismatch"
        );
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(features)
                .map(|(c, f)| c * f)
                .sum::<f64>()
    }
}

impl From<&Ols> for LinearModel {
    fn from(fit: &Ols) -> Self {
        Self {
            intercept: fit.intercept(),
            coefficients: fit.coefficients().to_vec(),
            multiple_r: fit.multiple_r(),
        }
    }
}

/// The paper's published compute-sensitivity model (Table 3). The paper
/// publishes a single aggregated compute model; it serves as the published
/// prior for both the CU-count and CU-frequency models here.
fn paper_compute_model() -> LinearModel {
    LinearModel {
        intercept: 0.06,
        coefficients: vec![
            0.007 * 100.0, // C-to-M intensity (per unit of 0..100)
            0.452,         // NormVGPR
            0.024,         // NormSGPR
            0.0,           // VALUBusy (not in Table 3)
            0.0,           // icActivity (not in Table 3's compute model)
            0.0,           // MemUnitBusy (not in Table 3's compute model)
        ],
        multiple_r: 0.91,
    }
}

/// The linear sensitivity models Harmonia's CG step evaluates at every
/// kernel boundary — one per tunable ("Sensitivity is computed for each
/// tunable using weighted linear equation per Table 3", Section 5.2). The
/// CU-count and CU-frequency models share the compute feature set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPredictor {
    /// Memory-bandwidth sensitivity model (7 features).
    pub bandwidth: LinearModel,
    /// CU-count sensitivity model (compute features).
    pub cu: LinearModel,
    /// CU-frequency sensitivity model (compute features).
    pub freq: LinearModel,
}

impl SensitivityPredictor {
    /// The paper's published Table 3 coefficients.
    ///
    /// Percent-valued counters enter our feature vectors as 0–1 fractions
    /// (the paper feeds 0–100 percentages), so the published per-percent
    /// coefficients are scaled by 100 where applicable; fraction-valued
    /// features (icActivity, NormVGPR, NormSGPR) keep their published
    /// values.
    pub fn paper_table3() -> Self {
        Self {
            bandwidth: LinearModel {
                intercept: -0.42,
                coefficients: vec![
                    0.003 * 100.0,  // VALUUtilization (per percent)
                    0.011 * 100.0,  // WriteUnitStalled
                    0.01 * 100.0,   // MemUnitBusy
                    -0.004 * 100.0, // MemUnitStalled
                    1.003,          // icActivity
                    1.158,          // NormVGPR
                    -0.731,         // NormSGPR
                ],
                multiple_r: 0.96,
            },
            cu: paper_compute_model(),
            freq: paper_compute_model(),
        }
    }

    /// Trains both models on a collected [`TrainingSet`]. The set is
    /// validated first: malformed rows (non-finite counters or labels, as
    /// fault-injected pipelines can produce) are rejected up front instead
    /// of silently corrupting the regression.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::Dataset`] for an empty or malformed set, or
    /// [`FitError::Regression`] when the design matrix is degenerate (too
    /// few kernels, collinear counters).
    pub fn fit(data: &TrainingSet) -> Result<Self, FitError> {
        data.validate()?;
        let bw_x: Vec<Vec<f64>> = data
            .rows
            .iter()
            .map(|r| r.counters.bandwidth_features().to_vec())
            .collect();
        let bw_y: Vec<f64> = data.rows.iter().map(|r| r.measured.bandwidth).collect();
        let bw_fit = Ols::fit(&bw_x, &bw_y)?;

        let c_x: Vec<Vec<f64>> = data
            .rows
            .iter()
            .map(|r| r.counters.compute_features().to_vec())
            .collect();
        let cu_y: Vec<f64> = data.rows.iter().map(|r| r.measured.cu).collect();
        let cu_fit = Ols::fit(&c_x, &cu_y)?;
        let freq_y: Vec<f64> = data.rows.iter().map(|r| r.measured.freq).collect();
        let freq_fit = Ols::fit(&c_x, &freq_y)?;

        Ok(Self {
            bandwidth: LinearModel::from(&bw_fit),
            cu: LinearModel::from(&cu_fit),
            freq: LinearModel::from(&freq_fit),
        })
    }

    /// Predicts all sensitivities from one counter sample.
    pub fn predict(&self, counters: &CounterSample) -> Sensitivity {
        let compute_features = counters.compute_features();
        Sensitivity {
            cu: self.cu.predict(&compute_features),
            freq: self.freq.predict(&compute_features),
            bandwidth: self.bandwidth.predict(&counters.bandwidth_features()),
        }
    }

    /// Serializes the trained predictor to pretty JSON — the deployment
    /// artifact a runtime system would ship alongside its firmware.
    ///
    /// # Errors
    ///
    /// Serialization of this plain-data type cannot fail in practice; the
    /// error type is `serde_json`'s for API completeness.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Loads a predictor previously saved with
    /// [`to_json`](SensitivityPredictor::to_json).
    ///
    /// # Errors
    ///
    /// Returns `serde_json`'s error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Mean absolute prediction error (in sensitivity points, 0–1 scale)
    /// over a labelled set — the quantity Section 7.2 reports as 3.03% /
    /// 5.71%.
    pub fn mean_abs_error(&self, data: &TrainingSet) -> Sensitivity {
        if data.rows.is_empty() {
            return Sensitivity::default();
        }
        let n = data.rows.len() as f64;
        let mut cu = 0.0;
        let mut freq = 0.0;
        let mut bandwidth = 0.0;
        for row in &data.rows {
            let p = self.predict(&row.counters);
            cu += (p.cu - row.measured.cu).abs();
            freq += (p.freq - row.measured.freq).abs();
            bandwidth += (p.bandwidth - row.measured.bandwidth).abs();
        }
        Sensitivity {
            cu: cu / n,
            freq: freq / n,
            bandwidth: bandwidth / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use harmonia_sim::IntervalModel;

    #[test]
    fn paper_coefficients_have_expected_arity() {
        let p = SensitivityPredictor::paper_table3();
        assert_eq!(p.bandwidth.coefficients.len(), BANDWIDTH_FEATURES.len());
        assert_eq!(p.cu.coefficients.len(), COMPUTE_FEATURES.len());
        assert_eq!(p.freq.coefficients.len(), COMPUTE_FEATURES.len());
        assert!((p.bandwidth.multiple_r - 0.96).abs() < 1e-12);
        assert!((p.cu.multiple_r - 0.91).abs() < 1e-12);
    }

    #[test]
    fn paper_model_separates_extremes() {
        // A memory-hot sample must predict higher bandwidth sensitivity than
        // a compute-hot sample under the published coefficients.
        let memory_hot = CounterSample {
            valu_busy_pct: 20.0,
            valu_utilization_pct: 95.0,
            mem_unit_busy_pct: 90.0,
            mem_unit_stalled_pct: 40.0,
            write_unit_stalled_pct: 10.0,
            ic_activity: 0.9,
            norm_vgpr: 0.1,
            norm_sgpr: 0.2,
            ..CounterSample::default()
        };
        let compute_hot = CounterSample {
            valu_busy_pct: 95.0,
            valu_utilization_pct: 100.0,
            mem_unit_busy_pct: 5.0,
            ic_activity: 0.02,
            norm_vgpr: 0.1,
            norm_sgpr: 0.2,
            ..CounterSample::default()
        };
        let p = SensitivityPredictor::paper_table3();
        let m = p.predict(&memory_hot);
        let c = p.predict(&compute_hot);
        assert!(m.bandwidth > c.bandwidth);
        assert!(c.compute() > m.compute());
    }

    #[test]
    fn fit_on_simulated_suite_correlates_strongly() {
        let model = IntervalModel::default();
        let data = TrainingSet::collect(&model);
        let fitted = SensitivityPredictor::fit(&data).expect("fit");
        assert!(
            fitted.bandwidth.multiple_r > 0.75,
            "bandwidth R {}",
            fitted.bandwidth.multiple_r
        );
        assert!(
            fitted.freq.multiple_r > 0.6,
            "freq R {}",
            fitted.freq.multiple_r
        );
        assert!(fitted.cu.multiple_r > 0.5, "cu R {}", fitted.cu.multiple_r);
        // Errors should be small on the training set itself.
        let err = fitted.mean_abs_error(&data);
        assert!(err.bandwidth < 0.15, "bandwidth MAE {}", err.bandwidth);
        assert!(err.freq < 0.2, "freq MAE {}", err.freq);
        assert!(err.cu < 0.25, "cu MAE {}", err.cu);
    }

    #[test]
    #[should_panic(expected = "feature arity")]
    fn arity_mismatch_panics() {
        let p = SensitivityPredictor::paper_table3();
        let _ = p.cu.predict(&[1.0]);
    }

    #[test]
    fn json_round_trip_preserves_the_model() {
        let p = SensitivityPredictor::paper_table3();
        let json = p.to_json().expect("serialize");
        let back = SensitivityPredictor::from_json(&json).expect("deserialize");
        // Compare with a tolerance: JSON text round-trips floats to ~1 ulp.
        for (a, b) in [(&back.bandwidth, &p.bandwidth), (&back.cu, &p.cu), (&back.freq, &p.freq)]
        {
            assert!((a.intercept - b.intercept).abs() < 1e-12);
            for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
                assert!((x - y).abs() < 1e-12);
            }
        }
        assert!(SensitivityPredictor::from_json("not json").is_err());
    }

    #[test]
    fn fit_rejects_malformed_sets_before_regressing() {
        let empty = TrainingSet { rows: vec![] };
        assert!(matches!(
            SensitivityPredictor::fit(&empty),
            Err(FitError::Dataset(crate::dataset::DatasetError::Empty))
        ));

        let model = IntervalModel::default();
        let mut data = TrainingSet::collect(&model);
        data.rows[0].counters.norm_vgpr = f64::NAN;
        let err = SensitivityPredictor::fit(&data).expect_err("NaN row must be rejected");
        assert!(
            matches!(&err, FitError::Dataset(_)),
            "expected a dataset error, got {err}"
        );
    }

    #[test]
    fn empty_set_error_is_zero() {
        let p = SensitivityPredictor::paper_table3();
        let e = p.mean_abs_error(&TrainingSet { rows: vec![] });
        assert_eq!(e.cu, 0.0);
        assert_eq!(e.freq, 0.0);
        assert_eq!(e.bandwidth, 0.0);
    }
}
