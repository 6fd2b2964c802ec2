//! Ordinary least squares with intercept.
//!
//! The paper fits linear models from normalized performance-counter vectors
//! to measured sensitivities (Section 4.3) and reports a multiple-correlation
//! coefficient of 0.91 (compute) and 0.96 (bandwidth). [`Ols`] provides the
//! same fit plus the diagnostics needed to report those numbers.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error produced when a regression cannot be fitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegressionError {
    /// Fewer observations than coefficients (including the intercept).
    TooFewObservations {
        /// Number of observations supplied.
        observations: usize,
        /// Number of coefficients to estimate.
        coefficients: usize,
    },
    /// The normal equations are singular (e.g. a constant or duplicated
    /// predictor column).
    SingularDesign,
    /// Observation rows have inconsistent lengths, or `y` length mismatch.
    ShapeMismatch,
}

impl fmt::Display for RegressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressionError::TooFewObservations {
                observations,
                coefficients,
            } => write!(
                f,
                "too few observations ({observations}) for {coefficients} coefficients"
            ),
            RegressionError::SingularDesign => write!(f, "singular design matrix"),
            RegressionError::ShapeMismatch => write!(f, "inconsistent row or target lengths"),
        }
    }
}

impl Error for RegressionError {}

/// A fitted ordinary-least-squares model `y ≈ intercept + Σ βᵢ·xᵢ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ols {
    intercept: f64,
    coefficients: Vec<f64>,
    r_squared: f64,
    residual_std: f64,
}

impl Ols {
    /// Fits a model to observation rows `x` (each row one observation, each
    /// column one predictor) and targets `y`, adding an intercept column.
    ///
    /// # Errors
    ///
    /// * [`RegressionError::ShapeMismatch`] if rows are ragged or `y` does
    ///   not match the number of rows.
    /// * [`RegressionError::TooFewObservations`] if there are fewer rows than
    ///   coefficients.
    /// * [`RegressionError::SingularDesign`] if the normal equations cannot
    ///   be solved (collinear predictors).
    pub fn fit(x: &[Vec<f64>], y: &[f64]) -> Result<Self, RegressionError> {
        if x.is_empty() || y.len() != x.len() {
            return Err(RegressionError::ShapeMismatch);
        }
        let p = x[0].len();
        if x.iter().any(|row| row.len() != p) {
            return Err(RegressionError::ShapeMismatch);
        }
        let coeff_count = p + 1;
        if x.len() < coeff_count {
            return Err(RegressionError::TooFewObservations {
                observations: x.len(),
                coefficients: coeff_count,
            });
        }

        // Design matrix with leading intercept column.
        let rows: Vec<Vec<f64>> = x
            .iter()
            .map(|row| {
                let mut with_intercept = Vec::with_capacity(coeff_count);
                with_intercept.push(1.0);
                with_intercept.extend_from_slice(row);
                with_intercept
            })
            .collect();
        let design = Matrix::from_rows(&rows);
        let gram = design.gram();
        let rhs = design.transpose_mul_vec(y);
        let beta = gram.solve(&rhs).ok_or(RegressionError::SingularDesign)?;

        let fitted = design.mul_vec(&beta);
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let ss_tot: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
        let ss_res: f64 = y
            .iter()
            .zip(&fitted)
            .map(|(obs, fit)| (obs - fit).powi(2))
            .sum();
        let r_squared = if ss_tot > 0.0 {
            (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
        } else {
            1.0 // constant target fitted exactly by the intercept
        };
        let dof = (x.len() - coeff_count).max(1) as f64;
        let residual_std = (ss_res / dof).sqrt();

        Ok(Self {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            r_squared,
            residual_std,
        })
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope coefficients, in predictor order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Coefficient of determination R².
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Multiple correlation coefficient R = √R² — the quantity the paper
    /// reports (0.91 / 0.96).
    pub fn multiple_r(&self) -> f64 {
        self.r_squared.sqrt()
    }

    /// Residual standard deviation (degrees-of-freedom corrected).
    pub fn residual_std(&self) -> f64 {
        self.residual_std
    }

    /// Predicts the target for one observation row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of fitted coefficients.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "predictor count mismatch");
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(b, v)| b * v)
                .sum::<f64>()
    }

    /// Mean absolute prediction error over a labelled set.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ or rows mismatch the model.
    pub fn mean_abs_error(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        if x.is_empty() {
            return 0.0;
        }
        x.iter()
            .zip(y)
            .map(|(row, target)| (self.predict(row) - target).abs())
            .sum::<f64>()
            / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..10).map(|i| 1.5 + 2.0 * f64::from(i)).collect();
        let fit = Ols::fit(&x, &y).unwrap();
        assert!((fit.intercept() - 1.5).abs() < 1e-9);
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-9);
        assert!((fit.r_squared() - 1.0).abs() < 1e-9);
        assert!(fit.residual_std() < 1e-6);
    }

    #[test]
    fn exact_plane_recovered() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                x.push(vec![f64::from(a), f64::from(b)]);
                y.push(-0.42 + 0.003 * f64::from(a) + 1.158 * f64::from(b));
            }
        }
        let fit = Ols::fit(&x, &y).unwrap();
        assert!((fit.intercept() - -0.42).abs() < 1e-9);
        assert!((fit.coefficients()[0] - 0.003).abs() < 1e-9);
        assert!((fit.coefficients()[1] - 1.158).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_has_sensible_r() {
        // Deterministic pseudo-noise.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..50)
            .map(|i| 3.0 * f64::from(i) + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = Ols::fit(&x, &y).unwrap();
        assert!(fit.r_squared() > 0.99);
        assert!(fit.multiple_r() > 0.99);
        assert!(fit.residual_std() > 0.0);
    }

    #[test]
    fn predict_matches_formula() {
        let fit = Ols::fit(&[vec![0.0], vec![1.0], vec![2.0]], &[1.0, 3.0, 5.0]).unwrap();
        assert!((fit.predict(&[10.0]) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn mean_abs_error_zero_on_training_exact_fit() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1.0, 3.0, 5.0];
        let fit = Ols::fit(&x, &y).unwrap();
        assert!(fit.mean_abs_error(&x, &y) < 1e-9);
    }

    #[test]
    fn too_few_observations_rejected() {
        let err = Ols::fit(&[vec![1.0, 2.0]], &[1.0]).unwrap_err();
        assert!(matches!(err, RegressionError::TooFewObservations { .. }));
    }

    #[test]
    fn collinear_design_rejected() {
        // Second column is 2× the first.
        let x = vec![
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![3.0, 6.0],
            vec![4.0, 8.0],
        ];
        let y = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            Ols::fit(&x, &y).unwrap_err(),
            RegressionError::SingularDesign
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert_eq!(
            Ols::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).unwrap_err(),
            RegressionError::ShapeMismatch
        );
        assert_eq!(
            Ols::fit(&[vec![1.0]], &[1.0, 2.0]).unwrap_err(),
            RegressionError::ShapeMismatch
        );
        assert_eq!(
            Ols::fit(&[], &[]).unwrap_err(),
            RegressionError::ShapeMismatch
        );
    }

    #[test]
    fn constant_target_r_squared_is_one() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![4.0, 4.0, 4.0];
        let fit = Ols::fit(&x, &y).unwrap();
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
        assert!(fit.intercept().abs() < 10.0); // well-defined
    }

    #[test]
    fn errors_display() {
        let s = RegressionError::SingularDesign.to_string();
        assert!(s.contains("singular"));
        let s = RegressionError::TooFewObservations {
            observations: 1,
            coefficients: 2,
        }
        .to_string();
        assert!(s.contains("too few"));
    }
}
