//! The application abstraction: a named sequence of kernels invoked for a
//! number of outer iterations.
//!
//! "For applications that use iterative convergence algorithms and invoke
//! the entire application with multiple kernels multiple times, Harmonia
//! records the last best hardware configuration for all kernels within that
//! application" (Section 5.1) — so the iteration structure is part of the
//! workload model, not an experiment detail.

use harmonia_sim::KernelProfile;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A GPU application: an ordered set of kernels executed once per outer
/// iteration, for `iterations` iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Application name, e.g. `"Sort"`.
    pub name: String,
    /// Kernels invoked (in order) each iteration.
    pub kernels: Vec<KernelProfile>,
    /// Number of outer iterations the application runs.
    pub iterations: u64,
}

impl Application {
    /// Creates an application.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty or `iterations` is zero — an application
    /// must do some work.
    pub fn new(name: impl Into<String>, kernels: Vec<KernelProfile>, iterations: u64) -> Self {
        let name = name.into();
        assert!(!kernels.is_empty(), "application {name} has no kernels");
        assert!(iterations > 0, "application {name} has zero iterations");
        Self {
            name,
            kernels,
            iterations,
        }
    }

    /// Total kernel invocations over the application's lifetime.
    pub fn total_invocations(&self) -> u64 {
        self.iterations * self.kernels.len() as u64
    }

    /// Looks up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelProfile> {
        self.kernels.iter().find(|k| *k.name == *name)
    }
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} kernels × {} iterations)",
            self.name,
            self.kernels.len(),
            self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &str) -> KernelProfile {
        KernelProfile::builder(name).build()
    }

    #[test]
    fn construction_and_accessors() {
        let app = Application::new("demo", vec![k("demo.a"), k("demo.b")], 4);
        assert_eq!(app.total_invocations(), 8);
        assert!(app.kernel("demo.a").is_some());
        assert!(app.kernel("missing").is_none());
        assert!(app.to_string().contains("2 kernels"));
    }

    #[test]
    #[should_panic(expected = "no kernels")]
    fn empty_kernels_rejected() {
        let _ = Application::new("empty", vec![], 1);
    }

    #[test]
    #[should_panic(expected = "zero iterations")]
    fn zero_iterations_rejected() {
        let _ = Application::new("none", vec![k("none.a")], 0);
    }
}
