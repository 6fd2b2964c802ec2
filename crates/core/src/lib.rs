//! **Harmonia** — coordinated two-level compute/memory power management for
//! high-performance GPUs (Paul, Huang, Arora, Yalamanchili; ISCA 2015).
//!
//! The paper's thesis: match the *relative* power spent on GPU cores versus
//! the memory system to the application's time-varying ops/byte demand, by
//! coordinating three hardware tunables — active CU count, CU frequency, and
//! memory bus frequency. Harmonia does this in two levels:
//!
//! 1. **Coarse-grain (CG)** — linear-regression predictors estimate each
//!    kernel's sensitivity to compute throughput and memory bandwidth from
//!    performance counters (Tables 2–3); sensitivities are binned
//!    HIGH/MED/LOW and the tunables jump to proportional values.
//! 2. **Fine-grain (FG)** — a feedback loop nudges each tunable one step at
//!    a time, watching the `VALUBusy` gradient as a performance proxy,
//!    reverting the responsible tunable when performance degrades and
//!    freezing after too much dithering (Algorithm 1).
//!
//! This crate provides:
//!
//! * [`sensitivity`] — measured sensitivity definitions (Section 4.1),
//! * [`dataset`] — the counter-collection pipeline (Section 4.2),
//! * [`predictor`] — trainable linear sensitivity models plus the paper's
//!   published Table 3 coefficients,
//! * [`binning`] — the <30% / 30–70% / >70% bins,
//! * [`governor`] — [`BaselineGovernor`] (stock PowerTune behaviour),
//!   [`HarmoniaGovernor`] (CG+FG, CG-only, or restricted-tunable ablations),
//!   and [`OracleGovernor`] (exhaustive per-kernel ED² search),
//! * [`runtime`] — the monitoring/decision loop executing applications on a
//!   timing model and power model; its [`RunReport`] is aggregate-only,
//! * [`metrics`] — energy, ED, ED², improvement, and residency reporting,
//! * [`telemetry`] — the zero-cost-when-disabled decision trace, where
//!   per-invocation records live: typed events for every kernel boundary
//!   and CG/FG decision, JSONL export, summaries (residency included),
//!   replay checks.
//!
//! # Examples
//!
//! ```
//! use harmonia::governor::{BaselineGovernor, HarmoniaGovernor};
//! use harmonia::predictor::SensitivityPredictor;
//! use harmonia::runtime::Runtime;
//! use harmonia_power::PowerModel;
//! use harmonia_sim::IntervalModel;
//! use harmonia_workloads::suite;
//!
//! let model = IntervalModel::default();
//! let power = PowerModel::hd7970();
//! let runtime = Runtime::new(&model, &power);
//! let app = suite::maxflops();
//!
//! let baseline = runtime.run(&app, &mut BaselineGovernor::new());
//! let mut hm = HarmoniaGovernor::new(SensitivityPredictor::paper_table3());
//! let harmonia = runtime.run(&app, &mut hm);
//!
//! // Harmonia saves energy-delay² relative to the always-boost baseline.
//! // (The evaluation pipeline retrains the predictor on the simulator; the
//! // published Table 3 coefficients shown here already help on the
//! // compute-bound stress benchmark.)
//! assert!(harmonia.ed2() <= baseline.ed2() * 1.02);
//! ```

pub mod binning;
pub mod dataset;
pub mod governor;
pub mod metrics;
pub mod predictor;
pub mod runtime;
pub mod sanitize;
pub mod sensitivity;
pub mod telemetry;

pub use binning::SensitivityBin;
pub use dataset::DatasetError;
pub use governor::{BaselineGovernor, Governor, HarmoniaGovernor, OracleGovernor};
pub use metrics::{KernelReport, Residency, RunReport};
pub use predictor::{FitError, SensitivityPredictor};
pub use runtime::{RetryPolicy, Runtime};
pub use sanitize::CounterSanitizer;
pub use sensitivity::Sensitivity;
pub use telemetry::{TraceEvent, TraceHandle, TraceSummary};
