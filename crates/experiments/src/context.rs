//! Shared experiment context: models, trained predictor, and the cached
//! evaluation matrix used by Figures 10–13 and 17–18.

use harmonia::dataset::TrainingSet;
use harmonia::governor::{Policy, PolicyResources, PolicySpec};
use harmonia::metrics::RunReport;
use harmonia::predictor::SensitivityPredictor;
use harmonia::runtime::Runtime;
use harmonia::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::PowerModel;
use harmonia_sim::{sweep, IntervalModel};
use harmonia_types::DeviceSpec;
use harmonia_workloads::{suite, Application};
use std::sync::OnceLock;

/// Per-application evaluation under all governors of Section 7.
#[derive(Debug, Clone)]
pub struct AppEval {
    /// The application evaluated.
    pub app: Application,
    /// Stock baseline (always boost).
    pub baseline: RunReport,
    /// Coarse-grain tuning only.
    pub cg: RunReport,
    /// Full Harmonia (CG + FG).
    pub harmonia: RunReport,
    /// The decision-telemetry event stream of the `harmonia` run: its
    /// per-invocation record, since run reports hold aggregates only.
    /// Figures 15, 16 and 18 and the appendix's residency rows read their
    /// series from it.
    pub harmonia_trace: Vec<TraceEvent>,
    /// Exhaustive ED² oracle.
    pub oracle: RunReport,
    /// Compute-DVFS-only ablation.
    pub freq_only: RunReport,
}

/// Lazily constructed shared state for all experiments.
pub struct Context {
    device: DeviceSpec,
    model: IntervalModel,
    power: PowerModel,
    training: OnceLock<TrainingSet>,
    predictor: OnceLock<SensitivityPredictor>,
    matrix: OnceLock<Vec<AppEval>>,
}

impl Context {
    /// Creates the experiment context over the HD7970 models (the paper's
    /// test bed, and the default when no `--device` / `HARMONIA_DEVICE`
    /// selection is made).
    pub fn new() -> Self {
        Self::for_device(DeviceSpec::hd7970())
    }

    /// Creates the experiment context over a catalog device: its timing
    /// model, power calibration, and configuration grid. Every experiment,
    /// trace, and subcommand then runs on that device's lattice.
    /// `for_device(DeviceSpec::hd7970())` is bit-identical to [`Context::new`].
    pub fn for_device(device: DeviceSpec) -> Self {
        Self {
            model: IntervalModel::new(device.gpu),
            power: PowerModel::for_device(&device),
            device,
            training: OnceLock::new(),
            predictor: OnceLock::new(),
            matrix: OnceLock::new(),
        }
    }

    /// The device this context models.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The timing model.
    pub fn model(&self) -> &IntervalModel {
        &self.model
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The training set collected from the simulator (computed once).
    pub fn training(&self) -> &TrainingSet {
        self.training
            .get_or_init(|| TrainingSet::collect(&self.model))
    }

    /// The predictor fitted to this platform (computed once).
    pub fn predictor(&self) -> &SensitivityPredictor {
        self.predictor.get_or_init(|| {
            SensitivityPredictor::fit(self.training())
                .expect("the suite training set is well-conditioned")
        })
    }

    /// The registry resources over this context's models (predictor fitted
    /// on first use).
    pub fn resources(&self) -> PolicyResources<'_> {
        PolicyResources::new(self.predictor(), &self.model, &self.power)
            .with_device(&self.device)
    }

    /// Builds one named policy stack over this context's resources.
    pub fn policy(&self, spec: PolicySpec) -> Policy<'_> {
        spec.build(&self.resources())
    }

    /// Evaluates one application under every governor.
    pub fn evaluate_app(&self, app: &Application) -> AppEval {
        let rt = Runtime::new(&self.model, &self.power);
        let baseline = rt.run(app, &mut self.policy(PolicySpec::Baseline).governor);
        let cg = rt.run(app, &mut self.policy(PolicySpec::Cg).governor);
        // The full-Harmonia run always carries decision telemetry so the
        // residency/convergence figures can read their series from it.
        let telemetry = TraceHandle::new();
        let harmonia = Runtime::new(&self.model, &self.power)
            .with_telemetry(telemetry.clone())
            .run(app, &mut self.policy(PolicySpec::Harmonia).governor);
        let harmonia_trace = telemetry.events();
        let oracle = rt.run(app, &mut self.policy(PolicySpec::Oracle).governor);
        let freq_only = rt.run(app, &mut self.policy(PolicySpec::FreqOnly).governor);
        AppEval {
            app: app.clone(),
            baseline,
            cg,
            harmonia,
            harmonia_trace,
            oracle,
            freq_only,
        }
    }

    /// The full evaluation matrix over the 14-application suite (computed
    /// once, on the shared sweep pool — one job per application, results in
    /// suite order regardless of worker scheduling).
    pub fn matrix(&self) -> &[AppEval] {
        self.matrix.get_or_init(|| {
            // Ensure the shared predictor exists before fanning out.
            let _ = self.predictor();
            let apps = suite::all();
            sweep::run_indexed(apps.len(), |i| self.evaluate_app(&apps[i]))
        })
    }

    /// Geometric mean of per-app improvement *ratios* for a metric, returned
    /// as an improvement fraction (paper: "all averages represent the
    /// geometric mean").
    ///
    /// `exclude_stress` reproduces "Geomean 2" (without MaxFlops and
    /// DeviceMemory).
    pub fn geomean_improvement<F>(&self, metric: F, exclude_stress: bool) -> f64
    where
        F: Fn(&AppEval) -> (f64, f64), // (baseline value, candidate value)
    {
        let ratios: Vec<f64> = self
            .matrix()
            .iter()
            .filter(|e| !(exclude_stress && suite::STRESS_APPS.contains(&e.app.name.as_str())))
            .map(|e| {
                let (base, cand) = metric(e);
                cand / base
            })
            .collect();
        let g = harmonia_stats::geometric_mean(&ratios).unwrap_or(1.0);
        1.0 - g
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}
