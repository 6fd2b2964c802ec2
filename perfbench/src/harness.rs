//! What every workload sets up first, and the interface `main` runs
//! workloads through.

use crate::trace::Tracer;
use crate::wrap::{TimedGovernor, TimedModel};
use harmonia::dataset::TrainingSet;
use harmonia::governor::{BoxGovernor, Policy, PolicyResources, PolicySpec};
use harmonia::predictor::SensitivityPredictor;
use harmonia_power::PowerModel;
use harmonia_sim::{IntervalModel, TimingModel};
use harmonia_types::{DeviceSpec, Session};

/// Executors for parallel work (the calling thread plus pool workers), at
/// most `nproc`. One: with two, the fleet's throughput spread over five
/// runs on a 2-vCPU host was 24%; with one, 6%.
pub const EXECUTORS: usize = 1;

/// The models, the fitted predictor and the session every workload runs
/// on: the HD7970 catalog device, as the paper's test bed.
///
/// Every workload builds the same harness, so set-up time is comparable
/// across workloads and predictor training and fit are measured on all of
/// them. With a recording tracer, the timing model handed to the workspace
/// is wrapped in a [`TimedModel`] and every governor stack in a
/// [`TimedGovernor`]; training reads the bare model.
pub struct Harness {
    /// The span recorder (off in the untraced run).
    pub tracer: Tracer,
    model: IntervalModel,
    timed: Option<TimedModel<IntervalModel>>,
    /// The card power model.
    pub power: PowerModel,
    /// The sensitivity predictor fitted on the suite.
    pub predictor: SensitivityPredictor,
    /// The explicit session every runtime is built from.
    pub session: Session,
}

impl Harness {
    /// Builds the models and trains and fits the predictor.
    pub fn new(tracer: &Tracer, session: Session) -> Self {
        let device = DeviceSpec::hd7970();
        let model = IntervalModel::new(device.gpu);
        let power = PowerModel::for_device(&device);
        let training = tracer.span(tracer.name("core.training"), || {
            TrainingSet::collect(&model)
        });
        let predictor = tracer
            .span(tracer.name("core.fit"), || {
                SensitivityPredictor::fit(&training)
            })
            .expect("the suite training set is well-conditioned");
        let timed = tracer
            .is_on()
            .then(|| TimedModel::new(model.clone(), tracer.clone(), "sim"));
        Self {
            tracer: tracer.clone(),
            model,
            timed,
            power,
            predictor,
            session,
        }
    }

    /// The timing model to hand to runtimes, registries and schedulers.
    pub fn model(&self) -> &dyn TimingModel {
        match &self.timed {
            Some(timed) => timed,
            None => &self.model,
        }
    }

    /// The bare timing model, never traced: for output checks that run
    /// between ops.
    pub fn bare_model(&self) -> &IntervalModel {
        &self.model
    }

    /// `model`, wrapped for tracing under spans named after `layer`.
    pub fn wrap_model<'a, M: TimingModel + 'a>(
        &self,
        model: M,
        layer: &str,
    ) -> Box<dyn TimingModel + 'a> {
        if self.tracer.is_on() {
            Box::new(TimedModel::new(model, self.tracer.clone(), layer))
        } else {
            Box::new(model)
        }
    }

    /// Builds the registry stack `spec` fresh, wrapped for tracing.
    pub fn policy(&self, spec: PolicySpec) -> Policy<'_> {
        let resources = PolicyResources::new(&self.predictor, self.model(), &self.power);
        let policy = self.tracer.span(self.tracer.name("core.policy_build"), || {
            spec.build(&resources)
        });
        if !self.tracer.is_on() {
            return policy;
        }
        let governor: BoxGovernor<'_> = Box::new(TimedGovernor::new(
            policy.governor,
            self.tracer.clone(),
            &stack_slug(&spec.name()),
        ));
        Policy {
            governor,
            stats: policy.stats,
        }
    }
}

/// A registry name as a metric-name fragment (`hardened:ladder` →
/// `hardened-ladder`).
pub fn stack_slug(name: &str) -> String {
    name.replace([':', '@'], "-")
}

/// One benchmark workload, set up and ready to run ops.
pub trait Workload {
    /// Runs one op, keeping what it produced for [`check`](Self::check).
    fn op(&mut self);

    /// Checks the outputs of the last op; an error counts it as failed
    /// and says why.
    fn check(&mut self) -> Result<(), String>;

    /// Simulated geomean ED² of the governed runs over the workload's
    /// reference runs. Deterministic, and independent of the op count.
    fn ed2_ratio(&self) -> f64;

    /// Everything deterministic the workload produced so far (digests,
    /// ratios, cache and plan accounting), to compare runs bit for bit.
    fn fingerprint(&self) -> String;

    /// One line on the op and its inputs, printed with every result.
    fn describe(&self) -> String;

    /// Per-layer measurements that are not span or counter totals,
    /// taken after the traced ops.
    fn extra_metrics(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Checks `current` against the first op's value, keeping it as
/// `reference` on the first call.
pub fn same_as_first<T: Clone + PartialEq>(
    reference: &mut Option<T>,
    current: &T,
    what: &str,
) -> Result<(), String> {
    match reference {
        Some(first) if first != current => Err(format!("{what} differ from the first op's")),
        Some(_) => Ok(()),
        None => {
            *reference = Some(current.clone());
            Ok(())
        }
    }
}
