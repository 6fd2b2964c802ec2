//! Timing wrappers handed to the workspace in place of its own models and
//! governors in the traced run.
//!
//! Each wrapper forwards **every** trait method, default-bodied ones
//! included: a wrapper that let `simulate_batch` fall back to the trait's
//! scalar loop, or `condition` to the identity, would change what it
//! measures. The tests below prove the forwarding method by method.

use crate::trace::{Name, Tracer};
use harmonia::governor::Governor;
use harmonia::telemetry::TraceHandle;
use harmonia_sim::batch::SweepTerms;
use harmonia_sim::{CounterSample, GpuDescriptor, KernelProfile, SimResult, TimingModel};
use harmonia_types::{HwConfig, Seconds};

/// A [`TimingModel`] that records a span around every simulation call of
/// its inner model. Spans are named `<layer>.simulate`,
/// `<layer>.simulate_batch` and `<layer>.sweep_terms`; batch lanes are
/// counted as `<layer>.simulate_batch.lanes`.
pub struct TimedModel<M> {
    inner: M,
    tracer: Tracer,
    simulate: Name,
    batch: Name,
    lanes: Name,
    terms: Name,
}

impl<M: TimingModel> TimedModel<M> {
    /// Wraps `inner`, naming its spans after `layer`.
    pub fn new(inner: M, tracer: Tracer, layer: &str) -> Self {
        Self {
            simulate: tracer.name(&format!("{layer}.simulate")),
            batch: tracer.name(&format!("{layer}.simulate_batch")),
            lanes: tracer.name(&format!("{layer}.simulate_batch.lanes")),
            terms: tracer.name(&format!("{layer}.sweep_terms")),
            inner,
            tracer,
        }
    }
}

impl<M: TimingModel> TimingModel for TimedModel<M> {
    fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
        self.tracer.span(self.simulate, || {
            self.inner.simulate(cfg, kernel, iteration)
        })
    }

    fn simulate_batch(
        &self,
        cfgs: &[HwConfig],
        kernel: &KernelProfile,
        iteration: u64,
    ) -> Vec<SimResult> {
        self.tracer.count(self.lanes, cfgs.len() as u64);
        self.tracer.span(self.batch, || {
            self.inner.simulate_batch(cfgs, kernel, iteration)
        })
    }

    fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
        self.tracer
            .span(self.terms, || self.inner.sweep_terms(cfgs, kernel))
    }

    fn gpu(&self) -> &GpuDescriptor {
        self.inner.gpu()
    }

    fn phase_determined(&self) -> bool {
        self.inner.phase_determined()
    }

    fn fidelity_key(&self) -> u64 {
        self.inner.fidelity_key()
    }

    fn device_key(&self) -> u64 {
        self.inner.device_key()
    }
}

/// A [`Governor`] that records a span around every `decide`, `condition`
/// and `observe` of its inner stack, named `core.<method>.<stack>`.
pub struct TimedGovernor<G> {
    inner: G,
    tracer: Tracer,
    decide: Name,
    condition: Name,
    observe: Name,
}

impl<G: Governor> TimedGovernor<G> {
    /// Wraps the stack `inner`, naming its spans after `stack` (a metric
    /// name fragment, so without `:`).
    pub fn new(inner: G, tracer: Tracer, stack: &str) -> Self {
        Self {
            decide: tracer.name(&format!("core.decide.{stack}")),
            condition: tracer.name(&format!("core.condition.{stack}")),
            observe: tracer.name(&format!("core.observe.{stack}")),
            inner,
            tracer,
        }
    }
}

impl<G: Governor> Governor for TimedGovernor<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace);
    }

    fn decide(&mut self, kernel: &KernelProfile, iteration: u64) -> HwConfig {
        let inner = &mut self.inner;
        self.tracer
            .span(self.decide, || inner.decide(kernel, iteration))
    }

    fn condition(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
    ) -> (Seconds, CounterSample) {
        let inner = &mut self.inner;
        self.tracer.span(self.condition, || {
            inner.condition(kernel, iteration, cfg, time, counters)
        })
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        let inner = &mut self.inner;
        self.tracer.span(self.observe, || {
            inner.observe(kernel, iteration, cfg, counters)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia::telemetry::TraceEvent;
    use harmonia_sim::IntervalModel;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Mutex;

    /// A model whose every method answers with a value the trait default
    /// would not, and logs that it was called.
    struct ProbeModel {
        inner: IntervalModel,
        calls: Mutex<Vec<&'static str>>,
    }

    impl ProbeModel {
        fn new() -> Self {
            Self {
                inner: IntervalModel::default(),
                calls: Mutex::new(Vec::new()),
            }
        }

        fn log(&self, method: &'static str) {
            self.calls.lock().unwrap().push(method);
        }

        fn calls(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.calls.lock().unwrap())
        }
    }

    impl TimingModel for ProbeModel {
        fn simulate(&self, cfg: HwConfig, kernel: &KernelProfile, iteration: u64) -> SimResult {
            self.log("simulate");
            self.inner.simulate(cfg, kernel, iteration)
        }

        fn simulate_batch(
            &self,
            cfgs: &[HwConfig],
            kernel: &KernelProfile,
            iteration: u64,
        ) -> Vec<SimResult> {
            self.log("simulate_batch");
            self.inner.simulate_batch(cfgs, kernel, iteration)
        }

        fn sweep_terms(&self, cfgs: &[HwConfig], kernel: &KernelProfile) -> Option<SweepTerms> {
            self.log("sweep_terms");
            self.inner.sweep_terms(cfgs, kernel)
        }

        fn gpu(&self) -> &GpuDescriptor {
            self.inner.gpu()
        }

        fn phase_determined(&self) -> bool {
            self.log("phase_determined");
            true
        }

        fn fidelity_key(&self) -> u64 {
            self.log("fidelity_key");
            0xF1DE
        }

        fn device_key(&self) -> u64 {
            self.log("device_key");
            0xDE71CE
        }
    }

    #[test]
    fn the_timed_model_forwards_every_method() {
        for tracer in [Tracer::off(), Tracer::on(16)] {
            let probe = ProbeModel::new();
            let timed = TimedModel::new(&probe, tracer.clone(), "sim");
            let kernel = harmonia_workloads::suite::stencil().kernels[0].clone();
            let cfgs = [HwConfig::max_hd7970(), HwConfig::min_hd7970()];

            let one = timed.simulate(cfgs[0], &kernel, 3);
            assert_eq!(probe.calls(), ["simulate"]);
            assert_eq!(one, probe.inner.simulate(cfgs[0], &kernel, 3));

            let batch = timed.simulate_batch(&cfgs, &kernel, 3);
            assert_eq!(probe.calls(), ["simulate_batch"], "no scalar fallback");
            assert_eq!(batch, probe.inner.simulate_batch(&cfgs, &kernel, 3));

            assert!(timed.sweep_terms(&cfgs, &kernel).is_some());
            assert_eq!(probe.calls(), ["sweep_terms"]);

            assert!(timed.phase_determined());
            assert_eq!(timed.fidelity_key(), 0xF1DE);
            assert_eq!(timed.device_key(), 0xDE71CE);
            assert_eq!(
                probe.calls(),
                ["phase_determined", "fidelity_key", "device_key"]
            );
            assert_eq!(timed.gpu(), probe.inner.gpu());

            if tracer.is_on() {
                let p = tracer.profile(|_| true);
                for span in ["sim.simulate", "sim.simulate_batch", "sim.sweep_terms"] {
                    assert_eq!(p.get(span).calls, 1, "{span}");
                }
                assert_eq!(p.counter("sim.simulate_batch.lanes"), 2);
            }
        }
    }

    /// A governor that logs every call and answers with values the trait
    /// defaults would not.
    struct ProbeGovernor {
        calls: Rc<RefCell<Vec<&'static str>>>,
        trace: Option<TraceHandle>,
    }

    impl Governor for ProbeGovernor {
        fn name(&self) -> &str {
            self.calls.borrow_mut().push("name");
            "probe"
        }

        fn set_trace(&mut self, trace: TraceHandle) {
            self.calls.borrow_mut().push("set_trace");
            self.trace = Some(trace);
        }

        fn decide(&mut self, _kernel: &KernelProfile, _iteration: u64) -> HwConfig {
            self.calls.borrow_mut().push("decide");
            HwConfig::min_hd7970()
        }

        fn condition(
            &mut self,
            _kernel: &KernelProfile,
            _iteration: u64,
            _cfg: HwConfig,
            time: Seconds,
            counters: CounterSample,
        ) -> (Seconds, CounterSample) {
            self.calls.borrow_mut().push("condition");
            (Seconds(time.value() * 2.0), counters)
        }

        fn observe(
            &mut self,
            _kernel: &KernelProfile,
            _iteration: u64,
            _cfg: HwConfig,
            _counters: &CounterSample,
        ) {
            self.calls.borrow_mut().push("observe");
        }
    }

    #[test]
    fn the_timed_governor_forwards_every_method() {
        let tracer = Tracer::on(16);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let probe = ProbeGovernor {
            calls: Rc::clone(&calls),
            trace: None,
        };
        let mut timed = TimedGovernor::new(probe, tracer.clone(), "probe");
        let kernel = harmonia_workloads::suite::stencil().kernels[0].clone();
        let handle = TraceHandle::new();

        assert_eq!(timed.name(), "probe");
        timed.set_trace(handle.clone());
        assert_eq!(timed.decide(&kernel, 0), HwConfig::min_hd7970());
        let (time, _) = timed.condition(
            &kernel,
            0,
            HwConfig::min_hd7970(),
            Seconds(1.5),
            CounterSample::default(),
        );
        assert_eq!(
            time,
            Seconds(3.0),
            "condition must not fall back to the identity"
        );
        timed.observe(
            &kernel,
            0,
            HwConfig::min_hd7970(),
            &CounterSample::default(),
        );
        assert_eq!(
            *calls.borrow(),
            ["name", "set_trace", "decide", "condition", "observe"]
        );

        // The handle the inner governor got is the one the runtime passed.
        timed
            .inner
            .trace
            .as_ref()
            .unwrap()
            .emit(|| TraceEvent::RunStart {
                app: "a".into(),
                governor: "probe".into(),
            });
        assert_eq!(handle.events().len(), 1);

        let p = tracer.profile(|_| true);
        for span in [
            "core.decide.probe",
            "core.condition.probe",
            "core.observe.probe",
        ] {
            assert_eq!(p.get(span).calls, 1, "{span}");
        }
    }
}
