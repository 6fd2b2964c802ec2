//! Device identity: every simulating model reports its descriptor's
//! fingerprint as [`TimingModel::device_key`] — computed once, at
//! construction — and every wrapper reports its inner model's key, on every
//! catalog device. Sweep caches and fleet plans key on this value, so a
//! model that reported anything else would alias (or split) cache entries
//! across devices.

use harmonia_rr::{ReplayModel, Replayer};
use harmonia_sim::{
    CachedModel, EventModel, FaultKind, FaultPlan, FaultSpec, FaultyModel, GpuDescriptor,
    IntervalModel, NoisyModel, SimCache, TimingModel, TraceModel,
};
use harmonia_types::DeviceSpec;

fn catalog() -> Vec<DeviceSpec> {
    DeviceSpec::catalog()
        .iter()
        .map(|name| DeviceSpec::lookup(name).expect("catalog name resolves"))
        .collect()
}

/// The three simulating models of `gpu`, by name.
fn simulators(gpu: GpuDescriptor) -> [(&'static str, Box<dyn TimingModel>); 3] {
    [
        ("interval", Box::new(IntervalModel::new(gpu))),
        ("event", Box::new(EventModel::new(gpu))),
        ("trace", Box::new(TraceModel::new(gpu))),
    ]
}

/// Calls `device_key` through the blanket `impl TimingModel for &T`.
fn key_through_ref<M: TimingModel + ?Sized>(model: &M) -> u64 {
    model.device_key()
}

#[test]
fn simulating_models_report_their_descriptor_fingerprint() {
    for device in catalog() {
        let fingerprint = device.gpu.fingerprint();
        assert_eq!(device.fingerprint(), fingerprint, "{}", device.name);
        for (model, sim) in simulators(device.gpu) {
            assert_eq!(
                sim.device_key(),
                fingerprint,
                "{model} model on {}",
                device.name
            );
        }
    }
}

#[test]
fn device_keys_are_pairwise_distinct_across_the_catalog() {
    let devices = catalog();
    for (i, a) in devices.iter().enumerate() {
        for b in &devices[i + 1..] {
            for ((model, sa), (_, sb)) in simulators(a.gpu).into_iter().zip(simulators(b.gpu)) {
                assert_ne!(
                    sa.device_key(),
                    sb.device_key(),
                    "{model} model: {} and {} share a device key",
                    a.name,
                    b.name
                );
            }
        }
    }
}

#[test]
fn wrappers_report_their_inner_models_key() {
    for device in catalog() {
        let inner = IntervalModel::new(device.gpu);
        let key = inner.device_key();
        let name = &device.name;

        let cache = SimCache::new();
        assert_eq!(
            CachedModel::new(&inner, &cache).device_key(),
            key,
            "cached on {name}"
        );

        // Active noise and faults change the fidelity key, never the device.
        let noisy = NoisyModel::new(inner.clone(), 0.05, 7);
        assert_ne!(
            noisy.fidelity_key(),
            inner.fidelity_key(),
            "noisy on {name}"
        );
        assert_eq!(noisy.device_key(), key, "noisy on {name}");

        let plan = FaultPlan::new(0xFA17)
            .with(FaultSpec::new(FaultKind::CounterSpike, 0.5).with_magnitude(4.0));
        assert!(!plan.is_empty());
        let faulty = FaultyModel::new(inner.clone(), plan);
        assert_ne!(
            faulty.fidelity_key(),
            inner.fidelity_key(),
            "faulty on {name}"
        );
        assert_eq!(faulty.device_key(), key, "faulty on {name}");

        // Playback has no inner model: it describes the recorded device.
        let replay = ReplayModel::new(Replayer::new(Vec::new()), *faulty.gpu());
        assert_eq!(replay.device_key(), key, "replay on {name}");

        let by_ref: &dyn TimingModel = &inner;
        assert_eq!(by_ref.device_key(), key, "&dyn on {name}");
        assert_eq!(key_through_ref(&by_ref), key, "&&dyn on {name}");
    }
}
