//! One device's session: one plan visit per kernel invocation over the
//! fleet's shared [`PlanStore`], stepped once per scheduler tick.
//!
//! A session borrows its application and owns one store handle per
//! kernel, an optional power-cap clamp (the core [`CappedGovernor`], when
//! the fleet enforces a cluster cap), and its accounting — total time,
//! card energy, a rolling FNV-1a digest of every granted configuration,
//! and the cap telemetry the
//! [`ClusterGovernor`](crate::cluster::ClusterGovernor) water-fills on.
//! Each invocation decides once, through its kernel's handle: that
//! decision is the oracle's ED² argmin, the uncapped grant and the capped
//! demand telemetry, and the clamp only clamps it
//! ([`CappedGovernor::grant`]). Everything a step touches is either
//! session-local or goes through the store's per-kernel locks, so stepping
//! devices in parallel is safe and their accounting is
//! interleaving-independent.

use crate::cluster::DeviceDemand;
use harmonia::governor::{CappedGovernor, Governor, KernelHandle, OracleGovernor, PlanStore};
use harmonia::runtime::activity_of;
use harmonia_types::{Joules, Seconds, Watts};
use harmonia_workloads::Application;
use std::sync::Arc;

/// A capped session's clamp (boxed: its per-kernel state dwarfs the rest
/// of a session). Its inner oracle names the stack; the session decides
/// for it through its own handles and hands each decision to
/// [`CappedGovernor::grant`].
type Clamp<'a> = Box<CappedGovernor<'a, OracleGovernor<'a>>>;

/// What one device contributes to a tick's serial merge: its peak power
/// during the tick plus the demand telemetry the next re-balance
/// water-fills on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// Peak projected card power across the tick's invocations, watts.
    pub tick_power_w: f64,
    /// Cap telemetry for the next partition (capped fleets only).
    pub demand: DeviceDemand,
}

/// A device's final, deterministic accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device id (fleet index).
    pub id: usize,
    /// Device class (index into the store's registered classes).
    pub class: usize,
    /// Application the device ran.
    pub app: String,
    /// Governor stack name, `fleet:`-prefixed (reflects the final cap
    /// share when capped).
    pub governor: String,
    /// Total kernel execution time, seconds.
    pub total_time: Seconds,
    /// Total card energy, joules.
    pub card_energy: Joules,
    /// Energy·delay² over the whole session.
    pub ed2: f64,
    /// Decisions made (kernel invocations governed).
    pub decisions: u64,
    /// Device-local cap violations (the clamp's 5%-tolerance accounting).
    pub cap_violations: u64,
    /// FNV-1a digest of the granted configuration sequence.
    pub config_digest: u64,
    /// The device's final cap share, when the fleet ran capped.
    pub final_cap_w: Option<f64>,
}

/// One concurrent device session.
pub struct DeviceSession<'s, 'a> {
    id: usize,
    class: usize,
    app: &'s Application,
    /// The power-cap clamp; uncapped sessions run the store's decision as
    /// is.
    clamp: Option<Clamp<'a>>,
    store: &'s PlanStore<'a>,
    /// One store handle per application kernel, in kernel order, resolved
    /// on the first step: every later tick decides and simulates through
    /// them without re-hashing the kernel or re-reading the plan map.
    handles: Vec<KernelHandle>,
    total_time: Seconds,
    card_energy: Joules,
    decisions: u64,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut digest: u64, words: &[u64]) -> u64 {
    for &w in words {
        for shift in [0, 16, 32, 48] {
            digest ^= (w >> shift) & 0xffff;
            digest = digest.wrapping_mul(FNV_PRIME);
        }
    }
    digest
}

impl<'s, 'a> DeviceSession<'s, 'a> {
    /// An uncapped class-0 session: it runs each decision of the shared
    /// store as it is.
    pub fn oracle(id: usize, app: &'s Application, store: &'s PlanStore<'a>) -> Self {
        Self::oracle_in_class(id, 0, app, store)
    }

    /// An uncapped session of device class `class`.
    pub fn oracle_in_class(
        id: usize,
        class: usize,
        app: &'s Application,
        store: &'s PlanStore<'a>,
    ) -> Self {
        Self::build(id, class, app, store, None)
    }

    /// A capped class-0 session: the shared store's decisions under a
    /// [`CappedGovernor`] clamp at the device's initial cap share.
    pub fn capped(
        id: usize,
        app: &'s Application,
        store: &'s Arc<PlanStore<'a>>,
        cap: Watts,
    ) -> Self {
        Self::capped_in_class(id, 0, app, store, cap)
    }

    /// A capped session of device class `class`: the clamp projects power
    /// with that class's power model and steps along its grid.
    pub fn capped_in_class(
        id: usize,
        class: usize,
        app: &'s Application,
        store: &'s Arc<PlanStore<'a>>,
        cap: Watts,
    ) -> Self {
        let oracle = OracleGovernor::shared(Arc::clone(store), class);
        let clamp = CappedGovernor::new(oracle, store.power_of(class), cap);
        Self::build(id, class, app, store, Some(Box::new(clamp)))
    }

    fn build(
        id: usize,
        class: usize,
        app: &'s Application,
        store: &'s PlanStore<'a>,
        clamp: Option<Clamp<'a>>,
    ) -> Self {
        Self {
            id,
            class,
            app,
            clamp,
            store,
            handles: Vec::new(),
            total_time: Seconds(0.0),
            card_energy: Joules(0.0),
            decisions: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Device id (fleet index).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The session's device class.
    pub fn class(&self) -> usize {
        self.class
    }

    /// Re-targets the device's cap share (no-op for uncapped sessions).
    /// Called by the scheduler's serial re-balance phase.
    pub fn set_cap(&mut self, cap: Watts) {
        if let Some(clamp) = &mut self.clamp {
            clamp.set_cap(cap);
        }
    }

    /// Runs one invocation of every kernel in the device's application at
    /// iteration `tick`, accumulating time/energy/digest and returning the
    /// tick's merge contribution. Safe to call from any pool worker: all
    /// shared state goes through the store's per-kernel locks.
    pub fn step(&mut self, tick: u64) -> TickOutcome {
        let (store, class, app) = (self.store, self.class, self.app);
        if self.handles.len() != app.kernels.len() {
            self.handles = app.kernels.iter().map(|k| store.handle(class, k)).collect();
        }
        let power = store.power_of(class);
        let floor_cfg = store.floor_of(class);
        let mut tick_power = 0.0_f64;
        let mut demand = DeviceDemand {
            floor: 0.0,
            demand: 0.0,
            weight: 0.0,
        };
        let mut benefit = 0.0_f64;
        for (ki, (kernel, handle)) in app.kernels.iter().zip(&self.handles).enumerate() {
            // The invocation's one plan visit. The ED² argmin is the
            // uncapped grant, what the clamp clamps, and the demand
            // telemetry; its result is the grant's simulation unless the
            // clamp stepped down, so only a clamped grant asks the cache.
            let desired = store.decide_with(handle, kernel, tick);
            let granted = match &mut self.clamp {
                Some(clamp) => clamp.grant(kernel, tick, desired.config),
                None => desired.config,
            };
            let result = if granted == desired.config {
                desired.result
            } else {
                store.simulate_with(handle, kernel, granted, tick)
            };
            let breakdown = power.breakdown(granted, &activity_of(&result.counters));
            let dt = result.time;
            self.total_time += dt;
            self.card_energy += breakdown.card_pwr() * dt;
            tick_power = tick_power.max(breakdown.card_pwr().value());
            self.digest = fnv(
                self.digest,
                &[
                    ki as u64,
                    u64::from(granted.compute.cu_count()),
                    u64::from(granted.compute.freq().value()),
                    u64::from(granted.memory.bus_freq().value()),
                ],
            );
            self.decisions += 1;
            let Some(clamp) = &mut self.clamp else {
                continue;
            };
            clamp.observe(kernel, tick, granted, &result.counters);
            // Projected draw of the floor and the optimum at the activity
            // just observed — the floor sim is a cache hit (the cold sweep
            // covered the whole grid).
            let floor_res = store.simulate_with(handle, kernel, floor_cfg, tick);
            let p_floor = power
                .card_pwr(floor_cfg, &activity_of(&floor_res.counters))
                .value();
            let p_want = power
                .card_pwr(desired.config, &activity_of(&desired.result.counters))
                .value();
            demand.floor = demand.floor.max(p_floor);
            demand.demand = demand.demand.max(p_want);
            // Per-invocation ED² lost by running at the floor instead of
            // the optimum: the marginal benefit the headroom buys.
            let t_f = floor_res.time.value();
            let ed2_floor = p_floor * t_f * t_f * t_f;
            benefit += (ed2_floor - desired.objective).max(0.0);
        }
        let gap = demand.demand - demand.floor;
        demand.weight = if gap > 0.0 {
            (benefit / gap).max(0.0)
        } else {
            0.0
        };
        TickOutcome {
            tick_power_w: tick_power,
            demand,
        }
    }

    /// The device's final accounting. The cap-violation count is the
    /// clamp's own 5%-tolerance ledger; uncapped sessions report zero.
    /// Every grant starts from the oracle's ED² argmin, so an uncapped
    /// session is named `oracle`, as the oracle governor is.
    pub fn report(&self) -> DeviceReport {
        let (governor, cap_violations, final_cap_w) = match &self.clamp {
            None => ("oracle", 0, None),
            Some(clamp) => (
                clamp.name(),
                clamp.cap_violations(),
                Some(clamp.cap().value()),
            ),
        };
        DeviceReport {
            id: self.id,
            class: self.class,
            app: self.app.name.clone(),
            governor: format!("fleet:{governor}"),
            total_time: self.total_time,
            card_energy: self.card_energy,
            ed2: self.card_energy.value() * self.total_time.value() * self.total_time.value(),
            decisions: self.decisions,
            cap_violations,
            config_digest: self.digest,
            final_cap_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_power::PowerModel;
    use harmonia_sim::IntervalModel;
    use harmonia_types::DeviceSpec;
    use harmonia_workloads::suite;

    /// The hd7970's timing and power models, from the device catalog.
    fn catalog_models() -> (IntervalModel, PowerModel) {
        let device = DeviceSpec::lookup("hd7970").expect("catalog device");
        (
            IntervalModel::new(device.gpu),
            PowerModel::for_device(&device),
        )
    }

    #[test]
    fn an_uncapped_step_accumulates_time_energy_and_digest() {
        let (model, power) = catalog_models();
        let store = Arc::new(PlanStore::new(&model, &power));
        let app = suite::stencil();
        let mut dev = DeviceSession::oracle(0, &app, &store);
        let out = dev.step(0);
        assert!(out.tick_power_w > 0.0);
        let r = dev.report();
        assert!(r.total_time.value() > 0.0);
        assert!(r.card_energy.value() > 0.0);
        assert_eq!(r.decisions, app.kernels.len() as u64);
        assert_ne!(r.config_digest, FNV_OFFSET);
        assert_eq!(r.final_cap_w, None);
        assert_eq!(r.cap_violations, 0);
        assert_eq!(r.governor, "fleet:oracle");
    }

    #[test]
    fn identical_devices_produce_identical_reports() {
        let (model, power) = catalog_models();
        let store = Arc::new(PlanStore::new(&model, &power));
        let app = suite::stencil();
        let mut a = DeviceSession::oracle(0, &app, &store);
        let mut b = DeviceSession::oracle(1, &app, &store);
        for tick in 0..4 {
            a.step(tick);
            b.step(tick);
        }
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(
            ra.total_time.value().to_bits(),
            rb.total_time.value().to_bits()
        );
        assert_eq!(
            ra.card_energy.value().to_bits(),
            rb.card_energy.value().to_bits()
        );
        assert_eq!(ra.ed2.to_bits(), rb.ed2.to_bits());
        assert_eq!(ra.config_digest, rb.config_digest);
    }

    #[test]
    fn a_tight_cap_shows_up_in_power_and_telemetry() {
        let (model, power) = catalog_models();
        let store = Arc::new(PlanStore::new(&model, &power));
        let app = suite::maxflops();
        let mut free = DeviceSession::oracle(0, &app, &store);
        let mut tight = DeviceSession::capped(1, &app, &store, Watts(120.0));
        let free_out = free.step(0);
        let tight_out = tight.step(0);
        assert!(
            tight_out.tick_power_w < free_out.tick_power_w,
            "clamped device must draw less: {} vs {}",
            tight_out.tick_power_w,
            free_out.tick_power_w
        );
        let d = tight_out.demand;
        assert!(d.floor > 0.0 && d.demand > d.floor, "telemetry: {d:?}");
        assert!(d.weight >= 0.0);
        let r = tight.report();
        assert!(r.final_cap_w == Some(120.0));
        assert_eq!(r.governor, "fleet:oracle@120W");
    }
}
