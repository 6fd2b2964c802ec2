//! A PowerTune-like TDP/thermally constrained governor (Section 2.3).
//!
//! "The HD7970 uses AMD PowerTune technology to optimize performance for
//! thermal design power (TDP)-constrained scenarios. The GPU adjusts power
//! between the DPM0, DPM1 and DPM2 power states ... based on power and
//! thermal headroom availability. It also allows for a boost state of 1GHz
//! ... when there is headroom. This works well for managing compute power.
//! However, very little power management exists for off-chip memory."
//!
//! This governor reproduces that behaviour: it only ever touches the
//! *compute clock* (stepping between the DPM frequencies and boost), reacts
//! to measured card power and a first-order thermal model, and leaves the
//! CU count and memory frequency at maximum. In the paper's measurement
//! conditions (ample headroom, fan at max RPM) it degenerates to the
//! always-boost baseline — the experiments also exercise it with a reduced
//! power cap, where the contrast with Harmonia's coordinated scaling shows.

use crate::governor::Governor;
use crate::runtime::activity_of;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{PowerModel, ThermalModel, ThermalParams};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{ComputeConfig, DvfsTable, GridSpec, HwConfig, MegaHertz, MemoryConfig, Watts};

/// The DPM compute clocks PowerTune steps between (DPM0/1/2 + boost),
/// snapped onto the device's managed frequency grid with consecutive
/// duplicates merged. On the HD7970 this yields `[300, 500, 900, 1000]`
/// (DPM2's 925 MHz lands on the 900 MHz grid point).
fn dpm_ladder(grid: &GridSpec, dvfs: &DvfsTable) -> Vec<u32> {
    let mut ladder: Vec<u32> = dvfs
        .states()
        .iter()
        .map(|s| grid.snap_cu_freq(s.freq).value())
        .collect();
    ladder.dedup();
    ladder
}

/// A reactive TDP-constrained compute-clock governor.
pub struct PowerTuneGovernor<'a> {
    power: &'a PowerModel,
    tdp: Watts,
    thermal: ThermalModel,
    /// The DPM clock ladder derived from the device's DVFS table.
    ladder: Vec<u32>,
    /// Index into `ladder`.
    state: usize,
    trace: TraceHandle,
}

impl<'a> PowerTuneGovernor<'a> {
    /// Creates a PowerTune governor with the stock 250 W TDP.
    pub fn new(power: &'a PowerModel) -> Self {
        Self::with_tdp(power, Watts(250.0))
    }

    /// Creates a PowerTune governor with an explicit power cap. The DPM
    /// ladder and maximum CU/memory state come from the power model's
    /// device (its DVFS table snapped onto its configuration grid).
    pub fn with_tdp(power: &'a PowerModel, tdp: Watts) -> Self {
        let ladder = dpm_ladder(power.grid(), power.dvfs());
        let state = ladder.len() - 1; // start at boost
        Self {
            power,
            tdp,
            thermal: ThermalModel::new(ThermalParams::default()),
            ladder,
            state,
            trace: TraceHandle::disabled(),
        }
    }

    /// Current junction temperature of the internal thermal model.
    pub fn temperature_c(&self) -> f64 {
        self.thermal.temperature_c()
    }

    fn config_at(&self, state: usize) -> HwConfig {
        let grid = self.power.grid();
        HwConfig::new(
            ComputeConfig::new_on(grid, grid.cu_max, MegaHertz(self.ladder[state]))
                .expect("DPM clocks are on the managed grid"),
            MemoryConfig::max_on(grid),
        )
    }

    fn config_for_state(&self) -> HwConfig {
        self.config_at(self.state)
    }
}

impl Governor for PowerTuneGovernor<'_> {
    fn name(&self) -> &str {
        "powertune"
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn decide(&mut self, _kernel: &KernelProfile, _iteration: u64) -> HwConfig {
        self.config_for_state()
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        let state_before = self.state;
        let activity = activity_of(counters);
        let card = self.power.card_pwr(cfg, &activity);
        self.thermal.step(card, counters.duration);

        let over_power = card > self.tdp;
        let over_thermal = self.thermal.over_limit();
        if (over_power || over_thermal) && self.state > 0 {
            // Headroom exhausted: drop one DPM state.
            self.state -= 1;
        } else if !over_power
            && self.thermal.headroom_c() > 5.0
            && self.state + 1 < self.ladder.len()
        {
            // Power and thermal headroom available: climb back toward boost.
            // Only climb if the *next* state is predicted to fit the cap.
            let next = self.state + 1;
            let probe = self.config_at(next);
            if self.power.card_pwr(probe, &activity) <= self.tdp {
                self.state = next;
            }
        }
        if self.state != state_before {
            self.trace.emit(|| TraceEvent::DpmShift {
                kernel: kernel.name.to_string(),
                iteration,
                from_mhz: self.ladder[state_before],
                to_mhz: self.ladder[self.state],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::{IntervalModel, TimingModel};
    use harmonia_workloads::suite;

    fn busy_counters(model: &IntervalModel, cfg: HwConfig) -> CounterSample {
        let k = suite::maxflops().kernels[0].clone();
        model.simulate(cfg, &k, 0).counters
    }

    #[test]
    fn with_headroom_it_stays_at_boost() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let k = suite::stencil().kernels[0].clone();
        let mut g = PowerTuneGovernor::new(&power);
        for i in 0..6 {
            let cfg = g.decide(&k, i);
            assert_eq!(cfg.compute.freq().value(), 1000, "boost with headroom");
            let c = model.simulate(cfg, &k, i);
            g.observe(&k, i, cfg, &c.counters);
        }
    }

    #[test]
    fn tight_cap_forces_throttling() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let k = suite::maxflops().kernels[0].clone();
        let mut g = PowerTuneGovernor::with_tdp(&power, Watts(170.0));
        let mut lowest = 1000;
        for i in 0..8 {
            let cfg = g.decide(&k, i);
            lowest = lowest.min(cfg.compute.freq().value());
            let c = model.simulate(cfg, &k, i);
            g.observe(&k, i, cfg, &c.counters);
        }
        assert!(lowest < 1000, "a 170 W cap must throttle MaxFlops");
    }

    #[test]
    fn never_touches_cu_count_or_memory() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let k = suite::maxflops().kernels[0].clone();
        let mut g = PowerTuneGovernor::with_tdp(&power, Watts(150.0));
        for i in 0..10 {
            let cfg = g.decide(&k, i);
            assert_eq!(cfg.compute.cu_count(), 32);
            assert_eq!(cfg.memory.bus_freq().value(), 1375);
            let c = model.simulate(cfg, &k, i);
            g.observe(&k, i, cfg, &c.counters);
        }
    }

    #[test]
    fn recovers_when_load_lightens() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let heavy = suite::maxflops().kernels[0].clone();
        let light = suite::srad().kernel("SRAD.Prepare").unwrap().clone();
        let mut g = PowerTuneGovernor::with_tdp(&power, Watts(185.0));
        // Heavy phase throttles.
        for i in 0..6 {
            let cfg = g.decide(&heavy, i);
            let c = model.simulate(cfg, &heavy, i);
            g.observe(&heavy, i, cfg, &c.counters);
        }
        let throttled = g.decide(&heavy, 6).compute.freq().value();
        assert!(throttled < 1000);
        // Light phase recovers toward boost.
        for i in 0..10 {
            let cfg = g.decide(&light, i);
            let c = model.simulate(cfg, &light, i);
            g.observe(&light, i, cfg, &c.counters);
        }
        let recovered = g.decide(&light, 20).compute.freq().value();
        assert!(recovered > throttled, "headroom should restore higher clocks");
    }

    #[test]
    fn ladder_derives_from_the_device_dvfs_table() {
        use harmonia_types::DeviceSpec;
        // The hd7970 ladder reproduces the historical DPM_CLOCKS constant.
        let hd = PowerModel::hd7970();
        assert_eq!(dpm_ladder(hd.grid(), hd.dvfs()), vec![300, 500, 900, 1000]);
        // A foreign device gets its own ladder, entirely on its own grid,
        // and the governor boosts to that device's max state.
        let spec = DeviceSpec::v100();
        let power = PowerModel::for_device(&spec);
        let ladder = dpm_ladder(power.grid(), power.dvfs());
        assert!(!ladder.is_empty());
        for &mhz in &ladder {
            assert!(
                ComputeConfig::new_on(spec.grid(), spec.grid().cu_max, MegaHertz(mhz)).is_ok(),
                "ladder clock {mhz} MHz must be on the v100 grid"
            );
        }
        let model = IntervalModel::new(spec.gpu);
        let k = suite::stencil().kernels[0].clone();
        let mut g = PowerTuneGovernor::new(&power);
        let cfg = g.decide(&k, 0);
        assert_eq!(cfg.compute.cu_count(), spec.grid().cu_max);
        assert_eq!(cfg.compute.freq().value(), *ladder.last().unwrap());
        assert_eq!(cfg.memory, MemoryConfig::max_on(spec.grid()));
        let c = model.simulate(cfg, &k, 0);
        g.observe(&k, 0, cfg, &c.counters);
    }

    #[test]
    fn thermal_model_heats_under_load() {
        let power = PowerModel::hd7970();
        let model = IntervalModel::default();
        let k = suite::maxflops().kernels[0].clone();
        let mut g = PowerTuneGovernor::new(&power);
        let start = g.temperature_c();
        // Long-running invocations so the RC node visibly charges.
        let cfg = g.decide(&k, 0);
        let mut c = busy_counters(&model, cfg);
        c.duration = harmonia_types::Seconds(5.0);
        g.observe(&k, 0, cfg, &c);
        assert!(g.temperature_c() > start);
    }
}
