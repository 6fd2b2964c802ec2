//! The Harmonia governor: Algorithm 1 (coarse + fine two-level tuning).
//!
//! Per kernel, at every kernel boundary:
//!
//! 1. predict sensitivities from the counters and bin them;
//! 2. if the bins changed **and** the previous iteration did not change the
//!    tunables, this is a genuine application phase change →
//!    `SetCU_Freq_MemBW()` (the CG jump) and the FG state resets;
//! 3. if the bins changed but the tunables *were* changed last iteration,
//!    the sensitivity shift is an artifact of our own actuation →
//!    `Revert_prev_decision()`;
//! 4. if the bins are unchanged, run one FG feedback step.
//!
//! Kernel state persists across application iterations ("Harmonia records
//! the last best hardware configuration for all kernels within that
//! application. This state is the initial state for the subsequent
//! iteration").

use crate::binning::SensitivityBin;
use crate::governor::coarse::{CoarseGrain, SensitivityBins};
use crate::governor::fine::{FgState, FineGrain};
use crate::governor::{Governor, KernelMap};
use crate::predictor::SensitivityPredictor;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_sim::{CounterSample, KernelProfile};
use harmonia_types::{GridSpec, HwConfig, Tunable};

/// Configuration switches for [`HarmoniaGovernor`] — used for the paper's
/// CG-only comparison and the compute-DVFS-only ablation.
#[derive(Debug, Clone)]
pub struct HarmoniaConfig {
    /// Run the coarse-grain block.
    pub enable_cg: bool,
    /// Run the fine-grain block.
    pub enable_fg: bool,
    /// Which tunables the governor may touch.
    pub tunables: Vec<Tunable>,
    /// The device grid the governor steps and jumps along (and whose
    /// maximum is each kernel's initial configuration).
    pub grid: GridSpec,
}

impl Default for HarmoniaConfig {
    fn default() -> Self {
        Self {
            enable_cg: true,
            enable_fg: true,
            tunables: Tunable::ALL.to_vec(),
            grid: GridSpec::HD7970,
        }
    }
}

impl HarmoniaConfig {
    /// Full Harmonia (CG + FG over all three tunables).
    pub fn full() -> Self {
        Self::default()
    }

    /// Coarse-grain tuning only (the paper's "CG" bars).
    pub fn cg_only() -> Self {
        Self {
            enable_fg: false,
            ..Self::default()
        }
    }

    /// Compute frequency/voltage scaling only — the ablation showing
    /// traditional DVFS achieves just ~3% ED² gain (Section 7.2).
    pub fn freq_only() -> Self {
        Self {
            tunables: vec![Tunable::CuFreq],
            ..Self::default()
        }
    }

    /// The same switches on a different device grid (builder style).
    pub fn on_grid(mut self, grid: GridSpec) -> Self {
        self.grid = grid;
        self
    }
}

/// Exponential smoothing weight for the per-kernel nominal counter values.
/// The paper's predictor inputs are per-kernel counters that "vary little"
/// across configurations (Section 4.2); averaging the online samples
/// recreates that stability when counters are read at whatever
/// configuration happens to be active.
const COUNTER_SMOOTHING: f64 = 0.3;

/// Consecutive reverts tolerated before the new sensitivity reading is
/// accepted anyway (breaks actuation/observation limit cycles).
const MAX_CONSECUTIVE_REVERTS: u32 = 2;

/// Coarse-grain retunes allowed per kernel. "In most applications CG tuning
/// requires only one iteration" (Section 7.2); a small budget lets genuine
/// phase changes re-trigger CG while preventing nominal-counter drift from
/// endlessly resetting the fine-grain search.
const MAX_CG_EVENTS: u32 = 2;

#[derive(Debug, Clone)]
struct KernelState {
    /// Configuration for the next invocation.
    cfg: HwConfig,
    /// Configuration before the most recent change (revert target).
    prev_cfg: HwConfig,
    /// Whether the previous observation changed the tunables.
    cfg_changed_last: bool,
    /// Whether that change was purely downward (power-reducing). Only
    /// downward changes are candidates for the revert guard: reverting an
    /// upward recovery move would fight the fine-grain loop.
    last_change_was_decrement: bool,
    /// Last accepted sensitivity bins.
    last_bins: Option<SensitivityBins>,
    /// Candidate new bins awaiting confirmation (one consecutive repeat).
    pending_bins: Option<SensitivityBins>,
    /// Per-kernel nominal counter values (running average of observations).
    nominal: Option<harmonia_sim::CounterSample>,
    /// Consecutive revert-guard activations.
    reverts: u32,
    /// Coarse-grain retunes performed so far.
    cg_events: u32,
    /// Fine-grain loop state.
    fg: FgState,
}

impl KernelState {
    fn new(initial: HwConfig) -> Self {
        Self {
            cfg: initial,
            prev_cfg: initial,
            cfg_changed_last: false,
            last_change_was_decrement: false,
            last_bins: None,
            pending_bins: None,
            nominal: None,
            reverts: 0,
            cg_events: 0,
            fg: FgState::new(),
        }
    }
}

/// The two-level Harmonia power-management governor.
///
/// Hardening (safe-state watchdog, counter sanitization) is not built in:
/// wrap it in a [`WatchdogGovernor`](crate::governor::WatchdogGovernor) /
/// [`SanitizeGovernor`](crate::governor::SanitizeGovernor) or ask the
/// [`PolicySpec`](crate::governor::PolicySpec) registry for a
/// `hardened:*` stack.
#[derive(Debug, Clone)]
pub struct HarmoniaGovernor {
    cg: CoarseGrain,
    fg: FineGrain,
    config: HarmoniaConfig,
    name: String,
    kernels: KernelMap<KernelState>,
    trace: TraceHandle,
}

impl HarmoniaGovernor {
    /// Creates the full CG+FG governor with the given sensitivity predictor.
    pub fn new(predictor: SensitivityPredictor) -> Self {
        Self::with_config(predictor, HarmoniaConfig::full())
    }

    /// Creates a governor with explicit configuration switches.
    pub fn with_config(predictor: SensitivityPredictor, config: HarmoniaConfig) -> Self {
        let name = match (config.enable_cg, config.enable_fg, config.tunables.len()) {
            (true, true, 3) => "harmonia".to_string(),
            (true, false, 3) => "cg-only".to_string(),
            (true, true, 1) => "freq-only".to_string(),
            _ => format!(
                "harmonia(cg={},fg={},t={})",
                config.enable_cg,
                config.enable_fg,
                config.tunables.len()
            ),
        };
        Self {
            cg: CoarseGrain::with_tunables(predictor, config.tunables.clone())
                .with_grid(config.grid),
            fg: FineGrain::with_tunables(config.tunables.clone()).with_grid(config.grid),
            config,
            name,
            kernels: KernelMap::default(),
            trace: TraceHandle::disabled(),
        }
    }

    /// `kernel`'s state in `kernels`, starting at `grid`'s maximum the
    /// first time the kernel is seen. An associated function so `observe`
    /// can hold it beside shared borrows of the CG and FG blocks.
    fn state_mut<'k>(
        kernels: &'k mut KernelMap<KernelState>,
        grid: &GridSpec,
        kernel: &str,
    ) -> &'k mut KernelState {
        kernels.slot(kernel, || KernelState::new(HwConfig::max_on(grid)))
    }

    /// The configuration currently selected for `kernel` (for inspection).
    pub fn current_config(&self, kernel: &str) -> Option<HwConfig> {
        self.kernels.get(kernel).map(|s| s.cfg)
    }
}

impl Governor for HarmoniaGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn decide(&mut self, kernel: &KernelProfile, _iteration: u64) -> HwConfig {
        Self::state_mut(&mut self.kernels, &self.config.grid, &kernel.name).cfg
    }

    fn observe(
        &mut self,
        kernel: &KernelProfile,
        iteration: u64,
        cfg: HwConfig,
        counters: &CounterSample,
    ) {
        let enable_cg = self.config.enable_cg;
        let enable_fg = self.config.enable_fg;
        let grid = self.config.grid;
        let (cg, fg, trace) = (&self.cg, &self.fg, &self.trace);
        let state = Self::state_mut(&mut self.kernels, &grid, &kernel.name);
        // Predict on the kernel's *nominal* counter values — a running
        // average of the observed samples, the online equivalent of Section
        // 4.2's per-kernel averages. Instantaneous counters swing with the
        // active configuration and would masquerade as phase changes.
        let nominal = match &state.nominal {
            Some(prev) => prev.ewma_toward(counters, COUNTER_SMOOTHING),
            None => *counters,
        };
        state.nominal = Some(nominal);
        let sensitivity = cg.predict(&nominal);
        let bins = cg.bins(sensitivity);
        trace.emit(|| TraceEvent::Prediction {
            kernel: kernel.name.to_string(),
            iteration,
            cu: sensitivity.cu,
            freq: sensitivity.freq,
            bandwidth: sensitivity.bandwidth,
            cu_bin: bins.cu,
            freq_bin: bins.freq,
            bw_bin: bins.bandwidth,
        });

        let rate_now = if counters.duration.value() > 0.0 {
            counters.valu_insts as f64 / counters.duration.value()
        } else {
            0.0
        };
        // A bin change must be confirmed on a second consecutive reading
        // before CG acts — the first reading may be phase noise or an
        // actuation transient (the paper's revert guard serves the same
        // purpose; both are kept).
        let sensitivity_changed = if state.last_bins.is_none() {
            true // bootstrap: first reading drives the initial CG jump
        } else if state.last_bins == Some(bins) {
            state.pending_bins = None;
            false
        } else if state.pending_bins == Some(bins) {
            state.pending_bins = None;
            true
        } else {
            state.pending_bins = Some(bins);
            false
        };

        let cg_budget_left = state.cg_events < MAX_CG_EVENTS;
        let next = if enable_cg && sensitivity_changed && cg_budget_left {
            if state.cfg_changed_last
                && state.last_change_was_decrement
                && state.reverts < MAX_CONSECUTIVE_REVERTS
            {
                // Sensitivities were perturbed by our own previous CG
                // actuation: revert and wait for a clean reading
                // (Algorithm 1's Revert_prev_decision). FG moves are not
                // reverted here — they are validated by direct performance
                // feedback instead.
                state.reverts += 1;
                state.cfg_changed_last = false;
                state.fg.note(&grid, rate_now, cfg);
                state.fg.mark_bad_if_slow(rate_now, cfg);
                let restored = state.prev_cfg;
                trace.emit(|| TraceEvent::RevertGuard {
                    kernel: kernel.name.to_string(),
                    iteration,
                    from: cfg.into(),
                    to: restored.into(),
                });
                state.cfg = restored;
                return;
            }
            state.reverts = 0;
            state.fg.note(&grid, rate_now, cfg);
            // Genuine phase change: coarse-grain jump; the FG search resets
            // but keeps its throughput history so a CG misprediction shows
            // up as a negative gradient next iteration.
            state.last_bins = Some(bins);
            state.fg.retune();
            state.cg_events += 1;
            let jumped = cg.apply(cfg, bins);
            trace.emit(|| TraceEvent::CgRetune {
                kernel: kernel.name.to_string(),
                iteration,
                from: cfg.into(),
                to: jumped.into(),
                cu_bin: bins.cu,
                freq_bin: bins.freq,
                bw_bin: bins.bandwidth,
            });
            jumped
        } else if enable_fg {
            // Stable sensitivities: fine-grain feedback step on the VALU
            // throughput proxy. HIGH-sensitivity tunables are not probed
            // downward.
            state.reverts = 0;
            let accepted = state.last_bins.unwrap_or(bins);
            fg.step_traced(
                &mut state.fg,
                cfg,
                rate_now,
                |t| accepted.bin_for(t) != SensitivityBin::High,
                trace,
                &kernel.name,
                iteration,
            )
        } else {
            state.last_bins = Some(bins);
            state.fg.note(&grid, rate_now, cfg);
            cfg
        };

        state.prev_cfg = cfg;
        state.cfg_changed_last = next != cfg;
        state.last_change_was_decrement = next != cfg
            && Tunable::ALL
                .iter()
                .all(|&t| next.level_on(&grid, t).index <= cfg.level_on(&grid, t).index);
        state.cfg = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ComputeConfig, GridSpec, MegaHertz, MemoryConfig};

    fn governor() -> HarmoniaGovernor {
        HarmoniaGovernor::new(SensitivityPredictor::paper_table3())
    }

    fn compute_hot() -> CounterSample {
        CounterSample {
            duration: harmonia_types::Seconds(0.01),
            valu_busy_pct: 95.0,
            valu_utilization_pct: 100.0,
            mem_unit_busy_pct: 5.0,
            ic_activity: 0.02,
            norm_vgpr: 0.5,
            norm_sgpr: 0.3,
            valu_insts: 1_000_000,
            ..CounterSample::default()
        }
    }

    fn memory_hot() -> CounterSample {
        CounterSample {
            duration: harmonia_types::Seconds(0.01),
            valu_busy_pct: 20.0,
            valu_utilization_pct: 90.0,
            mem_unit_busy_pct: 95.0,
            mem_unit_stalled_pct: 40.0,
            ic_activity: 0.95,
            norm_vgpr: 0.1,
            norm_sgpr: 0.2,
            valu_insts: 100_000,
            ..CounterSample::default()
        }
    }

    #[test]
    fn starts_at_boost() {
        let mut g = governor();
        let k = KernelProfile::builder("k").build();
        assert_eq!(g.decide(&k, 0), HwConfig::max_hd7970());
    }

    #[test]
    fn compute_hot_kernel_lowers_memory() {
        let mut g = governor();
        let k = KernelProfile::builder("k").build();
        let cfg = g.decide(&k, 0);
        g.observe(&k, 0, cfg, &compute_hot());
        let next = g.decide(&k, 1);
        assert!(
            next.memory.bus_freq().value() < 1375,
            "CG should cut memory frequency for a compute-hot kernel, got {next}"
        );
        assert_eq!(next.compute.cu_count(), 32, "compute must stay high");
    }

    #[test]
    fn memory_hot_kernel_lowers_compute() {
        let mut g = governor();
        let k = KernelProfile::builder("k").build();
        let cfg = g.decide(&k, 0);
        g.observe(&k, 0, cfg, &memory_hot());
        let next = g.decide(&k, 1);
        assert_eq!(
            next.memory.bus_freq().value(),
            1375,
            "memory must stay high, got {next}"
        );
        assert!(next.compute.cu_count() < 32 || next.compute.freq().value() < 1000);
    }

    #[test]
    fn revert_guard_fires_after_actuation_artifacts() {
        let mut g = governor();
        let k = KernelProfile::builder("k").build();
        // Iter 0: compute-hot → CG changes config.
        let c0 = g.decide(&k, 0);
        g.observe(&k, 0, c0, &compute_hot());
        let c1 = g.decide(&k, 1);
        assert_ne!(c0, c1);
        // Iter 1: counters flip drastically (artifact of the change) →
        // revert to the previous configuration.
        g.observe(&k, 1, c1, &memory_hot());
        let c2 = g.decide(&k, 2);
        assert_eq!(c2, c0, "revert must restore the pre-change config");
    }

    #[test]
    fn stable_bins_run_fg_steps() {
        let mut g = governor();
        let k = KernelProfile::builder("k").build();
        let mut cfg = g.decide(&k, 0);
        // Same compute-hot counters repeatedly: first CG, then FG reductions.
        for i in 0..4 {
            g.observe(&k, i, cfg, &compute_hot());
            cfg = g.decide(&k, i + 1);
        }
        // FG should have nudged the memory (or CU) tunable further down than
        // the CG jump alone.
        let cg_only_cfg = {
            let mut g2 = HarmoniaGovernor::with_config(
                SensitivityPredictor::paper_table3(),
                HarmoniaConfig::cg_only(),
            );
            let mut c = g2.decide(&k, 0);
            for i in 0..4 {
                g2.observe(&k, i, c, &compute_hot());
                c = g2.decide(&k, i + 1);
            }
            c
        };
        assert!(
            cfg.memory.bus_freq() <= cg_only_cfg.memory.bus_freq(),
            "FG should refine below the CG point"
        );
    }

    #[test]
    fn freq_only_never_touches_cu_or_memory() {
        let mut g = HarmoniaGovernor::with_config(
            SensitivityPredictor::paper_table3(),
            HarmoniaConfig::freq_only(),
        );
        let k = KernelProfile::builder("k").build();
        let mut cfg = g.decide(&k, 0);
        for i in 0..6 {
            g.observe(&k, i, cfg, &compute_hot());
            cfg = g.decide(&k, i + 1);
        }
        assert_eq!(cfg.compute.cu_count(), 32);
        assert_eq!(cfg.memory.bus_freq().value(), 1375);
        assert_eq!(g.name(), "freq-only");
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(governor().name(), "harmonia");
        let cg = HarmoniaGovernor::with_config(
            SensitivityPredictor::paper_table3(),
            HarmoniaConfig::cg_only(),
        );
        assert_eq!(cg.name(), "cg-only");
    }

    #[test]
    fn per_kernel_state_is_independent() {
        let mut g = governor();
        let a = KernelProfile::builder("a").build();
        let b = KernelProfile::builder("b").build();
        let ca = g.decide(&a, 0);
        g.observe(&a, 0, ca, &compute_hot());
        // Kernel b is untouched by kernel a's history.
        assert_eq!(g.decide(&b, 0), HwConfig::max_hd7970());
        assert_ne!(g.decide(&a, 1), g.decide(&b, 0));
        assert!(g.current_config("a").is_some());
        assert!(g.current_config("missing").is_none());
    }

    #[test]
    fn config_constructor_smoke() {
        let custom = HarmoniaConfig {
            enable_cg: false,
            enable_fg: true,
            tunables: vec![Tunable::MemFreq, Tunable::CuCount],
            ..HarmoniaConfig::default()
        };
        let g = HarmoniaGovernor::with_config(SensitivityPredictor::paper_table3(), custom);
        assert!(g.name().contains("cg=false"));
        let _ = HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, 32, MegaHertz(1000)).unwrap(),
            MemoryConfig::new_on(&GridSpec::HD7970, MegaHertz(1375)).unwrap(),
        );
    }
}
