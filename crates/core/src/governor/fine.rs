//! The fine-grain (FG) tuning block.
//!
//! Algorithm 1's feedback loop, run when sensitivities are stable:
//!
//! * **gradient ≥ 0** (performance preserved): *decrement* — step the
//!   managed tunables one grid step down to shave power;
//! * **gradient < 0** (performance degraded): *increment* — step back up,
//!   count dithering, and after `max_dither` oscillations converge to the
//!   best (lowest-power, performance-preserving) state seen;
//! * degradation right after a multi-tunable probe reverts all of it and
//!   switches to one-tunable-at-a-time probing so the responsible tunable
//!   can be isolated, as Section 5.2 describes.
//!
//! Tunables whose sensitivity is binned HIGH are not probed downward — the
//! CG step has already established that performance scales with them, so
//! their minimum-power no-loss setting is the maximum. They still
//! participate in upward recovery.
//!
//! The paper uses the `VALUBusy` gradient as the performance proxy. Because
//! our workloads' per-iteration work can scale with data-dependent phases,
//! the proxy here is the *VALU instruction rate* (`VALUInsts / duration`) —
//! the same signal (ALU progress per wall-clock second) made robust to
//! work-size changes; the raw `VALUBusy` value is still recorded in traces.

use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_types::{GridSpec, HwConfig, Tunable};
use serde::{Deserialize, Serialize};
use std::ops::Deref;

/// Relative throughput drop treated as a performance degradation.
const DEGRADATION_TOLERANCE: f64 = 0.01;

/// Direction of a fine-grain move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Direction {
    Down,
    Up,
}

/// Per-kernel state of the FG loop.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FgState {
    /// Throughput proxy observed for the previous invocation.
    last_rate: Option<f64>,
    /// Best throughput seen since the last CG retune.
    best_rate: Option<f64>,
    /// Configuration that achieved `best_rate` at the lowest power proxy.
    best_cfg: Option<HwConfig>,
    /// Moves taken by the previous decision.
    last_moves: Vec<(Tunable, Direction)>,
    /// Oscillation count.
    dither: u32,
    /// Tunables frozen (grid floor reached or converged).
    frozen: Vec<Tunable>,
    /// Round-robin cursor for sequential isolation mode.
    cursor: usize,
    /// Probe one tunable at a time (after a blamed multi-tunable probe).
    sequential: bool,
    /// The loop has converged to `best_cfg` until the next CG retune.
    converged: bool,
    /// Configurations observed to degrade performance — never probed again
    /// within the current phase regime.
    bad: Vec<HwConfig>,
}

impl FgState {
    /// Creates a fresh FG state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the search while keeping the throughput history *and* the
    /// best state seen — used on a CG retune. Keeping the best state is
    /// what lets FG claw back a coarse-grain misprediction: "converge to
    /// last state with zero gradient" can reach back past the CG jump
    /// ("Harmonia records the last best hardware configuration").
    pub fn retune(&mut self) {
        self.last_moves.clear();
        self.dither = 0;
        self.frozen.clear();
        self.cursor = 0;
        self.sequential = false;
        self.converged = false;
        self.bad.clear(); // a new phase may tolerate what the old one didn't
    }

    /// Whether the loop has converged (no further moves until a CG retune).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Records an observed (rate, configuration) pair without advancing the
    /// search — used for observations made while the CG block is in control.
    /// The rate becomes the gradient baseline, so a CG jump that costs
    /// performance is detected by the very next FG step, and the
    /// configuration feeds "converge to last state with zero gradient".
    /// `grid` normalizes the power proxy that tie-breaks equal-performance
    /// states.
    pub fn note(&mut self, grid: &GridSpec, rate: f64, cfg: HwConfig) {
        self.update_best(grid, rate, cfg);
        self.last_rate = Some(rate);
    }

    /// Blacklists `cfg` if its observed rate is materially below the best
    /// seen — used by the governor's revert path so a configuration that was
    /// both sensitivity-perturbing *and* slow is not probed again.
    pub fn mark_bad_if_slow(&mut self, rate: f64, cfg: HwConfig) {
        if let Some(best) = self.best_rate {
            if rate < best * (1.0 - DEGRADATION_TOLERANCE) && !self.bad.contains(&cfg) {
                self.bad.push(cfg);
            }
        }
    }

    fn is_frozen(&self, t: Tunable) -> bool {
        self.frozen.contains(&t)
    }

    fn freeze(&mut self, t: Tunable) {
        if !self.is_frozen(t) {
            self.frozen.push(t);
        }
    }

    /// Sum of normalized tunable levels on `grid` — a cheap monotone power
    /// proxy used to prefer lower-power configurations among
    /// equal-performance ones.
    fn power_proxy(grid: &GridSpec, cfg: HwConfig) -> f64 {
        Tunable::ALL
            .iter()
            .map(|&t| cfg.level_on(grid, t).fraction)
            .sum()
    }

    fn update_best(&mut self, grid: &GridSpec, rate: f64, cfg: HwConfig) {
        let better = match (self.best_rate, self.best_cfg) {
            (None, _) | (_, None) => true,
            (Some(best), Some(best_cfg)) => {
                rate > best * (1.0 + DEGRADATION_TOLERANCE)
                    || (rate >= best * (1.0 - DEGRADATION_TOLERANCE)
                        && Self::power_proxy(grid, cfg) < Self::power_proxy(grid, best_cfg))
            }
        };
        if better {
            self.best_rate = Some(self.best_rate.map_or(rate, |b| b.max(rate)));
            self.best_cfg = Some(cfg);
        }
    }
}

/// An ordered set of tunables held inline: at most the three of
/// [`Tunable::ALL`]. The FG block plans every move with these (its managed
/// tunables, the probe candidates, the blamed and the recovery targets), so
/// a step never touches the heap.
#[derive(Debug, Clone, Copy)]
struct Tunables {
    items: [Tunable; 3],
    len: usize,
}

impl FromIterator<Tunable> for Tunables {
    /// Collects the distinct tunables, in first-seen order.
    fn from_iter<I: IntoIterator<Item = Tunable>>(iter: I) -> Self {
        let mut set = Self {
            items: Tunable::ALL,
            len: 0,
        };
        for t in iter {
            if !set.contains(&t) {
                set.items[set.len] = t;
                set.len += 1;
            }
        }
        set
    }
}

impl Deref for Tunables {
    type Target = [Tunable];

    fn deref(&self) -> &[Tunable] {
        &self.items[..self.len]
    }
}

/// The FG decision block.
#[derive(Debug, Clone)]
pub struct FineGrain {
    tunables: Tunables,
    max_dither: u32,
    grid: GridSpec,
}

impl FineGrain {
    /// Creates an FG block managing all three tunables with the default
    /// dithering bound, stepping the HD7970 grid.
    pub fn new() -> Self {
        Self::with_tunables(Tunable::ALL.to_vec())
    }

    /// Creates an FG block managing only `tunables` (a repeated entry is
    /// managed once).
    pub fn with_tunables(tunables: Vec<Tunable>) -> Self {
        Self {
            tunables: tunables.into_iter().collect(),
            max_dither: 2,
            grid: GridSpec::HD7970,
        }
    }

    /// Overrides the dithering bound before convergence is forced.
    pub fn with_max_dither(mut self, max_dither: u32) -> Self {
        self.max_dither = max_dither;
        self
    }

    /// Steps along `grid` instead of the HD7970 lattice.
    pub fn with_grid(mut self, grid: GridSpec) -> Self {
        self.grid = grid;
        self
    }

    /// The managed tunables.
    pub fn tunables(&self) -> &[Tunable] {
        &self.tunables
    }

    /// One FG step. `rate` is the throughput proxy of the invocation that
    /// ran at `cfg`; `probe_down(t)` says whether tunable `t` may be probed
    /// downward (false for HIGH-sensitivity tunables).
    pub fn step<F: Fn(Tunable) -> bool>(
        &self,
        state: &mut FgState,
        cfg: HwConfig,
        rate: f64,
        probe_down: F,
    ) -> HwConfig {
        self.step_traced(state, cfg, rate, probe_down, &TraceHandle::disabled(), "", 0)
    }

    /// [`step`](Self::step) with decision-trace emission: every probe,
    /// accept, revert (with the blamed tunables), convergence, and
    /// known-bad skip is reported through `trace`. With a disabled handle
    /// this is exactly `step` — the events are never constructed.
    #[allow(clippy::too_many_arguments)]
    pub fn step_traced<F: Fn(Tunable) -> bool>(
        &self,
        state: &mut FgState,
        cfg: HwConfig,
        rate: f64,
        probe_down: F,
        trace: &TraceHandle,
        kernel: &str,
        iteration: u64,
    ) -> HwConfig {
        if state.converged {
            return state.best_cfg.unwrap_or(cfg);
        }
        let Some(last) = state.last_rate else {
            state.last_rate = Some(rate);
            state.update_best(&self.grid, rate, cfg);
            let next = self.step_downward(state, cfg, &probe_down, trace, kernel, iteration);
            emit_probe(trace, kernel, iteration, cfg, next, &state.last_moves);
            return next;
        };

        state.last_rate = Some(rate);
        if rate >= last * (1.0 - DEGRADATION_TOLERANCE) {
            // Performance preserved or improved: keep shaving power.
            state.update_best(&self.grid, rate, cfg);
            trace.emit(|| TraceEvent::FgAccept {
                kernel: kernel.to_string(),
                iteration,
                cfg: cfg.into(),
                rate,
            });
            let was_climbing = state
                .last_moves
                .iter()
                .any(|(_, d)| *d == Direction::Up);
            if was_climbing && rate > last * (1.0 + DEGRADATION_TOLERANCE) {
                // The climb is paying off (recovering from a misprediction):
                // keep climbing the same tunables until the gradient
                // flattens.
                let targets: Tunables = state.last_moves.iter().map(|(t, _)| *t).collect();
                state.last_moves.clear();
                let mut next = cfg;
                for &t in targets.iter() {
                    if let Some(up) = next.step_up_on(&self.grid, t) {
                        next = up;
                        state.last_moves.push((t, Direction::Up));
                    }
                }
                emit_probe(trace, kernel, iteration, cfg, next, &state.last_moves);
                return next;
            }
            let next = self.step_downward(state, cfg, &probe_down, trace, kernel, iteration);
            emit_probe(trace, kernel, iteration, cfg, next, &state.last_moves);
            next
        } else {
            // Performance degraded: remember the offending configuration,
            // increment state, count dithering.
            if !state.bad.contains(&cfg) {
                state.bad.push(cfg);
            }
            state.dither += 1;
            if state.dither > self.max_dither {
                state.converged = true;
                let best = state.best_cfg.unwrap_or(cfg);
                trace.emit(|| TraceEvent::FgConverged {
                    kernel: kernel.to_string(),
                    iteration,
                    cfg: best.into(),
                });
                return best;
            }
            let blamed = blamed_tunables(&state.last_moves);
            let next = self.step_upward(state, cfg, blamed);
            trace.emit(|| TraceEvent::FgRevert {
                kernel: kernel.to_string(),
                iteration,
                from: cfg.into(),
                to: next.into(),
                blamed: blamed.to_vec(),
            });
            next
        }
    }

    /// Decrement move: step allowed, unfrozen tunables down.
    fn step_downward<F: Fn(Tunable) -> bool>(
        &self,
        state: &mut FgState,
        cfg: HwConfig,
        probe_down: &F,
        trace: &TraceHandle,
        kernel: &str,
        iteration: u64,
    ) -> HwConfig {
        state.last_moves.clear();
        let mut next = cfg;
        let candidates: Tunables = self
            .tunables
            .iter()
            .copied()
            .filter(|&t| !state.is_frozen(t) && probe_down(t))
            .collect();
        if candidates.is_empty() {
            return next;
        }
        if state.sequential {
            for _ in 0..candidates.len() {
                let t = candidates[state.cursor % candidates.len()];
                state.cursor += 1;
                if let Some(down) = next.step_down_on(&self.grid, t) {
                    if state.bad.contains(&down) {
                        // already known to degrade performance
                        trace.emit(|| TraceEvent::KnownBadSkip {
                            kernel: kernel.to_string(),
                            iteration,
                            cfg: down.into(),
                        });
                        continue;
                    }
                    next = down;
                    state.last_moves.push((t, Direction::Down));
                    break;
                }
                state.freeze(t);
            }
        } else {
            for &t in candidates.iter() {
                if let Some(down) = next.step_down_on(&self.grid, t) {
                    next = down;
                    state.last_moves.push((t, Direction::Down));
                } else {
                    state.freeze(t);
                }
            }
            if state.bad.contains(&next) {
                // The concurrent probe lands on a known-bad point: retry
                // one tunable at a time, skipping known-bad neighbours.
                trace.emit(|| TraceEvent::KnownBadSkip {
                    kernel: kernel.to_string(),
                    iteration,
                    cfg: next.into(),
                });
                state.last_moves.clear();
                next = cfg;
                for &t in candidates.iter() {
                    if let Some(down) = cfg.step_down_on(&self.grid, t) {
                        if !state.bad.contains(&down) {
                            next = down;
                            state.last_moves.push((t, Direction::Down));
                            break;
                        }
                    }
                }
            }
        }
        next
    }

    /// Increment move: undo the `blamed` probe (the previous move's
    /// downward steps), or climb when the degradation was not our doing
    /// (e.g. a coarse-grain misprediction).
    fn step_upward(&self, state: &mut FgState, cfg: HwConfig, blamed: Tunables) -> HwConfig {
        let mut next = cfg;
        state.last_moves.clear();
        if blamed.len() > 1 {
            state.sequential = true;
        }
        let targets = if blamed.is_empty() {
            // Nothing to blame: recover by raising every managed tunable.
            self.tunables
        } else {
            blamed
        };
        for &t in targets.iter() {
            if let Some(up) = next.step_up_on(&self.grid, t) {
                next = up;
                state.last_moves.push((t, Direction::Up));
            }
        }
        next
    }
}

impl Default for FineGrain {
    fn default() -> Self {
        Self::new()
    }
}

/// The tunables `moves` stepped down: the ones a degradation blames.
fn blamed_tunables(moves: &[(Tunable, Direction)]) -> Tunables {
    moves
        .iter()
        .filter(|(_, d)| *d == Direction::Down)
        .map(|(t, _)| *t)
        .collect()
}

/// Emits an [`TraceEvent::FgProbe`] for a move from `from` to `to` (no-op
/// when the step produced no move or tracing is disabled).
fn emit_probe(
    trace: &TraceHandle,
    kernel: &str,
    iteration: u64,
    from: HwConfig,
    to: HwConfig,
    moves: &[(Tunable, Direction)],
) {
    if from == to {
        return;
    }
    trace.emit(|| TraceEvent::FgProbe {
        kernel: kernel.to_string(),
        iteration,
        from: from.into(),
        to: to.into(),
        moved_down: moves
            .iter()
            .filter(|(_, d)| *d == Direction::Down)
            .map(|(t, _)| *t)
            .collect(),
        moved_up: moves
            .iter()
            .filter(|(_, d)| *d == Direction::Up)
            .map(|(t, _)| *t)
            .collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allow_all(_: Tunable) -> bool {
        true
    }

    #[test]
    fn first_step_probes_downward() {
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let next = fg.step(&mut st, HwConfig::max_hd7970(), 100.0, allow_all);
        assert!(next.compute.cu_count() < 32);
        assert!(next.compute.freq().value() < 1000);
        assert!(next.memory.bus_freq().value() < 1375);
    }

    #[test]
    fn high_bins_are_not_probed_down() {
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let next = fg.step(&mut st, HwConfig::max_hd7970(), 100.0, |t| {
            t == Tunable::MemFreq
        });
        assert_eq!(next.compute.cu_count(), 32);
        assert_eq!(next.compute.freq().value(), 1000);
        assert!(next.memory.bus_freq().value() < 1375);
    }

    #[test]
    fn stable_rate_keeps_reducing() {
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let mut cfg = HwConfig::max_hd7970();
        for _ in 0..3 {
            cfg = fg.step(&mut st, cfg, 100.0, allow_all);
        }
        assert!(cfg.compute.cu_count() <= 24);
    }

    #[test]
    fn degradation_increments_and_isolates() {
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let start = HwConfig::max_hd7970();
        let probed = fg.step(&mut st, start, 100.0, allow_all);
        let recovered = fg.step(&mut st, probed, 50.0, allow_all);
        assert_eq!(recovered, start, "all probed moves must be undone");
        assert!(st.sequential, "multi-tunable blame → sequential probing");
    }

    #[test]
    fn degrading_probe_is_never_retried() {
        let fg = FineGrain::with_tunables(vec![Tunable::MemFreq]).with_max_dither(2);
        let mut st = FgState::new();
        let mut cfg = HwConfig::max_hd7970();
        // Downward probe halves throughput; recovery restores it. After one
        // failed probe the bad-config memory must keep the loop at the top.
        let mut at_max = true;
        let mut low_visits = 0;
        for _ in 0..12 {
            let rate = if at_max { 100.0 } else { 40.0 };
            let next = fg.step(&mut st, cfg, rate, allow_all);
            at_max = next.memory.bus_freq().value() == 1375;
            if !at_max {
                low_visits += 1;
            }
            cfg = next;
        }
        assert!(
            low_visits <= 1,
            "known-bad configuration probed {low_visits} times"
        );
        assert_eq!(cfg.memory.bus_freq().value(), 1375, "settles at the best state");
    }

    #[test]
    fn converged_state_is_sticky() {
        let fg = FineGrain::with_tunables(vec![Tunable::MemFreq]).with_max_dither(0);
        let mut st = FgState::new();
        let c0 = HwConfig::max_hd7970();
        let c1 = fg.step(&mut st, c0, 100.0, allow_all);
        let c2 = fg.step(&mut st, c1, 10.0, allow_all); // dither>0 → converge
        assert!(st.converged());
        let c3 = fg.step(&mut st, c2, 55.0, allow_all);
        assert_eq!(c2, c3, "no more moves after convergence");
    }

    #[test]
    fn climbs_after_external_degradation() {
        // A degradation with no probe to blame (e.g. CG misprediction)
        // raises every managed tunable.
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let low = HwConfig::min_hd7970();
        // Baseline at a decent rate, no moves recorded.
        st.last_rate = Some(100.0);
        let next = fg.step(&mut st, low, 30.0, |_| false);
        assert!(next.compute.cu_count() > 4);
        assert!(next.compute.freq().value() > 300);
        assert!(next.memory.bus_freq().value() > 475);
    }

    #[test]
    fn grid_minimum_freezes() {
        let fg = FineGrain::with_tunables(vec![Tunable::CuFreq]);
        let mut st = FgState::new();
        let mut cfg = HwConfig::max_hd7970();
        for _ in 0..12 {
            cfg = fg.step(&mut st, cfg, 100.0, allow_all);
        }
        assert_eq!(cfg.compute.freq().value(), 300);
        assert!(st.is_frozen(Tunable::CuFreq));
    }

    #[test]
    fn improving_rate_never_reverts() {
        let fg = FineGrain::with_tunables(vec![Tunable::CuCount]);
        let mut st = FgState::new();
        let mut cfg = HwConfig::max_hd7970();
        let mut rate = 100.0;
        for _ in 0..3 {
            cfg = fg.step(&mut st, cfg, rate, allow_all);
            rate *= 1.05; // thrash-prone kernel: fewer CUs run faster
        }
        assert!(cfg.compute.cu_count() <= 24);
        assert_eq!(st.dither, 0);
    }

    #[test]
    fn retune_clears_search_but_keeps_history() {
        let fg = FineGrain::new();
        let mut st = FgState::new();
        let _ = fg.step(&mut st, HwConfig::max_hd7970(), 100.0, allow_all);
        st.retune();
        assert!(st.last_rate.is_some(), "rate history survives retune");
        assert!(!st.converged());
        assert_eq!(st.dither, 0);
        assert!(
            st.best_cfg.is_some(),
            "best state survives retune so mispredictions can be undone"
        );
    }

    #[test]
    fn foreign_grid_steps_stay_on_that_lattice() {
        use harmonia_types::DeviceSpec;
        let spec = DeviceSpec::v100();
        let grid = *spec.grid();
        let fg = FineGrain::new().with_grid(grid);
        let mut st = FgState::new();
        let mut cfg = harmonia_types::HwConfig::max_on(&grid);
        for _ in 0..5 {
            cfg = fg.step(&mut st, cfg, 100.0, allow_all);
            assert!(
                harmonia_types::ComputeConfig::new_on(&grid, cfg.compute.cu_count(), cfg.compute.freq()).is_ok(),
                "FG stepped off the v100 grid: {cfg}"
            );
        }
        assert!(cfg.compute.cu_count() < grid.cu_max);
    }

    #[test]
    fn climb_continues_while_improving() {
        let fg = FineGrain::new();
        let mut st = FgState::new();
        // External degradation at a low config with no blamed moves.
        st.last_rate = Some(100.0);
        let low = HwConfig::min_hd7970();
        let up1 = fg.step(&mut st, low, 30.0, |_| false); // climb all
        assert!(up1.compute.cu_count() > 4);
        // Improvement: the climb continues upward rather than probing down.
        let up2 = fg.step(&mut st, up1, 60.0, |_| false);
        assert!(up2.compute.cu_count() > up1.compute.cu_count());
        assert!(up2.memory.bus_freq() > up1.memory.bus_freq());
    }
}
