//! Water-filling partition of one global power cap across devices.
//!
//! Every tick each device reports a [`DeviceDemand`]: the projected card
//! power of its grid-floor configuration (`floor`), of its unconstrained
//! ED²-optimal configuration (`demand`), and its predicted ED² marginal
//! benefit per watt of headroom (`weight`). The [`ClusterGovernor`] grants
//! each device
//!
//! ```text
//! c_i = floor_i + min(extra_i, λ·w_i),   extra_i = demand_i − floor_i
//! ```
//!
//! with one water level `λ ≥ 0` chosen so `Σ c_i` meets the distributable
//! budget: devices whose full demand costs less than their fair share
//! saturate at `demand_i`, and the leftover headroom flows to the devices
//! with the steepest predicted ED² improvement per watt — classic
//! water-filling on marginal benefit. When even `Σ floor_i` exceeds the
//! budget the tick is *infeasible*: every device is held at its floor and
//! the scheduler counts the tick, since no partition can honor the cap.
//!
//! # Determinism and symmetry
//!
//! The partition runs in the scheduler's serial phase. Breakpoints are
//! sorted with a device-id tie-break and every float reduction runs in
//! that fixed order, so the result is byte-stable. Devices with
//! bit-identical demands receive bit-identical grants (`min(extra, λ·w)`
//! is a pure per-device function of λ), which keeps symmetric fleets
//! symmetric; the rounding of λ can overshoot the distributable budget by
//! a few ulps, which the governor's transient margin absorbs many orders
//! of magnitude over.

use harmonia_types::Watts;

/// One device's per-tick power telemetry, as projected by the device
/// session from its most recent observed activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceDemand {
    /// Projected card power at the grid-floor configuration — the least
    /// the device can draw while still running.
    pub floor: f64,
    /// Projected card power at the unconstrained ED²-optimal
    /// configuration — what the device would draw with no cluster cap.
    pub demand: f64,
    /// Predicted ED² marginal benefit per watt of headroom above the
    /// floor (≥ 0); the water-filling weight.
    pub weight: f64,
}

/// The result of one cap partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-device cap shares, in device-id order.
    pub caps: Vec<Watts>,
    /// Whether even the floors exceeded the budget (shares are then the
    /// floors themselves and the cap cannot be honored this tick).
    pub infeasible: bool,
    /// The water level that cleared the market (`f64::INFINITY` when every
    /// demand fit under the budget).
    pub lambda: f64,
}

/// Partitions a global power cap across devices by water-filling on
/// predicted ED² marginal benefit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterGovernor {
    cap: Watts,
    margin: f64,
}

/// Weight floor: a device whose predicted benefit is zero (or whose gap is
/// degenerate) still participates with a vanishing weight, so uniform
/// fleets split headroom evenly instead of starving everyone.
const MIN_WEIGHT: f64 = 1e-12;

impl ClusterGovernor {
    /// A governor distributing `cap` with the default 2% transient margin.
    ///
    /// The margin guards the one-tick window after a re-balance: each
    /// device's clamp projects power from activity observed at the
    /// *previous* grant, so a config change can overshoot its share by the
    /// activity drift until the next observation lands. Holding back 2% of
    /// the cap absorbs that drift; steady-state (phase-stable) fleets are
    /// exact and never need it.
    pub fn new(cap: Watts) -> Self {
        Self { cap, margin: 0.02 }
    }

    /// Overrides the transient margin (fraction of the cap withheld from
    /// distribution, clamped to `[0, 0.5]`).
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin.clamp(0.0, 0.5);
        self
    }

    /// The global cap being distributed.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// Partitions the cap over `demands` (device-id order). Runs in the
    /// scheduler's serial phase; every reduction is fixed-order.
    pub fn partition(&self, demands: &[DeviceDemand]) -> Allocation {
        let budget = self.cap.value() * (1.0 - self.margin);
        let floors: f64 = demands.iter().map(|d| d.floor).sum();
        if floors >= budget {
            return Allocation {
                caps: demands.iter().map(|d| Watts(d.floor)).collect(),
                infeasible: true,
                lambda: 0.0,
            };
        }
        let extras: Vec<f64> = demands
            .iter()
            .map(|d| (d.demand - d.floor).max(0.0))
            .collect();
        let weights: Vec<f64> = demands.iter().map(|d| d.weight.max(MIN_WEIGHT)).collect();
        let remaining = budget - floors;
        let total_extra: f64 = extras.iter().sum();
        let lambda = if total_extra <= remaining {
            f64::INFINITY
        } else {
            self.water_level(&extras, &weights, remaining)
        };
        // `min(extra, λ·w)` is a pure per-device function of λ, so
        // bit-identical demands get bit-identical grants; λ's rounding can
        // overshoot the budget only by ulps, which the margin dwarfs.
        let caps = demands
            .iter()
            .zip(extras.iter().zip(&weights))
            .map(|(d, (&extra, &w))| Watts(d.floor + extra.min(lambda * w).max(0.0)))
            .collect();
        Allocation {
            caps,
            infeasible: false,
            lambda,
        }
    }

    /// Finds λ with `Σ min(extra_i, λ·w_i) = remaining` by walking the
    /// saturation breakpoints `b_i = extra_i / w_i` in ascending order
    /// (device-id tie-break keeps the walk deterministic).
    fn water_level(&self, extras: &[f64], weights: &[f64], remaining: f64) -> f64 {
        let mut order: Vec<usize> = (0..extras.len()).collect();
        order.sort_by(|&a, &b| {
            let ba = extras[a] / weights[a];
            let bb = extras[b] / weights[b];
            ba.partial_cmp(&bb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // Devices below the water level contribute λ·w_i; saturated ones
        // contribute their full extra. Walk breakpoints until the level
        // fits between two of them.
        let mut saturated = 0.0_f64;
        let mut live_weight: f64 = weights.iter().sum();
        for &i in &order {
            let b = extras[i] / weights[i];
            if saturated + b * live_weight >= remaining {
                return (remaining - saturated) / live_weight;
            }
            saturated += extras[i];
            live_weight -= weights[i];
        }
        // Σ extras ≤ remaining is handled by the caller; reaching here
        // means rounding ate the last breakpoint — everyone saturates.
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_total(a: &Allocation) -> f64 {
        a.caps.iter().map(|c| c.value()).sum()
    }

    #[test]
    fn ample_budget_grants_every_demand() {
        let g = ClusterGovernor::new(Watts(1000.0)).with_margin(0.0);
        let demands = vec![
            DeviceDemand {
                floor: 100.0,
                demand: 250.0,
                weight: 1.0,
            },
            DeviceDemand {
                floor: 100.0,
                demand: 200.0,
                weight: 2.0,
            },
        ];
        let a = g.partition(&demands);
        assert!(!a.infeasible);
        assert_eq!(a.lambda, f64::INFINITY);
        assert_eq!(a.caps, vec![Watts(250.0), Watts(200.0)]);
    }

    #[test]
    fn tight_budget_never_exceeds_the_cap_and_favors_high_weight() {
        let g = ClusterGovernor::new(Watts(300.0)).with_margin(0.0);
        let demands = vec![
            DeviceDemand {
                floor: 100.0,
                demand: 300.0,
                weight: 1.0,
            },
            DeviceDemand {
                floor: 100.0,
                demand: 300.0,
                weight: 3.0,
            },
        ];
        let a = g.partition(&demands);
        assert!(!a.infeasible);
        assert!(alloc_total(&a) <= 300.0 + 1e-9);
        let extra0 = a.caps[0].value() - 100.0;
        let extra1 = a.caps[1].value() - 100.0;
        assert!(
            extra1 > extra0,
            "headroom must flow to the steeper ED² gradient"
        );
        // Water-filling: un-saturated extras are proportional to weights.
        assert!((extra1 / extra0 - 3.0).abs() < 1e-9, "{extra0} vs {extra1}");
    }

    #[test]
    fn saturated_devices_free_headroom_for_the_rest() {
        let g = ClusterGovernor::new(Watts(460.0)).with_margin(0.0);
        let demands = vec![
            DeviceDemand {
                floor: 100.0,
                demand: 120.0,
                weight: 5.0,
            }, // saturates at 20 W extra
            DeviceDemand {
                floor: 100.0,
                demand: 400.0,
                weight: 1.0,
            },
        ];
        let a = g.partition(&demands);
        assert_eq!(a.caps[0], Watts(120.0), "cheap demand is fully granted");
        assert!(
            (a.caps[1].value() - 340.0).abs() < 1e-9,
            "rest flows on: {:?}",
            a
        );
    }

    #[test]
    fn infeasible_floors_hold_every_device_at_its_floor() {
        let g = ClusterGovernor::new(Watts(150.0)).with_margin(0.0);
        let demands = vec![
            DeviceDemand {
                floor: 100.0,
                demand: 200.0,
                weight: 1.0,
            },
            DeviceDemand {
                floor: 100.0,
                demand: 200.0,
                weight: 1.0,
            },
        ];
        let a = g.partition(&demands);
        assert!(a.infeasible);
        assert_eq!(a.caps, vec![Watts(100.0), Watts(100.0)]);
    }

    #[test]
    fn zero_weights_still_split_headroom_evenly() {
        let g = ClusterGovernor::new(Watts(300.0)).with_margin(0.0);
        let demands = vec![
            DeviceDemand {
                floor: 100.0,
                demand: 200.0,
                weight: 0.0,
            },
            DeviceDemand {
                floor: 100.0,
                demand: 200.0,
                weight: 0.0,
            },
        ];
        let a = g.partition(&demands);
        assert!(!a.infeasible);
        assert!((a.caps[0].value() - 150.0).abs() < 1e-9);
        assert!((a.caps[1].value() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn grants_overshoot_the_budget_by_at_most_rounding_ulps() {
        // Awkward magnitudes that stress rounding in the λ solve: any
        // overshoot must stay at ulp scale (the margin absorbs it).
        let g = ClusterGovernor::new(Watts(1234.567)).with_margin(0.0);
        let demands: Vec<DeviceDemand> = (0..97)
            .map(|i| DeviceDemand {
                floor: 7.3 + (i as f64) * 0.011,
                demand: 19.9 + (i as f64) * 0.017,
                weight: 0.1 + ((i * 37) % 11) as f64,
            })
            .collect();
        let a = g.partition(&demands);
        assert!(!a.infeasible);
        let total: f64 = a.caps.iter().map(|c| c.value()).sum();
        assert!(
            total <= 1234.567 * (1.0 + 1e-12),
            "grants overshot the budget beyond rounding: {total}"
        );
    }
}
