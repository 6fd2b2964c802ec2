//! DVFS tables: voltage/frequency operating points.
//!
//! Table 1 of the paper gives the HD7970's DPM states (300 MHz @ 0.85 V,
//! 500 MHz @ 0.95 V, 925 MHz @ 1.17 V) plus a 1 GHz boost state at 1.19 V.
//! Harmonia varies the compute clock in 100 MHz steps, so [`DvfsTable`]
//! interpolates the supply voltage piecewise-linearly between the published
//! points — the same voltage-follows-frequency behaviour the real platform's
//! SMU implements.
//!
//! The memory interface voltage is *fixed* (the paper could not scale it;
//! Section 3.3), which [`DvfsTable::memory_voltage`] reflects.

use crate::units::{MegaHertz, Volts};
use serde::Serialize;
use std::fmt;

/// A single dynamic power management state: a frequency/voltage pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DpmState {
    /// State name, e.g. "DPM0".
    pub name: &'static str,
    /// Clock frequency of the state.
    pub freq: MegaHertz,
    /// Supply voltage of the state.
    pub voltage: Volts,
}

impl fmt::Display for DpmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} @ {}", self.name, self.freq, self.voltage)
    }
}

/// The GPU voltage/frequency table (Table 1 plus the boost state), with
/// piecewise-linear voltage interpolation for the intermediate 100 MHz steps
/// Harmonia uses.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DvfsTable {
    states: Vec<DpmState>,
    memory_voltage: Volts,
}

impl DvfsTable {
    /// The HD7970 table: DPM0/1/2 from Table 1 plus the 1 GHz / 1.19 V boost
    /// state mentioned in Section 2.3. Memory voltage is the fixed 1.5 V
    /// GDDR5 rail.
    pub fn hd7970() -> Self {
        Self {
            states: vec![
                DpmState {
                    name: "DPM0",
                    freq: MegaHertz(300),
                    voltage: Volts(0.85),
                },
                DpmState {
                    name: "DPM1",
                    freq: MegaHertz(500),
                    voltage: Volts(0.95),
                },
                DpmState {
                    name: "DPM2",
                    freq: MegaHertz(925),
                    voltage: Volts(1.17),
                },
                DpmState {
                    name: "BOOST",
                    freq: MegaHertz(1000),
                    voltage: Volts(1.19),
                },
            ],
            memory_voltage: Volts(1.5),
        }
    }

    /// Builds a table from explicit DPM states and a fixed memory-rail
    /// voltage. Used by the device catalog to describe non-HD7970 parts.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or not strictly ascending by frequency.
    pub fn from_states(states: Vec<DpmState>, memory_voltage: Volts) -> Self {
        assert!(!states.is_empty(), "DVFS table must not be empty");
        assert!(
            states.windows(2).all(|w| w[0].freq < w[1].freq),
            "DVFS states must ascend strictly by frequency"
        );
        Self {
            states,
            memory_voltage,
        }
    }

    /// The published DPM states, ascending by frequency.
    pub fn states(&self) -> &[DpmState] {
        &self.states
    }

    /// Supply voltage required to run the compute domain at `freq`,
    /// interpolated piecewise-linearly between DPM states and clamped to the
    /// table's end points.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty (the provided constructors never build
    /// an empty table).
    pub fn voltage_for(&self, freq: MegaHertz) -> Volts {
        assert!(!self.states.is_empty(), "DVFS table must not be empty");
        let first = &self.states[0];
        if freq <= first.freq {
            return first.voltage;
        }
        for pair in self.states.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            if freq <= hi.freq {
                let span = f64::from(hi.freq.value() - lo.freq.value());
                let frac = f64::from(freq.value() - lo.freq.value()) / span;
                return Volts(
                    lo.voltage.value() + frac * (hi.voltage.value() - lo.voltage.value()),
                );
            }
        }
        self.states.last().expect("non-empty").voltage
    }

    /// The fixed memory-interface voltage (the platform cannot scale it).
    pub fn memory_voltage(&self) -> Volts {
        self.memory_voltage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_published_states() {
        let t = DvfsTable::hd7970();
        assert_eq!(t.states().len(), 4);
        assert_eq!(t.states()[0].freq, MegaHertz(300));
        assert_eq!(t.states()[0].voltage, Volts(0.85));
        assert_eq!(t.states()[2].freq, MegaHertz(925));
        assert_eq!(t.states()[2].voltage, Volts(1.17));
        assert_eq!(t.states()[3].name, "BOOST");
    }

    #[test]
    fn voltage_exact_at_published_points() {
        let t = DvfsTable::hd7970();
        assert_eq!(t.voltage_for(MegaHertz(300)), Volts(0.85));
        assert_eq!(t.voltage_for(MegaHertz(500)), Volts(0.95));
        assert_eq!(t.voltage_for(MegaHertz(925)), Volts(1.17));
        assert_eq!(t.voltage_for(MegaHertz(1000)), Volts(1.19));
    }

    #[test]
    fn voltage_interpolates_between_points() {
        let t = DvfsTable::hd7970();
        let v400 = t.voltage_for(MegaHertz(400));
        assert!((v400.value() - 0.90).abs() < 1e-12);
        let v700 = t.voltage_for(MegaHertz(700));
        // 500→925 spans 425 MHz and 0.22 V; 200/425 of the way up.
        let expected = 0.95 + 200.0 / 425.0 * 0.22;
        assert!((v700.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn voltage_clamps_outside_table() {
        let t = DvfsTable::hd7970();
        assert_eq!(t.voltage_for(MegaHertz(100)), Volts(0.85));
        assert_eq!(t.voltage_for(MegaHertz(1200)), Volts(1.19));
    }

    #[test]
    fn voltage_is_monotone_in_frequency() {
        let t = DvfsTable::hd7970();
        let mut prev = Volts(0.0);
        for f in (300..=1000).step_by(100) {
            let v = t.voltage_for(MegaHertz(f));
            assert!(v >= prev, "voltage not monotone at {f} MHz");
            prev = v;
        }
    }

    #[test]
    fn memory_voltage_is_fixed() {
        let t = DvfsTable::hd7970();
        assert_eq!(t.memory_voltage(), Volts(1.5));
    }

    #[test]
    fn dpm_state_display() {
        let t = DvfsTable::hd7970();
        let s = t.states()[0].to_string();
        assert!(s.contains("DPM0") && s.contains("300 MHz"));
    }
}
