//! The typed session configuration behind the `HARMONIA_*` environment
//! knobs.
//!
//! Three environment variables tune a Harmonia process — [`TRACE_ENV`]
//! enables decision telemetry, [`THREADS_ENV`] overrides the sweep pool
//! width, and [`FAULT_SEED_ENV`] seeds the chaos fault plans. Their parsing
//! used to be scattered across the telemetry, sweep, and fault modules;
//! [`Session`] centralizes it in one place so every consumer agrees on the
//! semantics and programmatic overrides compose with the environment:
//!
//! ```
//! use harmonia_types::session::Session;
//!
//! // Environment first, explicit overrides second.
//! let session = Session::from_env().with_trace(true);
//! assert!(session.trace());
//! ```
//!
//! The CI matrix runs the suite once per knob (`default`, `HARMONIA_THREADS=1`,
//! `HARMONIA_TRACE=1`, `HARMONIA_FAULT_SEED=1`); a grep gate keeps
//! `std::env::var` reads of these knobs out of every other module.

/// Environment variable that globally enables runtime decision tracing
/// (`HARMONIA_TRACE=1` or `=true`, case-insensitive).
pub const TRACE_ENV: &str = "HARMONIA_TRACE";

/// Environment variable that overrides the sweep worker-pool width
/// (`HARMONIA_THREADS=<n>`, positive integers only).
pub const THREADS_ENV: &str = "HARMONIA_THREADS";

/// Environment variable that seeds chaos fault plans
/// (`HARMONIA_FAULT_SEED=<u64>`).
pub const FAULT_SEED_ENV: &str = "HARMONIA_FAULT_SEED";

/// Environment variable that sets the fleet scheduler's device count
/// (`HARMONIA_FLEET_DEVICES=<n>`, positive integers only).
pub const FLEET_DEVICES_ENV: &str = "HARMONIA_FLEET_DEVICES";

/// Environment variable that sets the fleet scheduler's global power cap in
/// watts (`HARMONIA_FLEET_CAP_W=<watts>`, positive finite numbers only).
pub const FLEET_CAP_ENV: &str = "HARMONIA_FLEET_CAP_W";

/// Environment variable that selects the target device by catalog name
/// (`HARMONIA_DEVICE=<name>`, e.g. `hd7970`, `v100`, `h100`, `jetson-orin`).
/// The raw name is carried verbatim; resolution against the catalog happens
/// at the construction site so unknown names fail loudly, not silently.
pub const DEVICE_ENV: &str = "HARMONIA_DEVICE";

/// Default fault-plan seed when [`FAULT_SEED_ENV`] is unset or unparsable.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// A process-wide session configuration: the parsed values of the
/// `HARMONIA_*` knobs, with builder-style programmatic overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    trace: bool,
    threads: Option<usize>,
    fault_seed: u64,
    fleet_devices: Option<usize>,
    fleet_cap_w: Option<f64>,
    device: Option<String>,
}

impl Default for Session {
    /// The configuration with every knob unset: tracing off, pool width
    /// from the platform, the default fault seed, no fleet overrides.
    fn default() -> Self {
        Self {
            trace: false,
            threads: None,
            fault_seed: DEFAULT_FAULT_SEED,
            fleet_devices: None,
            fleet_cap_w: None,
            device: None,
        }
    }
}

impl Session {
    /// Parses the session from the process environment. This is the only
    /// place in the workspace that reads the `HARMONIA_*` variables.
    pub fn from_env() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// Parses the session from an arbitrary key→value lookup — the
    /// testable core of [`from_env`](Self::from_env). Parsing semantics:
    ///
    /// * trace: enabled iff the value is `1` or `true` (case-insensitive);
    /// * threads: a positive integer, anything else ignored;
    /// * fault seed: a `u64`, anything else falls back to
    ///   [`DEFAULT_FAULT_SEED`];
    /// * fleet devices: a positive integer, anything else ignored;
    /// * fleet cap: a positive finite number of watts, anything else
    ///   ignored;
    /// * device: a non-empty catalog name carried verbatim (trimmed),
    ///   resolved against the catalog at the construction site.
    pub fn from_lookup<F: Fn(&str) -> Option<String>>(lookup: F) -> Self {
        Self {
            trace: lookup(TRACE_ENV).is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true")),
            threads: lookup(THREADS_ENV)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0),
            fault_seed: lookup(FAULT_SEED_ENV)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(DEFAULT_FAULT_SEED),
            fleet_devices: lookup(FLEET_DEVICES_ENV)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0),
            fleet_cap_w: lookup(FLEET_CAP_ENV)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|w| w.is_finite() && *w > 0.0),
            device: lookup(DEVICE_ENV)
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty()),
        }
    }

    /// Overrides the tracing switch (wins over the environment).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Overrides the sweep pool width; `None` restores the platform
    /// default (wins over the environment).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads.filter(|&n| n > 0);
        self
    }

    /// Overrides the fault-plan seed (wins over the environment).
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Overrides the fleet device count; `None` restores "let the caller
    /// pick" (wins over the environment).
    pub fn with_fleet_devices(mut self, devices: Option<usize>) -> Self {
        self.fleet_devices = devices.filter(|&n| n > 0);
        self
    }

    /// Overrides the fleet global power cap in watts; `None` restores
    /// "uncapped" (wins over the environment).
    pub fn with_fleet_cap_w(mut self, cap_w: Option<f64>) -> Self {
        self.fleet_cap_w = cap_w.filter(|w| w.is_finite() && *w > 0.0);
        self
    }

    /// Overrides the target device name; `None` restores the default
    /// device (wins over the environment). Empty names are rejected.
    pub fn with_device(mut self, device: Option<String>) -> Self {
        self.device = device
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty());
        self
    }

    /// Whether decision telemetry is enabled.
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// The sweep pool-width override, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The chaos fault-plan seed.
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }

    /// The fleet device-count override, if any.
    pub fn fleet_devices(&self) -> Option<usize> {
        self.fleet_devices
    }

    /// The fleet global power cap in watts, if any.
    pub fn fleet_cap_w(&self) -> Option<f64> {
        self.fleet_cap_w
    }

    /// The requested device name, if any (raw — resolve it against the
    /// catalog with `DeviceSpec::from_str`).
    pub fn device(&self) -> Option<&str> {
        self.device.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lookup(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |key: &str| map.get(key).cloned()
    }

    #[test]
    fn empty_environment_is_the_default_session() {
        let s = Session::from_lookup(|_| None);
        assert_eq!(s, Session::default());
        assert!(!s.trace());
        assert_eq!(s.threads(), None);
        assert_eq!(s.fault_seed(), DEFAULT_FAULT_SEED);
    }

    /// The five CI matrix legs, round-tripped through the parser: default,
    /// single-thread, traced, fault-seeded, and device-selected.
    #[test]
    fn ci_matrix_legs_parse_to_their_sessions() {
        let legs: [(&[(&str, &str)], Session); 5] = [
            (&[], Session::default()),
            (
                &[(THREADS_ENV, "1")],
                Session::default().with_threads(Some(1)),
            ),
            (&[(TRACE_ENV, "1")], Session::default().with_trace(true)),
            (
                &[(FAULT_SEED_ENV, "1")],
                Session::default().with_fault_seed(1),
            ),
            (
                &[(DEVICE_ENV, "v100")],
                Session::default().with_device(Some("v100".to_string())),
            ),
        ];
        for (vars, expected) in legs {
            assert_eq!(Session::from_lookup(lookup(vars)), expected, "leg {vars:?}");
        }
    }

    #[test]
    fn device_is_carried_verbatim_but_trimmed_and_never_empty() {
        assert_eq!(
            Session::from_lookup(lookup(&[(DEVICE_ENV, "jetson-orin")])).device(),
            Some("jetson-orin")
        );
        assert_eq!(
            Session::from_lookup(lookup(&[(DEVICE_ENV, "  h100 ")])).device(),
            Some("h100")
        );
        // Unknown names are carried too — resolution errors at the
        // construction site, not silently here.
        assert_eq!(
            Session::from_lookup(lookup(&[(DEVICE_ENV, "gtx480")])).device(),
            Some("gtx480")
        );
        for v in ["", "   "] {
            assert_eq!(
                Session::from_lookup(lookup(&[(DEVICE_ENV, v)])).device(),
                None,
                "{v:?}"
            );
        }
        assert_eq!(Session::default().device(), None);
    }

    #[test]
    fn device_override_wins_over_the_environment() {
        let env = lookup(&[(DEVICE_ENV, "v100")]);
        let s = Session::from_lookup(&env).with_device(Some("h100".to_string()));
        assert_eq!(s.device(), Some("h100"));
        let cleared = Session::from_lookup(&env).with_device(None);
        assert_eq!(cleared.device(), None);
        let blank = Session::from_lookup(&env).with_device(Some("  ".to_string()));
        assert_eq!(blank.device(), None);
    }

    #[test]
    fn trace_accepts_one_and_true_case_insensitively() {
        for v in ["1", "true", "TRUE", "True"] {
            assert!(
                Session::from_lookup(lookup(&[(TRACE_ENV, v)])).trace(),
                "{v}"
            );
        }
        for v in ["0", "", "yes", "on", "2"] {
            assert!(
                !Session::from_lookup(lookup(&[(TRACE_ENV, v)])).trace(),
                "{v}"
            );
        }
    }

    #[test]
    fn threads_must_be_a_positive_integer() {
        assert_eq!(
            Session::from_lookup(lookup(&[(THREADS_ENV, "8")])).threads(),
            Some(8)
        );
        for v in ["0", "-3", "eight", "", "1.5"] {
            assert_eq!(
                Session::from_lookup(lookup(&[(THREADS_ENV, v)])).threads(),
                None,
                "{v}"
            );
        }
    }

    #[test]
    fn fault_seed_falls_back_to_the_default_on_garbage() {
        assert_eq!(
            Session::from_lookup(lookup(&[(FAULT_SEED_ENV, "42")])).fault_seed(),
            42
        );
        for v in ["", "-1", "0x10", "seed"] {
            assert_eq!(
                Session::from_lookup(lookup(&[(FAULT_SEED_ENV, v)])).fault_seed(),
                DEFAULT_FAULT_SEED,
                "{v}"
            );
        }
    }

    #[test]
    fn programmatic_overrides_win_over_the_environment() {
        let env = lookup(&[(TRACE_ENV, "1"), (THREADS_ENV, "4"), (FAULT_SEED_ENV, "7")]);
        let s = Session::from_lookup(&env)
            .with_trace(false)
            .with_threads(Some(2))
            .with_fault_seed(99);
        assert!(!s.trace());
        assert_eq!(s.threads(), Some(2));
        assert_eq!(s.fault_seed(), 99);
        // And the un-overridden parse still reflects the environment.
        let parsed = Session::from_lookup(&env);
        assert!(parsed.trace());
        assert_eq!(parsed.threads(), Some(4));
        assert_eq!(parsed.fault_seed(), 7);
    }

    #[test]
    fn zero_thread_override_is_rejected_like_the_env_value() {
        assert_eq!(Session::default().with_threads(Some(0)).threads(), None);
    }

    #[test]
    fn fleet_devices_must_be_a_positive_integer() {
        assert_eq!(
            Session::from_lookup(lookup(&[(FLEET_DEVICES_ENV, "1024")])).fleet_devices(),
            Some(1024)
        );
        for v in ["0", "-8", "many", "", "2.5"] {
            assert_eq!(
                Session::from_lookup(lookup(&[(FLEET_DEVICES_ENV, v)])).fleet_devices(),
                None,
                "{v}"
            );
        }
        assert_eq!(Session::default().fleet_devices(), None);
    }

    #[test]
    fn fleet_cap_must_be_positive_finite_watts() {
        assert_eq!(
            Session::from_lookup(lookup(&[(FLEET_CAP_ENV, "153600")])).fleet_cap_w(),
            Some(153600.0)
        );
        assert_eq!(
            Session::from_lookup(lookup(&[(FLEET_CAP_ENV, "185.5")])).fleet_cap_w(),
            Some(185.5)
        );
        for v in ["0", "-185", "inf", "NaN", "lots", ""] {
            assert_eq!(
                Session::from_lookup(lookup(&[(FLEET_CAP_ENV, v)])).fleet_cap_w(),
                None,
                "{v}"
            );
        }
        assert_eq!(Session::default().fleet_cap_w(), None);
    }

    #[test]
    fn fleet_overrides_win_and_reject_degenerate_values() {
        let env = lookup(&[(FLEET_DEVICES_ENV, "8"), (FLEET_CAP_ENV, "100")]);
        let s = Session::from_lookup(&env)
            .with_fleet_devices(Some(16))
            .with_fleet_cap_w(Some(200.0));
        assert_eq!(s.fleet_devices(), Some(16));
        assert_eq!(s.fleet_cap_w(), Some(200.0));
        let cleared = Session::from_lookup(&env)
            .with_fleet_devices(Some(0))
            .with_fleet_cap_w(Some(f64::NAN));
        assert_eq!(cleared.fleet_devices(), None);
        assert_eq!(cleared.fleet_cap_w(), None);
    }

    #[test]
    fn from_env_matches_a_manual_environment_lookup() {
        // Whatever the ambient environment holds, from_env and from_lookup
        // over the same source agree.
        assert_eq!(
            Session::from_env(),
            Session::from_lookup(|k| std::env::var(k).ok())
        );
    }
}
