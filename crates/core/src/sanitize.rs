//! Counter sanitization: the hardening stage between the monitoring block
//! and everything that consumes its samples.
//!
//! Real counter reads glitch — values come back non-finite, out of physical
//! range, latched at zero, or spiked by orders of magnitude (see
//! `harmonia_sim::faults` for the injected taxonomy). An unhardened pipeline
//! feeds those readings straight into power accounting and the governor's
//! learning loops, where a single NaN poisons the whole run's energy total.
//! [`CounterSanitizer`] guarantees that everything downstream of it only
//! ever sees finite, in-range samples:
//!
//! 1. **Hard checks** — every float field must be finite and inside its
//!    physical range (percentages in 0–100, fractions in 0–1, bandwidth
//!    below the bus limit, DRAM traffic below `bandwidth × duration`).
//! 2. **Dead-sample detection** — a sample whose dynamic counters are all
//!    zero while the timer ran is a failed read, not an idle kernel.
//!    Partial dropouts are caught per channel: a dynamic counter latched
//!    at exactly zero while the kernel's last good sample was active on
//!    that channel is substituted even when the rest of the sample looks
//!    healthy.
//! 3. **EWMA outlier rejection** — per-kernel, per-field running mean and
//!    absolute deviation (reset on configuration change, armed only after a
//!    warmup) catch in-range spikes. Thresholds are deliberately generous:
//!    phase-modulated kernels legitimately swing their counters, and a
//!    false rejection costs more than a missed mild outlier.
//! 4. **Last-good substitution** — rejected fields are replaced from the
//!    most recent sanitized sample; when two or more fields of one sample
//!    are rejected the whole sample is deemed corrupt and replaced
//!    wholesale (keeping the independently-sanitized timer).
//! 5. **Bounded holding** — wholesale substitution is a bridge, not a
//!    destination: after [`HOLD_BOUND`] *consecutive*
//!    wholesale holds the sanitizer stops serving stale counters and
//!    escalates, passing a recognizably dead (but finite and in-range)
//!    sample downstream so the watchdog / degradation ladder trips instead
//!    of being masked forever by a permanently stuck counter block. Each
//!    escalation emits [`TraceEvent::SanitizerEscalated`].
//!
//! Every substitution emits [`TraceEvent::SanitizerReject`] so chaos runs
//! can count what the sanitizer absorbed. The stage is opt-in — wrap the
//! governor in a [`SanitizeGovernor`](crate::governor::SanitizeGovernor)
//! (the registry's `hardened:*` policies do); it hooks
//! [`Governor::condition`](crate::governor::Governor::condition), so the
//! runtime accounts power/energy from the sanitized measurement. The
//! default path is byte-identical to previous behaviour.

use crate::governor::KernelMap;
use crate::runtime::activity_of;
use crate::telemetry::{TraceEvent, TraceHandle};
use harmonia_power::{Activity, PowerModel};
use harmonia_sim::CounterSample;
use harmonia_types::{GridSpec, HwConfig, MemoryConfig, Seconds};

/// Physical ceiling for achieved bandwidth used by the default plausibility
/// checks (GB/s). The HD 7970's bus peaks at 264 GB/s; the margin tolerates
/// model overshoot without admitting sensor garbage. Other devices scale it
/// to their own bus ([`max_bw_gbps_on`]).
pub const DEFAULT_MAX_BW_GBPS: f64 = 300.0;

/// The HD 7970's peak bus bandwidth (GB/s), the bus [`DEFAULT_MAX_BW_GBPS`]
/// was set against.
const HD7970_PEAK_BW_GBPS: f64 = 264.0;

/// The achieved-bandwidth ceiling on a device grid: [`DEFAULT_MAX_BW_GBPS`]
/// scaled by the grid's peak bus bandwidth over the HD 7970's, so every
/// device keeps the same relative margin over its own bus. Exactly
/// [`DEFAULT_MAX_BW_GBPS`] on the HD 7970 grid.
pub fn max_bw_gbps_on(grid: &GridSpec) -> f64 {
    let peak = MemoryConfig::max_on(grid).peak_bandwidth_on(grid).value();
    DEFAULT_MAX_BW_GBPS * peak / HD7970_PEAK_BW_GBPS
}

/// Number of fields tracked by the EWMA outlier stage.
const OUTLIER_FIELDS: usize = 6;

/// Same-configuration samples observed before the outlier stage arms.
pub const WARMUP: u32 = 4;

/// Outlier threshold in multiples of the running absolute deviation.
pub const OUTLIER_K: f64 = 8.0;

/// Outlier threshold floor as a fraction of the field's hard range —
/// deviations below this are never outliers, whatever the history says.
pub const OUTLIER_FLOOR: f64 = 0.35;

/// EWMA smoothing factor for the running mean/deviation.
pub const EWMA_ALPHA: f64 = 0.3;

/// Consecutive wholesale last-good holds tolerated before the sanitizer
/// escalates (serves a dead sample the watchdog can see) instead of
/// masking a stuck counter block forever.
pub const HOLD_BOUND: u32 = 6;

/// Whether a sample passes the *static* plausibility checks alone: every
/// float field finite and inside its physical range, with achieved
/// bandwidth at most `max_bw_gbps` (the device's ceiling,
/// [`max_bw_gbps_on`]). Shared with the governor watchdogs, which must
/// judge anomalies without carrying the sanitizer's per-kernel history.
pub fn counters_plausible(c: &CounterSample, max_bw_gbps: f64) -> bool {
    let pct_ok = |v: f64| v.is_finite() && (0.0..=100.0).contains(&v);
    let frac_ok = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
    c.duration.value().is_finite()
        && c.duration.value() > 0.0
        && pct_ok(c.valu_busy_pct)
        && pct_ok(c.valu_utilization_pct)
        && pct_ok(c.mem_unit_busy_pct)
        && pct_ok(c.mem_unit_stalled_pct)
        && pct_ok(c.write_unit_stalled_pct)
        && frac_ok(c.ic_activity)
        && frac_ok(c.norm_vgpr)
        && frac_ok(c.norm_sgpr)
        && frac_ok(c.occupancy_fraction)
        && frac_ok(c.l2_hit_rate)
        && c.dram_bytes.is_finite()
        && c.dram_bytes >= 0.0
        && c.achieved_bw_gbps.is_finite()
        && (0.0..=max_bw_gbps).contains(&c.achieved_bw_gbps)
}

/// Whether a sample looks like a failed counter read: the timer ran but
/// every dynamic counter reports zero. A kernel that executed did
/// *something*; all-zero activity is physically impossible.
pub fn dead_sample(c: &CounterSample) -> bool {
    c.duration.value() > 0.0
        && c.valu_insts == 0
        && c.vfetch_insts == 0
        && c.vwrite_insts == 0
        && c.valu_busy_pct == 0.0
        && c.dram_bytes == 0.0
}

/// One float field's hard bounds and (optional) outlier-tracking slot.
struct FieldSpec {
    name: &'static str,
    get: fn(&CounterSample) -> f64,
    set: fn(&mut CounterSample, f64),
    lo: f64,
    hi: f64,
    stat: Option<usize>,
}

/// The statically-bounded float fields. Bandwidth and DRAM traffic have
/// config-dependent bounds and are handled separately.
const FIELDS: &[FieldSpec] = &[
    FieldSpec {
        name: "valu_busy_pct",
        get: |c| c.valu_busy_pct,
        set: |c, v| c.valu_busy_pct = v,
        lo: 0.0,
        hi: 100.0,
        stat: Some(0),
    },
    FieldSpec {
        name: "valu_utilization_pct",
        get: |c| c.valu_utilization_pct,
        set: |c, v| c.valu_utilization_pct = v,
        lo: 0.0,
        hi: 100.0,
        stat: Some(1),
    },
    FieldSpec {
        name: "mem_unit_busy_pct",
        get: |c| c.mem_unit_busy_pct,
        set: |c, v| c.mem_unit_busy_pct = v,
        lo: 0.0,
        hi: 100.0,
        stat: Some(2),
    },
    FieldSpec {
        name: "mem_unit_stalled_pct",
        get: |c| c.mem_unit_stalled_pct,
        set: |c, v| c.mem_unit_stalled_pct = v,
        lo: 0.0,
        hi: 100.0,
        stat: Some(3),
    },
    FieldSpec {
        name: "write_unit_stalled_pct",
        get: |c| c.write_unit_stalled_pct,
        set: |c, v| c.write_unit_stalled_pct = v,
        lo: 0.0,
        hi: 100.0,
        stat: Some(4),
    },
    FieldSpec {
        name: "ic_activity",
        get: |c| c.ic_activity,
        set: |c, v| c.ic_activity = v,
        lo: 0.0,
        hi: 1.0,
        stat: Some(5),
    },
    FieldSpec {
        name: "norm_vgpr",
        get: |c| c.norm_vgpr,
        set: |c, v| c.norm_vgpr = v,
        lo: 0.0,
        hi: 1.0,
        stat: None,
    },
    FieldSpec {
        name: "norm_sgpr",
        get: |c| c.norm_sgpr,
        set: |c, v| c.norm_sgpr = v,
        lo: 0.0,
        hi: 1.0,
        stat: None,
    },
    FieldSpec {
        name: "occupancy_fraction",
        get: |c| c.occupancy_fraction,
        set: |c, v| c.occupancy_fraction = v,
        lo: 0.0,
        hi: 1.0,
        stat: None,
    },
    FieldSpec {
        name: "l2_hit_rate",
        get: |c| c.l2_hit_rate,
        set: |c, v| c.l2_hit_rate = v,
        lo: 0.0,
        hi: 1.0,
        stat: None,
    },
];

#[derive(Debug, Clone, Copy)]
struct FieldStats {
    mean: f64,
    dev: f64,
}

#[derive(Debug, Default)]
struct KernelState {
    last_cfg: Option<HwConfig>,
    samples: u32,
    stats: [Option<FieldStats>; OUTLIER_FIELDS],
    last_good: Option<(Seconds, CounterSample)>,
    /// Consecutive wholesale last-good holds served (escalation trigger).
    held: u32,
}

/// Stateful per-kernel counter sanitizer (see module docs).
#[derive(Debug)]
pub struct CounterSanitizer<'a> {
    /// Physical bandwidth ceiling (GB/s) for the achieved-bandwidth and
    /// DRAM-traffic hard checks: the device's, from [`max_bw_gbps_on`].
    max_bw_gbps: f64,
    kernels: KernelMap<KernelState>,
    rejects: u64,
    /// Optional power model for the physics check: a sample whose implied
    /// card power exceeds its configuration's fully-busy ceiling is a
    /// lying sensor, whatever the per-field ranges say.
    power: Option<&'a PowerModel>,
}

impl<'a> CounterSanitizer<'a> {
    /// A sanitizer judging bandwidth against `max_bw_gbps`, the device's
    /// ceiling ([`max_bw_gbps_on`]).
    pub fn new(max_bw_gbps: f64) -> Self {
        Self {
            max_bw_gbps,
            kernels: KernelMap::default(),
            rejects: 0,
            power: None,
        }
    }

    /// Arms the power-aware plausibility check: samples whose implied card
    /// power exceeds the physical ceiling of the configuration they ran
    /// under (fully busy card, saturated bus) are rejected wholesale.
    pub fn with_power(mut self, power: &'a PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// Total field/sample rejections so far.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Sanitizes one invocation's measurement: returns a finite, in-range
    /// `(time, counters)` pair, substituting from the kernel's last good
    /// sample where the raw reading is rejected. Emits
    /// [`TraceEvent::SanitizerReject`] per substitution.
    pub fn sanitize(
        &mut self,
        kernel: &str,
        iteration: u64,
        cfg: HwConfig,
        time: Seconds,
        counters: CounterSample,
        trace: &TraceHandle,
    ) -> (Seconds, CounterSample) {
        let ks = self.kernels.slot(kernel, KernelState::default);
        if ks.last_cfg != Some(cfg) {
            // The operating point moved: counter levels legitimately shift,
            // so the outlier history no longer applies.
            ks.last_cfg = Some(cfg);
            ks.samples = 0;
            ks.stats = [None; OUTLIER_FIELDS];
        }
        let mut rejected: Vec<(&'static str, f64)> = Vec::new();
        let mut c = counters;

        // Timer channel: the wall clock and the counter block's duration
        // mirror each other and everything downstream divides by them.
        let good_time = ks.last_good.map(|(t, _)| t);
        let t = sanitize_positive(time, good_time, 1e-6, "time_s", &mut rejected);
        let dur = sanitize_positive(
            c.duration,
            ks.last_good.map(|(_, g)| g.duration),
            t.value(),
            "duration",
            &mut rejected,
        );
        c.duration = dur;

        // Failed read: all dynamic counters zero while the timer ran.
        let dead = dead_sample(&c);

        // Statically-bounded fields: hard range, then (armed) EWMA outlier.
        for f in FIELDS {
            let raw = (f.get)(&c);
            let in_range = raw.is_finite() && (f.lo..=f.hi).contains(&raw);
            let outlier = in_range
                && ks.samples >= WARMUP
                && f.stat
                    .and_then(|i| ks.stats[i])
                    .is_some_and(|st| {
                        let threshold = (OUTLIER_K * st.dev).max(OUTLIER_FLOOR * (f.hi - f.lo));
                        (raw - st.mean).abs() > threshold
                    });
            if !in_range || outlier {
                rejected.push((f.name, raw));
                let sub = ks
                    .last_good
                    .map(|(_, g)| (f.get)(&g))
                    .unwrap_or(if raw.is_finite() {
                        raw.clamp(f.lo, f.hi)
                    } else {
                        f.lo
                    });
                (f.set)(&mut c, sub);
            }
        }

        // Config-dependent bounds: achieved bandwidth below the bus limit,
        // DRAM traffic below what that bandwidth could move in the sample.
        let bw_hi = self.max_bw_gbps;
        if !(c.achieved_bw_gbps.is_finite() && (0.0..=bw_hi).contains(&c.achieved_bw_gbps)) {
            rejected.push(("achieved_bw_gbps", c.achieved_bw_gbps));
            c.achieved_bw_gbps = ks
                .last_good
                .map(|(_, g)| g.achieved_bw_gbps)
                .unwrap_or(if c.achieved_bw_gbps.is_finite() {
                    c.achieved_bw_gbps.clamp(0.0, bw_hi)
                } else {
                    0.0
                });
        }
        let dram_hi = bw_hi * 1e9 * c.duration.value() * 4.0;
        if !(c.dram_bytes.is_finite() && (0.0..=dram_hi).contains(&c.dram_bytes)) {
            rejected.push(("dram_bytes", c.dram_bytes));
            c.dram_bytes = ks
                .last_good
                .map(|(_, g)| g.dram_bytes)
                .unwrap_or(if c.dram_bytes.is_finite() {
                    c.dram_bytes.clamp(0.0, dram_hi)
                } else {
                    0.0
                });
        }

        // Partial dropout: a dynamic channel latched at *exactly* zero
        // while the kernel's last good sample was active on it is a dropped
        // read, not a phase change — activity never snaps to a perfect zero
        // on hardware that is still executing the same kernel. The EWMA
        // stage catches this at a settled operating point, but it is
        // disarmed right after a configuration move, which is exactly when
        // a half-zeroed sample would otherwise teach the power-cap clamp a
        // fictitious idle and un-clamp the next grant.
        if !dead {
            if let Some((_, g)) = ks.last_good {
                if c.valu_busy_pct == 0.0 && g.valu_busy_pct > 0.0 {
                    rejected.push(("valu_busy_pct", 0.0));
                    c.valu_busy_pct = g.valu_busy_pct;
                }
                if c.dram_bytes == 0.0 && g.dram_bytes > 0.0 {
                    rejected.push(("dram_bytes", 0.0));
                    c.dram_bytes = g.dram_bytes;
                }
                if c.achieved_bw_gbps == 0.0 && g.achieved_bw_gbps > 0.0 {
                    rejected.push(("achieved_bw_gbps", 0.0));
                    c.achieved_bw_gbps = g.achieved_bw_gbps;
                }
                if c.valu_insts == 0 && g.valu_insts > 0 {
                    rejected.push(("valu_insts", 0.0));
                    c.valu_insts = g.valu_insts;
                }
                if c.vfetch_insts == 0 && g.vfetch_insts > 0 {
                    rejected.push(("vfetch_insts", 0.0));
                    c.vfetch_insts = g.vfetch_insts;
                }
                if c.vwrite_insts == 0 && g.vwrite_insts > 0 {
                    rejected.push(("vwrite_insts", 0.0));
                    c.vwrite_insts = g.vwrite_insts;
                }
            }
        }

        // Physics check: after per-field repair, the sample's *implied*
        // card power at the configuration it ran under must not exceed
        // that configuration's physical ceiling (fully busy card,
        // saturated bus). Each field can be individually in range while
        // the combination claims more power than the silicon can draw at
        // those clocks — the signature of a coordinated counter spike,
        // which would otherwise be booked as a phantom cap violation and
        // poison the clamp's activity learning.
        let impossible = !dead
            && self.power.is_some_and(|power| {
                let projected = power.card_pwr(cfg, &activity_of(&c)).value();
                let ceiling = power
                    .card_pwr(cfg, &Activity::streaming_on(power.grid(), 1.0, 1.0))
                    .value();
                // Per-field repair above guarantees finite inputs, so a
                // plain comparison is NaN-safe here.
                projected > ceiling * 1.01
            });
        if impossible {
            rejected.push(("sample_power", 0.0));
        }

        // Cross-field corruption: a dead read, a physically impossible
        // reading, or two-plus rejected fields in one sample, invalidates
        // the whole reading — substitute the last good sample wholesale
        // (keeping the sanitized timer).
        let counter_rejects = rejected
            .iter()
            .filter(|(n, _)| *n != "time_s" && *n != "duration")
            .count();
        let mut escalated = false;
        let mut quarantined = false;
        if dead || impossible || counter_rejects >= 2 {
            if let Some((_, good)) = ks.last_good {
                if dead {
                    rejected.push(("sample", 0.0));
                }
                let keep = c.duration;
                c = good;
                c.duration = keep;
                ks.held = ks.held.saturating_add(1);
                if ks.held >= HOLD_BOUND {
                    // The counter block has been wrong for `held` straight
                    // samples: stop bridging. Serve a finite, in-range but
                    // recognizably dead sample so downstream anomaly checks
                    // ([`dead_sample`]) trip and the watchdog / ladder takes
                    // over instead of learning from fiction.
                    escalated = true;
                    c.valu_insts = 0;
                    c.vfetch_insts = 0;
                    c.vwrite_insts = 0;
                    c.valu_busy_pct = 0.0;
                    c.valu_utilization_pct = 0.0;
                    c.dram_bytes = 0.0;
                    c.achieved_bw_gbps = 0.0;
                }
            } else if impossible {
                // A physically impossible *first* sample: nothing to bridge
                // from, so serve a recognizably dead reading instead — the
                // clamp and the anomaly checks both know to distrust it —
                // and learn nothing from the interval.
                quarantined = true;
                c.valu_insts = 0;
                c.vfetch_insts = 0;
                c.vwrite_insts = 0;
                c.valu_busy_pct = 0.0;
                c.valu_utilization_pct = 0.0;
                c.dram_bytes = 0.0;
                c.achieved_bw_gbps = 0.0;
            }
        } else {
            ks.held = 0;
        }

        for (field, raw) in &rejected {
            self.rejects += 1;
            trace.emit(|| TraceEvent::SanitizerReject {
                kernel: kernel.to_string(),
                iteration,
                field: (*field).to_string(),
                value: format!("{raw}"),
                substitute: match *field {
                    "time_s" => t.value(),
                    "duration" => c.duration.value(),
                    f => FIELDS
                        .iter()
                        .find(|s| s.name == f)
                        .map(|s| (s.get)(&c))
                        .unwrap_or(match f {
                            "achieved_bw_gbps" => c.achieved_bw_gbps,
                            "dram_bytes" => c.dram_bytes,
                            _ => 0.0,
                        }),
                },
            });
        }

        if escalated {
            let held = ks.held;
            trace.emit(|| TraceEvent::SanitizerEscalated {
                kernel: kernel.to_string(),
                iteration,
                held,
            });
            // Nothing about this interval is trustworthy: no EWMA learning,
            // and the dead substitute must not become the next "last good".
            return (t, c);
        }
        if quarantined {
            return (t, c);
        }

        // Learn from what was accepted (post-substitution values keep the
        // running stats finite by construction) and store the new last-good.
        for f in FIELDS {
            let Some(i) = f.stat else { continue };
            let v = (f.get)(&c);
            match &mut ks.stats[i] {
                Some(st) => {
                    let delta = (v - st.mean).abs();
                    st.mean += EWMA_ALPHA * (v - st.mean);
                    st.dev += EWMA_ALPHA * (delta - st.dev);
                }
                slot @ None => {
                    *slot = Some(FieldStats {
                        mean: v,
                        dev: 0.25 * (f.hi - f.lo),
                    });
                }
            }
        }
        ks.samples = ks.samples.saturating_add(1);
        ks.last_good = Some((t, c));
        (t, c)
    }
}

/// Sanitizes a strictly-positive time channel.
fn sanitize_positive(
    v: Seconds,
    good: Option<Seconds>,
    fallback: f64,
    name: &'static str,
    rejected: &mut Vec<(&'static str, f64)>,
) -> Seconds {
    if v.value().is_finite() && v.value() > 0.0 {
        return v;
    }
    rejected.push((name, v.value()));
    Seconds(good.map(Seconds::value).unwrap_or(fallback))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            valu_busy_pct: 60.0,
            valu_utilization_pct: 90.0,
            mem_unit_busy_pct: 30.0,
            mem_unit_stalled_pct: 10.0,
            ic_activity: 0.4,
            norm_vgpr: 0.4,
            norm_sgpr: 0.3,
            valu_insts: 1_000_000,
            dram_bytes: 1e7,
            achieved_bw_gbps: 80.0,
            occupancy_fraction: 0.8,
            l2_hit_rate: 0.5,
            ..CounterSample::default()
        }
    }

    fn sanitizer() -> CounterSanitizer<'static> {
        CounterSanitizer::new(DEFAULT_MAX_BW_GBPS)
    }

    #[test]
    fn clean_samples_pass_untouched() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::new();
        for i in 0..10 {
            let (t, c) = s.sanitize("k", i, cfg, Seconds(0.01), good(), &trace);
            assert_eq!(t, Seconds(0.01));
            assert_eq!(c, good());
        }
        assert_eq!(s.rejects(), 0);
        assert!(trace.is_empty());
    }

    #[test]
    fn nan_fields_are_substituted_from_last_good() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::new();
        s.sanitize("k", 0, cfg, Seconds(0.01), good(), &trace);
        let mut bad = good();
        bad.valu_busy_pct = f64::NAN;
        let (_, c) = s.sanitize("k", 1, cfg, Seconds(0.01), bad, &trace);
        assert_eq!(c.valu_busy_pct, 60.0);
        assert_eq!(s.rejects(), 1);
        let ev = trace.events();
        assert!(matches!(&ev[0], TraceEvent::SanitizerReject { field, .. } if field == "valu_busy_pct"));
    }

    #[test]
    fn nan_without_history_clamps_into_range() {
        let mut s = sanitizer();
        let trace = TraceHandle::disabled();
        let mut bad = good();
        bad.mem_unit_busy_pct = f64::INFINITY;
        bad.achieved_bw_gbps = f64::NAN;
        let (_, c) = s.sanitize("k", 0, HwConfig::max_hd7970(), Seconds(0.01), bad, &trace);
        assert!(c.mem_unit_busy_pct.is_finite());
        assert!((0.0..=100.0).contains(&c.mem_unit_busy_pct));
        assert_eq!(c.achieved_bw_gbps, 0.0);
    }

    #[test]
    fn nan_time_is_replaced() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::disabled();
        s.sanitize("k", 0, cfg, Seconds(0.01), good(), &trace);
        let mut bad = good();
        bad.duration = Seconds(f64::NAN);
        let (t, c) = s.sanitize("k", 1, cfg, Seconds(f64::NAN), bad, &trace);
        assert_eq!(t, Seconds(0.01));
        assert_eq!(c.duration, Seconds(0.01));
    }

    #[test]
    fn dead_sample_is_replaced_wholesale() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::disabled();
        s.sanitize("k", 0, cfg, Seconds(0.01), good(), &trace);
        let dead = CounterSample {
            duration: Seconds(0.01),
            norm_vgpr: 0.4,
            norm_sgpr: 0.3,
            occupancy_fraction: 0.8,
            ..CounterSample::default()
        };
        let (_, c) = s.sanitize("k", 1, cfg, Seconds(0.01), dead, &trace);
        assert_eq!(c.valu_insts, good().valu_insts, "dynamic counters restored");
        assert_eq!(c.valu_busy_pct, good().valu_busy_pct);
    }

    #[test]
    fn spike_with_multiple_bad_fields_restores_whole_sample() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::disabled();
        for i in 0..6 {
            s.sanitize("k", i, cfg, Seconds(0.01), good(), &trace);
        }
        let mut spiked = good();
        spiked.valu_busy_pct *= 6.0;
        spiked.mem_unit_busy_pct *= 6.0;
        spiked.valu_insts *= 6;
        let (_, c) = s.sanitize("k", 6, cfg, Seconds(0.01), spiked, &trace);
        assert_eq!(c, good(), "cross-field corruption restores the last good sample");
    }

    #[test]
    fn outlier_stats_reset_on_config_change() {
        let mut s = sanitizer();
        let trace = TraceHandle::disabled();
        let a = HwConfig::max_hd7970();
        let b = a
            .step_down_on(&GridSpec::HD7970, harmonia_types::Tunable::MemFreq)
            .unwrap();
        for i in 0..8 {
            s.sanitize("k", i, a, Seconds(0.01), good(), &trace);
        }
        // After a config change the first sample at the new point may shift
        // arbitrarily without tripping the (disarmed) outlier stage.
        let mut shifted = good();
        shifted.valu_busy_pct = 5.0;
        let (_, c) = s.sanitize("k", 8, b, Seconds(0.01), shifted, &trace);
        assert_eq!(c.valu_busy_pct, 5.0);
        assert_eq!(s.rejects(), 0);
    }

    #[test]
    fn counters_plausible_flags_garbage() {
        let plausible = |c: &CounterSample| counters_plausible(c, DEFAULT_MAX_BW_GBPS);
        assert!(plausible(&good()));
        let mut bad = good();
        bad.valu_busy_pct = 120.0;
        assert!(!plausible(&bad));
        let mut nan = good();
        nan.dram_bytes = f64::NAN;
        assert!(!plausible(&nan));
        let mut glitch = good();
        glitch.duration = Seconds(f64::NAN);
        assert!(!plausible(&glitch));
        let mut fast = good();
        fast.achieved_bw_gbps = 301.0;
        assert!(!plausible(&fast));
        assert!(counters_plausible(&fast, 400.0));
    }

    #[test]
    fn bandwidth_ceiling_scales_with_the_device_bus() {
        assert_eq!(
            max_bw_gbps_on(&GridSpec::HD7970).to_bits(),
            DEFAULT_MAX_BW_GBPS.to_bits(),
            "the HD 7970 keeps its ceiling bit for bit"
        );
        let mut wide = GridSpec::HD7970;
        wide.mem_bus_width_bits *= 2;
        assert_eq!(max_bw_gbps_on(&wide), 2.0 * DEFAULT_MAX_BW_GBPS);
    }

    fn dead() -> CounterSample {
        CounterSample {
            duration: Seconds(0.01),
            norm_vgpr: 0.4,
            norm_sgpr: 0.3,
            occupancy_fraction: 0.8,
            ..CounterSample::default()
        }
    }

    #[test]
    fn persistent_dead_counters_escalate_after_hold_bound() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::new();
        s.sanitize("k", 0, cfg, Seconds(0.01), good(), &trace);
        // The first HOLD_BOUND-1 consecutive holds bridge from last-good...
        for i in 1..6 {
            let (_, c) = s.sanitize("k", i, cfg, Seconds(0.01), dead(), &trace);
            assert!(!dead_sample(&c), "sample {i} bridged from last-good");
        }
        // ...then the sanitizer stops masking: the substitute is finite and
        // in-range but recognizably dead, so the watchdog can trip.
        let (_, c) = s.sanitize("k", 6, cfg, Seconds(0.01), dead(), &trace);
        assert!(dead_sample(&c), "escalated sample reads as dead");
        assert!(
            counters_plausible(&c, DEFAULT_MAX_BW_GBPS),
            "escalated sample stays in range"
        );
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::SanitizerEscalated { held: 6, .. })));
        // The fault persists: escalation continues, it does not re-bridge.
        let (_, c) = s.sanitize("k", 7, cfg, Seconds(0.01), dead(), &trace);
        assert!(dead_sample(&c));
    }

    #[test]
    fn clean_sample_resets_the_hold_streak() {
        let mut s = sanitizer();
        let cfg = HwConfig::max_hd7970();
        let trace = TraceHandle::disabled();
        s.sanitize("k", 0, cfg, Seconds(0.01), good(), &trace);
        for i in 1..5 {
            s.sanitize("k", i, cfg, Seconds(0.01), dead(), &trace);
        }
        // Recovery: one clean sample resets the streak...
        s.sanitize("k", 5, cfg, Seconds(0.01), good(), &trace);
        // ...so five more holds still bridge instead of escalating.
        for i in 6..11 {
            let (_, c) = s.sanitize("k", i, cfg, Seconds(0.01), dead(), &trace);
            assert!(!dead_sample(&c), "sample {i} bridged after reset");
        }
    }

    #[test]
    fn dead_sample_detector() {
        assert!(!dead_sample(&good()));
        let dead = CounterSample {
            duration: Seconds(0.01),
            norm_vgpr: 0.4,
            ..CounterSample::default()
        };
        assert!(dead_sample(&dead));
    }
}
