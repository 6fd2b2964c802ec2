//! Property battery for the record/replay codec: arbitrary event
//! sequences over all seven variants survive encode→decode bitwise, the
//! encoding is canonical (decode∘encode re-encodes byte-identically),
//! future format versions are rejected with a typed error, and
//! malformed/truncated streams fail without panicking. A field-by-field
//! battery checks that every field of every variant is compared, encoded
//! and named by the differ, and that every float field compares bitwise.

use harmonia_repro::rr::{codec, CfgPoint, SessionEvent};
use harmonia_repro::sim::{ActuationOutcome, CounterSample, FaultKind};
use harmonia_repro::types::Seconds;
use proptest::prelude::*;
use std::rc::Rc;

/// splitmix64: expands one seed into a stream of arbitrary u64s so every
/// field — including float *bit patterns*, NaN payloads and all — gets
/// full coverage from the two-number proptest strategy.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Arbitrary bit pattern as f64: covers normals, subnormals, ±0, ±inf,
/// and NaNs with arbitrary payloads — exactly what the bitwise round-trip
/// guarantee is about.
fn arb_f64(state: &mut u64) -> f64 {
    f64::from_bits(splitmix(state))
}

/// Kernel names from a small pool plus a derived tail, so the interning
/// table sees both repeats (back-references) and fresh entries.
fn arb_name(state: &mut u64) -> String {
    const POOL: [&str; 5] = ["bfs_top_down", "bfs_bottom_up", "spmv", "stencil2d", "flops"];
    let x = splitmix(state);
    let base = POOL[(x % POOL.len() as u64) as usize];
    if x & 1 == 0 {
        base.to_string()
    } else {
        format!("{base}_{}", (x >> 8) % 100)
    }
}

fn arb_cfg(state: &mut u64) -> CfgPoint {
    CfgPoint {
        cu: (splitmix(state) % 128) as u32,
        cu_mhz: (splitmix(state) % 2000) as u32,
        mem_mhz: (splitmix(state) % 2000) as u32,
    }
}

fn arb_counters(state: &mut u64) -> CounterSample {
    CounterSample {
        duration: Seconds(arb_f64(state)),
        valu_busy_pct: arb_f64(state),
        valu_utilization_pct: arb_f64(state),
        mem_unit_busy_pct: arb_f64(state),
        mem_unit_stalled_pct: arb_f64(state),
        write_unit_stalled_pct: arb_f64(state),
        norm_vgpr: arb_f64(state),
        norm_sgpr: arb_f64(state),
        ic_activity: arb_f64(state),
        valu_insts: splitmix(state),
        vfetch_insts: splitmix(state),
        vwrite_insts: splitmix(state),
        dram_bytes: arb_f64(state),
        achieved_bw_gbps: arb_f64(state),
        occupancy_fraction: arb_f64(state),
        l2_hit_rate: arb_f64(state),
    }
}

fn arb_kind(state: &mut u64) -> FaultKind {
    FaultKind::ALL[(splitmix(state) % FaultKind::ALL.len() as u64) as usize]
}

/// One arbitrary event: `tag` picks the variant (its wire tag), `seed`
/// drives every field through splitmix64.
fn arb_event(tag: u8, seed: u64) -> SessionEvent {
    let mut s = seed;
    match tag {
        0 => SessionEvent::SessionStart {
            app: arb_name(&mut s),
            policy: arb_name(&mut s),
            fault_seed: splitmix(&mut s),
        },
        1 => SessionEvent::Decision {
            kernel: arb_name(&mut s).into(),
            iteration: splitmix(&mut s),
            cfg: arb_cfg(&mut s),
        },
        2 => SessionEvent::Actuation {
            kernel: arb_name(&mut s).into(),
            iteration: splitmix(&mut s),
            kind: arb_kind(&mut s),
            wanted: arb_cfg(&mut s),
            actual: arb_cfg(&mut s),
        },
        3 => SessionEvent::Sample {
            kernel: arb_name(&mut s).into(),
            iteration: splitmix(&mut s),
            cfg: arb_cfg(&mut s),
            time_s: arb_f64(&mut s),
            counters: arb_counters(&mut s),
            stepped_waves: splitmix(&mut s),
            fast_forwarded_waves: splitmix(&mut s),
        },
        4 => SessionEvent::Conditioned {
            kernel: arb_name(&mut s).into(),
            iteration: splitmix(&mut s),
            time_s: arb_f64(&mut s),
            counters: arb_counters(&mut s),
        },
        5 => SessionEvent::SessionEnd {
            total_time_s: arb_f64(&mut s),
            card_energy_j: arb_f64(&mut s),
            gpu_energy_j: arb_f64(&mut s),
            mem_energy_j: arb_f64(&mut s),
        },
        _ => {
            // Every outcome code, `Retried` with an arbitrary count, and
            // 0–4 fault kinds.
            let x = splitmix(&mut s);
            let outcome = ActuationOutcome::from_code((x % 4) as u8, (x >> 32) as u32)
                .expect("in range");
            SessionEvent::ActuationResolved {
                kernel: arb_name(&mut s).into(),
                iteration: splitmix(&mut s),
                outcome,
                attempts: splitmix(&mut s) as u32,
                kinds: (0..(x >> 2) % 5).map(|_| arb_kind(&mut s)).collect(),
                wanted: arb_cfg(&mut s),
                actual: arb_cfg(&mut s),
            }
        }
    }
}

fn arb_events(raw: Vec<(u8, u64)>) -> Vec<SessionEvent> {
    raw.into_iter().map(|(tag, seed)| arb_event(tag, seed)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode→decode is the identity under *bitwise* event equality, and
    /// the encoding is canonical: re-encoding the decoded stream
    /// reproduces the bytes exactly.
    #[test]
    fn round_trip_is_bitwise_identity(raw in prop::collection::vec((0u8..7, 0u64..u64::MAX), 0..32)) {
        let events = arb_events(raw);
        let bytes = codec::encode(&events);
        let decoded = codec::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(codec::encode(&decoded), bytes);
    }

    /// Every strict prefix of a valid stream fails to decode with a typed
    /// error — never a panic, never a silent partial success.
    #[test]
    fn truncation_never_panics_or_succeeds(raw in prop::collection::vec((0u8..7, 0u64..u64::MAX), 1..8)) {
        let bytes = codec::encode(&arb_events(raw));
        for cut in 0..bytes.len() {
            prop_assert!(codec::decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    /// Arbitrary garbage after a valid header never panics (errors are
    /// acceptable; UB is not).
    #[test]
    fn garbage_decode_is_total(raw in prop::collection::vec(0u64..u64::MAX, 0..64)) {
        let mut bytes: Vec<u8> = codec::encode(&[]);
        bytes.truncate(10); // magic + version, no event count
        bytes.extend(raw.iter().flat_map(|x| x.to_le_bytes()));
        let _ = codec::decode(&bytes); // must return, not panic
    }

    /// Any future format version is rejected with the typed
    /// `UnsupportedVersion` error naming both versions.
    #[test]
    fn future_versions_are_rejected(raw in prop::collection::vec((0u8..7, 0u64..u64::MAX), 0..8),
                                    bump in 1u16..1000) {
        let mut bytes = codec::encode(&arb_events(raw));
        let future = codec::FORMAT_VERSION + bump;
        bytes[8..10].copy_from_slice(&future.to_le_bytes());
        match codec::decode(&bytes) {
            Err(codec::CodecError::UnsupportedVersion { found, supported }) => {
                prop_assert_eq!(found, future);
                prop_assert_eq!(supported, codec::FORMAT_VERSION);
            }
            other => prop_assert!(false, "expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = codec::encode(&[]);
    bytes[0] ^= 0xff;
    assert!(matches!(codec::decode(&bytes), Err(codec::CodecError::BadMagic)));
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = codec::encode(&[arb_event(3, 42)]);
    bytes.push(0);
    assert!(matches!(
        codec::decode(&bytes),
        Err(codec::CodecError::TrailingBytes { .. })
    ));
}

#[test]
fn nan_payloads_survive_exactly() {
    let glitched = SessionEvent::Sample {
        kernel: "bfs".into(),
        iteration: 3,
        cfg: CfgPoint { cu: 32, cu_mhz: 1000, mem_mhz: 1375 },
        time_s: f64::from_bits(0x7ff8_0000_0000_1234), // NaN, nonstandard payload
        counters: CounterSample {
            duration: Seconds(f64::NAN),
            achieved_bw_gbps: f64::NEG_INFINITY,
            occupancy_fraction: -0.0,
            ..CounterSample::default()
        },
        stepped_waves: 0,
        fast_forwarded_waves: 0,
    };
    let decoded = codec::decode(&codec::encode(std::slice::from_ref(&glitched))).unwrap();
    assert_eq!(decoded.len(), 1);
    assert_eq!(decoded[0], glitched, "bitwise equality incl. NaN payload and -0.0");
}

/// Every float of the base counters is 0.5 and every count 1,000,000, so
/// each field edit below is a one-field change.
fn base_counters() -> CounterSample {
    CounterSample {
        duration: Seconds(0.5),
        valu_busy_pct: 0.5,
        valu_utilization_pct: 0.5,
        mem_unit_busy_pct: 0.5,
        mem_unit_stalled_pct: 0.5,
        write_unit_stalled_pct: 0.5,
        norm_vgpr: 0.5,
        norm_sgpr: 0.5,
        ic_activity: 0.5,
        valu_insts: 1_000_000,
        vfetch_insts: 1_000_000,
        vwrite_insts: 1_000_000,
        dram_bytes: 0.5,
        achieved_bw_gbps: 0.5,
        occupancy_fraction: 0.5,
        l2_hit_rate: 0.5,
    }
}

/// One event of each variant, in wire-tag order.
fn base_events() -> [SessionEvent; 7] {
    let cfg = CfgPoint { cu: 32, cu_mhz: 1000, mem_mhz: 1375 };
    let low = CfgPoint { cu: 32, cu_mhz: 500, mem_mhz: 1375 };
    [
        SessionEvent::SessionStart {
            app: "Graph500".into(),
            policy: "hardened:ladder".into(),
            fault_seed: 7,
        },
        SessionEvent::Decision { kernel: "bfs".into(), iteration: 3, cfg },
        SessionEvent::Actuation {
            kernel: "bfs".into(),
            iteration: 3,
            kind: FaultKind::DvfsDeny,
            wanted: cfg,
            actual: low,
        },
        SessionEvent::Sample {
            kernel: "bfs".into(),
            iteration: 3,
            cfg,
            time_s: 0.5,
            counters: base_counters(),
            stepped_waves: 10,
            fast_forwarded_waves: 20,
        },
        SessionEvent::Conditioned {
            kernel: "bfs".into(),
            iteration: 3,
            time_s: 0.5,
            counters: base_counters(),
        },
        SessionEvent::SessionEnd {
            total_time_s: 0.5,
            card_energy_j: 0.5,
            gpu_energy_j: 0.5,
            mem_energy_j: 0.5,
        },
        SessionEvent::ActuationResolved {
            kernel: "bfs".into(),
            iteration: 3,
            outcome: ActuationOutcome::Retried(2),
            attempts: 3,
            kinds: vec![FaultKind::DvfsDeny, FaultKind::DvfsDelay],
            wanted: cfg,
            actual: low,
        },
    ]
}

/// Sets one float field of an event.
type SetFloat = Rc<dyn Fn(&mut SessionEvent, f64)>;

/// One field of one variant of [`base_events`].
struct FieldCase {
    /// Index of the variant's base event.
    base: usize,
    /// Changes this field and nothing else.
    edit: Box<dyn Fn(&mut SessionEvent)>,
    /// The one `field_diffs` line that change prints.
    diff: String,
    /// Sets the field, when it is a float.
    set: Option<SetFloat>,
}

/// A field other than a float, changed by `edit`.
fn edit(base: usize, diff: &str, edit: impl Fn(&mut SessionEvent) + 'static) -> FieldCase {
    FieldCase { base, edit: Box::new(edit), diff: diff.to_string(), set: None }
}

/// A float field: its edit sets it from 0.5 to 0.75.
fn float(base: usize, diff: &str, set: impl Fn(&mut SessionEvent, f64) + 'static) -> FieldCase {
    let set: SetFloat = Rc::new(set);
    let to = Rc::clone(&set);
    FieldCase { base, edit: Box::new(move |e| to(e, 0.75)), diff: diff.to_string(), set: Some(set) }
}

fn counters_of(e: &mut SessionEvent) -> &mut CounterSample {
    match e {
        SessionEvent::Sample { counters, .. } | SessionEvent::Conditioned { counters, .. } => {
            counters
        }
        other => panic!("{other} carries no counters"),
    }
}

/// Every field of every variant, with the line the differ prints for it.
fn field_cases() -> Vec<FieldCase> {
    use SessionEvent as E;
    let mut cases = vec![
        edit(0, "app: Graph500 != Stencil", |e| {
            if let E::SessionStart { app, .. } = e {
                *app = "Stencil".into();
            }
        }),
        edit(0, "policy: hardened:ladder != capped", |e| {
            if let E::SessionStart { policy, .. } = e {
                *policy = "capped".into();
            }
        }),
        edit(0, "fault_seed: 7 != 8", |e| {
            if let E::SessionStart { fault_seed, .. } = e {
                *fault_seed += 1;
            }
        }),
        edit(1, "cfg: 32cu/1000MHz/1375MHz != 24cu/1000MHz/1375MHz", |e| {
            if let E::Decision { cfg, .. } = e {
                cfg.cu = 24;
            }
        }),
        edit(2, "kind: dvfs-deny != dvfs-delay", |e| {
            if let E::Actuation { kind, .. } = e {
                *kind = FaultKind::DvfsDelay;
            }
        }),
        edit(2, "wanted: 32cu/1000MHz/1375MHz != 32cu/1000MHz/925MHz", |e| {
            if let E::Actuation { wanted, .. } = e {
                wanted.mem_mhz = 925;
            }
        }),
        edit(2, "actual: 32cu/500MHz/1375MHz != 28cu/500MHz/1375MHz", |e| {
            if let E::Actuation { actual, .. } = e {
                actual.cu = 28;
            }
        }),
        edit(3, "cfg: 32cu/1000MHz/1375MHz != 32cu/900MHz/1375MHz", |e| {
            if let E::Sample { cfg, .. } = e {
                cfg.cu_mhz = 900;
            }
        }),
        float(3, "time_s: 5e-1 != 7.5e-1", |e, v| {
            if let E::Sample { time_s, .. } = e {
                *time_s = v;
            }
        }),
        edit(3, "stepped_waves: 10 != 11", |e| {
            if let E::Sample { stepped_waves, .. } = e {
                *stepped_waves += 1;
            }
        }),
        edit(3, "fast_forwarded_waves: 20 != 21", |e| {
            if let E::Sample { fast_forwarded_waves, .. } = e {
                *fast_forwarded_waves += 1;
            }
        }),
        float(4, "time_s: 5e-1 != 7.5e-1", |e, v| {
            if let E::Conditioned { time_s, .. } = e {
                *time_s = v;
            }
        }),
        float(5, "total_time_s: 5e-1 != 7.5e-1", |e, v| {
            if let E::SessionEnd { total_time_s, .. } = e {
                *total_time_s = v;
            }
        }),
        float(5, "card_energy_j: 5e-1 != 7.5e-1", |e, v| {
            if let E::SessionEnd { card_energy_j, .. } = e {
                *card_energy_j = v;
            }
        }),
        float(5, "gpu_energy_j: 5e-1 != 7.5e-1", |e, v| {
            if let E::SessionEnd { gpu_energy_j, .. } = e {
                *gpu_energy_j = v;
            }
        }),
        float(5, "mem_energy_j: 5e-1 != 7.5e-1", |e, v| {
            if let E::SessionEnd { mem_energy_j, .. } = e {
                *mem_energy_j = v;
            }
        }),
        edit(6, "outcome: retried(2) != retried(3)", |e| {
            if let E::ActuationResolved { outcome, .. } = e {
                *outcome = ActuationOutcome::Retried(3);
            }
        }),
        edit(6, "attempts: 3 != 4", |e| {
            if let E::ActuationResolved { attempts, .. } = e {
                *attempts += 1;
            }
        }),
        edit(6, "kinds: [dvfs-deny,dvfs-delay] != [dvfs-deny]", |e| {
            if let E::ActuationResolved { kinds, .. } = e {
                kinds.pop();
            }
        }),
        edit(6, "wanted: 32cu/1000MHz/1375MHz != 32cu/1000MHz/925MHz", |e| {
            if let E::ActuationResolved { wanted, .. } = e {
                wanted.mem_mhz = 925;
            }
        }),
        edit(6, "actual: 32cu/500MHz/1375MHz != 28cu/500MHz/1375MHz", |e| {
            if let E::ActuationResolved { actual, .. } = e {
                actual.cu = 28;
            }
        }),
    ];
    // The kernel name and iteration of every kernel-keyed variant.
    for base in [1, 2, 3, 4, 6] {
        cases.push(edit(base, "kernel: bfs != spmv", |e| match e {
            E::Decision { kernel, .. }
            | E::Actuation { kernel, .. }
            | E::ActuationResolved { kernel, .. }
            | E::Sample { kernel, .. }
            | E::Conditioned { kernel, .. } => *kernel = "spmv".into(),
            _ => {}
        }));
        cases.push(edit(base, "iteration: 3 != 4", |e| match e {
            E::Decision { iteration, .. }
            | E::Actuation { iteration, .. }
            | E::ActuationResolved { iteration, .. }
            | E::Sample { iteration, .. }
            | E::Conditioned { iteration, .. } => *iteration += 1,
            _ => {}
        }));
    }
    // The sixteen counters of both counter-carrying variants. Counts are
    // printed as integers, floats in their shortest form.
    type SetCounter = (&'static str, fn(&mut CounterSample, f64));
    type BumpCount = (&'static str, fn(&mut CounterSample));
    let floats: [SetCounter; 13] = [
        ("duration", |c, v| c.duration = Seconds(v)),
        ("valu_busy_pct", |c, v| c.valu_busy_pct = v),
        ("valu_utilization_pct", |c, v| c.valu_utilization_pct = v),
        ("mem_unit_busy_pct", |c, v| c.mem_unit_busy_pct = v),
        ("mem_unit_stalled_pct", |c, v| c.mem_unit_stalled_pct = v),
        ("write_unit_stalled_pct", |c, v| c.write_unit_stalled_pct = v),
        ("norm_vgpr", |c, v| c.norm_vgpr = v),
        ("norm_sgpr", |c, v| c.norm_sgpr = v),
        ("ic_activity", |c, v| c.ic_activity = v),
        ("dram_bytes", |c, v| c.dram_bytes = v),
        ("achieved_bw_gbps", |c, v| c.achieved_bw_gbps = v),
        ("occupancy_fraction", |c, v| c.occupancy_fraction = v),
        ("l2_hit_rate", |c, v| c.l2_hit_rate = v),
    ];
    let counts: [BumpCount; 3] = [
        ("valu_insts", |c| c.valu_insts += 1),
        ("vfetch_insts", |c| c.vfetch_insts += 1),
        ("vwrite_insts", |c| c.vwrite_insts += 1),
    ];
    for base in [3, 4] {
        for (name, set) in floats {
            let diff = format!("counters.{name}: 0.5 != 0.75");
            cases.push(float(base, &diff, move |e, v| set(counters_of(e), v)));
        }
        for (name, bump) in counts {
            let diff = format!("counters.{name}: 1000000 != 1000001");
            cases.push(edit(base, &diff, move |e| bump(counters_of(e))));
        }
    }
    cases
}

fn encoded(event: &SessionEvent) -> Vec<u8> {
    codec::encode(std::slice::from_ref(event))
}

/// Asserts that `a` and `b` differ in exactly the field `diff` names.
fn assert_one_field_differs(a: &SessionEvent, b: &SessionEvent, diff: &str) {
    assert_ne!(a, b, "{diff}: the events compare equal");
    assert_ne!(encoded(a), encoded(b), "{diff}: the encodings are equal");
    let diffs = a.field_diffs(b);
    assert_eq!(diffs.len(), 1, "{diff}: {diffs:?}");
    let field = diff.split(':').next().unwrap_or_default();
    assert!(diffs[0].starts_with(&format!("{field}: ")), "{diff}: {diffs:?}");
}

#[test]
fn every_field_of_every_variant_is_compared_encoded_and_named() {
    let bases = base_events();
    let cases = field_cases();
    // 3 + 3 + 5 + 7 + 7 + 4 + 4 fields, with the 16 counters counted one by one.
    assert_eq!(cases.len(), 3 + 3 + 5 + 7 + (6 + 16) + (3 + 16) + 4);
    for base in &bases {
        assert!(base.field_diffs(&base.clone()).is_empty(), "{base}");
    }
    for case in &cases {
        let a = &bases[case.base];
        let mut b = a.clone();
        (case.edit)(&mut b);
        assert_eq!(a.field_diffs(&b), vec![case.diff.clone()], "{a}");
        assert_one_field_differs(a, &b, &case.diff);
    }
}

#[test]
fn every_float_field_compares_bitwise() {
    let bases = base_events();
    let nan = f64::from_bits(0x7ff8_0000_0000_1234);
    let other_nan = f64::from_bits(0x7ff8_0000_0000_4321);
    let floats: Vec<FieldCase> = field_cases().into_iter().filter(|c| c.set.is_some()).collect();
    assert_eq!(floats.len(), 1 + 1 + 4 + 2 * 13);
    for case in &floats {
        let set = case.set.as_ref().expect("a float field");
        let with = |v: f64| {
            let mut e = bases[case.base].clone();
            set(&mut e, v);
            e
        };
        let (a, b) = (with(nan), with(nan));
        assert_eq!(a, b, "{}: equal NaN payloads must compare equal", case.diff);
        assert_eq!(encoded(&a), encoded(&b), "{}", case.diff);
        assert!(a.field_diffs(&b).is_empty(), "{}", case.diff);
        assert_one_field_differs(&a, &with(other_nan), &case.diff);
        assert_one_field_differs(&with(0.0), &with(-0.0), &case.diff);
    }
}
