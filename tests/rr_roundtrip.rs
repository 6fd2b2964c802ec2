//! Property battery for the record/replay codec: arbitrary event
//! sequences survive encode→decode bitwise, the encoding is canonical
//! (decode∘encode re-encodes byte-identically), future format versions are
//! rejected with a typed error, and malformed/truncated streams fail
//! without panicking.

use harmonia_repro::rr::{codec, CfgPoint, SessionEvent};
use harmonia_repro::sim::{CounterSample, FaultKind};
use harmonia_repro::types::Seconds;
use proptest::prelude::*;

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

/// One arbitrary event: `tag` picks the variant, `seed` drives every
/// field through splitmix64.
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
            kind: FaultKind::from_code((splitmix(&mut s) % FaultKind::ALL.len() as u64) as u8)
                .expect("in range"),
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
        _ => SessionEvent::SessionEnd {
            total_time_s: arb_f64(&mut s),
            card_energy_j: arb_f64(&mut s),
            gpu_energy_j: arb_f64(&mut s),
            mem_energy_j: arb_f64(&mut s),
        },
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
    fn round_trip_is_bitwise_identity(raw in prop::collection::vec((0u8..6, 0u64..u64::MAX), 0..32)) {
        let events = arb_events(raw);
        let bytes = codec::encode(&events);
        let decoded = codec::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(codec::encode(&decoded), bytes);
    }

    /// Every strict prefix of a valid stream fails to decode with a typed
    /// error — never a panic, never a silent partial success.
    #[test]
    fn truncation_never_panics_or_succeeds(raw in prop::collection::vec((0u8..6, 0u64..u64::MAX), 1..8)) {
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
    fn future_versions_are_rejected(raw in prop::collection::vec((0u8..6, 0u64..u64::MAX), 0..8),
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
