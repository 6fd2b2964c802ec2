//! The versioned binary session-trace format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     8 bytes   b"HRRTRACE"
//! version   u16       minimal version for the events; readers reject
//!                     anything newer than FORMAT_VERSION
//! count     varint    number of events
//! events    count ×   tag u8 + variant payload
//! ```
//!
//! Version history: v1 is the original vocabulary (tags 0–5); v2 adds the
//! retry-pipeline `actuation-resolved` event (tag 6). The encoder writes
//! the **minimal** version the events need — a session with no resolved
//! actuations still encodes as a byte-identical v1 stream — and the
//! decoder accepts both, rejecting tag 6 inside a v1 stream as a
//! [`CodecError::BadTag`].
//!
//! Each event is its tag, then its fields in the order the event's field
//! list gives them, one wire form per field kind. Scalars: `u64`/`u32` as
//! LEB128 varints, `f64` as its raw 8-byte bit pattern (NaN payloads
//! survive — power-glitch samples must round-trip bit-exactly). Kernel
//! names are interned: a name reference equal to the running table size
//! introduces a new name inline (varint length + UTF-8); smaller
//! references index the table. Encoding is canonical, so
//! `encode(decode(bytes)) == bytes` for any valid stream. Decoding
//! allocates each distinct name once and every event naming it shares that
//! [`Arc<str>`].
//!
//! The format is strict: decoding validates tags, fault-kind codes, name
//! references, and stream length, and every failure is a typed
//! [`CodecError`] with the byte offset it was detected at.

use crate::{counter_values, CfgPoint, Counter, FieldRef, FieldVisitor, SessionEvent};
use harmonia_sim::{ActuationOutcome, CounterSample, FaultKind};
use harmonia_types::Seconds;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The 8-byte stream magic.
pub const MAGIC: [u8; 8] = *b"HRRTRACE";

/// Newest format version this build reads and writes. Bump on any layout
/// change; readers reject streams written by a newer version with
/// [`CodecError::UnsupportedVersion`]. The encoder stamps each stream with
/// the *minimal* version its events need, so older readers keep working on
/// traces that never use the newer vocabulary.
pub const FORMAT_VERSION: u16 = 2;

/// First version with the `actuation-resolved` event (tag 6).
const VERSION_ACTUATION_RESOLVED: u16 = 2;

pub(crate) const TAG_SESSION_START: u8 = 0;
pub(crate) const TAG_DECISION: u8 = 1;
pub(crate) const TAG_ACTUATION: u8 = 2;
pub(crate) const TAG_SAMPLE: u8 = 3;
pub(crate) const TAG_CONDITIONED: u8 = 4;
pub(crate) const TAG_SESSION_END: u8 = 5;
pub(crate) const TAG_ACTUATION_RESOLVED: u8 = 6;

/// Each event variant's label, indexed by its tag.
pub(crate) const LABELS: [&str; 7] = [
    "session-start",
    "decision",
    "actuation",
    "sample",
    "conditioned",
    "session-end",
    "actuation-resolved",
];

/// A malformed or unsupported session-trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream was written by a newer format version than this reader
    /// understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this reader supports.
        supported: u16,
    },
    /// The stream ended in the middle of a value.
    Truncated {
        /// Byte offset the read started at.
        offset: usize,
        /// Index and variant label of the last event that decoded
        /// completely before the stream ended; `None` when the cut landed
        /// inside the header or the first event.
        last_event: Option<(usize, &'static str)>,
    },
    /// An unknown event tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
        /// Byte offset of the tag.
        offset: usize,
    },
    /// A kernel-name reference beyond the intern table.
    BadKernelRef {
        /// The offending reference.
        reference: u64,
        /// Byte offset of the reference.
        offset: usize,
    },
    /// A value failed validation (non-UTF-8 string, varint overflow,
    /// unknown fault-kind code).
    Malformed {
        /// Byte offset of the value.
        offset: usize,
        /// What failed.
        what: &'static str,
    },
    /// Bytes remain after the declared event count.
    TrailingBytes {
        /// Byte offset of the first unread byte.
        offset: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a session trace (bad magic)"),
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "session trace format v{found} is newer than the supported v{supported}"
            ),
            CodecError::Truncated { offset, last_event } => {
                write!(f, "session trace truncated at byte {offset}")?;
                match last_event {
                    Some((index, label)) => {
                        write!(f, " (last complete event: #{index} {label})")
                    }
                    None => write!(f, " (no event decoded completely)"),
                }
            }
            CodecError::BadTag { tag, offset } => {
                write!(f, "unknown event tag {tag} at byte {offset}")
            }
            CodecError::BadKernelRef { reference, offset } => {
                write!(
                    f,
                    "kernel-name reference {reference} out of range at byte {offset}"
                )
            }
            CodecError::Malformed { offset, what } => {
                write!(f, "malformed {what} at byte {offset}")
            }
            CodecError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after the last event (byte {offset})")
            }
        }
    }
}

impl Error for CodecError {}

fn malformed(offset: usize, what: &'static str) -> CodecError {
    CodecError::Malformed { offset, what }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bits(out: &mut Vec<u8>, bits: u64) {
    out.extend_from_slice(&bits.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The minimal format version able to express `events`, which [`encode`]
/// stamps in the header. Streams without any v2-only event still encode as
/// v1, byte-identical to what older builds wrote — committed golden traces
/// survive the version bump.
pub fn minimal_version(events: &[SessionEvent]) -> u16 {
    if events
        .iter()
        .any(|e| matches!(e, SessionEvent::ActuationResolved { .. }))
    {
        VERSION_ACTUATION_RESOLVED
    } else {
        1
    }
}

/// Encodes a session into the versioned binary format. The encoding is
/// canonical: the same events always produce the same bytes, and the
/// header carries the minimal version those events need.
pub fn encode(events: &[SessionEvent]) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(16 + events.len() * 64),
        names: Vec::new(),
    };
    w.out.extend_from_slice(&MAGIC);
    w.out
        .extend_from_slice(&minimal_version(events).to_le_bytes());
    put_varint(&mut w.out, events.len() as u64);
    for event in events {
        // The tag leads the event; the field list hands it back last.
        let at = w.out.len();
        w.out.push(0);
        w.out[at] = event.fields(&mut w);
    }
    w.out
}

/// The encoder: the stream so far and its kernel-name table, where a
/// name's id is its first-seen position. Names are found by scanning, not
/// hashing: a session names 1–3 kernels (the assumption `KernelMap` rests
/// on), and events recorded from one profile share its allocation, so the
/// pointer test settles nearly every lookup before any byte is compared. A
/// stream naming hundreds of distinct kernels would want an index instead.
struct Writer<'a> {
    out: Vec<u8>,
    names: Vec<&'a str>,
}

impl<'a> FieldVisitor<'a> for Writer<'a> {
    #[inline(always)]
    fn field(&mut self, _: &'static str, field: FieldRef<'a>) {
        let out = &mut self.out;
        match field {
            FieldRef::Kernel(name) => {
                let known = self.names.iter().position(|n| {
                    n.len() == name.len() && (n.as_ptr() == name.as_ptr() || *n == name)
                });
                put_varint(out, known.unwrap_or(self.names.len()) as u64);
                if known.is_none() {
                    put_str(out, name);
                    self.names.push(name);
                }
            }
            FieldRef::Str(s) => put_str(out, s),
            FieldRef::Int(v) => put_varint(out, v),
            FieldRef::Float(v) => put_bits(out, v.to_bits()),
            FieldRef::Cfg(c) => {
                for v in [c.cu, c.cu_mhz, c.mem_mhz] {
                    put_varint(out, u64::from(v));
                }
            }
            FieldRef::Counters(c) => {
                for counter in counter_values(c) {
                    match counter {
                        Counter::F64(bits) => put_bits(out, bits),
                        Counter::Int(v) => put_varint(out, v),
                    }
                }
            }
            FieldRef::Fault(kind) => out.push(kind.code()),
            FieldRef::Faults(kinds) => {
                put_varint(out, kinds.len() as u64);
                for kind in kinds {
                    out.push(kind.code());
                }
            }
            FieldRef::Outcome(outcome) => {
                out.push(outcome.code());
                put_varint(out, u64::from(outcome.param()));
            }
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let start = self.pos;
        let end = start
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CodecError::Truncated {
                offset: start,
                last_event: None,
            })?;
        self.pos = end;
        Ok(&self.bytes[start..end])
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let offset = self.pos;
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let part = u64::from(byte & 0x7f);
            if shift == 63 && part > 1 {
                return Err(malformed(offset, "varint (overflow)"));
            }
            v |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(malformed(offset, "varint (too long)"))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let offset = self.pos;
        u32::try_from(self.varint()?).map_err(|_| malformed(offset, "u32 out of range"))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            raw.try_into().expect("8 bytes"),
        )))
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        let len_offset = self.pos;
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| malformed(len_offset, "string length"))?;
        let offset = self.pos;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| malformed(offset, "string (invalid UTF-8)"))
    }

    fn kernel(&mut self, table: &mut Vec<Arc<str>>) -> Result<Arc<str>, CodecError> {
        let offset = self.pos;
        let reference = self.varint()?;
        if reference == table.len() as u64 {
            let name: Arc<str> = Arc::from(self.str()?);
            table.push(Arc::clone(&name));
            Ok(name)
        } else if reference < table.len() as u64 {
            Ok(Arc::clone(&table[reference as usize]))
        } else {
            Err(CodecError::BadKernelRef { reference, offset })
        }
    }

    fn cfg(&mut self) -> Result<CfgPoint, CodecError> {
        Ok(CfgPoint {
            cu: self.u32()?,
            cu_mhz: self.u32()?,
            mem_mhz: self.u32()?,
        })
    }

    fn counters(&mut self) -> Result<CounterSample, CodecError> {
        Ok(CounterSample {
            duration: Seconds(self.f64()?),
            valu_busy_pct: self.f64()?,
            valu_utilization_pct: self.f64()?,
            mem_unit_busy_pct: self.f64()?,
            mem_unit_stalled_pct: self.f64()?,
            write_unit_stalled_pct: self.f64()?,
            norm_vgpr: self.f64()?,
            norm_sgpr: self.f64()?,
            ic_activity: self.f64()?,
            valu_insts: self.varint()?,
            vfetch_insts: self.varint()?,
            vwrite_insts: self.varint()?,
            dram_bytes: self.f64()?,
            achieved_bw_gbps: self.f64()?,
            occupancy_fraction: self.f64()?,
            l2_hit_rate: self.f64()?,
        })
    }

    fn fault_kind(&mut self) -> Result<FaultKind, CodecError> {
        let offset = self.pos;
        let code = self.u8()?;
        FaultKind::from_code(code).ok_or(malformed(offset, "fault-kind code"))
    }

    fn fault_kinds(&mut self) -> Result<Vec<FaultKind>, CodecError> {
        let offset = self.pos;
        let n =
            usize::try_from(self.varint()?).map_err(|_| malformed(offset, "fault-kind count"))?;
        let mut kinds = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            kinds.push(self.fault_kind()?);
        }
        Ok(kinds)
    }

    fn outcome(&mut self) -> Result<ActuationOutcome, CodecError> {
        let offset = self.pos;
        let code = self.u8()?;
        let param = self.u32()?;
        ActuationOutcome::from_code(code, param).ok_or(malformed(offset, "actuation-outcome code"))
    }
}

/// Decodes a session trace, validating the header, every event, and the
/// total stream length.
///
/// # Errors
///
/// Any structural problem is a typed [`CodecError`]; in particular a
/// stream written by a future format version fails with
/// [`CodecError::UnsupportedVersion`] instead of being misparsed.
pub fn decode(bytes: &[u8]) -> Result<Vec<SessionEvent>, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(MAGIC.len()).map_err(|_| CodecError::BadMagic)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(
        r.take(2)
            .map_err(|_| CodecError::Truncated {
                offset: MAGIC.len(),
                last_event: None,
            })?
            .try_into()
            .expect("2 bytes"),
    );
    if version > FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.varint()?;
    let count = usize::try_from(count).map_err(|_| malformed(10, "event count"))?;
    let mut table: Vec<Arc<str>> = Vec::new();
    let mut events: Vec<SessionEvent> = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let decoded = (|| {
            let tag_offset = r.pos;
            let tag = r.u8()?;
            Ok(match tag {
                TAG_SESSION_START => SessionEvent::SessionStart {
                    app: r.str()?.to_owned(),
                    policy: r.str()?.to_owned(),
                    fault_seed: r.varint()?,
                },
                TAG_DECISION => SessionEvent::Decision {
                    kernel: r.kernel(&mut table)?,
                    iteration: r.varint()?,
                    cfg: r.cfg()?,
                },
                TAG_ACTUATION => SessionEvent::Actuation {
                    kernel: r.kernel(&mut table)?,
                    iteration: r.varint()?,
                    kind: r.fault_kind()?,
                    wanted: r.cfg()?,
                    actual: r.cfg()?,
                },
                TAG_ACTUATION_RESOLVED if version >= VERSION_ACTUATION_RESOLVED => {
                    SessionEvent::ActuationResolved {
                        kernel: r.kernel(&mut table)?,
                        iteration: r.varint()?,
                        outcome: r.outcome()?,
                        attempts: r.u32()?,
                        kinds: r.fault_kinds()?,
                        wanted: r.cfg()?,
                        actual: r.cfg()?,
                    }
                }
                TAG_SAMPLE => SessionEvent::Sample {
                    kernel: r.kernel(&mut table)?,
                    iteration: r.varint()?,
                    cfg: r.cfg()?,
                    time_s: r.f64()?,
                    counters: r.counters()?,
                    stepped_waves: r.varint()?,
                    fast_forwarded_waves: r.varint()?,
                },
                TAG_CONDITIONED => SessionEvent::Conditioned {
                    kernel: r.kernel(&mut table)?,
                    iteration: r.varint()?,
                    time_s: r.f64()?,
                    counters: r.counters()?,
                },
                TAG_SESSION_END => SessionEvent::SessionEnd {
                    total_time_s: r.f64()?,
                    card_energy_j: r.f64()?,
                    gpu_energy_j: r.f64()?,
                    mem_energy_j: r.f64()?,
                },
                tag => {
                    return Err(CodecError::BadTag {
                        tag,
                        offset: tag_offset,
                    })
                }
            })
        })();
        // A truncation mid-event is only diagnosable with a landmark:
        // stamp in the last event that decoded completely.
        let event = decoded.map_err(|e| match e {
            CodecError::Truncated {
                offset,
                last_event: None,
            } => CodecError::Truncated {
                offset,
                last_event: events.last().map(|ev| (events.len() - 1, ev.label())),
            },
            other => other,
        })?;
        events.push(event);
    }
    if r.pos != bytes.len() {
        return Err(CodecError::TrailingBytes { offset: r.pos });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<SessionEvent> {
        let cfg = CfgPoint {
            cu: 32,
            cu_mhz: 1000,
            mem_mhz: 1375,
        };
        vec![
            SessionEvent::SessionStart {
                app: "Graph500".into(),
                policy: "hardened:capped".into(),
                fault_seed: 0xFA17,
            },
            SessionEvent::Decision {
                kernel: "BFS".into(),
                iteration: 0,
                cfg,
            },
            SessionEvent::Actuation {
                kernel: "BFS".into(),
                iteration: 0,
                kind: FaultKind::ThermalThrottle,
                wanted: cfg,
                actual: CfgPoint {
                    cu: 32,
                    cu_mhz: 500,
                    mem_mhz: 1375,
                },
            },
            SessionEvent::Sample {
                kernel: "BFS".into(),
                iteration: 0,
                cfg,
                time_s: 1.25e-3,
                counters: CounterSample {
                    duration: Seconds(f64::NAN),
                    achieved_bw_gbps: f64::NAN,
                    valu_insts: 1 << 40,
                    ..CounterSample::default()
                },
                stepped_waves: 7,
                fast_forwarded_waves: 123_456,
            },
            SessionEvent::Conditioned {
                kernel: "BFS".into(),
                iteration: 0,
                time_s: 1.25e-3,
                counters: CounterSample::default(),
            },
            SessionEvent::SessionEnd {
                total_time_s: 0.5,
                card_energy_j: 99.0,
                gpu_energy_j: 60.0,
                mem_energy_j: 20.0,
            },
        ]
    }

    #[test]
    fn round_trips_including_nan_payloads() {
        let evs = events();
        let bytes = encode(&evs);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, evs);
        assert_eq!(encode(&back), bytes, "canonical re-encode");
    }

    #[test]
    fn empty_session_round_trips() {
        let bytes = encode(&[]);
        assert_eq!(decode(&bytes).expect("decodes"), Vec::<SessionEvent>::new());
    }

    #[test]
    fn future_version_is_rejected_with_typed_error() {
        let mut bytes = encode(&events());
        bytes[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match decode(&bytes) {
            Err(CodecError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&events());
        bytes[0] ^= 0xff;
        assert_eq!(decode(&bytes), Err(CodecError::BadMagic));
        assert_eq!(decode(b"HRR"), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&events());
        for cut in [bytes.len() - 1, bytes.len() / 2, 11] {
            let err = decode(&bytes[..cut]).expect_err("truncated stream must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::Malformed { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&events());
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn interning_pays_off_for_repeated_kernels() {
        let cfg = CfgPoint {
            cu: 32,
            cu_mhz: 1000,
            mem_mhz: 1375,
        };
        let repeated: Vec<SessionEvent> = (0..64)
            .map(|i| SessionEvent::Decision {
                kernel: "a-rather-long-kernel-name".into(),
                iteration: i,
                cfg,
            })
            .collect();
        let unique: Vec<SessionEvent> = (0..64)
            .map(|i| SessionEvent::Decision {
                kernel: format!("a-rather-long-kernel-name{i:03}").into(),
                iteration: i,
                cfg,
            })
            .collect();
        let a = encode(&repeated);
        assert_eq!(decode(&a).expect("decodes"), repeated);
        assert!(
            a.len() + 1000 < encode(&unique).len(),
            "interning saved nothing: {} vs {}",
            a.len(),
            encode(&unique).len()
        );
    }

    #[test]
    fn names_intern_by_value_and_decode_to_one_allocation() {
        let cfg = CfgPoint {
            cu: 8,
            cu_mhz: 100,
            mem_mhz: 120,
        };
        let decision = |kernel: &Arc<str>, iteration| SessionEvent::Decision {
            kernel: kernel.clone(),
            iteration,
            cfg,
        };
        let (k, j): (Arc<str>, Arc<str>) = ("k".into(), "j".into());
        let shared = vec![decision(&k, 0), decision(&j, 0), decision(&k, 1)];
        // Equal names in separate allocations intern by their bytes.
        let separate = vec![decision(&k, 0), decision(&j, 0), decision(&"k".into(), 1)];
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&[1, 0, 3]);
        expected.extend_from_slice(&[TAG_DECISION, 0, 1, b'k', 0, 8, 100, 120]);
        expected.extend_from_slice(&[TAG_DECISION, 1, 1, b'j', 0, 8, 100, 120]);
        expected.extend_from_slice(&[TAG_DECISION, 0, 1, 8, 100, 120]);
        assert_eq!(encode(&shared), expected);
        let bytes = encode(&separate);
        assert_eq!(bytes, expected);

        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, separate);
        let names: Vec<&Arc<str>> = back
            .iter()
            .map(|e| match e {
                SessionEvent::Decision { kernel, .. } => kernel,
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert!(Arc::ptr_eq(names[0], names[2]), "one name, one allocation");
        assert!(!Arc::ptr_eq(names[0], names[1]));
    }

    fn resolved(kernel: &str) -> SessionEvent {
        SessionEvent::ActuationResolved {
            kernel: kernel.into(),
            iteration: 2,
            outcome: ActuationOutcome::Retried(3),
            attempts: 4,
            kinds: vec![
                FaultKind::DvfsDeny,
                FaultKind::DvfsDelay,
                FaultKind::DvfsDeny,
            ],
            wanted: CfgPoint {
                cu: 32,
                cu_mhz: 1000,
                mem_mhz: 1375,
            },
            actual: CfgPoint {
                cu: 32,
                cu_mhz: 1000,
                mem_mhz: 1375,
            },
        }
    }

    #[test]
    fn sessions_without_resolved_actuations_still_encode_as_v1() {
        let bytes = encode(&events());
        assert_eq!(
            bytes[8..10],
            1u16.to_le_bytes(),
            "minimal version must be v1"
        );
        let mut evs = events();
        evs.insert(2, resolved("BFS"));
        let bytes = encode(&evs);
        assert_eq!(
            bytes[8..10],
            2u16.to_le_bytes(),
            "resolved actuation needs v2"
        );
    }

    #[test]
    fn resolved_actuations_round_trip() {
        let mut evs = events();
        evs.insert(2, resolved("BFS"));
        evs.insert(
            3,
            SessionEvent::ActuationResolved {
                kernel: "BFS".into(),
                iteration: 3,
                outcome: ActuationOutcome::RolledBack,
                attempts: 5,
                kinds: vec![FaultKind::DvfsNeighbor],
                wanted: CfgPoint {
                    cu: 32,
                    cu_mhz: 1000,
                    mem_mhz: 1375,
                },
                actual: CfgPoint {
                    cu: 24,
                    cu_mhz: 850,
                    mem_mhz: 1375,
                },
            },
        );
        let bytes = encode(&evs);
        let back = decode(&bytes).expect("v2 decodes");
        assert_eq!(back, evs);
        assert_eq!(encode(&back), bytes, "canonical re-encode");
    }

    #[test]
    fn resolved_tag_inside_a_v1_stream_is_rejected() {
        let mut evs = events();
        evs.insert(2, resolved("BFS"));
        let mut bytes = encode(&evs);
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        assert!(
            matches!(decode(&bytes), Err(CodecError::BadTag { tag: 6, .. })),
            "tag 6 must be invalid in a v1 stream"
        );
    }

    #[test]
    fn truncation_names_the_last_complete_event() {
        let bytes = encode(&events());
        let err = decode(&bytes[..bytes.len() - 1]).expect_err("truncated");
        match err {
            CodecError::Truncated {
                last_event: Some((index, label)),
                ..
            } => {
                // The cut lands inside the session-end footer; the last
                // complete event is the conditioned record before it.
                assert_eq!((index, label), (4, "conditioned"));
            }
            other => panic!("expected contextual truncation, got {other:?}"),
        }
        let display = decode(&bytes[..bytes.len() - 1]).unwrap_err().to_string();
        assert!(display.contains("#4 conditioned"), "{display}");
        // A cut inside the first event has no landmark.
        match decode(&bytes[..12]).expect_err("truncated header") {
            CodecError::Truncated {
                last_event: None, ..
            } => {}
            other => panic!("expected landmark-free truncation, got {other:?}"),
        }
    }

    #[test]
    fn bad_kernel_reference_is_rejected() {
        // Hand-build a Decision whose kernel reference skips ahead.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(1); // one event
        bytes.push(TAG_DECISION);
        bytes.push(5); // reference 5 into an empty table
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::BadKernelRef { reference: 5, .. })
        ));
    }
}
