//! Semantic first-divergence reporting.
//!
//! Byte-comparing two session artifacts tells you *that* they differ;
//! debugging needs *where*. [`first_divergence`] walks two event streams in
//! lockstep and returns the first index where they disagree, together with
//! the preceding events for context — for a session trace that means the
//! kernel, phase position, governor decision, and counter tuple around the
//! divergent event. The walker is generic over any `PartialEq` event type,
//! so the same machinery diffs binary [`SessionEvent`] sessions and the
//! telemetry layer's JSONL `TraceEvent` streams.

use crate::SessionEvent;
use std::fmt;

/// How many preceding events are carried as context.
pub const CONTEXT_EVENTS: usize = 4;

/// The first point where two event streams disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence<E> {
    /// Index of the first divergent event.
    pub index: usize,
    /// The expected stream's event at `index`; `None` when the expected
    /// stream ended early.
    pub expected: Option<E>,
    /// The actual stream's event at `index`; `None` when the actual stream
    /// ended early.
    pub actual: Option<E>,
    /// Up to [`CONTEXT_EVENTS`] events common to both streams immediately
    /// before the divergence.
    pub context: Vec<E>,
}

/// Walks `expected` and `actual` in lockstep and reports the first index
/// where they differ (including one stream ending before the other).
/// `None` means the streams are identical.
pub fn first_divergence<E: PartialEq + Clone>(
    expected: &[E],
    actual: &[E],
) -> Option<Divergence<E>> {
    let shared = expected.len().min(actual.len());
    let index = (0..shared)
        .find(|&i| expected[i] != actual[i])
        .or((expected.len() != actual.len()).then_some(shared))?;
    Some(Divergence {
        index,
        expected: expected.get(index).cloned(),
        actual: actual.get(index).cloned(),
        context: expected[index.saturating_sub(CONTEXT_EVENTS)..index].to_vec(),
    })
}

impl<E: fmt::Display> fmt::Display for Divergence<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at event #{}", self.index)?;
        for (i, event) in self.context.iter().enumerate() {
            let at = self.index - self.context.len() + i;
            writeln!(f, "  context #{at}: {event}")?;
        }
        match &self.expected {
            Some(e) => writeln!(f, "  expected: {e}")?,
            None => writeln!(f, "  expected: <end of stream>")?,
        }
        match &self.actual {
            Some(e) => write!(f, "  actual:   {e}")?,
            None => write!(f, "  actual:   <end of stream>")?,
        }
        Ok(())
    }
}

impl Divergence<SessionEvent> {
    /// Renders the divergence with the per-field deltas named — the
    /// "actionable failure output" form used by the CLI and the golden
    /// tests.
    pub fn render(&self) -> String {
        let mut out = self.to_string();
        if let (Some(expected), Some(actual)) = (&self.expected, &self.actual) {
            for diff in expected.field_diffs(actual) {
                out.push_str("\n  delta: ");
                out.push_str(&diff);
            }
        }
        out
    }
}

/// One-line-or-more human report: `"no divergence (N events)"` when the
/// sessions agree, the rendered first divergence otherwise.
pub fn diff_report(expected: &[SessionEvent], actual: &[SessionEvent]) -> String {
    match first_divergence(expected, actual) {
        None => format!("no divergence ({} events)", expected.len()),
        Some(d) => d.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfgPoint;

    fn decision(i: u64, cu: u32) -> SessionEvent {
        SessionEvent::Decision {
            kernel: "k".into(),
            iteration: i,
            cfg: CfgPoint {
                cu,
                cu_mhz: 1000,
                mem_mhz: 1375,
            },
        }
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a: Vec<SessionEvent> = (0..8).map(|i| decision(i, 32)).collect();
        assert_eq!(first_divergence(&a, &a.clone()), None);
        assert!(diff_report(&a, &a).starts_with("no divergence (8 events)"));
    }

    #[test]
    fn pinpoints_the_exact_event_no_earlier_no_later() {
        let a: Vec<SessionEvent> = (0..10).map(|i| decision(i, 32)).collect();
        for mutated in 0..10 {
            let mut b = a.clone();
            b[mutated] = decision(mutated as u64, 28);
            let d = first_divergence(&a, &b).expect("must diverge");
            assert_eq!(d.index, mutated, "wrong localization");
            assert_eq!(d.expected, Some(a[mutated].clone()));
            assert_eq!(d.actual, Some(b[mutated].clone()));
            assert_eq!(d.context.len(), mutated.min(CONTEXT_EVENTS));
        }
    }

    #[test]
    fn length_mismatch_diverges_at_the_short_end() {
        let a: Vec<SessionEvent> = (0..5).map(|i| decision(i, 32)).collect();
        let d = first_divergence(&a, &a[..3]).expect("must diverge");
        assert_eq!(d.index, 3);
        assert_eq!(d.actual, None);
        assert_eq!(d.expected, Some(a[3].clone()));
        let d = first_divergence(&a[..3], &a).expect("must diverge");
        assert_eq!(d.index, 3);
        assert_eq!(d.expected, None);
    }

    #[test]
    fn integer_counter_deltas_print_as_integers() {
        let sample = |valu_insts| SessionEvent::Sample {
            kernel: "k".into(),
            iteration: 0,
            cfg: CfgPoint {
                cu: 32,
                cu_mhz: 1000,
                mem_mhz: 1375,
            },
            time_s: 1e-3,
            counters: harmonia_sim::CounterSample {
                valu_insts,
                ..Default::default()
            },
            stepped_waves: 0,
            fast_forwarded_waves: 0,
        };
        let (a, b) = ([sample(1_000_000)], [sample(1_000_001)]);
        let rendered = first_divergence(&a, &b).expect("must diverge").render();
        assert!(
            rendered.ends_with("\n  delta: counters.valu_insts: 1000000 != 1000001"),
            "{rendered}"
        );
    }

    #[test]
    fn render_names_the_divergent_field() {
        let a: Vec<SessionEvent> = (0..6).map(|i| decision(i, 32)).collect();
        let mut b = a.clone();
        b[5] = decision(5, 24);
        let d = first_divergence(&a, &b).expect("must diverge");
        let rendered = d.render();
        assert!(
            rendered.contains("first divergence at event #5"),
            "{rendered}"
        );
        assert!(rendered.contains("delta: cfg:"), "{rendered}");
        assert!(rendered.contains("context #4"), "{rendered}");
    }
}
