//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it and the op
//! it belongs to. Spans are opened around calls into the workspace crates,
//! from this benchmark's own code and wrappers, and kept in memory until
//! the run ends. A disabled [`Tracer`] runs the traced closure and nothing
//! else.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a span with no parent.
const NO_PARENT: u32 = u32::MAX;

/// Op id of spans recorded during set-up.
pub const SETUP_OP: u32 = 0;

/// An interned span or counter name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Name(u32);

/// One closed span.
#[derive(Clone, Copy, Debug)]
struct Span {
    id: u32,
    parent: u32,
    op: u32,
    name: Name,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    epoch: Instant,
    names: Mutex<Vec<String>>,
    spans: Mutex<Vec<Span>>,
    /// Counts recorded at span boundaries, keyed by (op, name).
    counters: Mutex<HashMap<(u32, Name), u64>>,
    next_id: AtomicU32,
    /// The op the spans being recorded belong to.
    op: AtomicU32,
    /// The op's root span: the parent of spans opened on threads that have
    /// no open span of their own (sweep-pool workers).
    root: AtomicU32,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// An open op root span (see [`Tracer::begin_op`]).
pub struct OpSpan {
    id: u32,
    name: Name,
    start_ns: u64,
}

/// A shared handle on one span recording; `Tracer::off()` records nothing.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self(None)
    }

    /// A tracer that records every span and count, with room for
    /// `capacity` spans before its buffer grows.
    pub fn on(capacity: usize) -> Self {
        Self(Some(Arc::new(Inner {
            epoch: Instant::now(),
            names: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            counters: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(0),
            op: AtomicU32::new(SETUP_OP),
            root: AtomicU32::new(NO_PARENT),
        })))
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Interns `name`.
    pub fn name(&self, name: &str) -> Name {
        let Some(inner) = &self.0 else {
            return Name(0);
        };
        let mut names = inner.names.lock().expect("name table poisoned");
        let id = match names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                names.push(name.to_string());
                names.len() - 1
            }
        };
        Name(u32::try_from(id).expect("fewer than 2^32 span names"))
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.0 else {
            return f();
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN
            .with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| inner.root.load(Ordering::Relaxed));
        self.record(inner, id, parent, name, f)
    }

    /// Opens the root span of op `op`, called `name`: every span recorded
    /// until [`end_op`](Self::end_op) is tagged with `op`.
    pub fn begin_op(&self, op: u32, name: Name) -> OpSpan {
        let Some(inner) = &self.0 else {
            return OpSpan {
                id: NO_PARENT,
                name,
                start_ns: 0,
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        inner.op.store(op, Ordering::Relaxed);
        inner.root.store(id, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        OpSpan {
            id,
            name,
            start_ns: inner.now_ns(),
        }
    }

    /// Closes an op's root span.
    pub fn end_op(&self, span: OpSpan) {
        let Some(inner) = &self.0 else {
            return;
        };
        let end_ns = inner.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        inner.root.store(NO_PARENT, Ordering::Relaxed);
        self.push(inner, span.id, NO_PARENT, span.name, span.start_ns, end_ns);
    }

    /// Runs `f` as op `op`, inside a root span called `name`.
    pub fn op<R>(&self, op: u32, name: Name, f: impl FnOnce() -> R) -> R {
        let span = self.begin_op(op, name);
        let out = f();
        self.end_op(span);
        out
    }

    fn record<R>(
        &self,
        inner: &Inner,
        id: u32,
        parent: u32,
        name: Name,
        f: impl FnOnce() -> R,
    ) -> R {
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = inner.now_ns();
        let out = f();
        let end_ns = inner.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(inner, id, parent, name, start_ns, end_ns);
        out
    }

    fn push(&self, inner: &Inner, id: u32, parent: u32, name: Name, start_ns: u64, end_ns: u64) {
        let span = Span {
            id,
            parent,
            op: inner.op.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
        };
        inner.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Adds `n` to the counter `name` of the current op.
    pub fn count(&self, name: Name, n: u64) {
        let Some(inner) = &self.0 else {
            return;
        };
        let op = inner.op.load(Ordering::Relaxed);
        *inner
            .counters
            .lock()
            .expect("counter table poisoned")
            .entry((op, name))
            .or_default() += n;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |inner| {
            inner.spans.lock().expect("span buffer poisoned").len()
        })
    }

    /// Aggregates the spans and counters of the ops `ops` selects.
    pub fn profile(&self, ops: impl Fn(u32) -> bool) -> Profile {
        let mut profile = Profile::default();
        let Some(inner) = &self.0 else {
            return profile;
        };
        let names = inner.names.lock().expect("name table poisoned").clone();
        let spans = inner.spans.lock().expect("span buffer poisoned");
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            if s.parent != NO_PARENT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in spans.iter().filter(|s| ops(s.op)) {
            let total = s.end_ns - s.start_ns;
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let agg = profile
                .spans
                .entry(names[s.name.0 as usize].clone())
                .or_default();
            agg.calls += 1;
            agg.total_ns += total;
            agg.self_ns += total - covered;
        }
        let counters = inner.counters.lock().expect("counter table poisoned");
        for (&(op, name), &n) in counters.iter() {
            if ops(op) {
                *profile
                    .counters
                    .entry(names[name.0 as usize].clone())
                    .or_default() += n;
            }
        }
        profile
    }

    /// Every span as CSV (`id,parent,op,name,start_ns,end_ns`; parent
    /// `-1` for root spans), in closing order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,op,name,start_ns,end_ns\n");
        let Some(inner) = &self.0 else {
            return out;
        };
        let names = inner.names.lock().expect("name table poisoned");
        for s in inner.spans.lock().expect("span buffer poisoned").iter() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{},{parent},{},{},{},{}",
                s.id, s.op, names[s.name.0 as usize], s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`. Children
/// opened on several threads may overlap; the union counts each covered
/// nanosecond once.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per-name totals of one selection of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// Aggregated spans and counters, by name.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Span totals by span name.
    pub spans: BTreeMap<String, Agg>,
    /// Counter totals by counter name.
    pub counters: BTreeMap<String, u64>,
}

impl Profile {
    /// The totals of span `name` (zero when it never closed).
    pub fn get(&self, name: &str) -> Agg {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The total of counter `name` (zero when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summed totals of every span whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> Agg {
        self.spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold(Agg::default(), |acc, (_, a)| Agg {
                calls: acc.calls + a.calls,
                total_ns: acc.total_ns + a.total_ns,
                self_ns: acc.self_ns + a.self_ns,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counts_overlap_once() {
        let mut c = vec![(20, 40), (30, 50), (80, 120)];
        assert_eq!(covered_ns(&mut c, 0, 100), 30 + 20);
    }

    #[test]
    fn nested_spans_attribute_self_time_to_each_level() {
        let t = Tracer::on(16);
        let (root, outer, inner) = (t.name("op"), t.name("outer"), t.name("inner"));
        let spin = |ns: u128| {
            let s = Instant::now();
            while s.elapsed().as_nanos() < ns {}
        };
        t.op(1, root, || {
            t.span(outer, || {
                spin(200_000);
                t.span(inner, || spin(300_000));
            });
            t.count(inner, 3);
        });
        let p = t.profile(|op| op == 1);
        let (r, o, i) = (p.get("op"), p.get("outer"), p.get("inner"));
        assert_eq!((r.calls, o.calls, i.calls), (1, 1, 1));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(r.self_ns, r.total_ns - o.total_ns);
        assert!(i.self_ns >= 300_000 && o.self_ns >= 200_000);
        assert_eq!(p.counter("inner"), 3);
        assert!(t.profile(|op| op == SETUP_OP).spans.is_empty());
    }

    #[test]
    fn an_off_tracer_only_runs_the_closure() {
        let t = Tracer::off();
        let n = t.name("x");
        assert_eq!(t.span(n, || 7), 7);
        t.count(n, 1);
        assert_eq!(t.len(), 0);
        assert!(t.profile(|_| true).spans.is_empty());
    }
}
