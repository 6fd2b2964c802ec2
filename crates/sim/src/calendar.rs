//! Bucketed calendar-queue event scheduler.
//!
//! The discrete-event model's future-event set is small (one outstanding
//! event per resident wave, ≤ a few thousand) but extremely hot: every
//! simulated block pushes and pops once. A `BinaryHeap` pays `O(log n)`
//! compare-and-swap churn on both operations; a *calendar queue* (Brown,
//! CACM 1988) hashes events by time into an array of day buckets and pops
//! by scanning the current day, giving `O(1)` amortized insert and pop when
//! the bucket width tracks the mean event spacing.
//!
//! This implementation preserves the **exact total order** the event model
//! relied on with its `BinaryHeap<Reverse<(time, id, kind)>>`: ties on the
//! timestamp are broken by the payload's `Ord` — for the event model's
//! `(wave id, kind)` payload, wave id first — never by insertion order, so
//! replacing the heap is a bit-identical refactor. The differential
//! property tests below assert it by driving both queues with the same
//! operation sequence.
//!
//! Robustness over cleverness: the queue only grows. When a push finds
//! four events per bucket already queued, it doubles the day count and
//! re-derives the bucket width from the resident events' span, so a poor
//! initial width hint only costs a rebuild, never correctness. It never
//! shrinks.

/// Smallest number of day buckets the calendar keeps (power of two).
const MIN_BUCKETS: usize = 16;

/// Grow when the event count exceeds `buckets × GROW_FACTOR`.
const GROW_FACTOR: usize = 4;

/// A time-ordered priority queue of `(u64 time, T payload)` events whose
/// timestamp ties break deterministically by the payload's total order.
///
/// Pops ascend by `(time, payload)` — the same order a min-heap over the
/// tuple would produce. Inserting an event earlier than the last popped
/// time is allowed (the scan cursor rewinds), though the event model never
/// does so.
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Day buckets; each is sorted **descending** so the minimum event of a
    /// bucket is `last()` and pops are `Vec::pop` (no shifting).
    buckets: Vec<Vec<(u64, T)>>,
    /// Picoseconds (or any tick) covered by one bucket.
    width: u64,
    /// Bucket the scan cursor is on.
    cursor: usize,
    /// Exclusive upper time bound of the cursor's current-year window; an
    /// event in `buckets[cursor]` is due iff its time is below this.
    cursor_top: u64,
    len: usize,
}

impl<T: Ord + Copy> CalendarQueue<T> {
    /// Creates an empty queue with a `width` hint (ticks per bucket). The
    /// hint seeds the initial geometry; resizes re-derive it from the live
    /// event population, so any positive value is safe.
    pub fn with_width(width: u64) -> Self {
        Self {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            width: width.max(1),
            cursor: 0,
            cursor_top: width.max(1),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of day buckets currently allocated (resize observability).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in ticks (resize observability).
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: u64, payload: T) {
        if self.len >= self.buckets.len() * GROW_FACTOR {
            self.resize(self.buckets.len() * 2);
        }
        let start = self.cursor_top - self.width;
        if time < start {
            // Late insert behind the scan cursor: rewind to its day so the
            // event is found. The event model never schedules in the past,
            // but correctness must not depend on that.
            self.seek(time);
        }
        let bucket = self.bucket_of(time);
        Self::insert_sorted(&mut self.buckets[bucket], time, payload);
        self.len += 1;
    }

    /// Removes and returns the earliest event, ties broken by payload order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        for _ in 0..n {
            if let Some(&(t, _)) = self.buckets[self.cursor].last() {
                if t < self.cursor_top {
                    self.len -= 1;
                    return self.buckets[self.cursor].pop();
                }
            }
            self.cursor = (self.cursor + 1) % n;
            self.cursor_top += self.width;
        }
        // A full year scanned with nothing due: every remaining event lives
        // in a later year. Jump the cursor straight to the global minimum
        // instead of spinning through empty years.
        let t_min = self
            .buckets
            .iter()
            .filter_map(|b| b.last().map(|&(t, _)| t))
            .min()
            .expect("len > 0 implies a resident event");
        self.seek(t_min);
        self.len -= 1;
        self.buckets[self.cursor].pop()
    }

    /// Index of the bucket covering `time` under the current geometry.
    fn bucket_of(&self, time: u64) -> usize {
        ((time / self.width) % self.buckets.len() as u64) as usize
    }

    /// Positions the cursor on the day containing `time`.
    fn seek(&mut self, time: u64) {
        self.cursor = self.bucket_of(time);
        self.cursor_top = (time / self.width + 1) * self.width;
    }

    /// Inserts into a descending-sorted bucket, keeping the minimum at the
    /// tail. Buckets stay short (a handful of events) when the width tracks
    /// the event spacing, so the binary search + shift is effectively O(1).
    fn insert_sorted(bucket: &mut Vec<(u64, T)>, time: u64, payload: T) {
        let key = (time, payload);
        let pos = bucket.partition_point(|&e| e > key);
        bucket.insert(pos, (time, payload));
    }

    /// Rebuilds with `new_buckets` day buckets and a width re-derived from
    /// the resident events' span, then re-aims the cursor at the minimum.
    fn resize(&mut self, new_buckets: usize) {
        let events: Vec<(u64, T)> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &(t, _) in &events {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        if !events.is_empty() {
            // Spread the resident population over roughly half a year so
            // pops scan few buckets and inserts find short ones.
            let span = hi - lo;
            self.width = (2 * span / events.len() as u64).max(1);
        }
        self.buckets = vec![Vec::new(); new_buckets.max(MIN_BUCKETS)];
        let anchor = if events.is_empty() {
            self.cursor_top - self.width
        } else {
            lo
        };
        self.seek(anchor);
        for (t, p) in events {
            let bucket = self.bucket_of(t);
            Self::insert_sorted(&mut self.buckets[bucket], t, p);
        }
    }
}

impl<T: Ord + Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::with_width(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn empty_pops_none() {
        let mut q: CalendarQueue<u32> = CalendarQueue::with_width(10);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pops_ascend_by_time_then_payload() {
        let mut q = CalendarQueue::with_width(100);
        q.push(50, 2u32);
        q.push(50, 1);
        q.push(10, 9);
        q.push(5000, 0);
        assert_eq!(q.pop(), Some((10, 9)));
        assert_eq!(q.pop(), Some((50, 1)));
        assert_eq!(q.pop(), Some((50, 2)));
        assert_eq!(q.pop(), Some((5000, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_skip_empty_years() {
        let mut q = CalendarQueue::with_width(1);
        q.push(0, 0u32);
        assert_eq!(q.pop(), Some((0, 0)));
        // Next event many "years" (bucket rotations) ahead: the pop must
        // jump rather than spin.
        q.push(1_000_000_000, 7);
        assert_eq!(q.pop(), Some((1_000_000_000, 7)));
    }

    #[test]
    fn grows_under_load_and_keeps_order() {
        let mut q = CalendarQueue::with_width(3);
        for i in 0..10_000u64 {
            q.push(i * 37 % 4096, (i % 97) as u32);
        }
        assert!(q.bucket_count() > MIN_BUCKETS, "expected growth");
        let mut last = (0u64, 0u32);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!(e >= last, "order violated: {e:?} after {last:?}");
            last = e;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn insert_behind_cursor_is_found() {
        let mut q = CalendarQueue::with_width(4);
        q.push(1000, 1u32);
        assert_eq!(q.pop(), Some((1000, 1)));
        q.push(2, 2); // behind the scan position
        q.push(1001, 3);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((1001, 3)));
    }

    #[test]
    fn zero_width_hint_is_clamped() {
        let mut q = CalendarQueue::with_width(0);
        assert_eq!(q.width(), 1);
        q.push(3, 1u32);
        assert_eq!(q.pop(), Some((3, 1)));
    }

    /// The heap the event model used before this queue existed; the
    /// differential below asserts pop-order equality operation by operation.
    fn drain_both(ops: &[(u64, u32)], interleave: usize) {
        let mut cal = CalendarQueue::with_width(7);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        // Interleave pushes and pops the way a simulation does: schedule a
        // few, retire one, repeat.
        for chunk in ops.chunks(interleave.max(1)) {
            for &(t, p) in chunk {
                cal.push(t, p);
                heap.push(Reverse((t, p)));
            }
            assert_eq!(cal.pop(), heap.pop().map(|Reverse((t, p))| (t, p)));
        }
        loop {
            let a = cal.pop();
            let b = heap.pop().map(|Reverse((t, p))| (t, p));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_binary_heap_order_exactly(
            ops in proptest::collection::vec((0u64..1_000_000, 0u32..64), 1..400),
            interleave in 1usize..8,
        ) {
            drain_both(&ops, interleave);
        }

        #[test]
        fn matches_binary_heap_with_clustered_times(
            ops in proptest::collection::vec((0u64..32, 0u32..8), 1..200),
        ) {
            // Heavy timestamp collisions: tie-breaking must be identical.
            drain_both(&ops, 3);
        }
    }
}
