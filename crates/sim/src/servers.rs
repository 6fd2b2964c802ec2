//! Shared queueing-server machinery for the event-driven timing models.
//!
//! Both the [`EventModel`](crate::event::EventModel) (uniform blocks) and
//! the [`TraceModel`](crate::trace::TraceModel) (jittered operations) route
//! DRAM-bound requests through the same machine path: the L2→memory-
//! controller clock-domain crossing (a single server running at the compute
//! clock) followed by one of the round-robin memory channels, plus the DRAM
//! access latency. [`MemoryPath`] owns that pipeline and its busy/wait
//! accounting. [`SlotQueue`] is both models' future-event set.

use crate::device::GpuDescriptor;
use harmonia_types::HwConfig;
use std::hint::select_unpredictable;

/// Picoseconds per second — integer event time keeps event ordering exact.
pub const PS: f64 = 1.0e12;

/// The L2→MC crossing plus memory-channel service pipeline.
#[derive(Debug, Clone)]
pub struct MemoryPath {
    channel_free: Vec<u64>,
    channel_busy: Vec<u64>,
    crossing_free: u64,
    next_channel: usize,
    channel_bw: f64,
    crossing_bw: f64,
    dram_latency_ps: u64,
}

impl MemoryPath {
    /// Builds the memory path for `gpu` at operating point `cfg`.
    pub fn new(gpu: &GpuDescriptor, cfg: HwConfig) -> Self {
        let peak_bw = cfg.memory.peak_bandwidth_on(&gpu.grid).as_bytes_per_sec() * gpu.dram_efficiency;
        let f_cu = cfg.compute.freq().as_hz();
        let f_mem = cfg.memory.bus_freq().as_hz();
        Self {
            channel_free: vec![0; gpu.mem_channels as usize],
            channel_busy: vec![0; gpu.mem_channels as usize],
            crossing_free: 0,
            next_channel: 0,
            channel_bw: peak_bw / f64::from(gpu.mem_channels),
            crossing_bw: f_cu * gpu.crossing_bytes_per_cu_cycle,
            dram_latency_ps: (gpu.dram_latency_s(f_mem, gpu.grid.mem_freq_max.as_hz()) * PS) as u64,
        }
    }

    /// Routes one DRAM batch of `dram_bytes` arriving at `arrival` (ps)
    /// through the crossing and a round-robin channel. Returns
    /// `(completion time, queueing wait)`.
    pub fn service(&mut self, arrival: u64, dram_bytes: f64) -> (u64, u64) {
        let crossing_service = ((dram_bytes / self.crossing_bw) * PS) as u64;
        let crossing_start = self.crossing_free.max(arrival);
        let crossing_done = crossing_start + crossing_service;
        self.crossing_free = crossing_done;

        let ch = self.next_channel;
        self.next_channel = (self.next_channel + 1) % self.channel_free.len();
        let service = ((dram_bytes / self.channel_bw) * PS) as u64;
        let start = self.channel_free[ch].max(crossing_done);
        let done = start + service + self.dram_latency_ps;
        self.channel_free[ch] = start + service;
        self.channel_busy[ch] += service;

        let wait = (crossing_start - arrival) + (start - crossing_done);
        (done, wait)
    }

    /// Total busy picoseconds accumulated across all channels.
    pub fn channel_busy_total(&self) -> u64 {
        self.channel_busy.iter().sum()
    }
}

/// A bank of serially issuing SIMD servers with busy accounting.
#[derive(Debug, Clone)]
pub struct SimdBank {
    free: Vec<u64>,
    busy: Vec<u64>,
}

impl SimdBank {
    /// Creates `n` idle SIMD servers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a GPU needs at least one SIMD");
        Self {
            free: vec![0; n],
            busy: vec![0; n],
        }
    }

    /// Queues `duration_ps` of issue work on SIMD `simd` arriving at `now`;
    /// returns the completion time.
    pub fn issue(&mut self, simd: usize, now: u64, duration_ps: u64) -> u64 {
        let start = self.free[simd].max(now);
        let done = start + duration_ps;
        self.free[simd] = done;
        self.busy[simd] += duration_ps;
        done
    }

    /// Total busy picoseconds across the bank.
    pub fn busy_total(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// Number of SIMDs in the bank.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Always false (construction requires n > 0); provided for API
    /// completeness alongside [`len`](SimdBank::len).
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Per-wave simulation state in structure-of-arrays layout.
///
/// The event loop touches exactly one field per event — the SIMD binding on
/// completion, the block countdown on memory return — so splitting the old
/// `Vec<Wave {simd, blocks_left}>` into parallel arrays keeps each access on
/// a dense homogeneous cache line and drops the per-event struct churn.
/// Waves are identified by their dense dispatch index (`u32`), which is also
/// the deterministic tie-break between simultaneous events in the
/// [`SlotQueue`].
#[derive(Debug, Clone, Default)]
pub struct WaveSet {
    simd: Vec<u32>,
    blocks_left: Vec<u32>,
}

impl WaveSet {
    /// An empty set with room for `n` waves.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            simd: Vec::with_capacity(n),
            blocks_left: Vec::with_capacity(n),
        }
    }

    /// Dispatches a wave bound to `simd` with `blocks` compute/memory blocks
    /// to run; returns its dense id.
    pub fn dispatch(&mut self, simd: u32, blocks: u32) -> u32 {
        let id = u32::try_from(self.simd.len()).expect("wave ids fit in u32");
        self.simd.push(simd);
        self.blocks_left.push(blocks);
        id
    }

    /// The SIMD wave `id` is bound to.
    pub fn simd(&self, id: u32) -> u32 {
        self.simd[id as usize]
    }

    /// Retires one block of wave `id`; returns the blocks still to run
    /// (0 = the wave completed).
    pub fn retire_block(&mut self, id: u32) -> u32 {
        let left = &mut self.blocks_left[id as usize];
        *left -= 1;
        *left
    }

    /// Waves dispatched so far.
    pub fn len(&self) -> usize {
        self.simd.len()
    }

    /// Whether no waves have been dispatched.
    pub fn is_empty(&self) -> bool {
        self.simd.is_empty()
    }
}

/// Key of a vacant [`SlotQueue`] slot. It sorts after every event key: an
/// event's wave id and kind fill only the low 33 bits.
const VACANT: u128 = u128::MAX;

/// The future-event set of the event-driven models: a loser (tournament)
/// tree over resident-wave slots.
///
/// Both models follow a hold discipline. Each resident wave has exactly one
/// pending event, and every pop is followed by at most one push, for the
/// same wave or for the wave dispatched into its slot. So the queue is a
/// fixed set of slots, built once from the initial fill, and "pop, then
/// push" becomes "read the minimum, then refill or vacate its slot". Either
/// replays one leaf-to-root path, where the running winner plays the loser
/// stored at each node: at most ⌈log₂ slots⌉ levels.
///
/// An event `(time, wave id, kind)` is packed into one `u128` key: time in
/// the high 64 bits, then the `u32` wave id, then a one-bit kind. Ties on
/// time break by wave id, then kind, which is the order a min-heap over the
/// tuple pops in, so the queue is exact.
#[derive(Debug, Clone)]
pub struct SlotQueue {
    /// `losers[0]` is the slot holding the minimum key; node `j` in
    /// `1..slots` holds the slot that lost the match there. Leaf `i` is
    /// node `slots + i`, and node `j`'s parent is `j / 2`.
    losers: Vec<u32>,
    /// Pending event key of each slot, [`VACANT`] once the slot is empty.
    keys: Vec<u128>,
}

impl SlotQueue {
    /// Builds the queue over one pending event per slot, each packed by
    /// [`SlotQueue::key`]. An empty fill gives an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if there are more slots than `u32` indices.
    pub fn new(mut keys: Vec<u128>) -> Self {
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "slot indices must fit in u32"
        );
        if keys.is_empty() {
            keys.push(VACANT);
        }
        let mut queue = Self {
            losers: vec![0; keys.len()],
            keys,
        };
        queue.losers[0] = queue.play(1);
        queue
    }

    /// Plays out the matches under `node`, storing each loser; returns the
    /// subtree's winner.
    fn play(&mut self, node: usize) -> u32 {
        let slots = self.keys.len();
        if node >= slots {
            return (node - slots) as u32;
        }
        let a = self.play(2 * node);
        let b = self.play(2 * node + 1);
        let (winner, loser) = if self.keys[b as usize] < self.keys[a as usize] {
            (b, a)
        } else {
            (a, b)
        };
        self.losers[node] = loser;
        winner
    }

    /// Packs the event `(time, wave, kind)`; `kind` is 0 or 1.
    #[inline]
    pub fn key(time: u64, wave: u32, kind: u8) -> u128 {
        debug_assert!(kind <= 1, "event kinds are one bit");
        (u128::from(time) << 64) | (u128::from(wave) << 1) | u128::from(kind)
    }

    /// The earliest pending event as `(time, wave, kind)`, or `None` once
    /// every slot is vacant.
    #[inline]
    pub fn min(&self) -> Option<(u64, u32, u8)> {
        let key = self.keys[self.losers[0] as usize];
        (key != VACANT).then_some(((key >> 64) as u64, (key >> 1) as u32, (key & 1) as u8))
    }

    /// Replaces the earliest event with the next event of its slot.
    #[inline]
    pub fn refill(&mut self, time: u64, wave: u32, kind: u8) {
        self.replay(Self::key(time, wave, kind));
    }

    /// Removes the earliest event and leaves its slot empty.
    #[inline]
    pub fn vacate(&mut self) {
        self.replay(VACANT);
    }

    /// Stores `key` in the minimum's slot and replays its leaf-to-root path.
    ///
    /// Each level's compare-and-swap is a conditional move, not a branch:
    /// which slot goes on up is data-dependent and mispredicts often. Plain
    /// mask arithmetic is not enough, since the optimizer turns it back
    /// into a branch; `select_unpredictable` keeps it a select.
    #[inline]
    fn replay(&mut self, key: u128) {
        let slots = self.keys.len();
        let mut winner = self.losers[0];
        self.keys[winner as usize] = key;
        let mut win_key = key;
        let mut node = (slots + winner as usize) >> 1;
        while node > 0 {
            let loser = self.losers[node];
            let lose_key = self.keys[loser as usize];
            let swap = lose_key < win_key;
            self.losers[node] = select_unpredictable(swap, winner, loser);
            winner = select_unpredictable(swap, loser, winner);
            win_key = select_unpredictable(swap, lose_key, win_key);
            node >>= 1;
        }
        self.losers[0] = winner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::HwConfig;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn path() -> MemoryPath {
        MemoryPath::new(&GpuDescriptor::hd7970(), HwConfig::max_hd7970())
    }

    #[test]
    fn single_request_completes_after_service_plus_latency() {
        let mut p = path();
        let (done, wait) = p.service(0, 64.0);
        assert!(wait == 0, "empty system must not queue");
        // 64 bytes at ~37 GB/s per channel ≈ 1.7 ns plus 190 ns latency.
        assert!(done > 190_000 && done < 200_000, "completion {done} ps");
    }

    #[test]
    fn concurrent_batches_queue_behind_the_pipeline() {
        let mut p = path();
        let bytes = 1.0e6; // large batch → long service
        let (done1, wait1) = p.service(0, bytes);
        assert_eq!(wait1, 0, "empty pipeline must not queue");
        // Subsequent concurrent batches wait at the crossing (and, once all
        // six channels are loaded, at the channels too) — waits grow.
        let mut last_wait = 0;
        for _ in 0..7 {
            let (_, wait) = p.service(0, bytes);
            assert!(wait >= last_wait, "waits must be monotone under load");
            last_wait = wait;
        }
        assert!(last_wait > 0);
        assert!(done1 > 0);
    }

    #[test]
    fn crossing_serializes_at_low_compute_clock() {
        use harmonia_types::{ComputeConfig, GridSpec, MegaHertz, MemoryConfig};
        let slow = HwConfig::new(
            ComputeConfig::new_on(&GridSpec::HD7970, 32, MegaHertz(300)).unwrap(),
            MemoryConfig::max_hd7970(),
        );
        let mut p = MemoryPath::new(&GpuDescriptor::hd7970(), slow);
        let bytes = 1.0e6;
        let (_, w1) = p.service(0, bytes);
        let (_, w2) = p.service(0, bytes);
        assert_eq!(w1, 0);
        assert!(w2 > 0, "crossing at 300 MHz must serialize concurrent batches");
    }

    #[test]
    fn busy_accounting_accumulates() {
        let mut p = path();
        p.service(0, 1.0e6);
        p.service(0, 1.0e6);
        assert!(p.channel_busy_total() > 0);
    }

    #[test]
    fn simd_bank_serializes_per_simd() {
        let mut bank = SimdBank::new(2);
        let a = bank.issue(0, 0, 100);
        let b = bank.issue(0, 0, 100);
        assert_eq!(a, 100);
        assert_eq!(b, 200, "same SIMD serializes");
        let c = bank.issue(1, 0, 100);
        assert_eq!(c, 100, "other SIMD is independent");
        assert_eq!(bank.busy_total(), 300);
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one SIMD")]
    fn empty_bank_rejected() {
        let _ = SimdBank::new(0);
    }

    #[test]
    fn wave_set_tracks_binding_and_blocks() {
        let mut ws = WaveSet::with_capacity(4);
        assert!(ws.is_empty());
        let a = ws.dispatch(3, 2);
        let b = ws.dispatch(7, 1);
        assert_eq!((a, b), (0, 1));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws.simd(a), 3);
        assert_eq!(ws.simd(b), 7);
        assert_eq!(ws.retire_block(a), 1);
        assert_eq!(ws.retire_block(a), 0, "second block completes the wave");
        assert_eq!(ws.retire_block(b), 0);
    }

    #[test]
    fn empty_fill_is_an_empty_queue() {
        assert_eq!(SlotQueue::new(Vec::new()).min(), None);
    }

    #[test]
    fn keys_round_trip_time_wave_and_kind() {
        let q = SlotQueue::new(vec![SlotQueue::key(u64::MAX, u32::MAX, 1)]);
        assert_eq!(
            q.min(),
            Some((u64::MAX, u32::MAX, 1)),
            "the largest key is not vacant"
        );
    }

    #[test]
    fn ties_on_time_break_by_wave_then_kind() {
        let mut q = SlotQueue::new(vec![
            SlotQueue::key(5, 2, 0),
            SlotQueue::key(5, 1, 1),
            SlotQueue::key(9, 0, 0),
            SlotQueue::key(5, 1, 0),
            SlotQueue::key(3, 7, 1),
        ]);
        let mut order = Vec::new();
        while let Some(event) = q.min() {
            order.push(event);
            q.vacate();
        }
        assert_eq!(
            order,
            [(3, 7, 1), (5, 1, 0), (5, 1, 1), (5, 2, 0), (9, 0, 0)]
        );
    }

    /// Drives a [`SlotQueue`] and the `BinaryHeap` reference through the
    /// models' hold discipline. `initial` fills one slot per entry, wave ids
    /// in fill order. After each pop the next step refills the popped slot
    /// `delay` after the popped time, with the same wave (`action` 0–3) or a
    /// freshly dispatched one (4–6), or vacates it (7); once the steps run
    /// out every pop vacates, draining the queue. Both must pop the same
    /// `(time, wave)` sequence, and each event's kind (the wave's low bit
    /// here) must come back intact.
    fn hold_differential(initial: &[u64], steps: &[(u8, u64)]) {
        let key = |time: u64, wave: u32| SlotQueue::key(time, wave, (wave & 1) as u8);
        let mut queue = SlotQueue::new((0u32..).zip(initial).map(|(w, &t)| key(t, w)).collect());
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0u32..)
            .zip(initial)
            .map(|(w, &t)| Reverse((t, w)))
            .collect();
        let mut next_wave = initial.len() as u32;
        let mut steps = steps.iter();
        loop {
            let popped = queue.min().map(|(t, w, kind)| {
                assert_eq!(kind, (w & 1) as u8, "kind of wave {w}");
                (t, w)
            });
            let expected = heap.pop().map(|Reverse(event)| event);
            assert_eq!(popped, expected);
            let Some((now, wave)) = expected else {
                break;
            };
            let refill = match steps.next() {
                Some(&(action, delay)) if action < 4 => Some((now + delay, wave)),
                Some(&(action, delay)) if action < 7 => {
                    next_wave += 1;
                    Some((now + delay, next_wave - 1))
                }
                _ => None,
            };
            match refill {
                Some((time, wave)) => {
                    queue.refill(time, wave, (wave & 1) as u8);
                    heap.push(Reverse((time, wave)));
                }
                None => queue.vacate(),
            }
        }
    }

    #[test]
    fn single_slot_pops_its_own_refills_then_drains() {
        hold_differential(&[7], &[(0, 3), (4, 0), (5, 10), (0, 0), (7, 0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_the_binary_heap_under_the_hold_discipline(
            initial in proptest::collection::vec(0u64..1 << 40, 1..300),
            steps in proptest::collection::vec((0u8..8, 0u64..1 << 30), 0..2000),
        ) {
            hold_differential(&initial, &steps);
        }

        #[test]
        fn matches_the_binary_heap_under_heavy_timestamp_ties(
            initial in proptest::collection::vec(0u64..4, 1..128),
            steps in proptest::collection::vec((0u8..8, 0u64..3), 0..1000),
        ) {
            hold_differential(&initial, &steps);
        }

        #[test]
        fn matches_the_binary_heap_on_a_single_slot(
            start in 0u64..1000,
            steps in proptest::collection::vec((0u8..8, 0u64..4), 0..100),
        ) {
            hold_differential(&[start], &steps);
        }
    }
}
