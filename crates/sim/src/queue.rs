//! The pending-event queue of the discrete-event engine.
//!
//! The engine schedules every token through one priority queue keyed on
//! packed `(tick, seq)` `u128` keys (tick in the high 64 bits, a unique
//! monotone sequence number in the low 64 — a strict total order).
//! [`EventQueue`] is a binary min-heap over those keys: O(log n)
//! push/pop, fully general, and deterministic because keys are unique —
//! events at one tick pop in `seq` (FIFO) order. The tests below (and the
//! property suite in `tests/prop_flow.rs`) drive it with push/pop
//! interleavings over adversarial tick distributions and compare every
//! pop against a sorted-`Vec` oracle.
//!
//! The queue is generic over its payload so the engine can store bare
//! event descriptors (no ordering bound on `T` — order lives in the key
//! alone) and so tests can drive the queue in isolation.

use std::collections::BinaryHeap;

/// Packs an integer tick and a unique sequence number into one ordering
/// key: `(tick << 64) | seq`, so keys compare as `(tick, seq)` tuples.
/// The one definition of the key layout — the engine and the queue go
/// through this pair of helpers.
#[must_use]
pub fn pack_key(tick: u64, seq: u64) -> u128 {
    (u128::from(tick) << 64) | u128::from(seq)
}

/// The tick half of a packed key (see [`pack_key`]).
#[must_use]
pub fn tick_of(key: u128) -> u64 {
    (key >> 64) as u64
}

/// One heap entry: ordering is by the packed key alone (reversed, so the
/// max-heap pops the smallest `(tick, seq)` first); the payload carries no
/// ordering bound.
#[derive(Debug, Clone)]
struct HeapEntry<T> {
    key: u128,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// The pending-event queue: a min-queue over packed `(tick, seq)` keys
/// with a payload per event.
///
/// Keys must be unique (the engine's monotone `seq` guarantees this);
/// [`EventQueue::pop`] returns events in strictly ascending key order.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an event under a packed `(tick, seq)` key.
    pub fn push(&mut self, key: u128, item: T) {
        self.heap.push(HeapEntry { key, item });
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        self.heap.pop().map(|e| (e.key, e.item))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tick: u64, seq: u64) -> u128 {
        pack_key(tick, seq)
    }

    /// Tiny deterministic LCG for the oracle tests.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The reference the queue is checked against: a plain `Vec` kept
    /// sorted by key, popped from the front.
    #[derive(Default)]
    struct SortedVecOracle(Vec<(u128, u64)>);
    impl SortedVecOracle {
        fn push(&mut self, key: u128, item: u64) {
            let at = self.0.partition_point(|(k, _)| *k < key);
            self.0.insert(at, (key, item));
        }
        fn pop(&mut self) -> Option<(u128, u64)> {
            (!self.0.is_empty()).then(|| self.0.remove(0))
        }
    }

    /// Checks one popped event against the oracle and the ordering
    /// contract: keys strictly ascend, which for packed keys means ticks
    /// ascend and same-tick events pop FIFO by `seq`.
    fn check_pop(
        got: Option<(u128, u64)>,
        oracle: &mut SortedVecOracle,
        last: &mut Option<u128>,
        context: &str,
    ) -> bool {
        assert_eq!(got, oracle.pop(), "{context}: pop diverged from the oracle");
        let Some((k, _)) = got else { return false };
        assert!(
            last.is_none_or(|prev| k > prev),
            "{context}: keys not strictly ascending (tick, then FIFO seq)"
        );
        *last = Some(k);
        true
    }

    /// Drives the queue and the oracle with an identical interleaved
    /// push/pop sequence (seq = push index) and checks every pop,
    /// including the final drain. `ticks` yields the tick of each pushed
    /// event in order.
    fn assert_pops_match_oracle(ticks: &[u64], pop_every: usize, context: &str) {
        let mut q = EventQueue::<u64>::new();
        let mut oracle = SortedVecOracle::default();
        for (i, &t) in ticks.iter().enumerate() {
            let seq = i as u64;
            q.push(key(t, seq), seq);
            oracle.push(key(t, seq), seq);
            if pop_every > 0 && i % pop_every == pop_every - 1 {
                // An interleaved pop starts a fresh ascending check: a later
                // push may legally land behind an already-popped key.
                check_pop(q.pop(), &mut oracle, &mut None, context);
            }
            assert_eq!(q.len(), oracle.0.len(), "{context}: lengths diverged");
        }
        let mut last = None;
        while check_pop(q.pop(), &mut oracle, &mut last, context) {}
        assert!(q.is_empty());
    }

    #[test]
    fn dense_same_tick_bursts_agree() {
        // Long runs of identical ticks: FIFO (seq) order inside a tick is
        // the whole contract.
        let mut ticks = Vec::new();
        let mut rng = Lcg(0xDE5E);
        let mut t = 0u64;
        for _ in 0..40 {
            t += rng.below(3);
            for _ in 0..rng.below(20) + 1 {
                ticks.push(t);
            }
        }
        assert_pops_match_oracle(&ticks, 3, "dense same-tick bursts");
        assert_pops_match_oracle(&ticks, 0, "dense same-tick bursts, no interleaving");
    }

    #[test]
    fn sparse_far_future_agree() {
        // Huge tick jumps up to the extreme end of the tick domain.
        let mut ticks = Vec::new();
        let mut rng = Lcg(0x5BA2);
        let mut t = 0u64;
        for _ in 0..120 {
            t = t.saturating_add(rng.below(1 << 40) + 1);
            ticks.push(t);
        }
        ticks.push(u64::MAX);
        ticks.push(u64::MAX - 1);
        ticks.push(u64::MAX);
        assert_pops_match_oracle(&ticks, 5, "sparse far future");
    }

    #[test]
    fn decreasing_then_increasing_agree() {
        // Non-causal pushes (ticks behind already-popped ones) must still
        // pop in global order.
        let mut ticks: Vec<u64> = (0..60).rev().map(|i| i * 1000).collect();
        ticks.extend((0..60).map(|i| i * 777));
        assert_pops_match_oracle(&ticks, 4, "decreasing then increasing");
    }

    #[test]
    fn near_monotonic_simulation_shape_agree() {
        // The engine's actual shape: now advances, events land at
        // now + one of a few component delays.
        const DELAYS: [u64; 5] = [0, 300_000, 600_000, 2_400_000, 3_100_000];
        let mut rng = Lcg(0x51A1);
        let mut q = EventQueue::<u64>::new();
        let mut oracle = SortedVecOracle::default();
        let mut seq = 0u64;
        for _ in 0..6 {
            q.push(key(0, seq), seq);
            oracle.push(key(0, seq), seq);
            seq += 1;
        }
        let mut last = None;
        loop {
            let popped = q.pop();
            if !check_pop(popped, &mut oracle, &mut last, "simulation shape") {
                break;
            }
            let now = tick_of(popped.expect("checked non-empty").0);
            // Growth phase: 1..=2 successors per dispatch (supercritical,
            // so the pending set builds up); then stop scheduling and
            // drain. Successors never precede `now`, so the whole pop
            // stream stays ascending.
            let successors = if seq < 3000 { 1 + rng.below(2) } else { 0 };
            for _ in 0..successors {
                let k = key(now + DELAYS[rng.below(5) as usize], seq);
                q.push(k, seq);
                oracle.push(k, seq);
                seq += 1;
            }
        }
        assert!(seq >= 3000, "workload degenerated: only {seq} events");
    }

    #[test]
    fn randomized_interleavings_agree() {
        let mut rng = Lcg(0x1A77E);
        for round in 0..20 {
            let n = 30 + rng.below(200) as usize;
            let spread = [10u64, 1_000, 1 << 20, 1 << 50][round % 4];
            let ticks: Vec<u64> = (0..n).map(|_| rng.below(spread)).collect();
            let pop_every = (rng.below(6) + 1) as usize;
            assert_pops_match_oracle(&ticks, pop_every, &format!("random round {round}"));
        }
    }

    /// A dense band of same-range ticks, one far-future tick that widens
    /// the spread, and a push landing just past the band while it drains:
    /// the late push must pop after the earlier, smaller-keyed event
    /// already waiting beyond the band.
    #[test]
    fn refined_rung_does_not_capture_the_parents_next_bucket() {
        let mut ticks: Vec<u64> = (0..60).map(|i| (i * 13) % 100).collect();
        ticks.extend([105, 6390, 110]);
        assert_pops_match_oracle(&ticks, 62, "overshoot band");
    }

    /// Bursty ticks near the front with a wide, odd-width tail, popped
    /// every other push so pushes and pops stay concurrent throughout.
    #[test]
    fn interleaved_pushes_during_refinement_agree() {
        let mut rng = Lcg(0x0E25_111D);
        for round in 0..8 {
            let mut ticks = Vec::new();
            for _ in 0..300 {
                ticks.push(rng.below(150));
            }
            ticks.push(5000 + rng.below(2000));
            for _ in 0..100 {
                ticks.push(rng.below(700));
            }
            assert_pops_match_oracle(&ticks, 2, &format!("bursty round {round}"));
        }
    }

    /// Thousands of events inside one narrow far-future band, drained
    /// without interleaving.
    #[test]
    fn overflow_rungs_refine_big_buckets() {
        let mut rng = Lcg(0x0F10);
        let ticks: Vec<u64> = (0..2000).map(|_| 1 << 30 | rng.below(4096)).collect();
        assert_pops_match_oracle(&ticks, 0, "narrow dense band");
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = EventQueue::<()>::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "pop on empty must stay None");
    }
}
