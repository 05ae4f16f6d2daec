//! A cancellable, deterministic event queue.
//!
//! Every event carries a caller-supplied tie-break key, and events pop in
//! `(at, key)` order: the order depends on the events alone, never on the
//! order they were scheduled in, so a simulation run is a pure function of
//! its inputs and seeds. Cancellation is lazy: a cancelled event stays in
//! the heap but is skipped on pop. This is the standard DES technique for
//! modelling preemption — the cluster driver cancels a node's in-flight
//! "step complete" event and reschedules it later when a signal handler
//! steals the CPU.
//!
//! # Implementation
//!
//! The binary heap orders 24-byte keys `(at, key, slot, gen)` only; each
//! payload waits in a slab of generation-tagged slots, so a sift moves the
//! key and never the payload, however large `E` is. An [`EventId`] packs a
//! slot index and the slot's generation at scheduling time, so `schedule`,
//! `cancel`, and `pop_before` are all hash-free — each is a couple of array
//! accesses plus the heap operation. A slot is live while it holds a
//! payload: `pop_before` takes the payload out, and `cancel` drops it at
//! once. A stale id (already fired or cancelled) simply fails the
//! generation check.
//!
//! Cancelled events leave tombstone keys in the heap. To keep memory strictly
//! bounded by the live-event count, the heap is compacted in place whenever
//! tombstones outnumber live entries, which amortizes to O(1) per
//! cancellation.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;

/// An opaque handle identifying a scheduled event, used to cancel it.
///
/// Ids are only meaningful for the queue that issued them. A handle for an
/// event that has fired or been cancelled is *stale*: using it is safe and
/// reports "not pending", even if its slot has since been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event popped from the queue: when it fires, its id, and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The virtual instant at which the event fires.
    pub at: SimTime,
    /// The handle under which the event was scheduled.
    pub id: EventId,
    /// The caller-defined payload.
    pub payload: E,
}

/// One slab slot. `gen` increments every time the slot is reallocated,
/// invalidating ids (and heap keys) from earlier tenancies; `payload` is
/// `Some` exactly while the current tenant is pending.
struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// A heap key: the ordering coordinate plus the slab slot holding the
/// payload.
struct HeapKey {
    at: SimTime,
    /// Tie-break key for events at the same instant, supplied by the
    /// caller of [`EventQueue::schedule`].
    key: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first with
    // lowest-key-first tie-breaking.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// A priority queue of timestamped, keyed events with O(1)-amortized
/// hash-free cancellation.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapKey>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Cancelled-but-still-heaped entry count; drives compaction.
    dead_in_heap: usize,
    live_count: usize,
    now: SimTime,
    trace: abr_trace::TraceHandle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            dead_in_heap: 0,
            live_count: 0,
            now: SimTime::ZERO,
            trace: abr_trace::TraceHandle::default(),
        }
    }

    /// Publish the virtual clock to `trace` as events are dispatched:
    /// every pop forwards its timestamp via `TraceHandle::set_now_ns`,
    /// making the event loop the single time source for all trace
    /// records in a DES run. A disabled handle (the default) costs one
    /// branch per pop.
    pub fn set_tracer(&mut self, trace: abr_trace::TraceHandle) {
        self.trace = trace;
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not yet popped, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` to fire at absolute time `at` under the tie-break
    /// `key`.
    ///
    /// Events at the same instant pop in increasing key order; two events
    /// with the same `(at, key)` pop in an unspecified order, so callers
    /// keep keys unique. The cluster driver derives them from
    /// `(origin rank, per-origin counter)`, which makes the order of a run
    /// independent of how its ranks are partitioned into shards.
    ///
    /// # Panics
    /// Panics if `at` is before the current time — events may not be
    /// scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, key: u64, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(idx) => {
                // Bump the generation so stale ids and tombstoned heap
                // keys from the previous tenant can't touch this event.
                let s = &mut self.slots[idx as usize];
                s.gen = s.gen.wrapping_add(1);
                s.payload = Some(payload);
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                idx
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapKey { at, key, slot, gen });
        self.live_count += 1;
        EventId::new(slot, gen)
    }

    /// True if the heap key refers to the current, live tenancy of its
    /// slot (i.e. it is not a tombstone).
    #[inline]
    fn key_is_live(slots: &[Slot<E>], k: &HeapKey) -> bool {
        let s = &slots[k.slot as usize];
        s.gen == k.gen && s.payload.is_some()
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (it will now never fire), `false` if it had already
    /// fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = id.slot() as usize;
        match self.slots.get_mut(idx) {
            Some(s) if s.gen == id.gen() && s.payload.is_some() => {
                s.payload = None;
                self.free.push(id.slot());
                self.live_count -= 1;
                self.dead_in_heap += 1;
                self.maybe_compact();
                true
            }
            _ => false,
        }
    }

    /// Drop tombstones when they outnumber live entries, so heap memory is
    /// always O(live events). Amortized O(1) per cancellation: a compaction
    /// costing O(n) only runs after n/2 cancellations.
    fn maybe_compact(&mut self) {
        if self.dead_in_heap <= self.live_count || self.dead_in_heap < 64 {
            return;
        }
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.retain(|k| Self::key_is_live(&self.slots, k));
        keys.shrink_to_fit();
        self.heap = BinaryHeap::from(keys);
        self.dead_in_heap = 0;
    }

    /// Remove and return the earliest live event if it fires strictly
    /// before `horizon`, advancing the clock to its timestamp; cancelled
    /// entries met on the way are dropped. Returns `None` once no live
    /// event lies before `horizon` (pass [`SimTime::MAX`] to drain).
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        while self.heap.peek().is_some_and(|k| k.at < horizon) {
            let k = self.heap.pop().expect("peeked a heap key");
            if !Self::key_is_live(&self.slots, &k) {
                self.dead_in_heap -= 1;
                continue;
            }
            let payload = self.slots[k.slot as usize]
                .payload
                .take()
                .expect("a live slot holds its payload");
            self.free.push(k.slot);
            self.live_count -= 1;
            debug_assert!(k.at >= self.now, "event queue produced time travel");
            self.now = k.at;
            self.trace.set_now_ns(k.at.as_nanos());
            return Some(ScheduledEvent {
                at: k.at,
                id: EventId::new(k.slot, k.gen),
                payload,
            });
        }
        None
    }

    /// The timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop tombstones from the front so peek is accurate.
        while let Some(k) = self.heap.peek() {
            if Self::key_is_live(&self.slots, k) {
                return Some(k.at);
            }
            self.heap.pop();
            self.dead_in_heap -= 1;
        }
        None
    }

    /// Internal sizes for memory-bound assertions: (heap entries, slot-slab
    /// length, free-list length).
    #[doc(hidden)]
    pub fn debug_mem(&self) -> (usize, usize, usize) {
        (self.heap.len(), self.slots.len(), self.free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    fn pop<E>(q: &mut EventQueue<E>) -> Option<ScheduledEvent<E>> {
        q.pop_before(SimTime::MAX)
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| pop(q).map(|e| e.payload)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(us(30), 0, "c");
        q.schedule(us(10), 1, "a");
        q.schedule(us(20), 2, "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_key_order() {
        // Scheduled in descending key order, popped in ascending: ties
        // follow the key, never the scheduling order.
        let mut q = EventQueue::new();
        for i in (0..100u64).rev() {
            q.schedule(us(5), i, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(us(10), 0, ());
        q.schedule(us(25), 1, ());
        assert_eq!(q.now(), SimTime::ZERO);
        pop(&mut q);
        assert_eq!(q.now(), us(10));
        pop(&mut q);
        assert_eq!(q.now(), us(25));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(us(10), 0, ());
        pop(&mut q);
        q.schedule(us(5), 1, ());
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), 0, "a");
        q.schedule(us(20), 1, "b");
        assert!(q.cancel(a));
        assert_eq!(drain(&mut q), vec!["b"]);
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_fire() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), 0, ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        let b = q.schedule(us(20), 1, ());
        pop(&mut q);
        assert!(!q.cancel(b), "cancelling a fired event reports false");
        let bogus = EventId::new(999, 0);
        assert!(!q.cancel(bogus), "unknown id reports false");
    }

    #[test]
    fn stale_id_cannot_cancel_slot_reuser() {
        // `a` fires, freeing its slot; `c` reuses it. The stale handle for
        // `a` must not cancel `c`.
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), 0, "a");
        pop(&mut q);
        let c = q.schedule(us(30), 1, "c");
        assert_eq!(c.slot(), a.slot(), "test assumes slot reuse");
        assert!(!q.cancel(a), "stale id must be inert");
        assert_eq!(drain(&mut q), vec!["c"]);
    }

    #[test]
    fn len_and_is_empty_account_for_cancellations() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(us(1), 0, ());
        q.schedule(us(2), 1, ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        pop(&mut q);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), 0, "a");
        q.schedule(us(20), 1, "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(us(20)));
        assert_eq!(pop(&mut q).unwrap().payload, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn reschedule_pattern_models_preemption() {
        // Cancel an in-flight completion and push it later — the core move
        // used by the cluster driver when a signal handler preempts a busy
        // loop.
        let mut q = EventQueue::new();
        let done = q.schedule(us(100), 0, "work-done");
        q.schedule(us(40), 1, "signal");
        let e = pop(&mut q).unwrap();
        assert_eq!(e.payload, "signal");
        assert!(q.cancel(done));
        q.schedule(e.at + SimDuration::from_us(70), 2, "work-done");
        let e = pop(&mut q).unwrap();
        assert_eq!((e.payload, e.at), ("work-done", us(110)));
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            q.schedule(us(1), 0, 1u32);
            q.schedule(us(3), 1, 3);
            while let Some(e) = pop(&mut q) {
                log.push((e.at.as_nanos(), e.payload));
                if e.payload == 1 {
                    q.schedule(e.at + SimDuration::from_us(1), 2, 2);
                }
            }
            log
        };
        assert_eq!(run(), run());
        assert_eq!(
            run().iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn cancellation_memory_is_bounded_by_live_events() {
        // Sustained cancel/reschedule churn must not grow the heap, the slot
        // slab, or the free list beyond O(peak live events).
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            ids.push(q.schedule(us(1_000 + i), i, i));
        }
        for round in 0..100_000u64 {
            let victim = (round % 100) as usize;
            assert!(q.cancel(ids[victim]));
            ids[victim] = q.schedule(us(2_000 + round), round, round);
        }
        assert_eq!(q.len(), 100);
        let (heap_len, slab_len, free_len) = q.debug_mem();
        assert!(
            heap_len <= 2 * 100 + 64,
            "heap grew unboundedly: {heap_len} entries for 100 live events"
        );
        assert!(
            slab_len <= 2 * 100 + 64,
            "slot slab grew unboundedly: {slab_len} slots for 100 live events"
        );
        assert!(free_len <= slab_len, "free list exceeds slab");
        // Everything still pops, in time order, exactly once.
        let mut count = 0;
        let mut last = q.now();
        while let Some(e) = pop(&mut q) {
            assert!(e.at >= last);
            last = e.at;
            count += 1;
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn keyed_scheduling_orders_ties_by_key() {
        let mut q = EventQueue::new();
        q.schedule(us(5), 30, "c");
        q.schedule(us(5), 10, "a");
        q.schedule(us(5), 20, "b");
        q.schedule(us(1), 99, "first");
        assert_eq!(drain(&mut q), vec!["first", "a", "b", "c"]);
    }

    #[test]
    fn pop_before_stops_short_of_horizon() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(5), 7, "a");
        q.schedule(us(9), 1, "b");
        q.schedule(us(12), 0, "c");
        q.cancel(a);
        // The cancelled head is dropped on the way to "b".
        assert_eq!(q.pop_before(us(10)).unwrap().payload, "b");
        assert!(q.pop_before(us(10)).is_none(), "c lies past the horizon");
        assert!(q.pop_before(us(12)).is_none(), "the horizon is exclusive");
        assert_eq!(q.now(), us(9), "a refused pop leaves the clock alone");
        assert_eq!(q.pop_before(us(13)).unwrap().payload, "c");
        assert_eq!(q.debug_mem().0, 0, "no tombstone is left behind");
    }

    #[test]
    fn pop_reclaims_slots_for_reuse() {
        let mut q = EventQueue::new();
        for wave in 0..50u64 {
            for i in 0..10u64 {
                q.schedule(us(wave * 10 + i + 1), i, i);
            }
            for _ in 0..10 {
                pop(&mut q).unwrap();
            }
        }
        let (heap_len, slab_len, _) = q.debug_mem();
        assert_eq!(heap_len, 0);
        assert!(slab_len <= 10, "slots not reused across waves: {slab_len}");
    }
}
