//! A cancellable, deterministic event queue.
//!
//! Events scheduled for the same instant pop in FIFO scheduling order, so a
//! simulation run is a pure function of its inputs and seeds. Cancellation is
//! lazy: a cancelled event stays in the heap but is skipped on pop. This is
//! the standard DES technique for modelling preemption — the cluster driver
//! cancels a node's in-flight "step complete" event and reschedules it later
//! when a signal handler steals the CPU.
//!
//! # Implementation
//!
//! The binary heap orders 24-byte keys `(at, key, slot, gen)` only; each
//! payload waits in a slab of generation-tagged slots, so a sift moves the
//! key and never the payload, however large `E` is. An [`EventId`] packs a
//! slot index and the slot's generation at scheduling time, so `schedule`,
//! `cancel`, and `pop` are all hash-free — each is a couple of array
//! accesses plus the heap operation. A slot is live while it holds a
//! payload: `pop` takes the payload out, and `cancel` drops it at once. A
//! stale id (already fired or cancelled) simply fails the generation check.
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
    /// Tie-break key for events at the same instant. [`EventQueue::schedule`]
    /// assigns a queue-local monotonic sequence (FIFO order);
    /// [`EventQueue::schedule_keyed`] lets the caller supply a key, which is
    /// how sharded queues keep one global order across shards.
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

/// A priority queue of timestamped events with stable tie-breaking and
/// O(1)-amortized hash-free cancellation.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapKey>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Cancelled-but-still-heaped entry count; drives compaction.
    dead_in_heap: usize,
    live_count: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
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
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
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

    /// Total number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of live (not yet popped, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time — events may not be
    /// scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let key = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(at, key, payload)
    }

    /// Schedule `payload` at `at` under an explicit tie-break key.
    ///
    /// Events at the same instant pop in increasing key order. Callers that
    /// mix `schedule_keyed` with [`EventQueue::schedule`] must keep the key
    /// spaces disjoint or accept interleaving; the sharded executor uses
    /// keys derived from `(origin rank, per-origin counter)` so the merged
    /// order is independent of how ranks are partitioned into shards.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) -> EventId {
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

    /// Remove and return the earliest live event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        while let Some(k) = self.heap.pop() {
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
            self.popped += 1;
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

    /// The `(time, key)` ordering coordinate of the next live event without
    /// popping it — what a cross-shard merge compares to find the global
    /// minimum.
    pub fn peek_coord(&mut self) -> Option<(SimTime, u64)> {
        while let Some(k) = self.heap.peek() {
            if Self::key_is_live(&self.slots, k) {
                return Some((k.at, k.key));
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

/// A set of event queues sharded by region with one global ordering.
///
/// Each shard is an independent [`EventQueue`] (own heap, own slot slab, own
/// cancellation), but scheduling stamps every event with a key drawn from a
/// counter shared across shards, and [`ShardedEventQueue::pop`] always
/// returns the globally earliest live event — so the popped sequence is
/// **byte-identical** to a single [`EventQueue`] fed the same schedule calls
/// in the same order, for any shard count. That invariance is the substrate
/// of the parallel one-run executor: shards can be drained independently
/// between synchronization horizons without perturbing the event order a
/// sequential run would see.
pub struct ShardedEventQueue<E> {
    shards: Vec<EventQueue<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> ShardedEventQueue<E> {
    /// Create a queue with `shards` regions (at least 1).
    pub fn new(shards: usize) -> Self {
        ShardedEventQueue {
            shards: (0..shards.max(1)).map(|_| EventQueue::new()).collect(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Schedule `payload` at `at` on `shard`, stamped with the next key from
    /// the shared sequence. Returns the shard plus the id to cancel with.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or `at` is before the current time.
    pub fn schedule(&mut self, shard: usize, at: SimTime, payload: E) -> (usize, EventId) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        let key = self.next_seq;
        self.next_seq += 1;
        (shard, self.shards[shard].schedule_keyed(at, key, payload))
    }

    /// Cancel an event previously scheduled on `shard`.
    pub fn cancel(&mut self, shard: usize, id: EventId) -> bool {
        self.shards[shard].cancel(id)
    }

    /// Remove and return the globally earliest live event (and the shard it
    /// came from), advancing the shared clock.
    pub fn pop(&mut self) -> Option<(usize, ScheduledEvent<E>)> {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (i, q) in self.shards.iter_mut().enumerate() {
            if let Some(coord) = q.peek_coord() {
                if best.map(|(_, b)| coord < b).unwrap_or(true) {
                    best = Some((i, coord));
                }
            }
        }
        let (shard, _) = best?;
        let ev = self.shards[shard].pop().expect("peeked shard is non-empty");
        self.now = ev.at;
        self.popped += 1;
        Some((shard, ev))
    }

    /// The timestamp of the globally next live event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.shards.iter_mut().filter_map(|q| q.peek_time()).min()
    }

    /// Current virtual time (timestamp of the most recent pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events popped.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Live events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }

    /// True if no live events remain anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(us(30), "c");
        q.schedule(us(10), "a");
        q.schedule(us(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(us(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(us(10), ());
        q.schedule(us(25), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), us(10));
        q.pop();
        assert_eq!(q.now(), us(25));
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(us(10), ());
        q.pop();
        q.schedule(us(5), ());
    }

    #[test]
    fn cancellation_suppresses_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), "a");
        q.schedule(us(20), "b");
        assert!(q.cancel(a));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_is_idempotent_and_safe_after_fire() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        let b = q.schedule(us(20), ());
        q.pop();
        assert!(!q.cancel(b), "cancelling a fired event reports false");
        let bogus = EventId::new(999, 0);
        assert!(!q.cancel(bogus), "unknown id reports false");
    }

    #[test]
    fn stale_id_cannot_cancel_slot_reuser() {
        // `a` fires, freeing its slot; `c` reuses it. The stale handle for
        // `a` must not cancel `c`.
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), "a");
        q.pop();
        let c = q.schedule(us(30), "c");
        assert_eq!(c.slot(), a.slot(), "test assumes slot reuse");
        assert!(!q.cancel(a), "stale id must be inert");
        assert_eq!(q.pop().unwrap().payload, "c");
    }

    #[test]
    fn len_and_is_empty_account_for_cancellations() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(us(1), ());
        q.schedule(us(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(us(10), "a");
        q.schedule(us(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(us(20)));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn reschedule_pattern_models_preemption() {
        // Cancel an in-flight completion and push it later — the core move
        // used by the cluster driver when a signal handler preempts a busy
        // loop.
        let mut q = EventQueue::new();
        let done = q.schedule(us(100), "work-done");
        q.schedule(us(40), "signal");
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "signal");
        assert!(q.cancel(done));
        q.schedule(e.at + SimDuration::from_us(70), "work-done");
        let e = q.pop().unwrap();
        assert_eq!((e.payload, e.at), ("work-done", us(110)));
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            q.schedule(us(1), 1u32);
            q.schedule(us(3), 3);
            while let Some(e) = q.pop() {
                log.push((e.at.as_nanos(), e.payload));
                if e.payload == 1 {
                    q.schedule(e.at + SimDuration::from_us(1), 2);
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
            ids.push(q.schedule(us(1_000 + i), i));
        }
        for round in 0..100_000u64 {
            let victim = (round % 100) as usize;
            assert!(q.cancel(ids[victim]));
            ids[victim] = q.schedule(us(2_000 + round), round);
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
        while let Some(e) = q.pop() {
            assert!(e.at >= last);
            last = e.at;
            count += 1;
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn keyed_scheduling_orders_ties_by_key() {
        let mut q = EventQueue::new();
        q.schedule_keyed(us(5), 30, "c");
        q.schedule_keyed(us(5), 10, "a");
        q.schedule_keyed(us(5), 20, "b");
        q.schedule_keyed(us(1), 99, "first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
    }

    #[test]
    fn peek_coord_reports_time_and_key() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(us(5), 7, "a");
        q.schedule_keyed(us(9), 1, "b");
        assert_eq!(q.peek_coord(), Some((us(5), 7)));
        q.cancel(a);
        assert_eq!(q.peek_coord(), Some((us(9), 1)));
        q.pop();
        assert_eq!(q.peek_coord(), None);
    }

    #[test]
    fn sharded_queue_matches_single_queue_order() {
        // Feed the same schedule/cancel/pop script to a single queue and to
        // sharded queues of every width; the popped sequences must be
        // byte-identical.
        let script = |shards: usize| -> Vec<(u64, u64)> {
            let mut q = ShardedEventQueue::new(shards);
            let rng = crate::rng::StreamRng::root(0x5EED);
            let mut ids = Vec::new();
            let mut log = Vec::new();
            let mut now = 0u64;
            for step in 0..600u64 {
                let mut r = rng.derive(&[step]);
                match r.below(4) {
                    0 | 1 => {
                        let at = now + r.below(500);
                        let shard = (r.below(shards as u64)) as usize;
                        ids.push(q.schedule(shard, us(at), step));
                    }
                    2 => {
                        if let Some((shard, ev)) = q.pop() {
                            assert!(shard < shards);
                            now = ev.at.as_nanos() / 1_000;
                            log.push((ev.at.as_nanos(), ev.payload));
                        }
                    }
                    _ => {
                        if !ids.is_empty() {
                            let (shard, id) = ids[(r.below(ids.len() as u64)) as usize];
                            q.cancel(shard, id);
                        }
                    }
                }
            }
            while let Some((_, ev)) = q.pop() {
                log.push((ev.at.as_nanos(), ev.payload));
            }
            log
        };
        let single = script(1);
        for shards in [2, 3, 8] {
            assert_eq!(script(shards), single, "shards={shards} diverged");
        }
    }

    #[test]
    fn sharded_queue_len_and_clock() {
        let mut q = ShardedEventQueue::new(4);
        assert!(q.is_empty());
        q.schedule(0, us(10), "a");
        q.schedule(3, us(5), "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(us(5)));
        let (shard, ev) = q.pop().unwrap();
        assert_eq!((shard, ev.payload), (3, "b"));
        assert_eq!(q.now(), us(5));
        q.pop();
        assert_eq!(q.delivered(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_reclaims_slots_for_reuse() {
        let mut q = EventQueue::new();
        for wave in 0..50u64 {
            for i in 0..10u64 {
                q.schedule(us(wave * 10 + i + 1), i);
            }
            for _ in 0..10 {
                q.pop().unwrap();
            }
        }
        let (heap_len, slab_len, _) = q.debug_mem();
        assert_eq!(heap_len, 0);
        assert!(slab_len <= 10, "slots not reused across waves: {slab_len}");
    }
}
