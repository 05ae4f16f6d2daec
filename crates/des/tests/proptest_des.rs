//! Property tests for the DES kernel: the event queue and `SmallMap` against
//! reference models, and statistical sanity of derived RNG streams.

use abr_des::small_map::SPILL_LEN;
use abr_des::{Accumulator, EventId, EventQueue, ShardedEventQueue, SimTime, SmallMap, StreamRng};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::rc::{Rc, Weak};

#[derive(Debug, Clone)]
enum Op {
    Schedule(u64),
    Pop,
    CancelNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..10_000).prop_map(Op::Schedule),
        Just(Op::Pop),
        (0usize..32).prop_map(Op::CancelNth),
    ]
}

#[derive(Debug, Clone)]
enum QueueOp {
    Schedule(u64),
    /// Delay plus the high bits of an explicit tie-break key.
    ScheduleKeyed(u64, u64),
    /// Cancel the nth id ever handed out: live, fired, or already cancelled.
    Cancel(usize),
    Pop,
    PeekCoord,
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..2_000).prop_map(QueueOp::Schedule),
        (0u64..2_000, 0u64..8).prop_map(|(dt, hi)| QueueOp::ScheduleKeyed(dt, hi)),
        (0usize..64).prop_map(QueueOp::Cancel),
        Just(QueueOp::Pop),
        Just(QueueOp::PeekCoord),
    ]
}

proptest! {
    /// `EventQueue` against a `BTreeMap<(at, key), payload>` model under
    /// random schedule / schedule_keyed / cancel / pop / peek_coord
    /// sequences. Payloads are `Rc`-counted: a cancelled event's payload
    /// must be dropped by `cancel` itself, not parked in the slot slab
    /// until the slot is reused, and nothing may outlive the drained queue.
    #[test]
    fn event_queue_matches_btree_model_and_drops_payloads(
        ops in prop::collection::vec(queue_op_strategy(), 1..300),
    ) {
        let mut q: EventQueue<Rc<u64>> = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // Every id handed out, with its model coordinate and a handle on its
        // payload.
        let mut handles: Vec<(EventId, (u64, u64), Weak<u64>)> = Vec::new();
        // `schedule` keys are the queue's own FIFO sequence 0, 1, 2, ...;
        // explicit keys sit above 2^32 so the two spaces never collide.
        let mut fifo_seq = 0u64;
        let mut now = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            let step = step as u64;
            match op {
                QueueOp::Schedule(dt) | QueueOp::ScheduleKeyed(dt, _) => {
                    let at = now + dt;
                    let key = match op {
                        QueueOp::ScheduleKeyed(_, hi) => (1 << 32) | (hi << 16) | step,
                        _ => {
                            fifo_seq += 1;
                            fifo_seq - 1
                        }
                    };
                    let payload = Rc::new(step);
                    let weak = Rc::downgrade(&payload);
                    let id = if matches!(op, QueueOp::ScheduleKeyed(..)) {
                        q.schedule_keyed(SimTime::from_nanos(at), key, payload)
                    } else {
                        q.schedule(SimTime::from_nanos(at), payload)
                    };
                    model.insert((at, key), step);
                    handles.push((id, (at, key), weak));
                }
                QueueOp::Cancel(n) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let (id, coord, weak) = &handles[n % handles.len()];
                    let pending = model.remove(coord).is_some();
                    prop_assert_eq!(q.cancel(*id), pending, "cancel disagreed with the model");
                    prop_assert!(weak.upgrade().is_none(), "a cancelled payload is still alive");
                }
                QueueOp::Pop => {
                    let expected = model.pop_first();
                    let got = q.pop();
                    match expected {
                        Some(((at, _), payload)) => {
                            let ev = got.expect("the model has a live event");
                            prop_assert_eq!(ev.at, SimTime::from_nanos(at));
                            prop_assert_eq!(*ev.payload, payload);
                            prop_assert_eq!(Rc::strong_count(&ev.payload), 1, "the slab kept a popped payload");
                            prop_assert_eq!(q.now(), ev.at);
                            now = at;
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                QueueOp::PeekCoord => {
                    let expected = model.keys().next().map(|&(at, key)| (SimTime::from_nanos(at), key));
                    prop_assert_eq!(q.peek_coord(), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            let alive = handles.iter().filter(|(_, _, w)| w.strong_count() > 0).count();
            prop_assert_eq!(alive, model.len(), "payloads alive beyond the pending events");
        }
        while let Some(ev) = q.pop() {
            let ((at, _), payload) = model.pop_first().expect("the queue outlived the model");
            prop_assert_eq!((ev.at, *ev.payload), (SimTime::from_nanos(at), payload));
        }
        prop_assert!(model.is_empty(), "the queue drained before the model");
        prop_assert!(q.is_empty());
        prop_assert!(handles.iter().all(|(_, _, w)| w.strong_count() == 0), "a payload leaked");
    }

    /// The queue always pops the earliest live event, with FIFO tie-breaks,
    /// matching a naive reference model under arbitrary interleavings of
    /// schedule / pop / cancel.
    #[test]
    fn event_queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Model: Vec of (time, seq, payload, alive)
        let mut model: Vec<(u64, u64, u64, bool)> = Vec::new();
        let mut ids = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = now + dt; // never in the past
                    let id = q.schedule(SimTime::from_nanos(at), seq);
                    ids.push(id);
                    model.push((at, seq, seq, true));
                    seq += 1;
                }
                Op::Pop => {
                    // Model pop: earliest (time, seq) alive.
                    let pick = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.3)
                        .min_by_key(|(_, e)| (e.0, e.1))
                        .map(|(i, _)| i);
                    let got = q.pop();
                    match pick {
                        Some(i) => {
                            let (at, _, payload, _) = model[i];
                            model[i].3 = false;
                            let got = got.expect("model has a live event");
                            prop_assert_eq!(got.at, SimTime::from_nanos(at));
                            prop_assert_eq!(got.payload, payload);
                            now = at;
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                Op::CancelNth(k) => {
                    if !ids.is_empty() {
                        let idx = k % ids.len();
                        let expected = model[idx].3;
                        let did = q.cancel(ids[idx]);
                        prop_assert_eq!(did, expected, "cancel disagreed with model");
                        model[idx].3 = false;
                    }
                }
            }
        }
        // Drain both fully; order must keep matching.
        loop {
            let pick = model
                .iter()
                .enumerate()
                .filter(|(_, e)| e.3)
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i);
            let got = q.pop();
            match pick {
                Some(i) => {
                    model[i].3 = false;
                    prop_assert_eq!(got.unwrap().payload, model[i].2);
                }
                None => {
                    prop_assert!(got.is_none());
                    break;
                }
            }
        }
    }

    /// len() agrees with the number of live events at every step.
    #[test]
    fn event_queue_len_is_consistent(times in prop::collection::vec(0u64..1000, 1..64), cancels in prop::collection::vec(any::<prop::sample::Index>(), 0..16)) {
        let mut q: EventQueue<()> = EventQueue::new();
        let ids: Vec<_> = times.iter().map(|&t| q.schedule(SimTime::from_nanos(t), ())).collect();
        prop_assert_eq!(q.len(), times.len());
        let mut cancelled = std::collections::HashSet::new();
        for c in cancels {
            let id = ids[c.index(ids.len())];
            if q.cancel(id) {
                cancelled.insert(id);
            }
        }
        prop_assert_eq!(q.len(), times.len() - cancelled.len());
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, times.len() - cancelled.len());
    }

    /// A sharded queue pops in exactly the single-queue keyed order, for
    /// every shard count, under arbitrary interleavings of schedules (to
    /// arbitrary shards), pops, and cancels: sharding is an implementation
    /// detail of *where* events wait, never of *when* they fire.
    #[test]
    fn sharded_queue_order_is_shard_count_invariant(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..5_000, 0usize..8).prop_map(|(dt, s)| (0u8, dt, s)),
                Just((1u8, 0, 0)),                       // pop
                (0usize..64).prop_map(|k| (2u8, k as u64, 0)), // cancel nth
            ],
            1..250,
        )
    ) {
        // Reference: everything on one shard.
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut q: ShardedEventQueue<u64> = ShardedEventQueue::new(shards);
            let mut ids = Vec::new();
            let mut popped = Vec::new();
            let mut payload = 0u64;
            for &(kind, a, s) in &ops {
                match kind {
                    0 => {
                        let at = q.now() + abr_des::SimDuration::from_nanos(a);
                        // Same event stream regardless of shard count: the
                        // target shard is taken modulo the shard count, so
                        // schedule order and keys are identical across runs.
                        ids.push(q.schedule(s % shards, at, payload));
                        payload += 1;
                    }
                    1 => {
                        if let Some((_, ev)) = q.pop() {
                            popped.push(ev.payload);
                        }
                    }
                    _ => {
                        if !ids.is_empty() {
                            let (shard, id) = ids[a as usize % ids.len()];
                            q.cancel(shard, id);
                        }
                    }
                }
            }
            while let Some((_, ev)) = q.pop() {
                popped.push(ev.payload);
            }
            prop_assert!(q.is_empty());
            runs.push(popped);
        }
        prop_assert_eq!(&runs[0], &runs[1], "2 shards diverged from 1");
        prop_assert_eq!(&runs[0], &runs[2], "8 shards diverged from 1");
    }

    /// Derived streams from distinct paths are uncorrelated enough that
    /// their means land near the uniform expectation.
    #[test]
    fn rng_streams_have_uniform_means(seed in any::<u64>(), a in 0u64..1000, b in 0u64..1000) {
        prop_assume!(a != b);
        let root = StreamRng::root(seed);
        let mut s1 = root.derive(&[a]);
        let mut s2 = root.derive(&[b]);
        let mut acc1 = Accumulator::new();
        let mut acc2 = Accumulator::new();
        for _ in 0..2000 {
            acc1.push(s1.below(1000) as f64);
            acc2.push(s2.below(1000) as f64);
        }
        // Mean of U[0,1000) is 499.5 with sd ~288; sample mean sd ~6.5.
        prop_assert!((acc1.mean() - 499.5).abs() < 40.0, "stream a mean {}", acc1.mean());
        prop_assert!((acc2.mean() - 499.5).abs() < 40.0, "stream b mean {}", acc2.mean());
        // And the two streams differ.
        let mut s1b = root.derive(&[a]);
        let mut s2b = root.derive(&[b]);
        let same = (0..64).all(|_| s1b.next_u64() == s2b.next_u64());
        prop_assert!(!same, "distinct paths produced identical streams");
    }

    /// `SmallMap` answers every operation exactly as std's `HashMap` does.
    /// Keys come from a range wider than the spill limit, and after
    /// `drain_at` inserts turn into removes, so runs cross the limit in
    /// both directions: scan, spill, and back to scan once emptied.
    #[test]
    fn small_map_matches_std_hash_map(
        ops in prop::collection::vec((0u8..7, 0u32..(SPILL_LEN as u32 + 16), any::<u64>()), 1..400),
        drain_at in 0usize..400,
    ) {
        let mut map: SmallMap<u32, u64> = SmallMap::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        for (i, &(kind, key, val)) in ops.iter().enumerate() {
            let kind = if i >= drain_at && kind <= 2 { 5 } else { kind };
            match kind {
                0..=2 => prop_assert_eq!(map.insert(key, val), model.insert(key, val)),
                3 => prop_assert_eq!(map.get(&key), model.get(&key)),
                4 => {
                    let (a, b) = (map.get_mut(&key), model.get_mut(&key));
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some(a), Some(b)) = (a, b) {
                        *a ^= val;
                        *b ^= val;
                    }
                }
                5 => prop_assert_eq!(map.remove(&key), model.remove(&key)),
                _ => {
                    let a = map.entry(key).or_insert(val);
                    *a = a.wrapping_add(1);
                    let b = model.entry(key).or_insert(val);
                    *b = b.wrapping_add(1);
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        for key in 0..SPILL_LEN as u32 + 16 {
            prop_assert_eq!(map.get(&key), model.get(&key));
        }
    }
}
