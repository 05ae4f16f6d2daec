//! Property tests for the DES kernel: the event queue and `SmallMap` against
//! reference models, and statistical sanity of derived RNG streams.

use abr_des::small_map::SPILL_LEN;
use abr_des::{Accumulator, EventId, EventQueue, SimTime, SmallMap, StreamRng};
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
    /// Delay plus the high bits of the tie-break key.
    Schedule(u64, u64),
    /// Cancel the nth id ever handed out: live, fired, or already cancelled.
    Cancel(usize),
    /// Pop before a horizon this far past the clock.
    PopBefore(u64),
    PeekTime,
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..2_000, 0u64..8).prop_map(|(dt, hi)| QueueOp::Schedule(dt, hi)),
        (0usize..64).prop_map(QueueOp::Cancel),
        (0u64..3_000).prop_map(QueueOp::PopBefore),
        Just(QueueOp::PeekTime),
    ]
}

/// A bijection on `u64` (odd multiplier): unique keys whose order has
/// nothing to do with the scheduling order.
fn scrambled(seq: u64) -> u64 {
    seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
    std::iter::from_fn(|| q.pop_before(SimTime::MAX).map(|e| (e.at, e.payload))).collect()
}

proptest! {
    /// `EventQueue` against a `BTreeMap<(at, key), payload>` model under
    /// random schedule / cancel / pop_before / peek_time sequences.
    /// Payloads are `Rc`-counted: a cancelled event's payload must be
    /// dropped by `cancel` itself, not parked in the slot slab until the
    /// slot is reused, and nothing may outlive the drained queue.
    #[test]
    fn event_queue_matches_btree_model_and_drops_payloads(
        ops in prop::collection::vec(queue_op_strategy(), 1..300),
    ) {
        let mut q: EventQueue<Rc<u64>> = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // Every id handed out, with its model coordinate and a handle on its
        // payload.
        let mut handles: Vec<(EventId, (u64, u64), Weak<u64>)> = Vec::new();
        let mut now = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            let step = step as u64;
            match op {
                QueueOp::Schedule(dt, hi) => {
                    let (at, key) = (now + dt, (hi << 16) | step);
                    let payload = Rc::new(step);
                    let weak = Rc::downgrade(&payload);
                    let id = q.schedule(SimTime::from_nanos(at), key, payload);
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
                QueueOp::PopBefore(dt) => {
                    let horizon = now + dt;
                    let expected = match model.first_key_value() {
                        Some((&(at, _), _)) if at < horizon => model.pop_first(),
                        _ => None,
                    };
                    let got = q.pop_before(SimTime::from_nanos(horizon));
                    match expected {
                        Some(((at, _), payload)) => {
                            let ev = got.expect("the model has a live event before the horizon");
                            prop_assert_eq!(ev.at, SimTime::from_nanos(at));
                            prop_assert_eq!(*ev.payload, payload);
                            prop_assert_eq!(Rc::strong_count(&ev.payload), 1, "the slab kept a popped payload");
                            prop_assert_eq!(q.now(), ev.at);
                            now = at;
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                QueueOp::PeekTime => {
                    let expected = model.keys().next().map(|&(at, _)| SimTime::from_nanos(at));
                    prop_assert_eq!(q.peek_time(), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            let alive = handles.iter().filter(|(_, _, w)| w.strong_count() > 0).count();
            prop_assert_eq!(alive, model.len(), "payloads alive beyond the pending events");
        }
        for (at, payload) in drain(&mut q) {
            let ((m_at, _), m_payload) = model.pop_first().expect("the queue outlived the model");
            prop_assert_eq!((at, *payload), (SimTime::from_nanos(m_at), m_payload));
        }
        prop_assert!(model.is_empty(), "the queue drained before the model");
        prop_assert!(q.is_empty());
        prop_assert!(handles.iter().all(|(_, _, w)| w.strong_count() == 0), "a payload leaked");
    }

    /// The queue always pops the earliest live event by `(at, key)`,
    /// matching a naive reference model under arbitrary interleavings of
    /// schedule / pop / cancel. Keys are unique but scrambled, so ties
    /// never follow the scheduling order by accident.
    #[test]
    fn event_queue_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Model: Vec of (time, key, payload, alive)
        let mut model: Vec<(u64, u64, u64, bool)> = Vec::new();
        let mut ids = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let earliest = |model: &[(u64, u64, u64, bool)]| {
            model
                .iter()
                .enumerate()
                .filter(|(_, e)| e.3)
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)
        };
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = now + dt; // never in the past
                    let id = q.schedule(SimTime::from_nanos(at), scrambled(seq), seq);
                    ids.push(id);
                    model.push((at, scrambled(seq), seq, true));
                    seq += 1;
                }
                Op::Pop => {
                    let got = q.pop_before(SimTime::MAX);
                    match earliest(&model) {
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
        for (_, payload) in drain(&mut q) {
            let i = earliest(&model).expect("the queue outlived the model");
            model[i].3 = false;
            prop_assert_eq!(payload, model[i].2);
        }
        prop_assert!(earliest(&model).is_none(), "the queue drained before the model");
    }

    /// Pop order depends only on `(at, key)`: the same events, scheduled in
    /// two different orders with the same cancellations, pop identically.
    /// Times are drawn from a narrow range so ties are common.
    #[test]
    fn pop_order_depends_only_on_time_and_key(
        events in prop::collection::vec((0u64..16, 0u64..4, 0u8..4, any::<u64>()), 1..120),
    ) {
        // Event `i` is `(at, key high bits, cancelled when 0, shuffle rank)`.
        let key = |i: usize| (events[i].1 << 16) | i as u64;
        let forward: Vec<usize> = (0..events.len()).collect();
        let mut shuffled = forward.clone();
        shuffled.sort_by_key(|&i| (events[i].3, i));
        let run = |order: &[usize]| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = order
                .iter()
                .map(|&i| (i, q.schedule(SimTime::from_nanos(events[i].0), key(i), i)))
                .collect();
            for (i, id) in ids {
                if events[i].2 == 0 {
                    assert!(q.cancel(id));
                }
            }
            drain(&mut q)
        };
        let a = run(&forward);
        prop_assert_eq!(&a, &run(&shuffled));
        let mut expected: Vec<usize> = forward.into_iter().filter(|&i| events[i].2 != 0).collect();
        expected.sort_by_key(|&i| (events[i].0, key(i)));
        prop_assert_eq!(a.into_iter().map(|(_, i)| i).collect::<Vec<_>>(), expected);
    }

    /// `pop_before(h)` never returns an event at or after `h`, and once it
    /// returns `None` no live event before `h` remains. Horizons advance
    /// by random steps over a schedule with random cancellations.
    #[test]
    fn pop_before_respects_the_horizon(
        times in prop::collection::vec(0u64..1_000, 1..100),
        cancels in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
        steps in prop::collection::vec(0u64..200, 1..20),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i as u64, ()))
            .collect();
        for c in &cancels {
            q.cancel(ids[c.index(ids.len())]);
        }
        let live = q.len();
        let (mut horizon, mut popped) = (SimTime::ZERO, 0);
        for step in steps.into_iter().chain([u64::MAX]) {
            horizon = SimTime::from_nanos(horizon.as_nanos().saturating_add(step));
            while let Some(ev) = q.pop_before(horizon) {
                prop_assert!(ev.at < horizon, "popped {:?} at or after the horizon {:?}", ev.at, horizon);
                popped += 1;
            }
            let next = q.peek_time();
            prop_assert!(next.is_none_or(|t| t >= horizon), "left {:?} behind before {:?}", next, horizon);
        }
        prop_assert_eq!(popped, live);
    }

    /// len() agrees with the number of live events at every step.
    #[test]
    fn event_queue_len_is_consistent(times in prop::collection::vec(0u64..1000, 1..64), cancels in prop::collection::vec(any::<prop::sample::Index>(), 0..16)) {
        let mut q: EventQueue<()> = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i as u64, ()))
            .collect();
        prop_assert_eq!(q.len(), times.len());
        let mut cancelled = std::collections::HashSet::new();
        for c in cancels {
            let id = ids[c.index(ids.len())];
            if q.cancel(id) {
                cancelled.insert(id);
            }
        }
        prop_assert_eq!(q.len(), times.len() - cancelled.len());
        prop_assert_eq!(drain(&mut q).len(), times.len() - cancelled.len());
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
