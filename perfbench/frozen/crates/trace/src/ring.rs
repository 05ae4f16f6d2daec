//! Lock-free bounded ring used for per-rank event recording.
//!
//! Design: a fixed slab of write-once slots plus an atomic claim
//! counter. A writer claims a slot index with a relaxed `fetch_add`;
//! claims past the end bump a `dropped` counter instead of wrapping, so
//! there is no slot reuse and therefore no ABA or torn-read hazard —
//! the structure is wait-free for writers. Each slot is published with
//! a release store to its `ready` flag after the payload write; readers
//! acquire-load the flag before touching the payload, which is the only
//! `unsafe` in the crate.
//!
//! Overflow policy is drop-newest: once the ring fills, later events
//! are counted but not stored. Exporters surface the dropped count so a
//! truncated trace is never mistaken for a complete one.

use crate::event::TraceRecord;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// One write-once slot: payload cell plus publication flag.
struct Slot {
    ready: AtomicBool,
    rec: UnsafeCell<MaybeUninit<TraceRecord>>,
}

/// A bounded, wait-free, write-once event ring for a single rank.
///
/// Multiple threads may push concurrently (the live runtime has an
/// application thread and a dispatcher thread per rank); snapshotting
/// is safe at any time and sees every slot published before the
/// snapshot began.
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Next slot index to claim; may exceed `slots.len()` (drops).
    next: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots are written at most once, by the unique thread that
// claimed the index from `next`, and only read after an acquire load of
// `ready` observes the release store that followed the write.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// Create a ring with room for `capacity` records.
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                rec: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one event; wait-free. Returns `false` if the ring was
    /// full and the record was counted as dropped instead.
    pub fn push(&self, rec: TraceRecord) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let slot = &self.slots[i];
        // SAFETY: index `i` was claimed exclusively by this thread via
        // fetch_add, so no other thread writes this cell; readers wait
        // for the release store below.
        unsafe { (*slot.rec.get()).write(rec) };
        slot.ready.store(true, Ordering::Release);
        true
    }

    /// Number of records rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy out every published record, in claim order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let claimed = self.next.load(Ordering::Acquire).min(self.slots.len());
        let mut out = Vec::with_capacity(claimed);
        for slot in &self.slots[..claimed] {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: the acquire load above synchronizes with the
                // release store in `push`, after which the cell holds a
                // fully initialized record that is never written again.
                out.push(unsafe { (*slot.rec.get()).assume_init() });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord {
            t_ns: t,
            rank: 0,
            job: 0,
            event: TraceEvent::Signal { outcome: "raised" },
        }
    }

    #[test]
    fn push_snapshot_roundtrip() {
        let r = EventRing::new(4);
        for t in 0..3 {
            assert!(r.push(rec(t)));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[2].t_ns, 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let r = EventRing::new(2);
        assert!(r.push(rec(0)));
        assert!(r.push(rec(1)));
        assert!(!r.push(rec(2)));
        assert!(!r.push(rec(3)));
        assert_eq!(r.snapshot().len(), 2);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn concurrent_writers_lose_nothing_under_capacity() {
        let r = std::sync::Arc::new(EventRing::new(4096));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            joins.push(std::thread::spawn(move || {
                for t in 0..1000 {
                    r.push(rec(t));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(r.snapshot().len(), 4000);
        assert_eq!(r.dropped(), 0);
    }
}
