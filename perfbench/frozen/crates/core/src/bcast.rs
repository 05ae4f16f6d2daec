//! Application-bypass broadcast (the companion system of the paper's
//! ref. \[8\], *"Application-Bypass Broadcast in MPICH over GM"*, whose
//! interrupt-based design this paper explicitly builds on).
//!
//! The blocking binomial broadcast makes every interior node wait for its
//! parent's data before it can forward down its subtree — under skew, a
//! late *ancestor* stalls an entire subtree of otherwise-ready processes.
//! Bypass splits it: the call registers a [`BcastWait`] and returns; when
//! the parent's data arrives (via signal), the node forwards to its
//! children and completes asynchronously.

use abr_mpr::topology::TopoSchedule;
use abr_mpr::types::Rank;
use abr_mpr::ReqId;
use std::sync::Arc;

/// A pending application-bypass broadcast at a non-root rank.
#[derive(Debug)]
pub struct BcastWait {
    /// Collective context id.
    pub context: u32,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Root of the broadcast.
    pub root: Rank,
    /// The parent this rank receives from.
    pub parent: Rank,
    /// Payload length in bytes.
    pub len: usize,
    /// The shared schedule; the forward loop walks this rank's children in
    /// reverse (largest subtree first) without any per-wait allocation.
    pub sched: Arc<TopoSchedule>,
    /// The split-phase request completed with the data.
    pub call_req: ReqId,
}

/// FIFO queue of pending broadcast waits; matched by (parent, context) in
/// arrival order, like the reduce descriptor queue.
#[derive(Debug, Default)]
pub struct BcastWaitQueue {
    entries: Vec<BcastWait>,
    high_water: usize,
    total: u64,
}

impl BcastWaitQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a wait.
    pub fn push(&mut self, w: BcastWait) {
        self.entries.push(w);
        self.high_water = self.high_water.max(self.entries.len());
        self.total += 1;
    }

    /// Index of the oldest wait in `context` expecting data from `src`,
    /// plus the number of entries probed (for cost accounting).
    pub fn find_for_parent(&self, src: Rank, context: u32) -> (Option<usize>, usize) {
        let mut probed = 0;
        for (i, w) in self.entries.iter().enumerate() {
            probed += 1;
            if w.context == context && w.parent == src {
                return (Some(i), probed);
            }
        }
        (None, probed)
    }

    /// Remove a wait by index.
    pub fn remove(&mut self, idx: usize) -> BcastWait {
        self.entries.remove(idx)
    }

    /// Number of pending waits.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak occupancy.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Lifetime registered count.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(seq: u64, parent: Rank) -> BcastWait {
        use abr_mpr::topology::TopologyKind;
        BcastWait {
            context: 1,
            coll_seq: seq,
            root: 0,
            parent,
            len: 8,
            sched: Arc::new(TopologyKind::Binomial.schedule(0, 4)),
            call_req: ReqId::from_raw(seq),
        }
    }

    #[test]
    fn oldest_wait_per_parent_matches_first() {
        let mut q = BcastWaitQueue::new();
        q.push(wait(0, 2));
        q.push(wait(1, 2));
        let (idx, probed) = q.find_for_parent(2, 1);
        assert_eq!(idx, Some(0));
        assert_eq!(probed, 1);
        assert_eq!(q.remove(0).coll_seq, 0);
        let (idx, _) = q.find_for_parent(2, 1);
        assert_eq!(q.remove(idx.unwrap()).coll_seq, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn parent_and_context_are_the_key() {
        let mut q = BcastWaitQueue::new();
        q.push(wait(0, 2));
        assert_eq!(q.find_for_parent(3, 1).0, None);
        assert_eq!(q.find_for_parent(2, 2).0, None);
        assert_eq!(q.find_for_parent(2, 1).0, Some(0));
    }

    #[test]
    fn counters_track_peak_and_total() {
        let mut q = BcastWaitQueue::new();
        q.push(wait(0, 1));
        q.push(wait(1, 1));
        q.remove(0);
        q.push(wait(2, 1));
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.total(), 3);
        assert_eq!(q.len(), 2);
    }
}
