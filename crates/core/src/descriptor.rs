//! Reduce descriptors and the descriptor queue (§IV-B, §V-A).
//!
//! Each descriptor carries the intermediate state of one reduction
//! instance: the running partial result, the identity of the parent to send
//! the final result to, and the list of children whose contributions are
//! still pending. The child list doubles as the matching key for late
//! messages — an incoming collective packet from rank `s` matches the
//! *oldest* descriptor still waiting on `s`, which is correct because the
//! transport delivers each (child, parent) pair's messages in order.

use abr_mpr::op::ReduceOp;
use abr_mpr::types::{Datatype, Rank};
use abr_mpr::ReqId;

/// Intermediate state of one in-flight application-bypass reduction.
#[derive(Debug)]
pub struct ReduceDescriptor {
    /// Collective context id of the communicator.
    pub context: u32,
    /// Instance sequence number (for cross-checks and diagnostics).
    pub coll_seq: u64,
    /// Root of this instance.
    pub root: Rank,
    /// Operator.
    pub op: ReduceOp,
    /// Element type.
    pub dtype: Datatype,
    /// Running partial result, seeded with the local contribution.
    pub acc: Vec<u8>,
    /// Parent to send the final result to — recorded during the synchronous
    /// call because it depends on the instance's root (§IV-B). `None` for a
    /// split-phase *root* descriptor, which keeps the result instead.
    pub parent: Option<Rank>,
    /// Children whose contributions are still pending.
    pub pending_children: Vec<Rank>,
    /// The MPI-call (shell) request to complete if the descriptor finishes
    /// while the call is still blocked in its synchronous phase; cleared
    /// when the call exits.
    pub call_req: Option<ReqId>,
}

impl ReduceDescriptor {
    /// Mark `child` processed. Returns true if it was pending.
    pub fn complete_child(&mut self, child: Rank) -> bool {
        if let Some(idx) = self.pending_children.iter().position(|&c| c == child) {
            self.pending_children.swap_remove(idx);
            true
        } else {
            false
        }
    }

    /// True once every child has reported.
    pub fn is_complete(&self) -> bool {
        self.pending_children.is_empty()
    }
}

/// FIFO queue of outstanding reduction descriptors.
#[derive(Debug, Default)]
pub struct DescriptorQueue {
    entries: Vec<ReduceDescriptor>,
    high_water: usize,
}

impl DescriptorQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a descriptor (instances are created in program order, so the
    /// queue is ordered by instance).
    pub fn push(&mut self, d: ReduceDescriptor) {
        self.entries.push(d);
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Index of the oldest descriptor in `context` still waiting on `src`
    /// (the §IV-D late-message match). Also reports how many entries were
    /// probed, so the caller can charge search cost.
    pub fn find_for_sender(&self, src: Rank, context: u32) -> (Option<usize>, usize) {
        let mut probed = 0;
        for (i, d) in self.entries.iter().enumerate() {
            probed += 1;
            if d.context == context && d.pending_children.contains(&src) {
                return (Some(i), probed);
            }
        }
        (None, probed)
    }

    /// Borrow a descriptor by index.
    pub fn get_mut(&mut self, idx: usize) -> &mut ReduceDescriptor {
        &mut self.entries[idx]
    }

    /// Remove a completed descriptor by index.
    pub fn remove(&mut self, idx: usize) -> ReduceDescriptor {
        self.entries.remove(idx)
    }

    /// Number of outstanding descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no reductions are outstanding (the signal-disable
    /// condition of Fig. 5).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest number of simultaneously outstanding descriptors.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterate over outstanding descriptors (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &ReduceDescriptor> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(seq: u64, ctx: u32, children: &[Rank]) -> ReduceDescriptor {
        ReduceDescriptor {
            context: ctx,
            coll_seq: seq,
            root: 0,
            op: ReduceOp::Sum,
            dtype: Datatype::F64,
            acc: vec![0u8; 8],
            parent: Some(0),
            pending_children: children.to_vec(),
            call_req: None,
        }
    }

    #[test]
    fn complete_child_tracks_pending() {
        let mut d = desc(0, 1, &[3, 5, 9]);
        assert!(!d.is_complete());
        assert!(d.complete_child(5));
        assert!(!d.complete_child(5), "already completed");
        assert!(!d.complete_child(4), "never a child");
        assert!(d.complete_child(3));
        assert!(d.complete_child(9));
        assert!(d.is_complete());
    }

    #[test]
    fn oldest_descriptor_wins_the_sender_match() {
        // The §IV-D scenario: several back-to-back reductions, child 6
        // consistently late. Its messages must match instances in order.
        let mut q = DescriptorQueue::new();
        q.push(desc(0, 1, &[6]));
        q.push(desc(1, 1, &[6]));
        q.push(desc(2, 1, &[6]));
        let (idx, _) = q.find_for_sender(6, 1);
        assert_eq!(idx, Some(0));
        let d = q.remove(0);
        assert_eq!(d.coll_seq, 0);
        let (idx, _) = q.find_for_sender(6, 1);
        assert_eq!(q.get_mut(idx.unwrap()).coll_seq, 1);
    }

    #[test]
    fn sender_match_skips_descriptors_not_waiting_on_it() {
        let mut q = DescriptorQueue::new();
        q.push(desc(0, 1, &[2]));
        q.push(desc(1, 1, &[6]));
        let (idx, probed) = q.find_for_sender(6, 1);
        assert_eq!(idx, Some(1));
        assert_eq!(probed, 2);
    }

    #[test]
    fn context_isolates_communicators() {
        let mut q = DescriptorQueue::new();
        q.push(desc(0, 1, &[6]));
        let (idx, _) = q.find_for_sender(6, 2);
        assert_eq!(idx, None);
    }

    #[test]
    fn miss_probes_everything() {
        let mut q = DescriptorQueue::new();
        q.push(desc(0, 1, &[2]));
        q.push(desc(1, 1, &[3]));
        let (idx, probed) = q.find_for_sender(9, 1);
        assert_eq!(idx, None);
        assert_eq!(probed, 2);
    }

    #[test]
    fn high_water_and_totals() {
        let mut q = DescriptorQueue::new();
        q.push(desc(0, 1, &[2]));
        q.push(desc(1, 1, &[2]));
        q.remove(0);
        q.push(desc(2, 1, &[2]));
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
