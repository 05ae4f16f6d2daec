//! The dedicated application-bypass unexpected queue (§V-A).
//!
//! Early collective messages — ones whose reduction instance has no
//! descriptor yet — are parked here with a *single* copy and consumed
//! directly by the next synchronous reduce call, instead of taking the
//! two-copy trip through MPICH's general unexpected queue. Keeping a
//! separate queue also keeps the optimization away from the common
//! point-to-point path, as the paper stresses.

use abr_mpr::types::Rank;
use bytes::Bytes;
use std::collections::VecDeque;

/// One parked early message.
#[derive(Debug, Clone)]
pub struct AbUnexpectedMsg {
    /// Sending rank (a child for reduce traffic, the parent for broadcast).
    pub src: Rank,
    /// Collective tag (distinguishes reduce from broadcast instances).
    pub tag: i32,
    /// Collective context id.
    pub context: u32,
    /// Instance sequence number.
    pub coll_seq: u64,
    /// Instance root.
    pub root: Rank,
    /// The contribution payload (one copy already made).
    pub data: Bytes,
}

/// FIFO queue of early application-bypass messages.
#[derive(Debug, Default)]
pub struct AbUnexpectedQueue {
    entries: VecDeque<AbUnexpectedMsg>,
    high_water: usize,
    total: u64,
}

impl AbUnexpectedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park an early message.
    pub fn push(&mut self, msg: AbUnexpectedMsg) {
        self.entries.push_back(msg);
        self.high_water = self.high_water.max(self.entries.len());
        self.total += 1;
    }

    /// Take the oldest parked message from `src` with `tag` in `context`
    /// (FIFO keeps overlapped instances straight, as with the descriptor
    /// queue).
    pub fn take(&mut self, src: Rank, tag: i32, context: u32) -> Option<AbUnexpectedMsg> {
        let idx = self
            .entries
            .iter()
            .position(|m| m.src == src && m.tag == tag && m.context == context)?;
        self.entries.remove(idx)
    }

    /// Number of parked messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak occupancy.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Lifetime parked count.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: i32 = -2;

    fn msg(src: Rank, ctx: u32, seq: u64) -> AbUnexpectedMsg {
        AbUnexpectedMsg {
            src,
            tag: T,
            context: ctx,
            coll_seq: seq,
            root: 0,
            data: Bytes::from(vec![seq as u8]),
        }
    }

    #[test]
    fn take_is_fifo_per_sender() {
        let mut q = AbUnexpectedQueue::new();
        q.push(msg(4, 1, 10));
        q.push(msg(4, 1, 11));
        q.push(msg(5, 1, 10));
        assert_eq!(q.take(4, T, 1).unwrap().coll_seq, 10);
        assert_eq!(q.take(4, T, 1).unwrap().coll_seq, 11);
        assert!(q.take(4, T, 1).is_none());
        assert_eq!(q.take(5, T, 1).unwrap().coll_seq, 10);
        assert!(q.is_empty());
    }

    #[test]
    fn context_is_part_of_the_key() {
        let mut q = AbUnexpectedQueue::new();
        q.push(msg(4, 1, 0));
        assert!(q.take(4, T, 2).is_none());
        assert!(q.take(4, T, 1).is_some());
    }

    #[test]
    fn tag_is_part_of_the_key() {
        // A parked broadcast payload must never satisfy a reduce sweep.
        let mut q = AbUnexpectedQueue::new();
        q.push(msg(4, 1, 0));
        assert!(q.take(4, -3, 1).is_none());
        assert!(q.take(4, T, 1).is_some());
    }

    #[test]
    fn counters() {
        let mut q = AbUnexpectedQueue::new();
        q.push(msg(1, 1, 0));
        q.push(msg(2, 1, 0));
        q.take(1, T, 1);
        q.push(msg(3, 1, 0));
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.total(), 3);
        assert_eq!(q.len(), 2);
    }
}
