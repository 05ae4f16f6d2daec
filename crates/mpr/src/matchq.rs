//! Posted-receive and unexpected-message queues with MPI matching semantics.
//!
//! §III of the paper describes the default MPICH behaviour this models: a
//! message that arrives before a matching receive is posted is copied into a
//! temporary buffer on the *unexpected queue*; a later matching receive
//! copies it again into the user buffer (two copies). A message that finds
//! a posted receive is copied once, directly into the user buffer.
//!
//! Matching is FIFO within each queue, on (context, source, tag) with
//! wildcard source and tag — the MPI non-overtaking rule given the FIFO
//! transport underneath.
//!
//! # Implementation
//!
//! Both queues keep their entries in a sequence-ordered store and index them
//! with per-selector FIFO buckets, so the common exact-match probe on a deep
//! queue is a few (cheaply) hashed lookups instead of a linear scan over
//! every parked entry. Queues at or below `SMALL_SCAN` entries — the
//! steady state for the engine — skip the buckets entirely and scan the
//! store directly, which picks the same entry for a fraction of the cost:
//!
//! * [`PostedQueue::take_match`] probes the four selector buckets an
//!   incoming message could match — (src, tag), (src, ANY), (ANY, tag),
//!   (ANY, ANY) — and takes the bucket whose front has the smallest global
//!   posting sequence, preserving MPI posting order exactly.
//! * [`UnexpectedQueue::take_match`] with an exact (source, tag) selector
//!   probes one bucket; wildcard receives fall back to a scan of the store
//!   in arrival order, which is the order wildcards must respect anyway.
//!
//! Entries removed out of FIFO order leave tombstones that are dropped
//! lazily; the store compacts whenever tombstones outnumber live entries,
//! so memory stays bounded by the live entry count.

use crate::request::ReqId;
use crate::types::{Rank, TagSel};
use abr_des::FxHashMap;
use abr_gm::packet::PacketKind;
use bytes::Bytes;
use std::collections::VecDeque;

/// Queues at or below this length answer `take_match` with a direct scan of
/// the store instead of bucket probes. A scan in sequence order picks the
/// same (lowest-sequence) entry the probe would, and below a couple hundred
/// entries a cache-friendly scan beats per-op hashing outright — the bucket
/// index only pays off once the scan's quadratic drain cost bites. The
/// engine's day-to-day queues stay far below this.
const SMALL_SCAN: usize = 64;

/// Once an index exists, it is dropped again when the queue drains to this
/// length; the gap below [`SMALL_SCAN`] is hysteresis so a queue oscillating
/// around the threshold does not rebuild its index every few operations.
const INDEX_DROP: usize = SMALL_SCAN / 2;

/// Selector bucket index: sequence numbers per key, in FIFO order.
type FxMap<K> = FxHashMap<K, VecDeque<u64>>;

/// A receive the application (or a collective state machine) has posted.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// The request this receive completes.
    pub id: ReqId,
    /// Source selector; `None` is `MPI_ANY_SOURCE`.
    pub src: Option<Rank>,
    /// Tag selector.
    pub tag: TagSel,
    /// Communicator context id.
    pub context: u32,
    /// Receive-buffer capacity in bytes.
    pub capacity: usize,
    /// Collective sequence number this receive belongs to, if any; used only
    /// for debug cross-checks (FIFO ordering already guarantees instance
    /// correctness, §IV-D).
    pub expect_coll_seq: Option<u64>,
}

/// A key describing an incoming message for matching purposes.
#[derive(Debug, Clone, Copy)]
pub struct MsgKey {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: i32,
    /// Communicator context id.
    pub context: u32,
}

impl MsgKey {
    fn matches(&self, p: &PostedRecv) -> bool {
        p.context == self.context && p.src.is_none_or(|s| s == self.src) && p.tag.accepts(self.tag)
    }
}

/// A sequence-ordered store with tombstoning removal.
///
/// Entries keep the global sequence number they were inserted under, so
/// bucket indexes can refer to them by sequence; lookup is a binary search
/// (the store stays sorted by construction). Tombstones accumulate when
/// entries are taken out of order and are swept once they outnumber live
/// entries, keeping memory O(live).
#[derive(Debug)]
struct SeqStore<T> {
    entries: VecDeque<(u64, Option<T>)>,
    next_seq: u64,
    live: usize,
    dead: usize,
}

impl<T> Default for SeqStore<T> {
    fn default() -> Self {
        SeqStore {
            entries: VecDeque::new(),
            next_seq: 0,
            live: 0,
            dead: 0,
        }
    }
}

impl<T> SeqStore<T> {
    /// Append `val`, returning its sequence number.
    fn push(&mut self, val: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back((seq, Some(val)));
        self.live += 1;
        seq
    }

    fn index_of(&self, seq: u64) -> Option<usize> {
        let i = self.entries.partition_point(|&(s, _)| s < seq);
        (i < self.entries.len() && self.entries[i].0 == seq).then_some(i)
    }

    /// True if `seq` refers to a live (not taken) entry.
    fn is_live(&self, seq: u64) -> bool {
        self.index_of(seq)
            .is_some_and(|i| self.entries[i].1.is_some())
    }

    /// Remove and return the entry at `seq`, leaving a tombstone.
    fn take(&mut self, seq: u64) -> Option<T> {
        let i = self.index_of(seq)?;
        let val = self.entries[i].1.take()?;
        self.live -= 1;
        self.dead += 1;
        self.maybe_compact();
        Some(val)
    }

    /// Remove and return the first live entry satisfying `pred`, in
    /// insertion order.
    fn scan_take(&mut self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let entry = self
            .entries
            .iter_mut()
            .find(|(_, slot)| slot.as_ref().is_some_and(&pred))?;
        let found = entry.1.take();
        self.live -= 1;
        self.dead += 1;
        self.maybe_compact();
        found
    }

    /// Drop tombstones once they outnumber live entries (amortized O(1) per
    /// removal). Sequence numbers survive compaction, so bucket references
    /// stay valid — a swept sequence simply no longer resolves.
    fn maybe_compact(&mut self) {
        while matches!(self.entries.front(), Some((_, None))) {
            self.entries.pop_front();
            self.dead -= 1;
        }
        if self.dead > self.live && self.dead >= 64 {
            self.entries.retain(|(_, slot)| slot.is_some());
            self.entries.shrink_to_fit();
            self.dead = 0;
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Live entries in sequence order, for (re)building a bucket index.
    fn iter_live(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries
            .iter()
            .filter_map(|(seq, slot)| slot.as_ref().map(|v| (*seq, v)))
    }
}

/// Pop stale (already-taken) sequences off a bucket's front and return the
/// front live sequence, if any. Standalone function so callers can borrow
/// the bucket map mutably alongside the store.
fn bucket_front<T, K>(buckets: &mut FxMap<K>, key: &K, store: &SeqStore<T>) -> Option<u64>
where
    K: std::hash::Hash + Eq,
{
    // An emptied bucket is left in place (capacity and all): selector keys
    // recur, so the next post reuses it without reallocating. prune_buckets
    // drops the genuinely dead ones.
    let b = buckets.get_mut(key)?;
    while let Some(&seq) = b.front() {
        if store.is_live(seq) {
            return Some(seq);
        }
        b.pop_front();
    }
    None
}

/// Drop swept sequences from every bucket and remove emptied buckets; run
/// opportunistically so bucket memory is also bounded by live entries.
fn prune_buckets<T, K>(buckets: &mut FxMap<K>, store: &SeqStore<T>)
where
    K: std::hash::Hash + Eq,
{
    for b in buckets.values_mut() {
        b.retain(|&seq| store.is_live(seq));
    }
    buckets.retain(|_, b| !b.is_empty());
}

/// Posted-receive selector bucket: context plus the literal source/tag
/// selectors (`None` = wildcard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PostedKey {
    context: u32,
    src: Option<Rank>,
    tag: Option<i32>,
}

/// The posted-receive queue.
#[derive(Debug, Default)]
pub struct PostedQueue {
    store: SeqStore<PostedRecv>,
    /// Selector index, built lazily: empty and untouched until a deep queue
    /// actually takes an exact probe (see [`PostedQueue::take_match`]).
    buckets: FxMap<PostedKey>,
    /// Whether `buckets` currently mirrors the store.
    indexed: bool,
    /// Removals since the last bucket prune; triggers housekeeping.
    removals: usize,
    trace: abr_trace::TraceHandle,
}

fn posted_key(recv: &PostedRecv) -> PostedKey {
    PostedKey {
        context: recv.context,
        src: recv.src,
        tag: match recv.tag {
            TagSel::Any => None,
            TagSel::Is(t) => Some(t),
        },
    }
}

impl PostedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a posted receive (FIFO per MPI posting order).
    pub fn post(&mut self, recv: PostedRecv) {
        if self.indexed {
            let key = posted_key(&recv);
            let seq = self.store.push(recv);
            self.buckets.entry(key).or_default().push_back(seq);
        } else {
            self.store.push(recv);
        }
    }

    /// Emit a [`abr_trace::TraceEvent::MatchOutcome`] for every probe.
    pub fn set_tracer(&mut self, trace: abr_trace::TraceHandle) {
        self.trace = trace;
    }

    /// Remove and return the first posted receive matching `key`, in MPI
    /// posting order: the probe checks the four selector buckets the
    /// message could match and takes the earliest-posted candidate.
    pub fn take_match(&mut self, key: &MsgKey) -> Option<PostedRecv> {
        let hit = self.take_match_inner(key);
        self.trace.emit(abr_trace::TraceEvent::MatchOutcome {
            queue: "posted",
            outcome: if hit.is_some() { "hit" } else { "miss" },
        });
        hit
    }

    fn take_match_inner(&mut self, key: &MsgKey) -> Option<PostedRecv> {
        // Short queue: a scan in posting order picks the same entry the
        // bucket probe would, without touching the hash maps.
        if self.store.len() <= SMALL_SCAN {
            let recv = self.store.scan_take(|p| key.matches(p))?;
            self.after_removal();
            return Some(recv);
        }
        // Deep queue: build the selector index the first time it is needed.
        if !self.indexed {
            for (seq, recv) in self.store.iter_live() {
                self.buckets
                    .entry(posted_key(recv))
                    .or_default()
                    .push_back(seq);
            }
            self.indexed = true;
        }
        let probes = [
            PostedKey {
                context: key.context,
                src: Some(key.src),
                tag: Some(key.tag),
            },
            PostedKey {
                context: key.context,
                src: Some(key.src),
                tag: None,
            },
            PostedKey {
                context: key.context,
                src: None,
                tag: Some(key.tag),
            },
            PostedKey {
                context: key.context,
                src: None,
                tag: None,
            },
        ];
        let mut best: Option<(u64, PostedKey)> = None;
        for probe in probes {
            if let Some(seq) = bucket_front(&mut self.buckets, &probe, &self.store) {
                if best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, probe));
                }
            }
        }
        let (seq, bucket) = best?;
        let b = self.buckets.get_mut(&bucket).expect("probed bucket exists");
        b.pop_front();
        let recv = self.store.take(seq).expect("bucket front is live");
        debug_assert!(key.matches(&recv), "bucket probe returned a non-match");
        self.after_removal();
        Some(recv)
    }

    /// Cancel a posted receive by request id; returns true if found.
    ///
    /// This is an error/teardown path, not a matching hot path, so it scans
    /// rather than carrying an id index on every post.
    pub fn cancel(&mut self, id: ReqId) -> bool {
        let hit = self.store.scan_take(|p| p.id == id).is_some();
        if hit {
            self.after_removal();
        }
        hit
    }

    fn after_removal(&mut self) {
        if !self.indexed {
            return;
        }
        // A drained queue drops its index outright and goes back to scans.
        if self.store.len() <= INDEX_DROP {
            self.buckets.clear();
            self.indexed = false;
            self.removals = 0;
            return;
        }
        self.removals += 1;
        // Periodically drop bucket references to swept entries so bucket
        // memory tracks the live count like the store does.
        if self.removals >= 256 {
            self.removals = 0;
            prune_buckets(&mut self.buckets, &self.store);
        }
    }

    /// Number of outstanding posted receives.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is posted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A message parked on the unexpected queue.
#[derive(Debug, Clone)]
pub struct UnexpectedMsg {
    /// Sender.
    pub src: Rank,
    /// Tag.
    pub tag: i32,
    /// Context id.
    pub context: u32,
    /// Original GM packet kind (an unexpected rendezvous RTS parks here with
    /// empty data).
    pub kind: PacketKind,
    /// Collective sequence number from the header.
    pub coll_seq: u64,
    /// Payload (already copied once into this temporary buffer).
    pub data: Bytes,
    /// Full message length the sender announced (equals `data.len()` except
    /// for a parked RTS).
    pub msg_len: usize,
}

/// The unexpected-message queue (the *MPICH* one; the application-bypass
/// layer keeps its own separate queue in `abr_core`, §V-A).
#[derive(Debug, Default)]
pub struct UnexpectedQueue {
    store: SeqStore<UnexpectedMsg>,
    /// Exact (context, src, tag) arrival buckets for the fully-specified
    /// receive against a deep queue; built lazily like the posted index.
    exact: FxMap<(u32, Rank, i32)>,
    /// Whether `exact` currently mirrors the store.
    indexed: bool,
    removals: usize,
    high_water: usize,
    trace: abr_trace::TraceHandle,
}

impl UnexpectedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park an unexpected message.
    pub fn push(&mut self, msg: UnexpectedMsg) {
        if self.indexed {
            let key = (msg.context, msg.src, msg.tag);
            let seq = self.store.push(msg);
            self.exact.entry(key).or_default().push_back(seq);
        } else {
            self.store.push(msg);
        }
        self.high_water = self.high_water.max(self.store.len());
    }

    /// Emit a [`abr_trace::TraceEvent::MatchOutcome`] for every probe.
    pub fn set_tracer(&mut self, trace: abr_trace::TraceHandle) {
        self.trace = trace;
    }

    /// Remove and return the first parked message a new receive
    /// (src/tag/context) matches, preserving arrival order.
    pub fn take_match(
        &mut self,
        src: Option<Rank>,
        tag: TagSel,
        context: u32,
    ) -> Option<UnexpectedMsg> {
        let hit = self.take_match_inner(src, tag, context);
        self.trace.emit(abr_trace::TraceEvent::MatchOutcome {
            queue: "unexpected",
            outcome: if hit.is_some() { "hit" } else { "miss" },
        });
        hit
    }

    fn take_match_inner(
        &mut self,
        src: Option<Rank>,
        tag: TagSel,
        context: u32,
    ) -> Option<UnexpectedMsg> {
        let msg = match (src, tag) {
            // Fully-specified receive against a deep queue: one bucket
            // probe, building the arrival index the first time one happens.
            (Some(s), TagSel::Is(t)) if self.store.len() > SMALL_SCAN => {
                if !self.indexed {
                    for (seq, m) in self.store.iter_live() {
                        self.exact
                            .entry((m.context, m.src, m.tag))
                            .or_default()
                            .push_back(seq);
                    }
                    self.indexed = true;
                }
                let key = (context, s, t);
                let seq = bucket_front(&mut self.exact, &key, &self.store)?;
                let b = self.exact.get_mut(&key).expect("probed bucket exists");
                b.pop_front();
                self.store.take(seq).expect("bucket front is live")
            }
            // Wildcard source and/or tag (arrival order across senders is
            // the contract) or a short queue: scan the store in sequence
            // order, which yields exactly the bucket-probe answer.
            _ => self.store.scan_take(|m| {
                m.context == context && src.is_none_or(|s| s == m.src) && tag.accepts(m.tag)
            })?,
        };
        self.after_removal();
        Some(msg)
    }

    fn after_removal(&mut self) {
        if !self.indexed {
            return;
        }
        if self.store.len() <= INDEX_DROP {
            self.exact.clear();
            self.indexed = false;
            self.removals = 0;
            return;
        }
        self.removals += 1;
        if self.removals >= 256 {
            self.removals = 0;
            prune_buckets(&mut self.exact, &self.store);
        }
    }

    /// Number of parked messages.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest queue length ever reached.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqId;

    fn posted(id: u64, src: Option<Rank>, tag: TagSel, ctx: u32) -> PostedRecv {
        PostedRecv {
            id: ReqId::from_raw(id),
            src,
            tag,
            context: ctx,
            capacity: 64,
            expect_coll_seq: None,
        }
    }

    fn key(src: Rank, tag: i32, ctx: u32) -> MsgKey {
        MsgKey {
            src,
            tag,
            context: ctx,
        }
    }

    fn unexpected(src: Rank, tag: i32, ctx: u32) -> UnexpectedMsg {
        UnexpectedMsg {
            src,
            tag,
            context: ctx,
            kind: PacketKind::Eager,
            coll_seq: 0,
            data: Bytes::new(),
            msg_len: 0,
        }
    }

    #[test]
    fn exact_match_consumes_entry() {
        let mut q = PostedQueue::new();
        q.post(posted(1, Some(3), TagSel::Is(7), 0));
        assert!(q.take_match(&key(3, 8, 0)).is_none());
        assert!(q.take_match(&key(4, 7, 0)).is_none());
        assert!(q.take_match(&key(3, 7, 1)).is_none());
        let hit = q.take_match(&key(3, 7, 0)).unwrap();
        assert_eq!(hit.id, ReqId::from_raw(1));
        assert!(q.is_empty());
    }

    #[test]
    fn wildcards_match_anything_in_context() {
        let mut q = PostedQueue::new();
        q.post(posted(1, None, TagSel::Any, 2));
        assert!(
            q.take_match(&key(9, -5, 3)).is_none(),
            "context is never wild"
        );
        assert!(q.take_match(&key(9, -5, 2)).is_some());
    }

    #[test]
    fn fifo_order_among_multiple_matches() {
        let mut q = PostedQueue::new();
        q.post(posted(1, None, TagSel::Any, 0));
        q.post(posted(2, Some(5), TagSel::Is(7), 0));
        // Both match; the earlier posting wins (MPI matching order).
        let hit = q.take_match(&key(5, 7, 0)).unwrap();
        assert_eq!(hit.id, ReqId::from_raw(1));
        let hit = q.take_match(&key(5, 7, 0)).unwrap();
        assert_eq!(hit.id, ReqId::from_raw(2));
    }

    #[test]
    fn posting_order_wins_across_selector_buckets() {
        // Interleave postings across all four selector shapes; a message
        // matching all of them must take them in posting order.
        let mut q = PostedQueue::new();
        q.post(posted(1, Some(5), TagSel::Is(7), 0));
        q.post(posted(2, None, TagSel::Is(7), 0));
        q.post(posted(3, Some(5), TagSel::Any, 0));
        q.post(posted(4, None, TagSel::Any, 0));
        for expect in 1..=4u64 {
            let hit = q.take_match(&key(5, 7, 0)).unwrap();
            assert_eq!(hit.id, ReqId::from_raw(expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn non_matching_entries_are_skipped_not_blocked() {
        let mut q = PostedQueue::new();
        q.post(posted(1, Some(0), TagSel::Is(1), 0));
        q.post(posted(2, Some(9), TagSel::Is(2), 0));
        let hit = q.take_match(&key(9, 2, 0)).unwrap();
        assert_eq!(hit.id, ReqId::from_raw(2));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_removes_by_id() {
        let mut q = PostedQueue::new();
        q.post(posted(1, None, TagSel::Any, 0));
        q.post(posted(2, None, TagSel::Any, 0));
        assert!(q.cancel(ReqId::from_raw(1)));
        assert!(!q.cancel(ReqId::from_raw(1)));
        assert_eq!(q.take_match(&key(0, 0, 0)).unwrap().id, ReqId::from_raw(2));
    }

    #[test]
    fn unexpected_fifo_and_wildcards() {
        let mut q = UnexpectedQueue::new();
        q.push(unexpected(1, 5, 0));
        q.push(unexpected(2, 5, 0));
        q.push(unexpected(1, 6, 0));
        // Wildcard source, exact tag: arrival order among tag-5 messages.
        let m = q.take_match(None, TagSel::Is(5), 0).unwrap();
        assert_eq!(m.src, 1);
        let m = q.take_match(None, TagSel::Is(5), 0).unwrap();
        assert_eq!(m.src, 2);
        // Exact source, any tag.
        let m = q.take_match(Some(1), TagSel::Any, 0).unwrap();
        assert_eq!(m.tag, 6);
        assert!(q.is_empty());
    }

    #[test]
    fn unexpected_exact_probe_respects_wildcard_consumption() {
        // A wildcard receive consumes a message; the exact bucket must not
        // resurrect it.
        let mut q = UnexpectedQueue::new();
        q.push(unexpected(3, 9, 0));
        q.push(unexpected(3, 9, 0));
        assert!(q.take_match(None, TagSel::Any, 0).is_some());
        assert!(q.take_match(Some(3), TagSel::Is(9), 0).is_some());
        assert!(q.take_match(Some(3), TagSel::Is(9), 0).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn unexpected_context_isolation() {
        let mut q = UnexpectedQueue::new();
        q.push(unexpected(1, 5, 0));
        assert!(q.take_match(None, TagSel::Any, 1).is_none());
        assert!(q.take_match(None, TagSel::Any, 0).is_some());
    }

    #[test]
    fn unexpected_high_water_tracks_peak() {
        let mut q = UnexpectedQueue::new();
        q.push(unexpected(1, 1, 0));
        q.push(unexpected(1, 2, 0));
        q.take_match(None, TagSel::Any, 0).unwrap();
        q.push(unexpected(1, 3, 0));
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn deep_posted_queue_uses_buckets_and_keeps_posting_order() {
        // Well past SMALL_SCAN so take_match runs the 4-bucket probe, with
        // all four selector shapes interleaved: posting order must still win.
        let mut q = PostedQueue::new();
        let shapes: [(Option<Rank>, TagSel); 4] = [
            (Some(5), TagSel::Is(7)),
            (None, TagSel::Is(7)),
            (Some(5), TagSel::Any),
            (None, TagSel::Any),
        ];
        for i in 0..(4 * SMALL_SCAN as u64) {
            let (src, tag) = shapes[(i % 4) as usize];
            q.post(posted(i, src, tag, 0));
        }
        for expect in 0..(4 * SMALL_SCAN as u64) {
            let hit = q.take_match(&key(5, 7, 0)).unwrap();
            assert_eq!(hit.id, ReqId::from_raw(expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn deep_unexpected_queue_exact_probe_after_wildcard_holes() {
        // Deep queue: exact takes run the bucket probe; interleaved wildcard
        // takes punch holes the buckets must skip over.
        let mut q = UnexpectedQueue::new();
        let n = 4 * SMALL_SCAN as i32;
        for i in 0..n {
            q.push(unexpected(1, i, 0));
            q.push(unexpected(2, i, 0));
        }
        for i in 0..n {
            // Wildcard consumes the src-1 copy (earliest arrival for tag i)…
            let m = q.take_match(None, TagSel::Is(i), 0).unwrap();
            assert_eq!((m.src, m.tag), (1, i));
            // …and the exact probe must then find the src-2 copy, not the
            // consumed one.
            let m = q.take_match(Some(2), TagSel::Is(i), 0).unwrap();
            assert_eq!((m.src, m.tag), (2, i));
            assert!(q.take_match(Some(1), TagSel::Is(i), 0).is_none());
        }
        assert!(q.is_empty());
    }

    #[test]
    fn store_memory_is_bounded_under_churn() {
        // Take from the back repeatedly while the front stays parked: the
        // tombstone sweep must keep the store near the live count.
        let mut q = UnexpectedQueue::new();
        q.push(unexpected(0, 0, 0)); // never matched, pins the front
        for i in 0..10_000u32 {
            q.push(unexpected(1, i as i32, 0));
            assert!(q.take_match(Some(1), TagSel::Is(i as i32), 0).is_some());
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.store.entries.len() <= 2 + 64 + 64,
            "store grew unboundedly: {} entries for 1 live",
            q.store.entries.len()
        );
    }
}
