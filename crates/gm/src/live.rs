//! A real in-process transport for the live threaded runtime.
//!
//! Each node owns a [`Mailbox`]; the [`LiveFabric`] routes packets to the
//! destination mailbox and stamps wire sequence numbers from one counter
//! per sender, which rises strictly on each of its (src, dst) pairs, so
//! receivers can assert GM's FIFO guarantee. Two consumers drain a mailbox
//! in the live runtime — the application thread (inside blocking MPI calls)
//! and the per-node signal-dispatcher thread — which mirrors the paper's
//! host/NIC split; both serialize on the node's engine lock before touching
//! protocol state.

use crate::packet::{NodeId, Packet};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct MailboxInner {
    queue: VecDeque<Packet>,
    /// Packets ever pushed, so a waiter sees an arrival that another
    /// consumer drained before the waiter woke.
    pushed: u64,
    closed: bool,
}

/// A node's receive queue: packets pushed by peers, popped by the node's
/// application or signal-dispatcher thread.
pub struct Mailbox {
    inner: Mutex<MailboxInner>,
    cv: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// An empty, open mailbox.
    pub fn new() -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                queue: VecDeque::new(),
                pushed: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Deposit a packet and wake any waiter. Packets pushed after close are
    /// dropped (the run is over).
    pub fn push(&self, packet: Packet) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.closed {
            inner.queue.push_back(packet);
            inner.pushed += 1;
            self.cv.notify_all();
        }
    }

    /// Move everything currently queued onto the end of `out`, in
    /// arrival order.
    pub fn drain_into(&self, out: &mut Vec<Packet>) {
        out.extend(self.inner.lock().unwrap().queue.drain(..));
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block until a packet is queued, a packet arrives (even one another
    /// consumer drains before this waiter wakes), or the mailbox is closed.
    /// An optional timeout bounds the wait. Returns whether a packet is
    /// queued now.
    pub fn wait_nonempty(&self, timeout: Option<Duration>) -> bool {
        let inner = self.inner.lock().unwrap();
        let seen = inner.pushed;
        let idle = |m: &mut MailboxInner| m.queue.is_empty() && m.pushed == seen && !m.closed;
        let inner = match timeout {
            Some(t) => self.cv.wait_timeout_while(inner, t, idle).unwrap().0,
            None => self.cv.wait_while(inner, idle).unwrap(),
        };
        !inner.queue.is_empty()
    }

    /// Close the mailbox, waking all waiters. Used at teardown so dispatcher
    /// threads exit.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        self.cv.notify_all();
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

/// Routes packets between the mailboxes of `n` nodes and stamps wire
/// sequence numbers.
pub struct LiveFabric {
    boxes: Vec<Arc<Mailbox>>,
    /// Next `wire_seq` each sender stamps.
    wire_seq: Vec<AtomicU64>,
}

impl LiveFabric {
    /// A fabric connecting `n` nodes.
    pub fn new(n: usize) -> Self {
        LiveFabric {
            boxes: (0..n).map(|_| Arc::new(Mailbox::new())).collect(),
            wire_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The mailbox of `node`, for the node's own threads to drain.
    pub fn mailbox(&self, node: NodeId) -> Arc<Mailbox> {
        Arc::clone(&self.boxes[node.index()])
    }

    /// Route `packet` to its destination mailbox, stamping the sender's
    /// next wire sequence number.
    ///
    /// # Panics
    /// Panics if the source or destination is out of range.
    pub fn send(&self, mut packet: Packet) {
        // Relaxed: the counter publishes no other data (the packet itself
        // travels through the mailbox lock), and one atomic's updates are
        // totally ordered, so each sender's stamps still rise strictly.
        packet.header.wire_seq =
            self.wire_seq[packet.header.src.index()].fetch_add(1, Ordering::Relaxed);
        self.boxes[packet.header.dst.index()].push(packet);
    }

    /// Close every mailbox (teardown).
    pub fn close_all(&self) {
        for b in &self.boxes {
            b.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketHeader, PacketKind};
    use bytes::Bytes;
    use std::thread;

    fn pkt(src: u32, dst: u32, tag: i32) -> Packet {
        Packet::new(
            PacketHeader {
                src: NodeId(src),
                dst: NodeId(dst),
                kind: PacketKind::Eager,
                context: 0,
                tag,
                coll_seq: 0,
                coll_root: 0,
                msg_len: 0,
                wire_seq: 0,
                rel_seq: 0,
            },
            Bytes::new(),
        )
    }

    /// Everything queued in `m`, drained.
    fn drained(m: &Mailbox) -> Vec<Packet> {
        let mut out = Vec::new();
        m.drain_into(&mut out);
        out
    }

    #[test]
    fn push_pop_roundtrip() {
        let m = Mailbox::new();
        assert!(drained(&m).is_empty());
        m.push(pkt(0, 1, 7));
        assert_eq!(m.len(), 1);
        let p = drained(&m);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].header.tag, 7);
        assert!(m.is_empty());
    }

    #[test]
    fn drain_preserves_order() {
        let m = Mailbox::new();
        for t in 0..5 {
            m.push(pkt(0, 1, t));
        }
        let mut out = vec![pkt(0, 1, -1)];
        m.drain_into(&mut out);
        let tags: Vec<_> = out.iter().map(|p| p.header.tag).collect();
        assert_eq!(
            tags,
            vec![-1, 0, 1, 2, 3, 4],
            "appended after what `out` held"
        );
        assert!(m.is_empty());
    }

    #[test]
    fn fabric_routes_by_destination() {
        let f = LiveFabric::new(3);
        f.send(pkt(0, 2, 1));
        f.send(pkt(1, 0, 2));
        assert_eq!(f.mailbox(NodeId(2)).len(), 1);
        assert_eq!(f.mailbox(NodeId(0)).len(), 1);
        assert_eq!(f.mailbox(NodeId(1)).len(), 0);
    }

    #[test]
    fn fabric_stamps_fifo_wire_seq() {
        let f = LiveFabric::new(2);
        for t in 0..4 {
            f.send(pkt(0, 1, t));
        }
        f.send(pkt(1, 0, 99)); // separate pair, separate numbering
        let seqs: Vec<_> = drained(&f.mailbox(NodeId(1)))
            .iter()
            .map(|p| p.header.wire_seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(drained(&f.mailbox(NodeId(0)))[0].header.wire_seq, 0);
    }

    #[test]
    fn wait_nonempty_wakes_on_push() {
        let f = LiveFabric::new(2);
        let mb = f.mailbox(NodeId(1));
        let t = thread::spawn(move || mb.wait_nonempty(None));
        thread::sleep(Duration::from_millis(20));
        f.send(pkt(0, 1, 5));
        assert!(t.join().unwrap());
    }

    #[test]
    fn wait_nonempty_wakes_on_close() {
        let m = Arc::new(Mailbox::new());
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || m2.wait_nonempty(None));
        thread::sleep(Duration::from_millis(20));
        m.close();
        assert!(!t.join().unwrap(), "close with empty queue returns false");
    }

    #[test]
    fn wait_nonempty_timeout_returns_emptiness() {
        let m = Mailbox::new();
        assert!(!m.wait_nonempty(Some(Duration::from_millis(10))));
        m.push(pkt(0, 0, 1));
        assert!(m.wait_nonempty(Some(Duration::from_millis(10))));
    }

    #[test]
    fn push_after_close_is_dropped() {
        let m = Mailbox::new();
        m.close();
        m.push(pkt(0, 1, 1));
        assert!(m.is_empty());
        assert!(m.is_closed());
    }

    #[test]
    fn concurrent_producers_deliver_everything() {
        let f = Arc::new(LiveFabric::new(2));
        let mut handles = Vec::new();
        for src in 0..4u32 {
            let f = Arc::clone(&f);
            handles.push(thread::spawn(move || {
                for t in 0..250 {
                    f.send(pkt(src % 2, 1, t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.mailbox(NodeId(1)).len(), 1000);
    }
}
