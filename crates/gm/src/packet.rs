//! The wire format exchanged between nodes.
//!
//! The paper adds a new *collective packet type* to GM 1.5.2.1 so the NIC
//! control program can raise a host signal only for application-bypass
//! reduction traffic (§V-A). All other MPI traffic keeps its normal types
//! and never generates signals.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A node (GM port) identifier; equal to the MPI rank in this stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// GM-level packet types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// Small message sent through pre-pinned bounce buffers (GM eager mode).
    Eager,
    /// Rendezvous request-to-send: header only, announces a large message.
    RendezvousRts,
    /// Rendezvous clear-to-send: receiver has pinned its buffer.
    RendezvousCts,
    /// Rendezvous payload, DMA'd between pinned regions.
    RendezvousData,
    /// The paper's new collective type: like `Eager`, but the NIC raises a
    /// host signal on arrival when signals are enabled.
    Collective,
    /// Reliability acknowledgement (`abr_faults` layer): header-only, its
    /// `rel_seq` field carries the cumulative ack. Consumed by the
    /// transport's reliability state — engines never see one.
    Ack,
}

impl PacketKind {
    /// True for the application-bypass collective type (§V-A): the only kind
    /// for which the NIC will ever generate a signal.
    #[inline]
    pub fn generates_signal(self) -> bool {
        matches!(self, PacketKind::Collective)
    }

    /// Stable short label used in trace events.
    #[inline]
    pub fn label(self) -> &'static str {
        match self {
            PacketKind::Eager => "eager",
            PacketKind::RendezvousRts => "rts",
            PacketKind::RendezvousCts => "cts",
            PacketKind::RendezvousData => "rndv-data",
            PacketKind::Collective => "coll",
            PacketKind::Ack => "ack",
        }
    }

    /// True if this kind carries message payload on the wire (as opposed to
    /// a header-only control packet).
    #[inline]
    pub fn carries_payload(self) -> bool {
        !matches!(
            self,
            PacketKind::RendezvousRts | PacketKind::RendezvousCts | PacketKind::Ack
        )
    }
}

/// Fixed per-packet wire overhead in bytes (GM header + CRC + route bytes).
pub const HEADER_WIRE_BYTES: u32 = 32;

/// The packet header. Tag/context/sequence fields belong logically to the
/// MPI layer but ride in the GM header so the NIC (and the application-
/// bypass pre-processing step) can classify packets without touching payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketHeader {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// GM packet type.
    pub kind: PacketKind,
    /// MPI communicator context id.
    pub context: u32,
    /// MPI tag.
    pub tag: i32,
    /// Collective-instance sequence number (disambiguates overlapped
    /// reductions, §IV-D). For rendezvous control/data packets this field
    /// carries the transfer id instead. Zero for plain eager traffic.
    pub coll_seq: u64,
    /// Root rank of the collective instance a [`PacketKind::Collective`]
    /// packet belongs to; the receiver uses it for the Fig. 4 check
    /// "is the current process the root of this reduction instance".
    /// Zero and meaningless for non-collective kinds.
    pub coll_root: u32,
    /// Total message length in bytes (for rendezvous, the full payload the
    /// RTS announces; for eager/collective, the payload carried here).
    pub msg_len: u32,
    /// Sequence number stamped by the transport, strictly increasing over
    /// every packet one sender puts on the wire, and therefore over each
    /// `(src, dst)` pair; receivers use it to assert the FIFO ordering GM
    /// guarantees. The reliability layer re-stamps it per peer on delivery.
    pub wire_seq: u64,
    /// Reliability sequence number (`abr_faults` layer). Zero when the
    /// reliability protocol is inactive; data sequences start at 1. For
    /// [`PacketKind::Ack`] this field carries the cumulative ack instead.
    pub rel_seq: u64,
}

/// A packet: header plus (possibly empty) payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Header fields.
    pub header: PacketHeader,
    /// Payload; empty for header-only control packets.
    pub payload: Bytes,
}

impl Packet {
    /// Build a packet, checking payload/kind consistency.
    pub fn new(header: PacketHeader, payload: Bytes) -> Self {
        debug_assert!(
            header.kind.carries_payload() || payload.is_empty(),
            "control packets must not carry payload"
        );
        debug_assert!(
            !header.kind.carries_payload()
                || payload.len() == header.msg_len as usize
                || header.kind == PacketKind::RendezvousData,
            "payload length {} disagrees with header msg_len {}",
            payload.len(),
            header.msg_len,
        );
        Packet { header, payload }
    }

    /// Bytes this packet occupies on the wire (payload + fixed overhead).
    pub fn wire_bytes(&self) -> u32 {
        self.payload.len() as u32 + HEADER_WIRE_BYTES
    }

    /// True if the NIC would raise a host signal for this packet when
    /// signals are enabled.
    pub fn generates_signal(&self) -> bool {
        self.header.kind.generates_signal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(kind: PacketKind, len: u32) -> PacketHeader {
        PacketHeader {
            src: NodeId(0),
            dst: NodeId(1),
            kind,
            context: 7,
            tag: 3,
            coll_seq: 0,
            coll_root: 0,
            msg_len: len,
            wire_seq: 0,
            rel_seq: 0,
        }
    }

    #[test]
    fn only_collective_generates_signal() {
        assert!(PacketKind::Collective.generates_signal());
        for k in [
            PacketKind::Eager,
            PacketKind::RendezvousRts,
            PacketKind::RendezvousCts,
            PacketKind::RendezvousData,
            PacketKind::Ack,
        ] {
            assert!(!k.generates_signal(), "{k:?} must not signal");
        }
    }

    #[test]
    fn control_packets_carry_no_payload() {
        assert!(!PacketKind::RendezvousRts.carries_payload());
        assert!(!PacketKind::RendezvousCts.carries_payload());
        assert!(!PacketKind::Ack.carries_payload());
        assert!(PacketKind::Eager.carries_payload());
        assert!(PacketKind::Collective.carries_payload());
        assert!(PacketKind::RendezvousData.carries_payload());
    }

    #[test]
    fn wire_bytes_includes_header_overhead() {
        let p = Packet::new(header(PacketKind::Eager, 4), Bytes::from(vec![0u8; 4]));
        assert_eq!(p.wire_bytes(), 4 + HEADER_WIRE_BYTES);
        let rts = Packet::new(header(PacketKind::RendezvousRts, 1 << 20), Bytes::new());
        assert_eq!(rts.wire_bytes(), HEADER_WIRE_BYTES);
    }

    #[test]
    fn packet_signal_delegates_to_kind() {
        let coll = Packet::new(header(PacketKind::Collective, 0), Bytes::new());
        assert!(coll.generates_signal());
        let eager = Packet::new(header(PacketKind::Eager, 0), Bytes::new());
        assert!(!eager.generates_signal());
    }

    #[test]
    #[should_panic(expected = "control packets must not carry payload")]
    #[cfg(debug_assertions)]
    fn rts_with_payload_is_rejected() {
        let _ = Packet::new(
            header(PacketKind::RendezvousRts, 8),
            Bytes::from(vec![0u8; 8]),
        );
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(5).index(), 5);
        assert_eq!(format!("{}", NodeId(5)), "n5");
    }
}
