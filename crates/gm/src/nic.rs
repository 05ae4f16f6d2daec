//! Node hardware classes and the network delivery-time model.
//!
//! The paper's testbed (§VI) mixes two node flavours behind one 32-port
//! Myrinet-2000 switch:
//!
//! * 16 × quad-SMP 700-MHz Pentium-III, 66-MHz/64-bit PCI, LANai 9.1,
//! * 16 × dual-SMP 1-GHz Pentium-III, 33-MHz/32-bit PCI, LANai 9.1
//!   (four of them LANai 9.2 at 200 MHz).
//!
//! Only one processor per node is used, so the SMP widths are irrelevant;
//! what matters is CPU clock (scales protocol CPU costs), PCI bandwidth and
//! LANai clock (scale transfer segments). [`Network`] turns a packet plus
//! the two endpoints' hardware into a delivery delay, and enforces the
//! per-(src,dst) FIFO delivery order that GM guarantees.

use crate::cost::CostModel;
use crate::packet::{NodeId, Packet, PacketHeader, PacketKind};
use abr_des::{FxHashMap, SimDuration, SimTime};
use abr_trace::{TraceEvent, TraceHandle};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// PCI bus class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PciClass {
    /// 66 MHz / 64-bit — the 700-MHz nodes' wide bus (~528 MB/s burst).
    Mhz66Bit64,
    /// 33 MHz / 32-bit — the 1-GHz nodes' narrow bus (~132 MB/s burst).
    Mhz33Bit32,
}

impl PciClass {
    /// Multiplier on the base (66 MHz/64-bit) per-byte PCI cost.
    pub fn per_byte_scale(self) -> f64 {
        match self {
            PciClass::Mhz66Bit64 => 1.0,
            PciClass::Mhz33Bit32 => 4.0, // half clock x half width
        }
    }
}

/// LANai (Myrinet NIC processor) revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LanaiClass {
    /// LANai 9.1 at 133 MHz (PCI64B cards; 28 of the 32 nodes).
    L91At133,
    /// LANai 9.2 at 200 MHz (PCI64C cards; 4 of the 1-GHz nodes).
    L92At200,
}

impl LanaiClass {
    /// Multiplier on the base (200 MHz) per-packet NIC processing cost.
    pub fn per_packet_scale(self) -> f64 {
        match self {
            LanaiClass::L91At133 => 200.0 / 133.0,
            LanaiClass::L92At200 => 1.0,
        }
    }
}

/// The hardware profile of one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeHw {
    /// Multiplier on protocol CPU costs (1.0 = the 1-GHz reference class).
    pub cpu_scale: f64,
    /// PCI bus class.
    pub pci: PciClass,
    /// NIC processor revision.
    pub lanai: LanaiClass,
}

impl NodeHw {
    /// The 700-MHz quad-SMP flavour: slower CPU, wide PCI, LANai 9.1.
    pub fn p3_700() -> Self {
        NodeHw {
            cpu_scale: 1000.0 / 700.0,
            pci: PciClass::Mhz66Bit64,
            lanai: LanaiClass::L91At133,
        }
    }

    /// The 1-GHz dual-SMP flavour with the common PCI64B card (LANai 9.1).
    pub fn p3_1000() -> Self {
        NodeHw {
            cpu_scale: 1.0,
            pci: PciClass::Mhz33Bit32,
            lanai: LanaiClass::L91At133,
        }
    }

    /// The 1-GHz flavour with the PCI64C card (LANai 9.2 at 200 MHz); the
    /// testbed had four of these.
    pub fn p3_1000_l92() -> Self {
        NodeHw {
            cpu_scale: 1.0,
            pci: PciClass::Mhz33Bit32,
            lanai: LanaiClass::L92At200,
        }
    }

    /// Scale a base CPU cost by this node's CPU clock.
    pub fn scale_cpu(&self, d: SimDuration) -> SimDuration {
        d.scaled_f64(self.cpu_scale)
    }
}

/// A delivery-time model for the simulated interconnect.
///
/// Both the flat crossbar [`Network`] and the contended fabric model in
/// `abr_fabric` implement this interface, so the DES drivers are generic
/// over *how* a packet's arrival time is computed: the flat model charges
/// endpoint hardware plus one uncontended wire, while a fabric model may
/// route the packet over shared links with per-link busy-until clocks.
pub trait LinkCost {
    /// Compute the delivery time for a packet handed to the source NIC at
    /// `sent_at`, updating whatever serialization state (NIC injection,
    /// FIFO floors, link clocks) the model maintains.
    fn delivery_time(
        &mut self,
        sent_at: SimTime,
        src: &NodeHw,
        dst: &NodeHw,
        packet: &Packet,
    ) -> SimTime;

    /// A strict lower bound on the delivery delay of *any* packet between
    /// nodes drawn from `hws` — the conservative parallel executor's
    /// lookahead.
    fn min_delivery_delay(&self, hws: &[NodeHw]) -> SimDuration;
}

/// Once the FIFO-floor map crosses this many entries, floors that can no
/// longer influence an arrival (entries at or below the send-time
/// watermark) are pruned. Keeps `last_delivery` bounded by the number of
/// pairs *in flight around the same sim time* instead of O(all pairs ever
/// used), which at 64k ranks is the difference between ~10^5 and ~10^9
/// potential entries.
const FLOOR_PRUNE_LIMIT: usize = 65_536;

/// The network: one cut-through crossbar switch connecting every node.
///
/// `delivery_delay` returns how long after the *host hands the packet to the
/// NIC* the packet is available in the destination's receive queue. GM
/// delivers packets of one priority in order per (src, dst) pair;
/// [`Network::delivery_time`] additionally serializes per ordered pair to
/// preserve that guarantee even when a small packet follows a large one.
#[derive(Debug, Clone)]
pub struct Network {
    cost: CostModel,
    /// Earliest next delivery time per (src, dst), enforcing FIFO order.
    last_delivery: FxHashMap<(u32, u32), SimTime>,
    /// When each source NIC's injection path frees up, indexed by source
    /// rank (grown on first use): a NIC DMAs one packet at a time, so
    /// bursts (e.g. a bcast root's fan-out) serialize.
    tx_free: Vec<SimTime>,
    packets_carried: u64,
    bytes_carried: u64,
    /// Highest `sent_at` observed: everything at or below this time can no
    /// longer raise an arrival (DES event times are non-decreasing per
    /// executor), so floors under it are dead weight and prunable.
    watermark: SimTime,
    floors_pruned: u64,
    trace: TraceHandle,
}

impl Network {
    /// A network using the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Network {
            cost,
            last_delivery: FxHashMap::default(),
            tx_free: Vec::new(),
            packets_carried: 0,
            bytes_carried: 0,
            watermark: SimTime::ZERO,
            floors_pruned: 0,
            trace: TraceHandle::default(),
        }
    }

    /// Emit per-segment delivery pipeline costs (source PCI DMA, source
    /// NIC, wire, destination NIC, destination PCI DMA) to `trace` as
    /// [`TraceEvent::WireSegment`] events charged to the source rank.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The injection (source-side) portion of a packet's path: source PCI
    /// transfer plus LANai processing. This occupies the source NIC
    /// exclusively.
    pub fn tx_time(&self, src: &NodeHw, packet: &Packet) -> SimDuration {
        let bytes = packet.wire_bytes() as f64;
        let src_pci = self.cost.pci_per_byte_us * src.pci.per_byte_scale() * bytes;
        let src_nic = self.cost.nic_per_packet_us * src.lanai.per_packet_scale();
        SimDuration::from_us_f64(src_pci + src_nic)
    }

    /// The raw path latency of `packet` from `src` hardware to `dst`
    /// hardware, ignoring FIFO serialization: source PCI + source NIC +
    /// switch/wire + destination NIC + destination PCI.
    pub fn delivery_delay(&self, src: &NodeHw, dst: &NodeHw, packet: &Packet) -> SimDuration {
        let bytes = packet.wire_bytes() as f64;
        let src_pci = self.cost.pci_per_byte_us * src.pci.per_byte_scale() * bytes;
        let dst_pci = self.cost.pci_per_byte_us * dst.pci.per_byte_scale() * bytes;
        let src_nic = self.cost.nic_per_packet_us * src.lanai.per_packet_scale();
        let dst_nic = self.cost.nic_per_packet_us * dst.lanai.per_packet_scale();
        let wire = self.cost.switch_us + self.cost.wire_per_byte_us * bytes;
        SimDuration::from_us_f64(src_pci + src_nic + wire + dst_nic + dst_pci)
    }

    /// Compute the delivery time for a packet handed to the source NIC at
    /// `sent_at`, and record it so a later packet on the same (src, dst)
    /// pair can never arrive earlier (GM FIFO guarantee).
    pub fn delivery_time(
        &mut self,
        sent_at: SimTime,
        src: &NodeHw,
        dst: &NodeHw,
        packet: &Packet,
    ) -> SimTime {
        // The source NIC injects one packet at a time: a burst handed to it
        // back-to-back drains serially through PCI + LANai.
        let src_id = packet.header.src.0;
        let src_ix = src_id as usize;
        if src_ix >= self.tx_free.len() {
            self.tx_free.resize(src_ix + 1, SimTime::ZERO);
        }
        let tx_start = sent_at.max(self.tx_free[src_ix]);
        let tx_done = tx_start + self.tx_time(src, packet);
        self.tx_free[src_ix] = tx_done;
        let rest = self.delivery_delay(src, dst, packet) - self.tx_time(src, packet);
        let nominal = tx_done + rest;
        let key = (src_id, packet.header.dst.0);
        let floor = self
            .last_delivery
            .get(&key)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let arrival = nominal.max(floor);
        self.last_delivery.insert(key, arrival);
        self.packets_carried += 1;
        self.bytes_carried += packet.wire_bytes() as u64;
        self.watermark = self.watermark.max(sent_at);
        if self.last_delivery.len() > FLOOR_PRUNE_LIMIT {
            // A floor at or below the watermark can never exceed a future
            // `nominal` (which is strictly later than any future `sent_at`,
            // itself >= watermark), so `max(nominal, floor)` is the identity
            // and the entry is droppable without changing any arrival.
            let wm = self.watermark;
            let before = self.last_delivery.len();
            self.last_delivery.retain(|_, v| *v > wm);
            self.floors_pruned += (before - self.last_delivery.len()) as u64;
        }
        if self.trace.is_enabled() {
            let bytes = packet.wire_bytes() as f64;
            let dst_id = packet.header.dst.0;
            let seg = |us: f64| SimDuration::from_us_f64(us).as_nanos();
            let segments = [
                (
                    "src-pci",
                    seg(self.cost.pci_per_byte_us * src.pci.per_byte_scale() * bytes),
                ),
                (
                    "src-nic",
                    seg(self.cost.nic_per_packet_us * src.lanai.per_packet_scale()),
                ),
                (
                    "wire",
                    seg(self.cost.switch_us + self.cost.wire_per_byte_us * bytes),
                ),
                (
                    "dst-nic",
                    seg(self.cost.nic_per_packet_us * dst.lanai.per_packet_scale()),
                ),
                (
                    "dst-pci",
                    seg(self.cost.pci_per_byte_us * dst.pci.per_byte_scale() * bytes),
                ),
            ];
            for (segment, nanos) in segments {
                self.trace.emit_for(
                    src_id,
                    TraceEvent::WireSegment {
                        dst: dst_id,
                        segment,
                        nanos,
                    },
                );
            }
        }
        arrival
    }

    /// A strict lower bound on the delivery delay of *any* packet between
    /// nodes drawn from `hws` — the conservative parallel executor's
    /// lookahead. Computed as the raw path latency of a header-only packet
    /// over the fastest pair of hardware classes present; FIFO serialization
    /// and payload bytes only ever add to that.
    pub fn min_delivery_delay(&self, hws: &[NodeHw]) -> SimDuration {
        // Dedup the (few) hardware classes so this stays O(classes^2) even
        // for 64k-rank clusters.
        let mut classes: Vec<NodeHw> = Vec::new();
        for hw in hws {
            if !classes.iter().any(|c| c == hw) {
                classes.push(*hw);
            }
        }
        let probe = Packet::new(
            PacketHeader {
                src: NodeId(0),
                dst: NodeId(0),
                kind: PacketKind::Eager,
                context: 0,
                tag: 0,
                coll_seq: 0,
                coll_root: 0,
                msg_len: 0,
                wire_seq: 0,
                rel_seq: 0,
            },
            Bytes::new(),
        );
        let mut best: Option<SimDuration> = None;
        for src in &classes {
            for dst in &classes {
                let d = self.delivery_delay(src, dst, &probe);
                best = Some(match best {
                    Some(b) if b <= d => b,
                    _ => d,
                });
            }
        }
        best.unwrap_or(SimDuration::ZERO)
    }

    /// Fold another network's state into this one: counters sum, and the
    /// FIFO floors / NIC-free times take the per-pair / per-source
    /// maximum. Used when merging the per-shard networks of a parallel run
    /// back into one (the shards' key spaces are disjoint because each
    /// entry is owned by its source rank's shard, so the maximum is just a
    /// defensive union).
    pub fn absorb(&mut self, other: &Network) {
        self.packets_carried += other.packets_carried;
        self.bytes_carried += other.bytes_carried;
        self.watermark = self.watermark.max(other.watermark);
        self.floors_pruned += other.floors_pruned;
        for (&k, &v) in &other.last_delivery {
            let e = self.last_delivery.entry(k).or_insert(v);
            *e = (*e).max(v);
        }
        if self.tx_free.len() < other.tx_free.len() {
            self.tx_free.resize(other.tx_free.len(), SimTime::ZERO);
        }
        for (t, &o) in self.tx_free.iter_mut().zip(&other.tx_free) {
            *t = (*t).max(o);
        }
    }

    /// Packets carried so far.
    pub fn packets_carried(&self) -> u64 {
        self.packets_carried
    }

    /// Wire bytes carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Live FIFO-floor entries currently held (per-(src,dst) map size).
    pub fn floor_entries(&self) -> usize {
        self.last_delivery.len()
    }

    /// Dead FIFO floors reclaimed by watermark pruning so far.
    pub fn floors_pruned(&self) -> u64 {
        self.floors_pruned
    }

    /// Record a packet carried by an outer model (e.g. the contended
    /// fabric) that computed the wire path itself but still wants the
    /// carried-traffic counters to live in one place.
    pub fn record_carried(&mut self, wire_bytes: u64) {
        self.packets_carried += 1;
        self.bytes_carried += wire_bytes;
    }

    /// The installed trace handle (shared with outer models).
    pub fn tracer(&self) -> &TraceHandle {
        &self.trace
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

impl LinkCost for Network {
    fn delivery_time(
        &mut self,
        sent_at: SimTime,
        src: &NodeHw,
        dst: &NodeHw,
        packet: &Packet,
    ) -> SimTime {
        Network::delivery_time(self, sent_at, src, dst, packet)
    }

    fn min_delivery_delay(&self, hws: &[NodeHw]) -> SimDuration {
        Network::min_delivery_delay(self, hws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketHeader, PacketKind};
    use bytes::Bytes;

    fn packet(src: u32, dst: u32, len: usize) -> Packet {
        Packet::new(
            PacketHeader {
                src: NodeId(src),
                dst: NodeId(dst),
                kind: PacketKind::Eager,
                context: 0,
                tag: 0,
                coll_seq: 0,
                coll_root: 0,
                msg_len: len as u32,
                wire_seq: 0,
                rel_seq: 0,
            },
            Bytes::from(vec![0u8; len]),
        )
    }

    #[test]
    fn narrow_pci_is_slower() {
        let net = Network::new(CostModel::default());
        let wide = NodeHw::p3_700();
        let narrow = NodeHw::p3_1000();
        let p = packet(0, 1, 1024);
        assert!(net.delivery_delay(&narrow, &narrow, &p) > net.delivery_delay(&wide, &wide, &p));
    }

    #[test]
    fn older_lanai_is_slower() {
        let net = Network::new(CostModel::default());
        let l91 = NodeHw::p3_1000();
        let l92 = NodeHw::p3_1000_l92();
        let p = packet(0, 1, 8);
        assert!(net.delivery_delay(&l91, &l91, &p) > net.delivery_delay(&l92, &l92, &p));
    }

    #[test]
    fn small_message_latency_is_2003_plausible() {
        let net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        let d = net.delivery_delay(&hw, &hw, &packet(0, 1, 8)).as_us_f64();
        assert!(
            (2.0..12.0).contains(&d),
            "8-byte path latency {d}us is implausible for Myrinet-2000"
        );
    }

    #[test]
    fn larger_packets_take_longer() {
        let net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        assert!(
            net.delivery_delay(&hw, &hw, &packet(0, 1, 1024))
                > net.delivery_delay(&hw, &hw, &packet(0, 1, 8))
        );
    }

    #[test]
    fn fifo_order_is_enforced_per_pair() {
        let mut net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        // Big packet sent first, tiny packet right after: the tiny one's
        // nominal arrival would be earlier, but FIFO must hold.
        let t0 = SimTime::from_us(100);
        let big = net.delivery_time(t0, &hw, &hw, &packet(0, 1, 64 * 1024));
        let small = net.delivery_time(t0 + SimDuration::from_us(1), &hw, &hw, &packet(0, 1, 8));
        assert!(
            small >= big,
            "FIFO violated: small {small:?} before big {big:?}"
        );
    }

    #[test]
    fn fifo_does_not_couple_distinct_pairs() {
        let mut net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        let t0 = SimTime::from_us(100);
        let big = net.delivery_time(t0, &hw, &hw, &packet(0, 1, 64 * 1024));
        // Different destination: unaffected by the 0->1 backlog.
        let other = net.delivery_time(t0 + SimDuration::from_us(1), &hw, &hw, &packet(0, 2, 8));
        assert!(other < big);
        // Reverse direction is its own channel too.
        let reverse = net.delivery_time(t0 + SimDuration::from_us(1), &hw, &hw, &packet(1, 0, 8));
        assert!(reverse < big);
    }

    #[test]
    fn source_nic_serializes_bursts() {
        let mut net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        let t0 = SimTime::from_us(10);
        // A fan-out burst to distinct destinations still serializes at the
        // source NIC's injection path.
        let a1 = net.delivery_time(t0, &hw, &hw, &packet(0, 1, 1024));
        let a2 = net.delivery_time(t0, &hw, &hw, &packet(0, 2, 1024));
        let a3 = net.delivery_time(t0, &hw, &hw, &packet(0, 3, 1024));
        assert!(a2 > a1);
        assert!(a3 > a2);
        let gap = a3 - a2;
        let tx = net.tx_time(&hw, &packet(0, 3, 1024));
        assert_eq!(gap, tx, "burst spacing equals the per-packet TX time");
        // A different source is unaffected.
        let b = net.delivery_time(t0, &hw, &hw, &packet(5, 1, 1024));
        assert!(b < a3);
    }

    #[test]
    fn min_delivery_delay_bounds_every_packet() {
        let mut net = Network::new(CostModel::default());
        let hws = [NodeHw::p3_700(), NodeHw::p3_1000(), NodeHw::p3_1000_l92()];
        let lookahead = net.min_delivery_delay(&hws);
        assert!(!lookahead.is_zero());
        for (si, src) in hws.iter().enumerate() {
            for dst in &hws {
                for len in [0usize, 8, 1024, 64 * 1024] {
                    let t0 = SimTime::from_us(50);
                    let arrive = net.delivery_time(t0, src, dst, &packet(si as u32, 9, len));
                    assert!(
                        arrive >= t0 + lookahead,
                        "packet arrived before the lookahead bound"
                    );
                }
            }
        }
        assert_eq!(net.min_delivery_delay(&[]), SimDuration::ZERO);
    }

    #[test]
    fn absorb_sums_counters_and_unions_floors() {
        let hw = NodeHw::p3_700();
        let mut a = Network::new(CostModel::default());
        let mut b = Network::new(CostModel::default());
        let t1 = a.delivery_time(SimTime::ZERO, &hw, &hw, &packet(0, 1, 100));
        let t2 = b.delivery_time(SimTime::from_us(5), &hw, &hw, &packet(2, 1, 50));
        a.absorb(&b);
        assert_eq!(a.packets_carried(), 2);
        assert_eq!(a.bytes_carried(), (100 + 32 + 50 + 32) as u64);
        // Floors from both halves survive the merge.
        assert_eq!(a.last_delivery.get(&(0, 1)), Some(&t1));
        assert_eq!(a.last_delivery.get(&(2, 1)), Some(&t2));
        // So do both halves' NIC-free times; rank 1 never sent.
        assert_eq!(
            a.tx_free[0],
            SimTime::ZERO + a.tx_time(&hw, &packet(0, 1, 100))
        );
        assert_eq!(
            a.tx_free[2],
            SimTime::from_us(5) + a.tx_time(&hw, &packet(2, 1, 50))
        );
        assert_eq!(a.tx_free[1], SimTime::ZERO);
    }

    #[test]
    fn counters_accumulate() {
        let mut net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        net.delivery_time(SimTime::ZERO, &hw, &hw, &packet(0, 1, 100));
        net.delivery_time(SimTime::ZERO, &hw, &hw, &packet(1, 0, 50));
        assert_eq!(net.packets_carried(), 2);
        assert_eq!(net.bytes_carried(), (100 + 32 + 50 + 32) as u64);
    }

    #[test]
    fn floor_map_stays_bounded_under_many_pairs() {
        let mut net = Network::new(CostModel::default());
        let hw = NodeHw::p3_700();
        // Distinct (src, dst) pairs at advancing sim times: the map would
        // grow O(pairs) without pruning. Spacing the sends far apart keeps
        // each floor behind the watermark by the time the limit trips.
        let pairs = (FLOOR_PRUNE_LIMIT + 4_096) as u32;
        for i in 0..pairs {
            let t = SimTime::from_us(u64::from(i) * 1_000);
            net.delivery_time(t, &hw, &hw, &packet(i, i + 1, 8));
        }
        assert!(
            net.floor_entries() <= FLOOR_PRUNE_LIMIT + 1,
            "floor map grew unbounded: {} entries",
            net.floor_entries()
        );
        assert!(net.floors_pruned() > 0);
        assert_eq!(net.packets_carried(), u64::from(pairs));
        // Pruning only drops *dead* floors: a pair with in-flight backlog
        // keeps its FIFO guarantee.
        let t0 = SimTime::from_us(u64::from(pairs) * 1_000);
        let big = net.delivery_time(t0, &hw, &hw, &packet(0, 1, 64 * 1024));
        let small = net.delivery_time(t0 + SimDuration::from_us(1), &hw, &hw, &packet(0, 1, 8));
        assert!(small >= big);
    }

    #[test]
    fn cpu_scaling_on_node_hw() {
        let slow = NodeHw::p3_700();
        let fast = NodeHw::p3_1000();
        let base = SimDuration::from_us(7);
        assert!(slow.scale_cpu(base) > fast.scale_cpu(base));
        assert_eq!(fast.scale_cpu(base), base);
    }
}
