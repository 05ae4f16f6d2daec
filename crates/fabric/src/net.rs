//! The contended delivery-time model: static routing over the fabric
//! graph plus per-link busy-until serialization.
//!
//! [`FabricNetwork`] wraps the legacy [`Network`] and implements
//! [`LinkCost`]. With a [`FabricKind::Flat`] spec it forwards every call
//! to the wrapped model, so flat-fabric runs are bit-identical to the
//! pre-fabric driver by construction. Contended kinds keep the endpoint
//! pipeline (source PCI+NIC injection serialization, destination NIC+PCI,
//! per-(src,dst) FIFO floors) and replace the single ideal wire with the
//! routed path:
//!
//! * each link `l` on the route has a capacity factor `cap[l]` in units
//!   of host-link bandwidth; crossing it takes
//!   `bytes * wire_per_byte_us / cap[l]`,
//! * a link is busy until its previous packet clears: `start =
//!   max(t, busy[l]); busy[l] = start + xfer` — concurrent packets on a
//!   shared link serialize, and the waits are counted (and traced as
//!   [`TraceEvent::LinkWait`] when tracing is on),
//! * every traversed switch adds the cost model's `switch_us`.
//!
//! Same-node pairs never enter the fabric: they are charged exactly the
//! flat formula, which also makes the flat model's
//! [`Network::min_delivery_delay`] a valid lower bound (and therefore a
//! safe conservative lookahead) for every contended route — each route
//! crosses at least one full-rate link's worth of serialization and one
//! switch.
//!
//! Link clocks are global, order-sensitive state. The DES driver refuses
//! to combine a contended fabric with the sharded executor rather than
//! let per-shard clocks drift (see `run_auto` in `abr_cluster`).

use crate::spec::{FabricKind, FabricSpec, Placement};
use abr_des::{SimDuration, SimTime};
use abr_gm::nic::LinkCost;
use abr_gm::{CostModel, FifoFloors, Network, NodeHw, Packet};
use abr_trace::TraceEvent;

/// The routed switch/link graph shared by both contended kinds.
///
/// Links are identified by dense ids; `cap[id]` is the link's bandwidth
/// in host-link units (an oversubscribed uplink aggregating `m` members
/// gets `m / oversub`).
#[derive(Debug, Clone)]
struct Topo {
    kind: FabricKind,
    nodes_per_switch: u32,
    switches_per_pod: u32,
    num_nodes: u32,
    num_switches: u32,
    cap: Vec<f64>,
}

impl Topo {
    fn new(spec: &FabricSpec, num_nodes: u32) -> Topo {
        let s = spec.nodes_per_switch;
        let p = spec.switches_per_pod;
        let num_switches = num_nodes.div_ceil(s);
        let num_pods = num_switches.div_ceil(p);
        let mut cap = Vec::new();
        // Host links: one up + one down per node, full rate.
        cap.resize(2 * num_nodes as usize, 1.0);
        match spec.kind {
            FabricKind::Flat => unreachable!("flat fabrics build no graph"),
            FabricKind::FatTree => {
                // Edge→aggregation uplinks aggregate the switch's nodes;
                // pod→core uplinks aggregate the pod's nodes.
                let edge = f64::from(s) / spec.oversub;
                let pod = f64::from(s * p) / spec.oversub;
                cap.resize(cap.len() + 2 * num_switches as usize, edge);
                cap.resize(cap.len() + 2 * num_pods as usize, pod);
            }
            FabricKind::Dragonfly => {
                // One local channel per router (full rate per member
                // node), one global up/down pair per group.
                let local = f64::from(s);
                let global = f64::from(s * p) / spec.oversub;
                cap.resize(cap.len() + num_switches as usize, local);
                cap.resize(cap.len() + 2 * num_pods as usize, global);
            }
        }
        Topo {
            kind: spec.kind,
            nodes_per_switch: s,
            switches_per_pod: p,
            num_nodes,
            num_switches,
            cap,
        }
    }

    fn host_up(&self, node: u32) -> u32 {
        2 * node
    }

    fn host_down(&self, node: u32) -> u32 {
        2 * node + 1
    }

    /// Fat-tree edge uplink / dragonfly local channel base.
    fn mid_base(&self) -> u32 {
        2 * self.num_nodes
    }

    fn top_base(&self) -> u32 {
        match self.kind {
            FabricKind::FatTree => self.mid_base() + 2 * self.num_switches,
            FabricKind::Dragonfly => self.mid_base() + self.num_switches,
            FabricKind::Flat => unreachable!(),
        }
    }

    /// Static route between two distinct nodes: the traversed link ids
    /// (in order) pushed into `out`, returning the number of switch hops.
    fn route(&self, src_node: u32, dst_node: u32, out: &mut Vec<u32>) -> u32 {
        debug_assert_ne!(src_node, dst_node, "same-node pairs bypass the fabric");
        let s = self.nodes_per_switch;
        let p = self.switches_per_pod;
        let (es, ed) = (src_node / s, dst_node / s);
        out.push(self.host_up(src_node));
        let hops = match self.kind {
            FabricKind::Flat => unreachable!(),
            FabricKind::FatTree => {
                if es == ed {
                    1
                } else {
                    let (ps, pd) = (es / p, ed / p);
                    out.push(self.mid_base() + 2 * es); // edge uplink
                    if ps != pd {
                        out.push(self.top_base() + 2 * ps); // pod→core
                        out.push(self.top_base() + 2 * pd + 1); // core→pod
                    }
                    out.push(self.mid_base() + 2 * ed + 1); // agg→edge
                    if ps == pd {
                        3
                    } else {
                        5
                    }
                }
            }
            FabricKind::Dragonfly => {
                if es == ed {
                    1
                } else {
                    let (gs, gd) = (es / p, ed / p);
                    out.push(self.mid_base() + es); // source router local
                    if gs != gd {
                        out.push(self.top_base() + 2 * gs); // global out
                        out.push(self.top_base() + 2 * gd + 1); // global in
                    }
                    out.push(self.mid_base() + ed); // dest router local
                    if gs == gd {
                        2
                    } else {
                        3
                    }
                }
            }
        };
        out.push(self.host_down(dst_node));
        hops
    }
}

/// Contended per-run state: link clocks plus the endpoint serialization
/// maps the flat model would otherwise keep.
#[derive(Debug, Clone)]
struct Contended {
    place: Placement,
    topo: Topo,
    /// Per-link busy-until clock.
    busy: Vec<SimTime>,
    /// Source-NIC injection free times, indexed by source rank (same
    /// semantics as the flat model).
    tx_free: Vec<SimTime>,
    /// Per-(src,dst) FIFO delivery floors.
    floors: FifoFloors,
    route_buf: Vec<u32>,
    link_waits: u64,
    link_wait_ns: u64,
}

/// A fabric-aware [`LinkCost`] model.
///
/// Flat kind: pure delegation to the wrapped [`Network`]. Contended
/// kinds: routed, link-serialized delivery as described in the module
/// docs.
#[derive(Debug, Clone)]
pub struct FabricNetwork {
    inner: Network,
    spec: FabricSpec,
    n_ranks: u32,
    contended: Option<Contended>,
}

impl FabricNetwork {
    /// Build a fabric for `n_ranks` ranks over the given cost model.
    pub fn new(cost: CostModel, spec: FabricSpec, n_ranks: u32) -> Self {
        let contended = if spec.is_flat() {
            None
        } else {
            let place = Placement::new(spec.placement, n_ranks.max(1), spec.ranks_per_node);
            let topo = Topo::new(&spec, place.num_nodes());
            let busy = vec![SimTime::ZERO; topo.cap.len()];
            Some(Contended {
                place,
                topo,
                busy,
                tx_free: vec![SimTime::ZERO; n_ranks.max(1) as usize],
                floors: FifoFloors::new(),
                route_buf: Vec::with_capacity(8),
                link_waits: 0,
                link_wait_ns: 0,
            })
        };
        FabricNetwork {
            inner: Network::new(cost),
            spec,
            n_ranks,
            contended,
        }
    }

    /// A flat (legacy-identical) fabric.
    pub fn flat(cost: CostModel, n_ranks: u32) -> Self {
        FabricNetwork::new(cost, FabricSpec::flat(), n_ranks)
    }

    /// True when every call delegates to the legacy crossbar model.
    pub fn is_flat(&self) -> bool {
        self.contended.is_none()
    }

    /// The configured spec.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        self.inner.cost()
    }

    /// Install a tracer; contended runs additionally emit
    /// [`TraceEvent::LinkWait`] through it.
    pub fn set_tracer(&mut self, trace: abr_trace::TraceHandle) {
        self.inner.set_tracer(trace);
    }

    /// Packets carried so far (all kinds).
    pub fn packets_carried(&self) -> u64 {
        self.inner.packets_carried()
    }

    /// Wire bytes carried so far (all kinds).
    pub fn bytes_carried(&self) -> u64 {
        self.inner.bytes_carried()
    }

    /// Live FIFO-floor entries across the flat and contended maps.
    pub fn floor_entries(&self) -> usize {
        self.inner.floor_entries() + self.contended.as_ref().map_or(0, |c| c.floors.len())
    }

    /// Dead FIFO floors reclaimed by watermark pruning so far.
    pub fn floors_pruned(&self) -> u64 {
        self.inner.floors_pruned() + self.contended.as_ref().map_or(0, |c| c.floors.pruned())
    }

    /// Times a packet queued behind a busy fabric link.
    pub fn link_waits(&self) -> u64 {
        self.contended.as_ref().map_or(0, |c| c.link_waits)
    }

    /// Total time spent queued on fabric links, microseconds.
    pub fn link_wait_us(&self) -> f64 {
        self.contended.as_ref().map_or(0, |c| c.link_wait_ns) as f64 / 1_000.0
    }

    /// Total fabric links (0 for flat).
    pub fn num_links(&self) -> usize {
        self.contended.as_ref().map_or(0, |c| c.topo.cap.len())
    }

    /// The static route between two ranks: traversed link ids plus
    /// switch-hop count. `None` for flat fabrics or same-node pairs
    /// (which bypass the fabric entirely).
    pub fn route_of(&self, src_rank: u32, dst_rank: u32) -> Option<(Vec<u32>, u32)> {
        let c = self.contended.as_ref()?;
        let (ns, nd) = (c.place.node_of(src_rank), c.place.node_of(dst_rank));
        if ns == nd {
            return None;
        }
        let mut links = Vec::with_capacity(8);
        let hops = c.topo.route(ns, nd, &mut links);
        Some((links, hops))
    }

    /// The node hosting `rank` (placement map), if contended.
    pub fn node_of(&self, rank: u32) -> Option<u32> {
        self.contended.as_ref().map(|c| c.place.node_of(rank))
    }

    /// A fresh network with the same cost model and spec but no
    /// accumulated serialization state (used when splitting a run into
    /// per-shard networks).
    pub fn fresh_like(&self) -> FabricNetwork {
        FabricNetwork::new(self.inner.cost().clone(), self.spec.clone(), self.n_ranks)
    }

    /// Fold another fabric's state into this one (counters sum, clocks
    /// and floors take per-key maxima). Only flat fabrics are ever
    /// merged in practice — the driver rejects sharding for contended
    /// kinds — but the merge is total for safety.
    pub fn absorb(&mut self, other: &FabricNetwork) {
        self.inner.absorb(&other.inner);
        if let (Some(a), Some(b)) = (self.contended.as_mut(), other.contended.as_ref()) {
            for (x, y) in a.busy.iter_mut().zip(&b.busy) {
                *x = (*x).max(*y);
            }
            a.floors.absorb(&b.floors);
            for (x, y) in a.tx_free.iter_mut().zip(&b.tx_free) {
                *x = (*x).max(*y);
            }
            a.link_waits += b.link_waits;
            a.link_wait_ns += b.link_wait_ns;
        }
    }
}

impl LinkCost for FabricNetwork {
    fn delivery_time(
        &mut self,
        sent_at: SimTime,
        src: &NodeHw,
        dst: &NodeHw,
        packet: &Packet,
    ) -> SimTime {
        let FabricNetwork {
            inner, contended, ..
        } = self;
        let Some(c) = contended.as_mut() else {
            return inner.delivery_time(sent_at, src, dst, packet);
        };
        let src_id = packet.header.src.0;
        let dst_id = packet.header.dst.0;
        let (src_node, dst_node) = (c.place.node_of(src_id), c.place.node_of(dst_id));

        // Source NIC injection serializes exactly as on the flat model.
        let tx = inner.tx_time(src, packet);
        let tx_done = sent_at.max(c.tx_free[src_id as usize]) + tx;
        c.tx_free[src_id as usize] = tx_done;

        let cost = inner.cost();
        let bytes = packet.wire_bytes() as f64;
        let nominal = if src_node == dst_node {
            // Same node: no fabric links; charge the flat path verbatim
            // (one switch, one uncontended wire, endpoint pipelines).
            tx_done + (inner.delivery_delay(src, dst, packet) - tx)
        } else {
            c.route_buf.clear();
            let mut links = std::mem::take(&mut c.route_buf);
            let hops = c.topo.route(src_node, dst_node, &mut links);
            let mut t = tx_done;
            for &link in &links {
                let ready = c.busy[link as usize];
                if ready > t {
                    let wait = ready - t;
                    c.link_waits += 1;
                    c.link_wait_ns += wait.as_nanos();
                    if inner.tracer().is_enabled() {
                        inner.tracer().emit_for(
                            src_id,
                            TraceEvent::LinkWait {
                                link,
                                wait_ns: wait.as_nanos(),
                            },
                        );
                    }
                    t = ready;
                }
                let xfer = SimDuration::from_us_f64(
                    cost.wire_per_byte_us * bytes / c.topo.cap[link as usize],
                );
                t += xfer;
                c.busy[link as usize] = t;
            }
            c.route_buf = links;
            // Per-switch forwarding latency plus the receive-side
            // endpoint pipeline (destination NIC + PCI), same constants
            // as the flat model.
            let dst_nic = cost.nic_per_packet_us * dst.lanai.per_packet_scale();
            let dst_pci = cost.pci_per_byte_us * dst.pci.per_byte_scale() * bytes;
            t + SimDuration::from_us_f64(cost.switch_us * f64::from(hops) + dst_nic + dst_pci)
        };

        // GM's per-(src,dst) FIFO guarantee.
        let arrival = c.floors.arrival((src_id, dst_id), sent_at, nominal);
        inner.record_carried(packet.wire_bytes() as u64);
        arrival
    }

    fn min_delivery_delay(&self, hws: &[NodeHw]) -> SimDuration {
        // The flat bound is a strict lower bound for every contended
        // route too: each route serializes at least `bytes` at host
        // rate and crosses at least one switch, and contention and
        // extra hops only add.
        self.inner.min_delivery_delay(hws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_gm::packet::{NodeId, PacketHeader, PacketKind};
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
    fn flat_fabric_is_bit_identical_to_legacy_network() {
        let hw = NodeHw::p3_700();
        let mut legacy = Network::new(CostModel::default());
        let mut fab = FabricNetwork::flat(CostModel::default(), 64);
        for i in 0..200u32 {
            let (s, d, len) = (i % 7, (i * 3 + 1) % 13, (i as usize * 97) % 4096);
            let t = SimTime::from_us(u64::from(i) * 3);
            let p = packet(s, d, len);
            assert_eq!(
                legacy.delivery_time(t, &hw, &hw, &p),
                fab.delivery_time(t, &hw, &hw, &p),
                "flat fabric diverged from legacy at step {i}"
            );
        }
        assert_eq!(legacy.packets_carried(), fab.packets_carried());
        assert_eq!(legacy.bytes_carried(), fab.bytes_carried());
    }

    #[test]
    fn shared_uplink_serializes_concurrent_packets() {
        // 4:1 fat-tree, blocked placement: ranks 0..4 on node 0, ranks
        // 16..20 on node 4 — same pod, different edge switches, so both
        // flows cross the source edge uplink... pick cross-pod peers to
        // guarantee shared pod uplinks instead.
        let mut spec = FabricSpec::fat_tree(4.0);
        spec.placement = crate::PlacementPolicy::Blocked;
        let n = 512u32;
        let mut fab = FabricNetwork::new(CostModel::default(), spec.clone(), n);
        let mut quiet = FabricNetwork::new(CostModel::default(), spec, n);
        let hw = NodeHw::p3_700();
        let t0 = SimTime::from_us(10);
        // Two different sources on the same edge switch send cross-pod
        // at the same instant: they share the edge uplink.
        let a = fab.delivery_time(t0, &hw, &hw, &packet(0, 256, 4096));
        let b = fab.delivery_time(t0, &hw, &hw, &packet(4, 260, 4096));
        // The same second flow alone (no competing first flow) is faster.
        let b_alone = quiet.delivery_time(t0, &hw, &hw, &packet(4, 260, 4096));
        assert!(
            b > b_alone,
            "no serialization on the shared uplink: {b:?} vs {b_alone:?}"
        );
        assert!(fab.link_waits() > 0);
        assert!(fab.link_wait_us() > 0.0);
        let _ = a;
    }

    #[test]
    fn contended_delivery_is_deterministic() {
        let spec = FabricSpec::fat_tree(4.0);
        let hw = NodeHw::p3_700();
        let run = || {
            let mut fab = FabricNetwork::new(CostModel::default(), spec.clone(), 1024);
            let mut out = Vec::new();
            for i in 0..500u32 {
                let p = packet(i % 101, (i * 7 + 3) % 1024, (i as usize * 53) % 2048);
                out.push(fab.delivery_time(SimTime::from_us(u64::from(i)), &hw, &hw, &p));
            }
            (out, fab.link_waits(), fab.link_wait_us())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn min_delivery_delay_bounds_contended_routes() {
        let spec = FabricSpec::fat_tree(4.0);
        let mut fab = FabricNetwork::new(CostModel::default(), spec, 4096);
        let hws = [NodeHw::p3_700(), NodeHw::p3_1000()];
        let bound = fab.min_delivery_delay(&hws);
        assert!(!bound.is_zero());
        for i in 0..400u32 {
            let t0 = SimTime::from_us(100 + u64::from(i));
            let p = packet(i % 97, (i * 11 + 5) % 4096, (i as usize * 31) % 8192);
            let hw = hws[(i % 2) as usize];
            let arrive = fab.delivery_time(t0, &hw, &hws[((i + 1) % 2) as usize], &p);
            assert!(arrive >= t0 + bound, "lookahead bound violated at {i}");
        }
    }

    #[test]
    fn absorb_merges_contended_floors_and_nic_clocks() {
        let hw = NodeHw::p3_700();
        let mut a = FabricNetwork::new(CostModel::default(), FabricSpec::fat_tree(4.0), 64);
        let mut b = a.fresh_like();
        a.delivery_time(SimTime::ZERO, &hw, &hw, &packet(0, 40, 100));
        b.delivery_time(SimTime::from_us(5), &hw, &hw, &packet(2, 40, 50));
        let tx_free = |f: &FabricNetwork, rank: usize| f.contended.as_ref().unwrap().tx_free[rank];
        let (a0, b2) = (tx_free(&a, 0), tx_free(&b, 2));
        a.absorb(&b);
        assert_eq!(tx_free(&a, 0), a0);
        assert_eq!(tx_free(&a, 1), SimTime::ZERO);
        assert_eq!(tx_free(&a, 2), b2);
        // One floor per (src, dst) pair; NIC clocks are not floors.
        assert_eq!(a.floor_entries(), 2);
        assert_eq!(a.packets_carried(), 2);
    }

    #[test]
    fn oversubscription_slows_cross_fabric_traffic() {
        let hw = NodeHw::p3_700();
        let t0 = SimTime::ZERO;
        let time_with = |oversub: f64| {
            let mut fab = FabricNetwork::new(
                CostModel::default(),
                {
                    let mut s = FabricSpec::fat_tree(oversub);
                    s.placement = crate::PlacementPolicy::Blocked;
                    s
                },
                512,
            );
            // A burst of cross-pod packets from the ranks of one edge
            // switch: all share that switch's uplink.
            let mut last = SimTime::ZERO;
            for r in 0..16u32 {
                last = last.max(fab.delivery_time(t0, &hw, &hw, &packet(r, 400 + r, 4096)));
            }
            last
        };
        assert!(
            time_with(8.0) > time_with(1.0),
            "an 8:1 fabric should be slower than full bisection"
        );
    }
}
