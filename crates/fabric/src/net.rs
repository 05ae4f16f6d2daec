//! The delivery-time model: one type for the flat crossbar and the
//! contended fabrics.
//!
//! [`FabricNetwork::delivery_time`] runs the same steps for every packet:
//!
//! 1. **NIC injection.** The source NIC injects one packet at a time: a
//!    burst handed to it back-to-back drains serially through PCI + LANai
//!    ([`PathCost::tx`]), on one busy-until clock per source.
//! 2. **Nominal arrival.** With no link graph (a flat spec), or for a
//!    pair on one node, the packet takes the crossbar formula: the
//!    remainder of its [`PathCost`] after injection. On a contended
//!    fabric a cross-node packet instead follows its static route:
//!    * each link `l` on the route has a capacity factor `cap[l]` in units
//!      of host-link bandwidth; crossing it takes
//!      `bytes * wire_per_byte_us / cap[l]`,
//!    * a link is busy until its previous packet clears: `start =
//!      max(t, busy[l]); busy[l] = start + xfer` — concurrent packets on a
//!      shared link serialize, and the waits are counted (and traced as
//!      [`TraceEvent::LinkWait`] when tracing is on),
//!    * every traversed switch adds the cost model's `switch_us`, then the
//!      destination NIC and PCI hand the packet to the host.
//! 3. **FIFO floor.** GM delivers packets of one priority in order per
//!    (src, dst) pair, so the arrival is raised to the pair's previous one
//!    (`FifoFloors`) even when a small packet follows a large one. Floors
//!    live in one row per sender; a floor at or below the sender's
//!    injection end is dead (every later packet from that sender leaves
//!    its NIC after it) and is dropped before the lookup, so a row holds
//!    only the pairs still in flight.
//! 4. **Counters**: packets and wire bytes carried.
//! 5. **Trace**: five [`TraceEvent::WireSegment`] records (source PCI,
//!    source NIC, wire, destination NIC, destination PCI). On a routed
//!    path `wire` is the switch hops plus each link's transfer; queueing
//!    is reported by the `LinkWait` records alone.
//!
//! The crossbar formula is a lower bound for every routed path too (each
//! route serializes the bytes at no more than host rate on its host links
//! and crosses at least one switch), so
//! [`FabricNetwork::min_delivery_delay`] is a safe conservative lookahead
//! on every kind.
//!
//! Link clocks are global, order-sensitive state. The DES driver refuses
//! to run a contended fabric on more than one shard rather than let
//! per-shard clocks drift (see `DesDriver::run_sharded` in `abr_cluster`).

use crate::spec::{FabricKind, FabricSpec, Placement};
use abr_des::{SimDuration, SimTime};
use abr_gm::packet::HEADER_WIRE_BYTES;
use abr_gm::{CostModel, NodeHw, PathCost};
use abr_trace::{TraceEvent, TraceHandle};

/// Per-sender FIFO delivery floors: for each source endpoint, the latest
/// arrival handed out to each destination that is still in flight, so a
/// later packet on the pair can never arrive earlier (GM's in-order
/// guarantee).
///
/// Rows are indexed like the NIC clocks. Before each lookup the sender's
/// row drops every floor at or below the packet's injection end
/// (`tx_done`): the sender's NIC clock only moves forward, so every later
/// packet from it leaves its NIC after `tx_done` and arrives later still,
/// and such a floor can never raise an arrival again. This holds for any
/// order of send stamps across ranks, so dropping never changes an
/// arrival, and a row holds only the floors still in flight (usually 0–2).
#[derive(Debug, Clone)]
struct FifoFloors {
    /// `rows[src]`: `(dst, arrival)` for each of `src`'s in-flight pairs.
    rows: Vec<Vec<(u32, SimTime)>>,
    /// Floors dropped as dead so far.
    dropped: u64,
}

impl FifoFloors {
    fn new(n_senders: usize) -> Self {
        FifoFloors {
            rows: vec![Vec::new(); n_senders],
            dropped: 0,
        }
    }

    /// The arrival of a packet from `src` to `dst` whose injection ended at
    /// `tx_done` and whose unserialized arrival would be `nominal`
    /// (`nominal >= tx_done`): `nominal` raised to the pair's floor. The
    /// result becomes the pair's new floor.
    #[inline]
    fn arrival(&mut self, src: u32, dst: u32, tx_done: SimTime, nominal: SimTime) -> SimTime {
        let row = &mut self.rows[src as usize];
        let before = row.len();
        row.retain(|&(_, floor)| floor > tx_done);
        self.dropped += (before - row.len()) as u64;
        raise(row, dst, nominal)
    }

    /// Fold another floor set into this one: per-pair maxima, summed
    /// counters.
    fn absorb(&mut self, other: &FifoFloors) {
        for (row, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for &(dst, v) in theirs {
                raise(row, dst, v);
            }
        }
        self.dropped += other.dropped;
    }
}

/// Raise `dst`'s floor in `row` to at least `t` (adding it if absent) and
/// return the floor.
#[inline]
fn raise(row: &mut Vec<(u32, SimTime)>, dst: u32, t: SimTime) -> SimTime {
    match row.iter_mut().find(|(d, _)| *d == dst) {
        Some((_, floor)) => {
            *floor = t.max(*floor);
            *floor
        }
        None => {
            row.push((dst, t));
            t
        }
    }
}

/// The contended kinds, each with its own arm in [`Topo`] (a flat fabric
/// builds no graph).
#[derive(Debug, Clone, Copy)]
enum Routing {
    FatTree,
    Dragonfly,
}

/// The routed switch/link graph shared by both contended kinds.
///
/// Links are identified by dense ids; `cap[id]` is the link's bandwidth
/// in host-link units (an oversubscribed uplink aggregating `m` members
/// gets `m / oversub`).
#[derive(Debug, Clone)]
struct Topo {
    routing: Routing,
    nodes_per_switch: u32,
    switches_per_pod: u32,
    num_nodes: u32,
    num_switches: u32,
    cap: Vec<f64>,
}

impl Topo {
    fn new(routing: Routing, spec: &FabricSpec, num_nodes: u32) -> Topo {
        let s = spec.nodes_per_switch;
        let p = spec.switches_per_pod;
        let num_switches = num_nodes.div_ceil(s);
        let num_pods = num_switches.div_ceil(p);
        let mut cap = Vec::new();
        // Host links: one up + one down per node, full rate.
        cap.resize(2 * num_nodes as usize, 1.0);
        match routing {
            Routing::FatTree => {
                // Edge→aggregation uplinks aggregate the switch's nodes;
                // pod→core uplinks aggregate the pod's nodes.
                let edge = f64::from(s) / spec.oversub;
                let pod = f64::from(s * p) / spec.oversub;
                cap.resize(cap.len() + 2 * num_switches as usize, edge);
                cap.resize(cap.len() + 2 * num_pods as usize, pod);
            }
            Routing::Dragonfly => {
                // One local channel per router (full rate per member
                // node), one global up/down pair per group.
                let local = f64::from(s);
                let global = f64::from(s * p) / spec.oversub;
                cap.resize(cap.len() + num_switches as usize, local);
                cap.resize(cap.len() + 2 * num_pods as usize, global);
            }
        }
        Topo {
            routing,
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
        match self.routing {
            Routing::FatTree => self.mid_base() + 2 * self.num_switches,
            Routing::Dragonfly => self.mid_base() + self.num_switches,
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
        let hops = if es == ed {
            1
        } else {
            match self.routing {
                Routing::FatTree => {
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
                Routing::Dragonfly => {
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

/// The link graph of a contended fabric and its per-run clocks.
#[derive(Debug, Clone)]
struct Routed {
    place: Placement,
    topo: Topo,
    /// Per-link busy-until clock.
    busy: Vec<SimTime>,
    route_buf: Vec<u32>,
}

/// The delivery-time model of the simulated interconnect: the flat
/// crossbar, or a contended fat-tree or dragonfly (see the module docs).
#[derive(Debug, Clone)]
pub struct FabricNetwork {
    cost: CostModel,
    spec: FabricSpec,
    n_ranks: u32,
    /// When each source NIC's injection path frees up, indexed by source
    /// rank.
    tx_free: Vec<SimTime>,
    floors: FifoFloors,
    packets_carried: u64,
    bytes_carried: u64,
    link_waits: u64,
    link_wait_ns: u64,
    trace: TraceHandle,
    /// The link graph; `None` for a flat spec.
    routed: Option<Routed>,
}

impl FabricNetwork {
    /// Build a fabric for `n_ranks` ranks over the given cost model.
    ///
    /// # Panics
    /// For a contended kind, panics naming the field when the spec is
    /// malformed: an `oversub` that is not a finite ratio ≥ 1, or a zero
    /// `ranks_per_node`, `nodes_per_switch` or `switches_per_pod`.
    pub fn new(cost: CostModel, spec: FabricSpec, n_ranks: u32) -> Self {
        let routing = match spec.kind {
            FabricKind::Flat => None,
            FabricKind::FatTree => Some(Routing::FatTree),
            FabricKind::Dragonfly => Some(Routing::Dragonfly),
        };
        let routed = routing.map(|routing| {
            check_shape(&spec);
            let place = Placement::new(spec.placement, n_ranks.max(1), spec.ranks_per_node);
            let topo = Topo::new(routing, &spec, place.num_nodes());
            Routed {
                busy: vec![SimTime::ZERO; topo.cap.len()],
                place,
                topo,
                route_buf: Vec::with_capacity(8),
            }
        });
        FabricNetwork {
            cost,
            spec,
            n_ranks,
            tx_free: vec![SimTime::ZERO; n_ranks.max(1) as usize],
            floors: FifoFloors::new(n_ranks.max(1) as usize),
            packets_carried: 0,
            bytes_carried: 0,
            link_waits: 0,
            link_wait_ns: 0,
            trace: TraceHandle::default(),
            routed,
        }
    }

    /// The configured spec.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Emit each packet's delivery segments (and, on a contended fabric,
    /// its link waits) to `trace`, charged to the source rank.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The time a `wire_bytes`-byte packet handed to rank `src`'s NIC at
    /// `sent_at` is available in rank `dst`'s receive queue. Updates the
    /// source NIC clock, the link clocks on its route, the pair's FIFO
    /// floor and the counters (see the module docs for the steps).
    pub fn delivery_time(
        &mut self,
        sent_at: SimTime,
        src: u32,
        dst: u32,
        src_hw: &NodeHw,
        dst_hw: &NodeHw,
        wire_bytes: u32,
    ) -> SimTime {
        let path = PathCost::new(&self.cost, src_hw, dst_hw, wire_bytes);
        let tx = path.tx();
        let tx_done = sent_at.max(self.tx_free[src as usize]) + tx;
        self.tx_free[src as usize] = tx_done;

        // Same-node pairs never enter the fabric.
        let route = self
            .routed
            .as_mut()
            .map(|r| (r.place.node_of(src), r.place.node_of(dst), r))
            .filter(|&(ns, nd, _)| ns != nd);
        let mut routed_wire = None;
        let nominal = match route {
            Some((src_node, dst_node, r)) => {
                let mut links = std::mem::take(&mut r.route_buf);
                links.clear();
                let hops = r.topo.route(src_node, dst_node, &mut links);
                let bytes = f64::from(wire_bytes);
                let mut t = tx_done;
                let mut xfer_total = SimDuration::ZERO;
                for &link in &links {
                    let ready = r.busy[link as usize];
                    if ready > t {
                        let wait = ready - t;
                        self.link_waits += 1;
                        self.link_wait_ns += wait.as_nanos();
                        self.trace.emit_for(
                            src,
                            TraceEvent::LinkWait {
                                link,
                                wait_ns: wait.as_nanos(),
                            },
                        );
                        t = ready;
                    }
                    let xfer = SimDuration::from_us_f64(
                        self.cost.wire_per_byte_us * bytes / r.topo.cap[link as usize],
                    );
                    t += xfer;
                    xfer_total += xfer;
                    r.busy[link as usize] = t;
                }
                r.route_buf = links;
                let switches = self.cost.switch_us * f64::from(hops);
                routed_wire = Some(SimDuration::from_us_f64(switches) + xfer_total);
                t + SimDuration::from_us_f64(switches + path.dst_nic + path.dst_pci)
            }
            None => tx_done + (path.total() - tx),
        };

        let arrival = self.floors.arrival(src, dst, tx_done, nominal);
        self.packets_carried += 1;
        self.bytes_carried += u64::from(wire_bytes);
        if self.trace.is_enabled() {
            let seg = |us: f64| SimDuration::from_us_f64(us).as_nanos();
            let wire = routed_wire.map_or_else(|| seg(path.wire), SimDuration::as_nanos);
            let segments = [
                ("src-pci", seg(path.src_pci)),
                ("src-nic", seg(path.src_nic)),
                ("wire", wire),
                ("dst-nic", seg(path.dst_nic)),
                ("dst-pci", seg(path.dst_pci)),
            ];
            for (segment, nanos) in segments {
                self.trace.emit_for(
                    src,
                    TraceEvent::WireSegment {
                        dst,
                        segment,
                        nanos,
                    },
                );
            }
        }
        arrival
    }

    /// A strict lower bound on the delivery delay of *any* packet between
    /// nodes drawn from `hws`, on any route — the conservative parallel
    /// executor's lookahead. It is the crossbar latency of a header-only
    /// packet over the fastest pair of hardware classes present; payload
    /// bytes, serialization, extra hops and contention only add to it.
    pub fn min_delivery_delay(&self, hws: &[NodeHw]) -> SimDuration {
        // Dedup the (few) hardware classes so this stays O(classes^2) even
        // for 64k-rank clusters.
        let mut classes: Vec<NodeHw> = Vec::new();
        for hw in hws {
            if !classes.contains(hw) {
                classes.push(*hw);
            }
        }
        let mut best: Option<SimDuration> = None;
        for src in &classes {
            for dst in &classes {
                let d = PathCost::new(&self.cost, src, dst, HEADER_WIRE_BYTES).total();
                best = Some(best.map_or(d, |b| b.min(d)));
            }
        }
        best.unwrap_or(SimDuration::ZERO)
    }

    /// Packets carried so far.
    pub fn packets_carried(&self) -> u64 {
        self.packets_carried
    }

    /// Wire bytes carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// FIFO floors still in flight: pairs whose last arrival is later
    /// than their sender's NIC clock.
    pub fn floor_entries(&self) -> usize {
        self.floors.rows.iter().map(Vec::len).sum()
    }

    /// FIFO floors dropped as dead so far (at or below their sender's
    /// injection end when the sender next transmitted).
    pub fn floors_pruned(&self) -> u64 {
        self.floors.dropped
    }

    /// Times a packet queued behind a busy fabric link.
    pub fn link_waits(&self) -> u64 {
        self.link_waits
    }

    /// Total time spent queued on fabric links, microseconds.
    pub fn link_wait_us(&self) -> f64 {
        self.link_wait_ns as f64 / 1_000.0
    }

    /// Total fabric links (0 for flat).
    pub fn num_links(&self) -> usize {
        self.routed.as_ref().map_or(0, |r| r.topo.cap.len())
    }

    /// The static route between two ranks: traversed link ids plus
    /// switch-hop count. `None` for flat fabrics or same-node pairs
    /// (which take the crossbar formula).
    pub fn route_of(&self, src_rank: u32, dst_rank: u32) -> Option<(Vec<u32>, u32)> {
        let r = self.routed.as_ref()?;
        let (ns, nd) = (r.place.node_of(src_rank), r.place.node_of(dst_rank));
        if ns == nd {
            return None;
        }
        let mut links = Vec::with_capacity(8);
        let hops = r.topo.route(ns, nd, &mut links);
        Some((links, hops))
    }

    /// The node hosting `rank` (placement map), if contended.
    pub fn node_of(&self, rank: u32) -> Option<u32> {
        self.routed.as_ref().map(|r| r.place.node_of(rank))
    }

    /// A fresh network with the same cost model and spec but no
    /// accumulated serialization state (used when splitting a run into
    /// per-shard networks).
    pub fn fresh_like(&self) -> FabricNetwork {
        FabricNetwork::new(self.cost.clone(), self.spec.clone(), self.n_ranks)
    }

    /// Fold another network's state into this one: counters sum, and NIC
    /// clocks, link clocks and FIFO floors take the per-key maximum. Used
    /// when merging the per-shard networks of a parallel run back into one
    /// (the shards' key spaces are disjoint because each entry is owned by
    /// its source rank's shard, so the maximum is just a defensive union).
    /// Only flat networks are ever merged in practice — the driver rejects
    /// sharding for contended kinds — but the merge is total.
    pub fn absorb(&mut self, other: &FabricNetwork) {
        self.packets_carried += other.packets_carried;
        self.bytes_carried += other.bytes_carried;
        self.link_waits += other.link_waits;
        self.link_wait_ns += other.link_wait_ns;
        self.floors.absorb(&other.floors);
        for (t, &o) in self.tx_free.iter_mut().zip(&other.tx_free) {
            *t = (*t).max(o);
        }
        if let (Some(a), Some(b)) = (self.routed.as_mut(), other.routed.as_ref()) {
            for (x, &y) in a.busy.iter_mut().zip(&b.busy) {
                *x = (*x).max(y);
            }
        }
    }
}

/// Fail fast on a contended spec whose shape would otherwise divide by
/// zero or silently zero out link costs.
fn check_shape(spec: &FabricSpec) {
    assert!(
        spec.oversub.is_finite() && spec.oversub >= 1.0,
        "FabricSpec.oversub must be a finite ratio >= 1, got {}",
        spec.oversub
    );
    for (field, v) in [
        ("ranks_per_node", spec.ranks_per_node),
        ("nodes_per_switch", spec.nodes_per_switch),
        ("switches_per_pod", spec.switches_per_pod),
    ] {
        assert!(v > 0, "FabricSpec.{field} must be at least 1, got 0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementPolicy;
    use abr_trace::{RingRecorder, TraceClock};
    use std::collections::HashMap;

    /// Wire bytes of a packet carrying `len` payload bytes.
    fn wire(len: u32) -> u32 {
        len + HEADER_WIRE_BYTES
    }

    fn flat(n_ranks: u32) -> FabricNetwork {
        FabricNetwork::new(CostModel::default(), FabricSpec::flat(), n_ranks)
    }

    fn blocked(mut spec: FabricSpec) -> FabricSpec {
        spec.placement = PlacementPolicy::Blocked;
        spec
    }

    /// Deliver one packet between two ranks of the same hardware class.
    fn send(net: &mut FabricNetwork, t: SimTime, src: u32, dst: u32, len: u32) -> SimTime {
        let hw = NodeHw::p3_700();
        net.delivery_time(t, src, dst, &hw, &hw, wire(len))
    }

    /// The live floor of the pair `src -> dst`, if `src`'s row holds one.
    fn floor_of(net: &FabricNetwork, src: u32, dst: u32) -> Option<SimTime> {
        net.floors.rows[src as usize]
            .iter()
            .find(|&&(d, _)| d == dst)
            .map(|&(_, f)| f)
    }

    /// The legacy crossbar in closed form: a per-source NIC clock, the
    /// uncontended path after injection, one max floor per pair that is
    /// never dropped.
    #[derive(Default)]
    struct Legacy {
        nic: HashMap<u32, SimTime>,
        floor: HashMap<(u32, u32), SimTime>,
    }

    impl Legacy {
        fn send(&mut self, t: SimTime, s: u32, d: u32, len: u32) -> SimTime {
            let hw = NodeHw::p3_700();
            let path = PathCost::new(&CostModel::default(), &hw, &hw, wire(len));
            let nic = self.nic.entry(s).or_insert(SimTime::ZERO);
            *nic = t.max(*nic) + path.tx();
            let f = self.floor.entry((s, d)).or_insert(SimTime::ZERO);
            *f = (*nic + (path.total() - path.tx())).max(*f);
            *f
        }
    }

    #[test]
    fn fifo_order_is_enforced_per_pair() {
        let mut net = flat(2);
        // Big packet sent first, tiny packet right after: the tiny one's
        // nominal arrival would be earlier, but FIFO must hold.
        let t0 = SimTime::from_us(100);
        let big = send(&mut net, t0, 0, 1, 64 * 1024);
        let small = send(&mut net, t0 + SimDuration::from_us(1), 0, 1, 8);
        assert!(
            small >= big,
            "FIFO violated: small {small:?} before big {big:?}"
        );
    }

    #[test]
    fn fifo_order_survives_floor_pruning() {
        // Send stamps are not monotone across ranks (each is `t +
        // cpu_work`), so other ranks' traffic stamped after a pair's last
        // arrival says nothing about that pair's own later packets.
        let others = 65_540u32;
        let mut net = flat(others + 3);
        let big = send(&mut net, SimTime::from_us(100), 0, 1, 64 * 1024);
        let later = big + SimDuration::from_us(1);
        for i in 2..others + 2 {
            send(&mut net, later, i, i + 1, 8);
        }
        let small = send(&mut net, SimTime::from_us(101), 0, 1, 8);
        assert!(
            small >= big,
            "FIFO violated: small {small:?} before big {big:?}"
        );
    }

    #[test]
    fn fifo_does_not_couple_distinct_pairs() {
        let mut net = flat(3);
        let t0 = SimTime::from_us(100);
        let big = send(&mut net, t0, 0, 1, 64 * 1024);
        // Different destination: unaffected by the 0->1 backlog.
        let other = send(&mut net, t0 + SimDuration::from_us(1), 0, 2, 8);
        assert!(other < big);
        // Reverse direction is its own channel too.
        let reverse = send(&mut net, t0 + SimDuration::from_us(1), 1, 0, 8);
        assert!(reverse < big);
    }

    #[test]
    fn source_nic_serializes_bursts() {
        let mut net = flat(6);
        let hw = NodeHw::p3_700();
        let t0 = SimTime::from_us(10);
        // A fan-out burst to distinct destinations still serializes at the
        // source NIC's injection path.
        let a1 = send(&mut net, t0, 0, 1, 1024);
        let a2 = send(&mut net, t0, 0, 2, 1024);
        let a3 = send(&mut net, t0, 0, 3, 1024);
        assert!(a2 > a1);
        assert!(a3 > a2);
        let tx = PathCost::new(net.cost(), &hw, &hw, wire(1024)).tx();
        assert_eq!(a3 - a2, tx, "burst spacing equals the per-packet TX time");
        // A different source is unaffected.
        let b = send(&mut net, t0, 5, 1, 1024);
        assert!(b < a3);
    }

    #[test]
    fn min_delivery_delay_bounds_every_packet() {
        let mut net = flat(10);
        let hws = [NodeHw::p3_700(), NodeHw::p3_1000(), NodeHw::p3_1000_l92()];
        let lookahead = net.min_delivery_delay(&hws);
        assert!(!lookahead.is_zero());
        for (si, src) in hws.iter().enumerate() {
            for dst in &hws {
                for len in [0u32, 8, 1024, 64 * 1024] {
                    let t0 = SimTime::from_us(50);
                    let arrive = net.delivery_time(t0, si as u32, 9, src, dst, wire(len));
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
        let mut a = flat(3);
        let mut b = a.fresh_like();
        let t1 = send(&mut a, SimTime::ZERO, 0, 1, 100);
        let t2 = send(&mut b, SimTime::from_us(5), 2, 1, 50);
        a.absorb(&b);
        assert_eq!(a.packets_carried(), 2);
        assert_eq!(a.bytes_carried(), u64::from(wire(100) + wire(50)));
        // Floors from both halves survive the merge, each in its sender's
        // row.
        assert_eq!(a.floors.rows[0], [(1, t1)]);
        assert_eq!(a.floors.rows[2], [(1, t2)]);
        assert!(a.floors.rows[1].is_empty());
        // So do both halves' NIC-free times; rank 1 never sent.
        let tx = |len| PathCost::new(a.cost(), &hw, &hw, wire(len)).tx();
        assert_eq!(a.tx_free[0], SimTime::ZERO + tx(100));
        assert_eq!(a.tx_free[2], SimTime::from_us(5) + tx(50));
        assert_eq!(a.tx_free[1], SimTime::ZERO);
    }

    #[test]
    fn counters_accumulate() {
        let mut net = flat(2);
        send(&mut net, SimTime::ZERO, 0, 1, 100);
        send(&mut net, SimTime::ZERO, 1, 0, 50);
        assert_eq!(net.packets_carried(), 2);
        assert_eq!(net.bytes_carried(), u64::from(wire(100) + wire(50)));
    }

    #[test]
    fn floor_map_stays_bounded_under_many_pairs() {
        // A few senders reach more than 65,536 distinct destinations at
        // advancing sim times: a floor per pair ever used would grow
        // O(pairs). Spacing the sends far apart puts each sender's previous
        // arrival behind its next injection, so that floor is dead.
        let (senders, pairs) = (4u32, 65_536 + 4_096);
        let mut net = flat(senders + pairs);
        for i in 0..pairs {
            let (src, dst) = (i % senders, senders + i);
            let t = SimTime::from_us(u64::from(i) * 1_000);
            send(&mut net, t, src, dst, 8);
            let row = net.floors.rows[src as usize].len();
            assert!(row <= 1, "sender {src} holds {row} live floors");
        }
        assert_eq!(net.floor_entries(), senders as usize);
        assert_eq!(net.floors_pruned(), u64::from(pairs - senders));
        assert_eq!(net.packets_carried(), u64::from(pairs));
        // Dropping only removes *dead* floors: a pair with in-flight
        // backlog keeps its FIFO guarantee.
        let t0 = SimTime::from_us(u64::from(pairs) * 1_000);
        let big = send(&mut net, t0, 0, 1, 64 * 1024);
        let small = send(&mut net, t0 + SimDuration::from_us(1), 0, 1, 8);
        assert!(small >= big);
    }

    #[test]
    fn many_in_flight_pairs_prune_a_bounded_number_of_times() {
        // More distinct in-flight pairs than any fixed bound, all sent at
        // one instant: no floor is dead, and every arrival must match the
        // closed-form crossbar that keeps one floor per pair forever.
        let mut net = flat(140_001);
        let mut reference = Legacy::default();
        let t0 = SimTime::from_us(10);
        for i in 0..140_000u32 {
            assert_eq!(
                send(&mut net, t0, i, i + 1, 0),
                reference.send(t0, i, i + 1, 0),
                "floor rows changed the arrival of pair {i}"
            );
        }
        assert_eq!(net.floor_entries(), 140_000, "no floor was dead yet");
        // A second packet per pair still meets its floor.
        let t1 = t0 + SimDuration::from_us(1);
        for i in (0..140_000u32).step_by(7) {
            assert_eq!(
                send(&mut net, t1, i, i + 1, 4096),
                reference.send(t1, i, i + 1, 4096)
            );
        }
    }

    #[test]
    fn flat_fabric_is_bit_identical_to_legacy_network() {
        let mut fab = flat(64);
        let mut legacy = Legacy::default();
        for i in 0..200u32 {
            let (s, d, len) = (i % 3, (i * 3 + 1) % 5, (i * 97) % 4096);
            let t = SimTime::from_us(u64::from(i));
            assert_eq!(
                legacy.send(t, s, d, len),
                send(&mut fab, t, s, d, len),
                "flat fabric diverged from the crossbar formula at step {i}"
            );
        }
        assert_eq!(fab.packets_carried(), 200);
        assert_eq!(fab.link_waits(), 0);
    }

    #[test]
    fn shared_uplink_serializes_concurrent_packets() {
        // 4:1 fat-tree, blocked placement: two different sources on the
        // same edge switch send cross-pod at the same instant, so both
        // flows cross that switch's uplink and its pod's core uplink.
        let spec = blocked(FabricSpec::fat_tree(4.0));
        let n = 512u32;
        let mut fab = FabricNetwork::new(CostModel::default(), spec.clone(), n);
        let mut quiet = FabricNetwork::new(CostModel::default(), spec, n);
        let t0 = SimTime::from_us(10);
        send(&mut fab, t0, 0, 256, 4096);
        let b = send(&mut fab, t0, 4, 260, 4096);
        // The same second flow alone (no competing first flow) is faster.
        let b_alone = send(&mut quiet, t0, 4, 260, 4096);
        assert!(
            b > b_alone,
            "no serialization on the shared uplink: {b:?} vs {b_alone:?}"
        );
        assert!(fab.link_waits() > 0);
        assert!(fab.link_wait_us() > 0.0);
    }

    #[test]
    fn contended_delivery_is_deterministic() {
        let spec = FabricSpec::fat_tree(4.0);
        let run = || {
            let mut fab = FabricNetwork::new(CostModel::default(), spec.clone(), 1024);
            let mut out = Vec::new();
            for i in 0..500u32 {
                let (s, d, len) = (i % 101, (i * 7 + 3) % 1024, (i * 53) % 2048);
                out.push(send(&mut fab, SimTime::from_us(u64::from(i)), s, d, len));
            }
            (out, fab.link_waits(), fab.link_wait_us())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn min_delivery_delay_bounds_contended_routes() {
        let hws = [NodeHw::p3_700(), NodeHw::p3_1000(), NodeHw::p3_1000_l92()];
        for spec in [
            FabricSpec::flat(),
            FabricSpec::fat_tree(4.0),
            FabricSpec::dragonfly(4.0),
        ] {
            let mut fab = FabricNetwork::new(CostModel::default(), spec.clone(), 4096);
            let bound = fab.min_delivery_delay(&hws);
            assert!(!bound.is_zero());
            for i in 0..600u32 {
                let t0 = SimTime::from_us(100 + u64::from(i));
                let (s, d, len) = (i % 97, (i * 11 + 5) % 4096, (i * 31) % 8192);
                let (src, dst) = (&hws[(i % 3) as usize], &hws[(i / 3 % 3) as usize]);
                let arrive = fab.delivery_time(t0, s, d, src, dst, wire(len));
                assert!(
                    arrive >= t0 + bound,
                    "lookahead bound violated at {i} on {}",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn absorb_merges_contended_floors_and_nic_clocks() {
        let mut a = FabricNetwork::new(CostModel::default(), FabricSpec::fat_tree(4.0), 64);
        let mut b = a.fresh_like();
        send(&mut a, SimTime::ZERO, 0, 40, 100);
        send(&mut b, SimTime::from_us(5), 2, 40, 50);
        let (a0, b2) = (a.tx_free[0], b.tx_free[2]);
        let (fa, fb) = (floor_of(&a, 0, 40).unwrap(), floor_of(&b, 2, 40).unwrap());
        a.absorb(&b);
        assert_eq!(a.tx_free[0], a0);
        assert_eq!(a.tx_free[1], SimTime::ZERO);
        assert_eq!(a.tx_free[2], b2);
        // One floor per (src, dst) pair, in its sender's row; NIC clocks
        // are not floors.
        assert_eq!(floor_of(&a, 0, 40), Some(fa));
        assert_eq!(floor_of(&a, 2, 40), Some(fb));
        assert_eq!(a.floor_entries(), 2);
        assert_eq!(a.packets_carried(), 2);
    }

    #[test]
    fn oversubscription_slows_cross_fabric_traffic() {
        let t0 = SimTime::ZERO;
        let time_with = |oversub: f64| {
            let spec = blocked(FabricSpec::fat_tree(oversub));
            let mut fab = FabricNetwork::new(CostModel::default(), spec, 512);
            // A burst of cross-pod packets from the ranks of one edge
            // switch: all share that switch's uplink.
            let mut last = SimTime::ZERO;
            for r in 0..16u32 {
                last = last.max(send(&mut fab, t0, r, 400 + r, 4096));
            }
            last
        };
        assert!(
            time_with(8.0) > time_with(1.0),
            "an 8:1 fabric should be slower than full bisection"
        );
    }

    fn with_oversub(oversub: f64) -> FabricSpec {
        FabricSpec::fat_tree(oversub)
    }

    #[test]
    #[should_panic(expected = "FabricSpec.oversub must be a finite ratio >= 1, got 0")]
    fn zero_oversub_is_rejected() {
        FabricNetwork::new(CostModel::default(), with_oversub(0.0), 64);
    }

    #[test]
    #[should_panic(expected = "FabricSpec.oversub must be a finite ratio >= 1, got -1")]
    fn negative_oversub_is_rejected() {
        FabricNetwork::new(CostModel::default(), with_oversub(-1.0), 64);
    }

    #[test]
    #[should_panic(expected = "FabricSpec.oversub must be a finite ratio >= 1, got NaN")]
    fn nan_oversub_is_rejected() {
        FabricNetwork::new(CostModel::default(), with_oversub(f64::NAN), 64);
    }

    #[test]
    #[should_panic(expected = "FabricSpec.oversub must be a finite ratio >= 1, got inf")]
    fn infinite_oversub_is_rejected() {
        FabricNetwork::new(
            CostModel::default(),
            FabricSpec::dragonfly(f64::INFINITY),
            64,
        );
    }

    #[test]
    #[should_panic(expected = "FabricSpec.nodes_per_switch must be at least 1")]
    fn zero_nodes_per_switch_is_rejected() {
        let mut spec = FabricSpec::fat_tree(4.0);
        spec.nodes_per_switch = 0;
        FabricNetwork::new(CostModel::default(), spec, 64);
    }

    #[test]
    #[should_panic(expected = "FabricSpec.switches_per_pod must be at least 1")]
    fn zero_switches_per_pod_is_rejected() {
        let mut spec = FabricSpec::dragonfly(4.0);
        spec.switches_per_pod = 0;
        FabricNetwork::new(CostModel::default(), spec, 64);
    }

    #[test]
    #[should_panic(expected = "FabricSpec.ranks_per_node must be at least 1")]
    fn zero_ranks_per_node_is_rejected() {
        let mut spec = FabricSpec::fat_tree(4.0);
        spec.ranks_per_node = 0;
        FabricNetwork::new(CostModel::default(), spec, 64);
    }

    #[test]
    fn a_flat_spec_needs_no_valid_shape() {
        // The crossbar builds no graph, so its (unused) shape fields are
        // not checked.
        let mut spec = FabricSpec::flat();
        spec.oversub = f64::NAN;
        spec.nodes_per_switch = 0;
        let mut net = FabricNetwork::new(CostModel::default(), spec, 2);
        assert!(send(&mut net, SimTime::ZERO, 0, 1, 8) > SimTime::ZERO);
    }

    /// Send one packet on a fresh network with a recorder installed and
    /// return (arrival − sent_at, the five WireSegment nanos in order,
    /// whether it was routed).
    fn isolated_segments(spec: FabricSpec, src: u32, dst: u32) -> (u64, Vec<u64>, bool) {
        let n = 512;
        let rec = RingRecorder::new(n, 64, TraceClock::Virtual, 0, 0);
        let mut fab = FabricNetwork::new(CostModel::default(), spec, n);
        fab.set_tracer(rec.handle());
        let routed = fab.route_of(src, dst).is_some();
        let t0 = SimTime::from_us(20);
        let (src_hw, dst_hw) = (NodeHw::p3_1000_l92(), NodeHw::p3_700());
        let arrive = fab.delivery_time(t0, src, dst, &src_hw, &dst_hw, wire(3000));
        let trace = rec.snapshot();
        let segments: Vec<(&str, u64)> = trace.per_rank[src as usize]
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::WireSegment {
                    dst: d,
                    segment,
                    nanos,
                } if d == dst => Some((segment, nanos)),
                _ => None,
            })
            .collect();
        let labels: Vec<&str> = segments.iter().map(|s| s.0).collect();
        assert_eq!(labels, ["src-pci", "src-nic", "wire", "dst-nic", "dst-pci"]);
        let nanos = segments.iter().map(|s| s.1).collect();
        ((arrive - t0).as_nanos(), nanos, routed)
    }

    #[test]
    fn isolated_packet_segments_sum_to_its_latency() {
        let cases = [
            ("flat", FabricSpec::flat(), 0, 300),
            (
                "fat-tree same node",
                blocked(FabricSpec::fat_tree(4.0)),
                0,
                3,
            ),
            (
                "fat-tree cross pod",
                blocked(FabricSpec::fat_tree(4.0)),
                0,
                256,
            ),
            (
                "dragonfly cross group",
                blocked(FabricSpec::dragonfly(4.0)),
                0,
                256,
            ),
        ];
        for (name, spec, src, dst) in cases {
            let expect_routed = name.contains("cross");
            let (latency, segments, routed) = isolated_segments(spec, src, dst);
            assert_eq!(routed, expect_routed, "{name}: wrong path kind");
            // One ns per rounded term: the five segments, plus the
            // crossbar total (or, routed, the injection and the tail).
            let terms = 5 + if routed { 2 } else { 1 };
            let sum: u64 = segments.iter().sum();
            assert!(
                sum.abs_diff(latency) <= terms,
                "{name}: segments sum to {sum} ns, latency is {latency} ns"
            );
            if routed {
                // Routed wire time covers the extra hops and host links,
                // so it exceeds the crossbar's single switch.
                let flat = isolated_segments(FabricSpec::flat(), src, dst).1;
                assert!(segments[2] > flat[2], "{name}: routed wire too short");
                assert_eq!(segments[..2], flat[..2]);
                assert_eq!(segments[3..], flat[3..]);
            }
        }
    }

    #[test]
    fn traced_link_waits_sum_to_the_counter() {
        let n = 512;
        let rec = RingRecorder::new(n, 1024, TraceClock::Virtual, 0, 0);
        let spec = blocked(FabricSpec::fat_tree(8.0));
        let mut fab = FabricNetwork::new(CostModel::default(), spec, n);
        fab.set_tracer(rec.handle());
        for r in 0..16u32 {
            send(&mut fab, SimTime::ZERO, r, 400 + r, 4096);
        }
        let trace = rec.snapshot();
        assert_eq!(trace.dropped, 0);
        let (mut waits, mut wait_ns) = (0u64, 0u64);
        for rec in trace.per_rank.iter().flatten() {
            if let TraceEvent::LinkWait { wait_ns: w, .. } = rec.event {
                waits += 1;
                wait_ns += w;
            }
        }
        assert!(waits > 0, "the burst never queued");
        assert_eq!(waits, fab.link_waits());
        assert_eq!(wait_ns as f64 / 1_000.0, fab.link_wait_us());
    }
}
