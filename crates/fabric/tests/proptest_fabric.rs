//! Property tests for the fabric layer.
//!
//! * Every contended fabric (fat-tree and dragonfly, any oversubscription,
//!   either placement, non-power-of-two rank counts included) routes every
//!   cross-node rank pair over a non-empty, loop-free link path whose ids
//!   are in range, and same-node pairs bypass the fabric entirely.
//! * Every kind preserves GM's per-pair FIFO delivery order under
//!   arbitrary traffic.
//! * The flat fabric equals the paper's crossbar written out in closed
//!   form on arbitrary packet sequences — not just equal delivery times
//!   but equal carried-traffic counters and lookahead bound.

use abr_des::{SimDuration, SimTime};
use abr_fabric::{FabricNetwork, FabricSpec, PlacementPolicy};
use abr_gm::packet::HEADER_WIRE_BYTES;
use abr_gm::{CostModel, NodeHw};
use proptest::prelude::*;
use std::collections::HashMap;

/// The hardware class of rank `r`: the three testbed classes in turn.
fn hw(r: u32) -> NodeHw {
    [NodeHw::p3_700(), NodeHw::p3_1000(), NodeHw::p3_1000_l92()][(r % 3) as usize]
}

/// The paper's crossbar in closed form: a per-source NIC clock that each
/// packet's injection (source PCI + LANai) occupies, the uncontended path
/// after it, and a per-pair floor keeping delivery in FIFO order.
#[derive(Default)]
struct Crossbar {
    cost: CostModel,
    nic_free: HashMap<u32, SimTime>,
    floor: HashMap<(u32, u32), SimTime>,
    packets: u64,
    bytes: u64,
}

impl Crossbar {
    fn delivery_time(&mut self, t: SimTime, s: u32, d: u32, len: u32) -> SimTime {
        let (c, wire) = (&self.cost, len + HEADER_WIRE_BYTES);
        let (src, dst, b) = (hw(s), hw(d), f64::from(wire));
        let src_pci = c.pci_per_byte_us * src.pci.per_byte_scale() * b;
        let src_nic = c.nic_per_packet_us * src.lanai.per_packet_scale();
        let dst_nic = c.nic_per_packet_us * dst.lanai.per_packet_scale();
        let dst_pci = c.pci_per_byte_us * dst.pci.per_byte_scale() * b;
        let on_wire = c.switch_us + c.wire_per_byte_us * b;
        let tx = SimDuration::from_us_f64(src_pci + src_nic);
        let path = SimDuration::from_us_f64(src_pci + src_nic + on_wire + dst_nic + dst_pci);
        let nic = self.nic_free.entry(s).or_insert(SimTime::ZERO);
        *nic = t.max(*nic) + tx;
        let floor = self.floor.entry((s, d)).or_insert(SimTime::ZERO);
        *floor = (*nic + (path - tx)).max(*floor);
        self.packets += 1;
        self.bytes += u64::from(wire);
        *floor
    }
}

fn spec_strategy() -> impl Strategy<Value = FabricSpec> {
    ((0u32..2), (1u32..9), (0u32..2)).prop_map(|(kind, oversub, placement)| {
        let mut s = if kind == 0 {
            FabricSpec::fat_tree(f64::from(oversub))
        } else {
            FabricSpec::dragonfly(f64::from(oversub))
        };
        s.placement = if placement == 0 {
            PlacementPolicy::Blocked
        } else {
            PlacementPolicy::Cyclic
        };
        s
    })
}

proptest! {
    /// Routes exist for every cross-node pair, are loop-free (no link id
    /// repeats), stay inside the link table, and have at least one switch
    /// hop; same-node pairs have no route (they bypass the fabric).
    #[test]
    fn every_pair_routes_loop_free(
        spec in spec_strategy(),
        n in 2u32..260,
    ) {
        let fab = FabricNetwork::new(CostModel::default(), spec, n);
        let links_total = fab.num_links() as u32;
        prop_assert!(links_total > 0);
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let (ns, nd) = (fab.node_of(s).unwrap(), fab.node_of(d).unwrap());
                match fab.route_of(s, d) {
                    None => prop_assert_eq!(ns, nd, "missing route {s}->{d}"),
                    Some((links, hops)) => {
                        prop_assert!(ns != nd);
                        prop_assert!(!links.is_empty());
                        prop_assert!(hops >= 1);
                        let mut seen = links.clone();
                        seen.sort_unstable();
                        seen.dedup();
                        prop_assert_eq!(seen.len(), links.len(),
                            "route {}->{} revisits a link: {:?}", s, d, links);
                        for &l in &links {
                            prop_assert!(l < links_total, "link {l} out of range");
                        }
                    }
                }
            }
        }
    }

    /// Routing is symmetric in length: the reverse path has the same hop
    /// count and link count (paths themselves differ — up/down links are
    /// distinct ids).
    #[test]
    fn reverse_routes_have_equal_length(
        spec in spec_strategy(),
        n in 2u32..200,
    ) {
        let fab = FabricNetwork::new(CostModel::default(), spec, n);
        for s in 0..n.min(40) {
            for d in 0..n {
                if let Some((fwd, h_fwd)) = fab.route_of(s, d) {
                    let (rev, h_rev) = fab.route_of(d, s).expect("reverse route");
                    prop_assert_eq!(h_fwd, h_rev);
                    prop_assert_eq!(fwd.len(), rev.len());
                }
            }
        }
    }

    /// Delivery times per (src, dst) pair are non-decreasing no matter the
    /// fabric kind, placement, send interleaving, sizes or hardware mix —
    /// the GM FIFO guarantee the whole matching layer depends on. Traffic
    /// runs among four ranks (twelve ordered pairs) so back-to-back packets
    /// on one pair are the norm and the floor binds. On 256 ranks the four
    /// hold a same-node pair under either placement and, between the two
    /// placements, same-switch pairs and pairs crossing switches, fat-tree
    /// pods and dragonfly groups.
    #[test]
    fn network_preserves_per_pair_fifo(
        kind in 0u32..3,
        cyclic in any::<bool>(),
        sends in prop::collection::vec((0usize..4, 1usize..4, 0u32..8192, 0u64..50), 1..80),
    ) {
        const RANKS: [u32; 4] = [0, 1, 64, 165];
        let mut spec = match kind {
            0 => FabricSpec::flat(),
            1 => FabricSpec::fat_tree(4.0),
            _ => FabricSpec::dragonfly(4.0),
        };
        spec.placement = if cyclic { PlacementPolicy::Cyclic } else { PlacementPolicy::Blocked };
        let mut net = FabricNetwork::new(CostModel::default(), spec, 256);
        let mut t = SimTime::ZERO;
        let mut last: HashMap<(u32, u32), SimTime> = HashMap::new();
        for (si, dst_off, len, dt) in sends {
            let (src, dst) = (RANKS[si], RANKS[(si + dst_off) % 4]); // always != src
            t += SimDuration::from_us(dt);
            let arrive = net.delivery_time(t, src, dst, &hw(src), &hw(dst), len + HEADER_WIRE_BYTES);
            prop_assert!(arrive > t, "arrival not after send");
            if let Some(prev) = last.insert((src, dst), arrive) {
                prop_assert!(arrive >= prev, "FIFO violated for ({src},{dst})");
            }
        }
    }

    /// The flat fabric is indistinguishable from the closed-form crossbar
    /// on an arbitrary interleaving of packets: same delivery times, same
    /// counters, same lookahead bound. Few ranks and short gaps make the
    /// NIC clocks and FIFO floors bind. This is the bit-identity guarantee
    /// every committed figure relies on.
    #[test]
    fn flat_fabric_matches_legacy_on_random_sequences(
        seq in prop::collection::vec(
            ((0u32..16), (0u32..16), (0u32..9000), (0u64..40)), 1..120),
    ) {
        let mut reference = Crossbar::default();
        let mut fab = FabricNetwork::new(CostModel::default(), FabricSpec::flat(), 64);
        prop_assert_eq!(fab.num_links(), 0);
        let mut t = SimTime::ZERO;
        for (i, &(s, d, len, advance_us)) in seq.iter().enumerate() {
            t += SimDuration::from_us(advance_us);
            prop_assert_eq!(
                reference.delivery_time(t, s, d, len),
                fab.delivery_time(t, s, d, &hw(s), &hw(d), len + HEADER_WIRE_BYTES),
                "flat fabric diverged at step {}", i
            );
        }
        prop_assert_eq!(reference.packets, fab.packets_carried());
        prop_assert_eq!(reference.bytes, fab.bytes_carried());
        prop_assert_eq!(fab.link_waits(), 0);
        // The fabric keeps only the floors still in flight: those later
        // than their sender's NIC clock.
        let in_flight = reference
            .floor
            .iter()
            .filter(|&(&(s, _), &f)| f > reference.nic_free[&s])
            .count();
        prop_assert_eq!(fab.floor_entries(), in_flight);
        let header_only = (0..3u32)
            .flat_map(|s| (0..3u32).map(move |d| (s, d)))
            .map(|(s, d)| {
                let mut fresh = Crossbar::default();
                fresh.delivery_time(SimTime::ZERO, s, d, 0) - SimTime::ZERO
            })
            .min()
            .unwrap();
        prop_assert_eq!(header_only, fab.min_delivery_delay(&[hw(0), hw(1), hw(2)]));
    }
}
