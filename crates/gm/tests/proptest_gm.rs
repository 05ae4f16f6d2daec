//! Property tests for the GM substrate: crossbar path-cost monotonicity,
//! the memory registry against a reference model, the signal decision
//! table and the cost model. Delivery order under traffic is a property of
//! the stateful model and is tested in `abr_fabric`.

use abr_gm::cost::CostModel;
use abr_gm::memory::MemoryRegistry;
use abr_gm::nic::{NodeHw, PathCost};
use abr_gm::packet::{NodeId, Packet, PacketHeader, PacketKind};
use abr_gm::signal::SignalControl;
use bytes::Bytes;
use proptest::prelude::*;

proptest! {
    /// Path latency grows monotonically with payload size for any pair of
    /// hardware classes.
    #[test]
    fn delivery_delay_monotone_in_size(a in 0u32..3, b in 0u32..3, len in 0u32..16000, extra in 1u32..4096) {
        let cost = CostModel::default();
        let hw = [NodeHw::p3_700(), NodeHw::p3_1000(), NodeHw::p3_1000_l92()];
        let (src, dst) = (&hw[a as usize], &hw[b as usize]);
        let small = PathCost::new(&cost, src, dst, len).total();
        let big = PathCost::new(&cost, src, dst, len + extra).total();
        prop_assert!(big > small);
    }

    /// Registry against a reference model: arbitrary register/deregister
    /// sequences keep pinned-byte accounting exact.
    #[test]
    fn memory_registry_matches_model(ops in prop::collection::vec((any::<bool>(), 0usize..4096), 1..120)) {
        let mut reg = MemoryRegistry::unbounded();
        let mut live: Vec<(abr_gm::memory::RegionId, usize)> = Vec::new();
        let mut model_bytes = 0usize;
        for (register, len) in ops {
            if register || live.is_empty() {
                let id = reg.register(len).unwrap();
                live.push((id, len));
                model_bytes += len;
            } else {
                let (id, len) = live.swap_remove(len % live.len());
                reg.deregister(id).unwrap();
                model_bytes -= len;
            }
            prop_assert_eq!(reg.pinned_bytes(), model_bytes);
            prop_assert_eq!(reg.live_regions(), live.len());
        }
        for (id, len) in live.drain(..) {
            reg.deregister(id).unwrap();
            model_bytes -= len;
        }
        prop_assert_eq!(model_bytes, 0);
        prop_assert!(reg.is_balanced());
    }

    /// The signal-control decision table: a signal fires iff the packet is
    /// collective AND signals are enabled AND progress is not underway.
    #[test]
    fn signal_decision_table(enabled in any::<bool>(), busy in any::<bool>(), kind_sel in 0usize..5) {
        let kinds = [
            PacketKind::Eager,
            PacketKind::Collective,
            PacketKind::RendezvousRts,
            PacketKind::RendezvousCts,
            PacketKind::RendezvousData,
        ];
        let kind = kinds[kind_sel];
        let mut s = SignalControl::new();
        if enabled {
            s.enable();
        }
        let p = Packet::new(
            PacketHeader {
                src: NodeId(0),
                dst: NodeId(1),
                kind,
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
        let fired = s.on_arrival(&p, busy).is_ok();
        let expect = kind == PacketKind::Collective && enabled && !busy;
        prop_assert_eq!(fired, expect);
        prop_assert_eq!(s.raised(), u64::from(expect));
    }

    /// Cost model basics hold for any byte count: copies and pins are
    /// positive and monotone.
    #[test]
    fn cost_model_positive_and_monotone(len in 0usize..1_000_000) {
        let c = CostModel::default();
        prop_assert!(c.copy(len) >= c.copy(0));
        prop_assert!(c.copy(len + 1) > c.copy(len));
        // Per-byte pin cost is sub-nanosecond; monotonicity shows at page
        // granularity rather than per byte.
        prop_assert!(c.pin(len + 4096) > c.pin(len));
        prop_assert!(c.pin(len + 1) >= c.pin(len));
        prop_assert!(!c.copy(0).is_zero());
        prop_assert!(!c.signal_cost().is_zero());
        prop_assert!(c.signal_ignored_cost() < c.signal_cost());
    }
}
