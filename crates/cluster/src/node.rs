//! Cluster specifications.
//!
//! The paper's testbed (§VI): 16 quad-SMP 700-MHz nodes (66-MHz/64-bit PCI)
//! and 16 dual-SMP 1-GHz nodes (33-MHz/32-bit PCI) on a 32-port
//! Myrinet-2000 switch; four of the 1-GHz nodes carry LANai 9.2 cards, the
//! rest LANai 9.1. The machine list *interlaces* the two groups so every
//! prefix of the list is a balanced mix — we reproduce that so "first N
//! nodes" sweeps behave like the paper's.

use abr_fabric::FabricSpec;
use abr_gm::cost::CostModel;
use abr_gm::nic::NodeHw;
use abr_mpr::engine::EngineConfig;
use abr_mpr::topology::TopologyKind;

/// A cluster: per-node hardware plus the shared cost model.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Hardware per rank (index = rank).
    pub nodes: Vec<NodeHw>,
    /// The machine cost model.
    pub cost: CostModel,
    /// Eager/rendezvous threshold in payload bytes.
    pub eager_limit: usize,
    /// Tree family for reduction collectives. Constructors read the
    /// process-wide `ABR_TOPO` knob (binomial when unset); override per
    /// spec with [`ClusterSpec::with_topology`].
    pub topology: TopologyKind,
    /// Interconnect model. Constructors read the process-wide
    /// `ABR_FABRIC` / `ABR_OVERSUB` knobs (ideal crossbar when unset);
    /// override per spec with [`ClusterSpec::with_fabric`].
    pub fabric: FabricSpec,
    /// Pipeline window for segmented reductions. Constructors read the
    /// process-wide `ABR_SEGMENTS` knob (`1` when unset, which disables
    /// segmentation and keeps every figure byte-identical); override per
    /// spec with [`ClusterSpec::with_segments`].
    pub segments: usize,
}

/// Read the process-wide `ABR_SEGMENTS` pipeline window (>= 1); `1`
/// (segmentation off) when unset, fail-fast on an invalid value.
pub fn segments_from_env() -> usize {
    abr_trace::parse_env("ABR_SEGMENTS", |raw| {
        let n: usize = raw
            .trim()
            .parse()
            .map_err(|_| format!("ABR_SEGMENTS: expected a positive integer, got {raw:?}"))?;
        if n == 0 {
            return Err("ABR_SEGMENTS: window must be >= 1".to_string());
        }
        Ok(n)
    })
    .unwrap_or(1)
}

impl ClusterSpec {
    /// The paper's heterogeneous 32-node cluster with the interlaced host
    /// list: even positions are 700-MHz/wide-PCI nodes, odd positions are
    /// 1-GHz/narrow-PCI nodes, and the last four 1-GHz slots carry LANai 9.2
    /// cards.
    pub fn heterogeneous_32() -> Self {
        Self::heterogeneous(32)
    }

    /// The interlaced heterogeneous cluster truncated to `n` ranks.
    pub fn heterogeneous(n: u32) -> Self {
        let nodes = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    NodeHw::p3_700()
                } else if i >= 24 {
                    // Four of the sixteen 1-GHz nodes have LANai 9.2; park
                    // them at the tail odd slots (25, 27, 29, 31).
                    NodeHw::p3_1000_l92()
                } else {
                    NodeHw::p3_1000()
                }
            })
            .collect();
        ClusterSpec {
            nodes,
            cost: CostModel::default(),
            eager_limit: 16 * 1024,
            topology: TopologyKind::from_env_or_default(),
            fabric: FabricSpec::from_env_or_flat(),
            segments: segments_from_env(),
        }
    }

    /// A homogeneous cluster of `n` 700-MHz nodes (the paper's Fig. 9b).
    pub fn homogeneous_700(n: u32) -> Self {
        ClusterSpec {
            nodes: (0..n).map(|_| NodeHw::p3_700()).collect(),
            cost: CostModel::default(),
            eager_limit: 16 * 1024,
            topology: TopologyKind::from_env_or_default(),
            fabric: FabricSpec::from_env_or_flat(),
            segments: segments_from_env(),
        }
    }

    /// A homogeneous cluster of `n` 1-GHz nodes.
    pub fn homogeneous_1000(n: u32) -> Self {
        ClusterSpec {
            nodes: (0..n).map(|_| NodeHw::p3_1000()).collect(),
            cost: CostModel::default(),
            eager_limit: 16 * 1024,
            topology: TopologyKind::from_env_or_default(),
            fabric: FabricSpec::from_env_or_flat(),
            segments: segments_from_env(),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the (useless) empty cluster.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The [`EngineConfig`] every engine on this cluster is built with.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            cost: self.cost.clone(),
            eager_limit: self.eager_limit,
            memory_budget: None,
            allreduce_rs_threshold: 2048,
            topology: self.topology,
            segments: self.segments,
        }
    }

    /// Replace the cost model (sensitivity ablations).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the reduction topology (the skew-vs-topology figure).
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Replace the interconnect model (the fabric-contention figure).
    pub fn with_fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// Replace the segmentation pipeline window (the bandwidth figure).
    ///
    /// # Panics
    /// Panics if `window` is zero (a pipeline needs at least one slot).
    pub fn with_segments(mut self, window: usize) -> Self {
        assert!(window >= 1, "segment window must be >= 1");
        self.segments = window;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_gm::nic::{LanaiClass, PciClass};

    #[test]
    fn heterogeneous_32_matches_testbed() {
        let c = ClusterSpec::heterogeneous_32();
        assert_eq!(c.len(), 32);
        let slow = c.nodes.iter().filter(|n| n.cpu_scale > 1.0).count();
        assert_eq!(slow, 16, "sixteen 700-MHz nodes");
        let l92 = c
            .nodes
            .iter()
            .filter(|n| n.lanai == LanaiClass::L92At200)
            .count();
        assert_eq!(l92, 4, "four LANai 9.2 cards");
        // All LANai 9.2 cards sit in 1-GHz (narrow-PCI) nodes.
        assert!(c
            .nodes
            .iter()
            .filter(|n| n.lanai == LanaiClass::L92At200)
            .all(|n| n.pci == PciClass::Mhz33Bit32));
    }

    #[test]
    fn every_prefix_is_balanced() {
        let c = ClusterSpec::heterogeneous_32();
        for n in [2usize, 4, 8, 16, 32] {
            let slow = c.nodes[..n].iter().filter(|h| h.cpu_scale > 1.0).count();
            assert_eq!(slow, n / 2, "prefix {n} unbalanced");
        }
    }

    #[test]
    fn homogeneous_clusters_are_uniform() {
        let c = ClusterSpec::homogeneous_700(16);
        assert!(c.nodes.iter().all(|n| n.cpu_scale == c.nodes[0].cpu_scale));
        let c = ClusterSpec::homogeneous_1000(8);
        assert!(c.nodes.iter().all(|n| n.cpu_scale == 1.0));
    }

    #[test]
    fn truncated_heterogeneous() {
        let c = ClusterSpec::heterogeneous(8);
        assert_eq!(c.len(), 8);
        assert_eq!(c.nodes.iter().filter(|n| n.cpu_scale > 1.0).count(), 4);
    }
}
