//! Fabric shape, oversubscription, and rank placement.
//!
//! A [`FabricSpec`] is pure configuration: it says which switch/link
//! graph to build and how ranks map onto nodes, but holds no simulation
//! state. The knobs mirror the rest of the workspace's env-var style:
//!
//! * `ABR_FABRIC` — `flat` (default), `fattree[:blocked|:cyclic]` or
//!   `dragonfly[:blocked|:cyclic]`. Contended kinds default to *cyclic*
//!   placement (round-robin over nodes, what a batch scheduler handing
//!   out one slot per node produces); `flat` ignores placement.
//! * `ABR_OVERSUB` — uplink oversubscription ratio (default `4`): edge
//!   and pod/group uplinks carry `members / ABR_OVERSUB` host-links
//!   worth of bandwidth.

use abr_trace::parse_env;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which switch/link graph the fabric builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// The paper's ideal crossbar: no shared links, no contention. A
    /// [`crate::FabricNetwork`] of this kind builds no link graph; every
    /// packet takes the crossbar formula ([`abr_gm::PathCost`]).
    Flat,
    /// Three-level fat-tree: nodes under edge switches, edge switches in
    /// pods under aggregation, pods joined through a core layer. Uplinks
    /// are oversubscribed by [`FabricSpec::oversub`].
    FatTree,
    /// Two-level dragonfly: nodes under routers, routers in
    /// all-to-all-connected groups, groups joined by global links.
    Dragonfly,
}

/// How ranks are laid out over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Consecutive ranks fill a node before moving on: node = rank / R.
    Blocked,
    /// Round-robin over nodes: node = rank mod num_nodes. This is what a
    /// scheduler allocating one slot per node in rank order produces,
    /// and it is the default for contended fabrics because it makes
    /// rank distance meaningless as a locality signal — the regime
    /// where placement-aware trees matter.
    Cyclic,
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlacementPolicy::Blocked => "blocked",
            PlacementPolicy::Cyclic => "cyclic",
        })
    }
}

/// Full fabric configuration: graph kind, oversubscription, placement,
/// and the (fixed-radix) shape parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Which graph to build.
    pub kind: FabricKind,
    /// Rank→node layout policy (ignored by [`FabricKind::Flat`]).
    pub placement: PlacementPolicy,
    /// Uplink oversubscription ratio (≥ 1; 1 = full bisection).
    pub oversub: f64,
    /// Ranks packed per node (the testbed's one-process-per-CPU slot
    /// count; 4 mirrors the quad-SMP flavour).
    pub ranks_per_node: u32,
    /// Nodes per edge switch (fat-tree) or per router (dragonfly).
    pub nodes_per_switch: u32,
    /// Edge switches per pod (fat-tree) or routers per group (dragonfly).
    pub switches_per_pod: u32,
}

impl FabricSpec {
    /// The ideal crossbar (no contention model at all).
    pub fn flat() -> Self {
        FabricSpec {
            kind: FabricKind::Flat,
            placement: PlacementPolicy::Blocked,
            oversub: 1.0,
            ranks_per_node: 4,
            nodes_per_switch: 4,
            switches_per_pod: 4,
        }
    }

    /// A fat-tree with the given oversubscription ratio, cyclic placement.
    pub fn fat_tree(oversub: f64) -> Self {
        FabricSpec {
            kind: FabricKind::FatTree,
            placement: PlacementPolicy::Cyclic,
            oversub,
            ..FabricSpec::flat()
        }
    }

    /// A dragonfly with the given oversubscription ratio, cyclic placement.
    pub fn dragonfly(oversub: f64) -> Self {
        FabricSpec {
            kind: FabricKind::Dragonfly,
            placement: PlacementPolicy::Cyclic,
            oversub,
            switches_per_pod: 8,
            ..FabricSpec::flat()
        }
    }

    /// True for the contention-free crossbar.
    pub fn is_flat(&self) -> bool {
        self.kind == FabricKind::Flat
    }

    /// Nodes per pod (fat-tree) / per group (dragonfly) — the grouping
    /// the locality-greedy topology should respect.
    pub fn nodes_per_pod(&self) -> u32 {
        self.nodes_per_switch * self.switches_per_pod
    }

    /// Parse an `ABR_FABRIC` value: `flat`, `fattree`, `fat-tree` or
    /// `dragonfly`, with an optional `:blocked` / `:cyclic` placement
    /// suffix. `oversub` seeds the contended kinds' ratio.
    pub fn parse(raw: &str, oversub: f64) -> Result<FabricSpec, String> {
        let (kind_str, placement) = match raw.split_once(':') {
            None => (raw, None),
            Some((k, "blocked")) => (k, Some(PlacementPolicy::Blocked)),
            Some((k, "cyclic")) => (k, Some(PlacementPolicy::Cyclic)),
            Some((_, p)) => {
                return Err(format!(
                    "ABR_FABRIC placement suffix must be 'blocked' or 'cyclic', got {p:?}"
                ))
            }
        };
        let mut spec = match kind_str {
            "flat" => FabricSpec::flat(),
            "fattree" | "fat-tree" => FabricSpec::fat_tree(oversub),
            "dragonfly" => FabricSpec::dragonfly(oversub),
            other => {
                return Err(format!(
                    "ABR_FABRIC must be flat, fattree or dragonfly \
                     (optionally ':blocked'/':cyclic'), got {other:?}"
                ))
            }
        };
        if let Some(p) = placement {
            spec.placement = p;
        }
        Ok(spec)
    }

    /// Read `ABR_FABRIC` / `ABR_OVERSUB`; `None` when `ABR_FABRIC` is
    /// unset. Panics (fail fast, naming the variable) on malformed
    /// values.
    pub fn from_env() -> Option<FabricSpec> {
        let oversub = oversub_from_env();
        parse_env("ABR_FABRIC", |raw| FabricSpec::parse(raw, oversub))
    }

    /// [`FabricSpec::from_env`], defaulting to the flat crossbar.
    pub fn from_env_or_flat() -> FabricSpec {
        FabricSpec::from_env().unwrap_or_else(FabricSpec::flat)
    }

    /// Short label for tables and JSON records, e.g. `fattree:4:cyclic`.
    pub fn label(&self) -> String {
        match self.kind {
            FabricKind::Flat => "flat".to_string(),
            FabricKind::FatTree => format!("fattree:{}:{}", self.oversub, self.placement),
            FabricKind::Dragonfly => format!("dragonfly:{}:{}", self.oversub, self.placement),
        }
    }
}

/// Read `ABR_OVERSUB` (default 4.0, must be ≥ 1).
pub fn oversub_from_env() -> f64 {
    parse_env("ABR_OVERSUB", |raw| {
        let v: f64 = raw
            .parse()
            .map_err(|_| format!("ABR_OVERSUB must be a number, got {raw:?}"))?;
        if v >= 1.0 {
            Ok(v)
        } else {
            Err(format!("ABR_OVERSUB must be >= 1, got {v}"))
        }
    })
    .unwrap_or(4.0)
}

/// A concrete rank→node map for one cluster size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    policy: PlacementPolicy,
    n_ranks: u32,
    ranks_per_node: u32,
    num_nodes: u32,
}

impl Placement {
    /// Lay `n_ranks` ranks over nodes of `ranks_per_node` slots each.
    pub fn new(policy: PlacementPolicy, n_ranks: u32, ranks_per_node: u32) -> Self {
        assert!(n_ranks > 0, "placement needs at least one rank");
        assert!(ranks_per_node > 0, "nodes need at least one slot");
        let num_nodes = n_ranks.div_ceil(ranks_per_node);
        Placement {
            policy,
            n_ranks,
            ranks_per_node,
            num_nodes,
        }
    }

    /// Number of occupied nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Ranks being placed.
    pub fn n_ranks(&self) -> u32 {
        self.n_ranks
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        debug_assert!(rank < self.n_ranks);
        match self.policy {
            PlacementPolicy::Blocked => rank / self.ranks_per_node,
            PlacementPolicy::Cyclic => rank % self.num_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_and_rejects() {
        assert!(FabricSpec::parse("flat", 4.0).unwrap().is_flat());
        let ft = FabricSpec::parse("fattree", 2.0).unwrap();
        assert_eq!(ft.kind, FabricKind::FatTree);
        assert_eq!(ft.oversub, 2.0);
        assert_eq!(ft.placement, PlacementPolicy::Cyclic);
        let ftb = FabricSpec::parse("fat-tree:blocked", 4.0).unwrap();
        assert_eq!(ftb.placement, PlacementPolicy::Blocked);
        let df = FabricSpec::parse("dragonfly:cyclic", 4.0).unwrap();
        assert_eq!(df.kind, FabricKind::Dragonfly);
        assert!(FabricSpec::parse("mesh", 4.0).is_err());
        assert!(FabricSpec::parse("fattree:diagonal", 4.0).is_err());
    }

    #[test]
    fn placement_maps_every_rank_to_a_valid_node() {
        for n in [1u32, 5, 64, 130] {
            for policy in [PlacementPolicy::Blocked, PlacementPolicy::Cyclic] {
                let p = Placement::new(policy, n, 4);
                let mut seen_nodes = vec![0u32; p.num_nodes() as usize];
                for r in 0..n {
                    let node = p.node_of(r);
                    assert!(node < p.num_nodes());
                    seen_nodes[node as usize] += 1;
                }
                // No node is oversubscribed beyond its slot count.
                for &c in &seen_nodes {
                    assert!(c <= 4, "node hosts {c} ranks with 4 slots");
                }
            }
        }
    }

    #[test]
    fn blocked_and_cyclic_differ_beyond_one_node() {
        let b = Placement::new(PlacementPolicy::Blocked, 16, 4);
        let c = Placement::new(PlacementPolicy::Cyclic, 16, 4);
        assert_eq!(b.node_of(1), 0);
        assert_eq!(c.node_of(1), 1);
        assert_eq!(b.node_of(5), 1);
        assert_eq!(c.node_of(5), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FabricSpec::flat().label(), "flat");
        assert_eq!(FabricSpec::fat_tree(4.0).label(), "fattree:4:cyclic");
        assert_eq!(FabricSpec::dragonfly(2.0).label(), "dragonfly:2:cyclic");
    }
}
