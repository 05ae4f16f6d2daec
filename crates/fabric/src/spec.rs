//! Fabric shape, oversubscription, and rank placement.
//!
//! A [`FabricSpec`] is pure configuration: it says which switch/link
//! graph to build and how ranks map onto nodes, but holds no simulation
//! state. The `ABR_FABRIC` knob ([`abr_trace::knob::FABRIC`]) names one
//! in the grammar [`FabricSpec::label`] prints: `flat` (default), or
//! `(fattree|dragonfly)[:<ratio>][:blocked|:cyclic]`. The ratio is the
//! uplink oversubscription (default `4`): edge and pod/group uplinks
//! carry `members / ratio` host-links worth of bandwidth. Contended kinds
//! default to *cyclic* placement (round-robin over nodes, what a batch
//! scheduler handing out one slot per node produces); `flat` ignores
//! placement.

use abr_trace::knob;
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

    /// Parse an `ABR_FABRIC` value: `flat`, or `fattree` (also
    /// `fat-tree`) or `dragonfly` followed by an optional `:<ratio>`
    /// (finite, >= 1; default [`DEFAULT_OVERSUB`]) and an optional
    /// `:blocked` / `:cyclic` placement (default cyclic). Every label
    /// [`FabricSpec::label`] prints parses back to its spec.
    pub fn parse(raw: &str) -> Result<FabricSpec, String> {
        let raw = raw.trim();
        let malformed = || {
            format!(
                "ABR_FABRIC must be flat or (fattree|dragonfly)[:<ratio>][:blocked|:cyclic], \
                 got {raw:?}"
            )
        };
        let mut parts: Vec<&str> = raw.split(':').collect();
        let mut spec = match parts.remove(0) {
            "flat" if parts.is_empty() => return Ok(FabricSpec::flat()),
            "fattree" | "fat-tree" => FabricSpec::fat_tree(DEFAULT_OVERSUB),
            "dragonfly" => FabricSpec::dragonfly(DEFAULT_OVERSUB),
            _ => return Err(malformed()),
        };
        let placement = match parts.last() {
            Some(&"blocked") => Some(PlacementPolicy::Blocked),
            Some(&"cyclic") => Some(PlacementPolicy::Cyclic),
            _ => None,
        };
        if let Some(p) = placement {
            spec.placement = p;
            parts.pop();
        }
        match parts[..] {
            [] => {}
            [ratio] => match ratio.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 1.0 => spec.oversub = v,
                _ => {
                    return Err(format!(
                        "ABR_FABRIC ratio must be a finite number >= 1, got {ratio:?} in {raw:?}"
                    ))
                }
            },
            _ => return Err(malformed()),
        }
        Ok(spec)
    }

    /// The `ABR_FABRIC` spec, or `None` when the knob is unset. Panics
    /// (fail fast, naming the variable) on a malformed value.
    pub fn from_env() -> Option<FabricSpec> {
        knob::FABRIC.read(FabricSpec::parse)
    }

    /// [`FabricSpec::from_env`], defaulting to the flat crossbar.
    pub fn from_env_or_flat() -> FabricSpec {
        knob::FABRIC.read_or_default(FabricSpec::parse)
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

/// Uplink oversubscription of a contended `ABR_FABRIC` that names no
/// ratio.
pub const DEFAULT_OVERSUB: f64 = 4.0;

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
        assert!(FabricSpec::parse("flat").unwrap().is_flat());
        let ft = FabricSpec::parse("fattree:2").unwrap();
        assert_eq!(ft.kind, FabricKind::FatTree);
        assert_eq!(ft.oversub, 2.0);
        assert_eq!(ft.placement, PlacementPolicy::Cyclic);
        let ftb = FabricSpec::parse("fat-tree:blocked").unwrap();
        assert_eq!(ftb.placement, PlacementPolicy::Blocked);
        let df = FabricSpec::parse("dragonfly:cyclic").unwrap();
        assert_eq!(df.kind, FabricKind::Dragonfly);
        for bad in [
            "mesh",
            "fattree:diagonal",
            "flat:blocked",
            "flat:2",
            "fattree:2:3",
            "fattree:blocked:2",
            "dragonfly:",
        ] {
            let err = FabricSpec::parse(bad).unwrap_err();
            assert!(err.contains("ABR_FABRIC"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn every_label_parses_back_to_its_spec() {
        assert_eq!(
            FabricSpec::parse(&FabricSpec::flat().label()),
            Ok(FabricSpec::flat())
        );
        for kind in [FabricSpec::fat_tree, FabricSpec::dragonfly] {
            for placement in [PlacementPolicy::Blocked, PlacementPolicy::Cyclic] {
                for ratio in [1.0, 2.5, 4.0] {
                    let spec = FabricSpec {
                        placement,
                        ..kind(ratio)
                    };
                    assert_eq!(FabricSpec::parse(&spec.label()), Ok(spec.clone()));
                }
            }
        }
    }

    #[test]
    fn a_missing_ratio_is_the_default_oversubscription() {
        assert_eq!(
            FabricSpec::parse("dragonfly"),
            Ok(FabricSpec::dragonfly(4.0))
        );
        let blocked = FabricSpec::parse("fattree:blocked").unwrap();
        assert_eq!(blocked.oversub, 4.0);
        assert_eq!(blocked.placement, PlacementPolicy::Blocked);
        assert_eq!(DEFAULT_OVERSUB, 4.0);
    }

    #[test]
    fn non_finite_and_sub_unit_ratios_name_the_knob() {
        for bad in [
            "fattree:inf",
            "fattree:0.5",
            "dragonfly:NaN:blocked",
            "fattree:-1",
        ] {
            let err = FabricSpec::parse(bad).unwrap_err();
            assert!(err.contains("ABR_FABRIC"), "{bad:?}: {err}");
        }
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
