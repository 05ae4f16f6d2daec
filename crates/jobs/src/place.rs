//! Rank-to-node placement under per-node slot limits.
//!
//! A cluster node hosts at most `slots` ranks; the placement policy decides
//! which ranks share a node — and therefore which jobs contend for a NIC
//! and a CPU. The three policies bracket the realistic schedules:
//!
//! * [`PlacePolicy::Blocked`] — node-major fill: each job concentrates on
//!   as few nodes as possible, so contention is mostly *intra*-job.
//! * [`PlacePolicy::Cyclic`] — slot-major round-robin: successive ranks
//!   land on successive nodes, so jobs interleave and contention is mostly
//!   *inter*-job.
//! * [`PlacePolicy::Packed`] — greedy most-free-first: a load balancer
//!   that keeps per-node occupancy as even as possible at every step.
//!
//! Placement is deterministic in `(mix, nodes, slots, policy)` and fails
//! fast when the mix demands more slots than the cluster has.

use crate::JobMix;

/// Which ranks share a node. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacePolicy {
    /// Node-major fill: concentrate each job on the fewest nodes.
    Blocked,
    /// Slot-major round-robin: spread every job across the whole cluster.
    Cyclic,
    /// Greedy most-free-slots-first balancing.
    Packed,
}

impl PlacePolicy {
    /// Stable label, used in figures and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            PlacePolicy::Blocked => "blocked",
            PlacePolicy::Cyclic => "cyclic",
            PlacePolicy::Packed => "packed",
        }
    }
}

impl std::str::FromStr for PlacePolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "blocked" => Ok(PlacePolicy::Blocked),
            "cyclic" => Ok(PlacePolicy::Cyclic),
            "packed" => Ok(PlacePolicy::Packed),
            other => Err(format!(
                "unknown placement policy {other:?} (expected blocked|cyclic|packed)"
            )),
        }
    }
}

/// A complete rank-to-node map for one mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Cluster nodes available.
    pub nodes: usize,
    /// Ranks a node can host.
    pub slots: usize,
    /// `node_of[job][local_rank]` = hosting node index.
    pub node_of: Vec<Vec<usize>>,
}

impl Placement {
    /// The identity placement for a single `n`-rank job on `n` nodes —
    /// rank `r` on node `r`, exactly the solo driver's world. This is the
    /// placement `DesDriver::new` builds its one job on.
    pub fn identity(n: usize) -> Placement {
        Placement {
            nodes: n,
            slots: 1,
            node_of: vec![(0..n).collect()],
        }
    }

    /// Ranks hosted per node (diagnostics and tests).
    pub fn occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.nodes];
        for job in &self.node_of {
            for &n in job {
                occ[n] += 1;
            }
        }
        occ
    }
}

/// Place every rank of `mix` onto `nodes` nodes of `slots` slots each.
///
/// Returns an error naming the shortfall when the mix demands more slots
/// than the cluster offers; the figure bins surface it as a panic.
pub fn place(
    mix: &JobMix,
    nodes: usize,
    slots: usize,
    policy: PlacePolicy,
) -> Result<Placement, String> {
    let demand = mix.total_ranks();
    let supply = nodes * slots;
    if demand > supply {
        return Err(format!(
            "placement overflow: mix needs {demand} slots but {nodes} nodes x {slots} slots = {supply}"
        ));
    }
    let mut used = vec![0usize; nodes];
    let mut cursor = 0usize; // Cyclic's rotating node pointer.
    let mut node_of = Vec::with_capacity(mix.jobs.len());
    for job in &mix.jobs {
        let mut hosts = Vec::with_capacity(job.ranks as usize);
        for _ in 0..job.ranks {
            let n = match policy {
                PlacePolicy::Blocked => (0..nodes)
                    .find(|&n| used[n] < slots)
                    .expect("demand checked against supply"),
                PlacePolicy::Cyclic => {
                    let n = (0..nodes)
                        .map(|k| (cursor + k) % nodes)
                        .find(|&n| used[n] < slots)
                        .expect("demand checked against supply");
                    cursor = (n + 1) % nodes;
                    n
                }
                PlacePolicy::Packed => (0..nodes)
                    .filter(|&n| used[n] < slots)
                    .min_by_key(|&n| (used[n], n))
                    .expect("demand checked against supply"),
            };
            used[n] += 1;
            hosts.push(n);
        }
        node_of.push(hosts);
    }
    Ok(Placement {
        nodes,
        slots,
        node_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobMix;

    fn mix() -> JobMix {
        JobMix::generate(11, 6, 2.0)
    }

    #[test]
    fn every_policy_respects_the_slot_cap() {
        let m = mix();
        let nodes = m.total_ranks(); // roomy
        for policy in [
            PlacePolicy::Blocked,
            PlacePolicy::Cyclic,
            PlacePolicy::Packed,
        ] {
            let p = place(&m, nodes, 2, policy).expect("fits");
            assert_eq!(p.node_of.len(), m.jobs.len());
            for (j, hosts) in p.node_of.iter().enumerate() {
                assert_eq!(hosts.len(), m.jobs[j].ranks as usize);
            }
            assert!(
                p.occupancy().iter().all(|&o| o <= 2),
                "{policy:?} exceeded the slot cap: {:?}",
                p.occupancy()
            );
        }
    }

    #[test]
    fn blocked_concentrates_and_cyclic_spreads() {
        let m = mix();
        let nodes = m.total_ranks();
        let blocked = place(&m, nodes, 4, PlacePolicy::Blocked).expect("fits");
        let cyclic = place(&m, nodes, 4, PlacePolicy::Cyclic).expect("fits");
        let nodes_touched = |p: &Placement| p.occupancy().iter().filter(|&&o| o > 0).count();
        assert!(
            nodes_touched(&blocked) < nodes_touched(&cyclic),
            "blocked ({}) should touch fewer nodes than cyclic ({})",
            nodes_touched(&blocked),
            nodes_touched(&cyclic)
        );
    }

    #[test]
    fn packed_keeps_occupancy_even() {
        let m = mix();
        let nodes = 16;
        let p = place(&m, nodes, 16, PlacePolicy::Packed).expect("fits");
        let occ = p.occupancy();
        let (min, max) = (occ.iter().min().unwrap(), occ.iter().max().unwrap());
        assert!(max - min <= 1, "packed occupancy uneven: {occ:?}");
    }

    #[test]
    fn overflow_fails_with_the_shortfall() {
        let m = mix();
        let err = place(&m, 2, 1, PlacePolicy::Blocked).unwrap_err();
        assert!(err.contains("placement overflow"), "{err}");
    }

    #[test]
    fn identity_placement_is_one_rank_per_node() {
        let p = Placement::identity(5);
        assert_eq!(p.node_of, vec![vec![0, 1, 2, 3, 4]]);
        assert!(p.occupancy().iter().all(|&o| o == 1));
    }

    #[test]
    fn policy_parses_and_rejects_junk() {
        assert_eq!("cyclic".parse::<PlacePolicy>(), Ok(PlacePolicy::Cyclic));
        assert!("best-fit".parse::<PlacePolicy>().is_err());
    }
}
