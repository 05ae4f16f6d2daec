//! The four workloads and the points each one runs. Every input is made
//! from the workload seed; see README.md for why each workload exists and
//! which layers it should and should not move.

use crate::point::Point;
use abr_cluster::microbench::{CpuUtilConfig, Mode};
use abr_cluster::{saturation_config, ClusterSpec, FaultPlan};
use abr_core::DelayPolicy;
use abr_des::rng::StreamRng;
use abr_fabric::spec::PlacementPolicy;
use abr_fabric::FabricSpec;
use abr_mpr::TopologyKind;

/// Iterations per `paper32` point (66 points per pass).
pub const PAPER32_ITERS: u64 = 40;
/// Iterations per `scale8k` point.
pub const SCALE8K_ITERS: u64 = 1;
/// Iterations per `fabric_lossy2k` point.
pub const FABRIC_ITERS: u64 = 2;
/// The fault plan of `fabric_lossy2k`.
pub const FABRIC_FAULTS: &str = "seed=7; drop p=0.01; dup p=0.01";
/// The tenant job mix: generator seed, jobs at load 1, slots per node,
/// and the offered-load ladder.
pub const TENANT_MIX_SEED: u64 = 17;
pub const TENANT_BASE_JOBS: usize = 4;
pub const TENANT_SLOTS: usize = 4;
pub const TENANT_LADDER: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper32,
    Scale8k,
    FabricLossy2k,
    Tenant,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper32,
        Workload::Scale8k,
        Workload::FabricLossy2k,
        Workload::Tenant,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper32 => "paper32",
            Workload::Scale8k => "scale8k",
            Workload::FabricLossy2k => "fabric_lossy2k",
            Workload::Tenant => "tenant",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's points, in the order a pass runs them.
    pub fn points(self, seed: u64) -> Vec<Point> {
        let modes = [Mode::Baseline, Mode::Bypass(DelayPolicy::None)];
        let paper = |cluster: ClusterSpec, elems, max_skew_us, iters, mode| CpuUtilConfig {
            elems,
            max_skew_us,
            iters,
            seed,
            ..CpuUtilConfig::new(cluster, mode)
        };
        let mut points = Vec::new();
        match self {
            Workload::Paper32 => {
                for skew in (0..=1000).step_by(100) {
                    for mode in modes {
                        for elems in [4, 32, 128] {
                            let cluster = solo_cluster(32, TopologyKind::Binomial);
                            let cfg = paper(cluster, elems, skew, PAPER32_ITERS, mode);
                            points.push(Point::Paper(cfg));
                        }
                    }
                }
            }
            Workload::Scale8k => {
                for topo in [TopologyKind::Binomial, TopologyKind::Knomial(4)] {
                    for mode in modes {
                        let cluster = solo_cluster(8192, topo);
                        points.push(Point::Paper(paper(cluster, 4, 1000, SCALE8K_ITERS, mode)));
                    }
                }
            }
            Workload::FabricLossy2k => {
                let fabric = FabricSpec::fat_tree(4.0);
                let faults = FaultPlan::parse(FABRIC_FAULTS).expect("valid fault plan");
                // Placement-oblivious binomial against the placement-aware
                // bine and locality trees, the latter shaped to the fabric.
                let locality = TopologyKind::Locality {
                    ranks_per_node: fabric.ranks_per_node,
                    nodes_per_pod: fabric.nodes_per_pod(),
                    cyclic: fabric.placement == PlacementPolicy::Cyclic,
                };
                for topo in [TopologyKind::Binomial, TopologyKind::Bine, locality] {
                    for mode in modes {
                        let cluster = solo_cluster(2048, topo).with_fabric(fabric.clone());
                        points.push(Point::Paper(CpuUtilConfig {
                            faults: faults.clone(),
                            ..paper(cluster, 32, 200, FABRIC_ITERS, mode)
                        }));
                    }
                }
            }
            Workload::Tenant => {
                let top = *TENANT_LADDER.last().expect("non-empty ladder");
                for load in TENANT_LADDER {
                    for ab in [false, true] {
                        let mut cfg = saturation_config(
                            TENANT_MIX_SEED,
                            TENANT_BASE_JOBS,
                            load,
                            top,
                            TENANT_SLOTS,
                            ab,
                        );
                        cfg.cluster = cfg
                            .cluster
                            .with_topology(TopologyKind::Binomial)
                            .with_fabric(FabricSpec::flat())
                            .with_segments(1);
                        points.push(Point::Tenant(cfg));
                    }
                }
                // The application-bypass engines deadlock on most other
                // mixes (see README.md), so the seed orders the points
                // instead of generating them.
                let mut rng = StreamRng::root(seed);
                for i in (1..points.len()).rev() {
                    let j = rng.below(i as u64 + 1) as usize;
                    points.swap(i, j);
                }
            }
        }
        points
    }
}

/// The paper's heterogeneous cluster with the knobs the environment could
/// otherwise set pinned: `topo` trees, flat fabric, one segment.
fn solo_cluster(ranks: u32, topo: TopologyKind) -> ClusterSpec {
    ClusterSpec::heterogeneous(ranks)
        .with_topology(topo)
        .with_fabric(FabricSpec::flat())
        .with_segments(1)
}
