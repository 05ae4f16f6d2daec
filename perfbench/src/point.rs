//! One simulated point: build a driver through the public constructors,
//! run it on the sequential executor, and read back what the public API
//! exposes.

use crate::probe::{self, Tally, Timed};
use crate::programs::{CheckTally, Checked, PaperProgram};
use abr_cluster::driver::NodeResult;
use abr_cluster::microbench::{CpuUtilConfig, Mode};
use abr_cluster::tenant::TenantProgram;
use abr_cluster::{DesDriver, FaultPlan, Program, RelConfig, RelStats, TenantConfig};
use abr_core::{AbConfig, AbEngine};
use abr_des::Accumulator;
use abr_jobs::{place, Placement};
use abr_mpr::engine::{Engine, EngineConfig, MessageEngine};
use abr_mpr::{Communicator, TopologyKind};
use abr_trace::Tracer;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A point of a workload.
#[derive(Debug, Clone)]
pub enum Point {
    /// The paper's CPU-utilization microbenchmark on one cluster; `mode`
    /// is `Baseline` (nab) or `Bypass` (ab).
    Paper(CpuUtilConfig),
    /// A co-scheduled job mix run through the multi-job constructor.
    Tenant(TenantConfig),
}

impl Point {
    /// True for application-bypass engines.
    pub fn ab(&self) -> bool {
        match self {
            Point::Paper(cfg) => matches!(cfg.mode, Mode::Bypass(_)),
            Point::Tenant(cfg) => cfg.ab,
        }
    }

    /// Ranks times iterations: the reductions every rank takes part in.
    pub fn rank_reductions(&self) -> u64 {
        match self {
            Point::Paper(cfg) => cfg.cluster.len() as u64 * cfg.iters,
            Point::Tenant(cfg) => cfg
                .mix
                .jobs
                .iter()
                .map(|j| u64::from(j.ranks) * u64::from(j.iters))
                .sum(),
        }
    }

    /// The (tree kind, communicator size) of each reduction schedule the
    /// point builds.
    pub fn schedules(&self) -> Vec<(TopologyKind, u32)> {
        match self {
            Point::Paper(cfg) => vec![(cfg.cluster.topology, cfg.cluster.len() as u32)],
            Point::Tenant(cfg) => cfg
                .mix
                .jobs
                .iter()
                .map(|j| (cfg.cluster.topology, j.ranks))
                .collect(),
        }
    }

    /// Ranks the driver simulates.
    pub fn ranks(&self) -> usize {
        match self {
            Point::Paper(cfg) => cfg.cluster.len(),
            Point::Tenant(cfg) => cfg.mix.total_ranks(),
        }
    }
}

/// Post-run network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    pub packets: u64,
    pub bytes: u64,
    pub link_waits: u64,
    pub link_wait_us: f64,
    pub floor_entries: u64,
    pub floors_pruned: u64,
}

/// What one point produced.
#[derive(Debug, Clone)]
pub struct PointOut {
    /// Wall seconds building the driver (placement, engines, programs).
    pub setup_s: f64,
    /// Wall seconds inside `DesDriver::run`.
    pub sim_s: f64,
    /// Mean host CPU µs per rank-reduction (the paper's metric).
    pub model_cpu_us: f64,
    /// Final virtual time, µs.
    pub makespan_us: f64,
    pub events: u64,
    pub packets: u64,
    pub nodes: Vec<NodeResult>,
    pub net: NetStats,
    pub rel: RelStats,
    /// Reduction results checked, and rank-reductions found wrong.
    pub checked: u64,
    pub wrong: u64,
    /// Adapter timings (all zero without adapters).
    pub layers: Tally,
}

/// Simulate `point`, with the timing adapters when `probe` is set and
/// `tracer` installed when given. A panic inside the simulation (such as
/// a DES deadlock) comes back as `Err` with its message.
pub fn run_point(
    point: &Point,
    probe: bool,
    tracer: Option<Arc<dyn Tracer>>,
) -> Result<PointOut, String> {
    panic::catch_unwind(AssertUnwindSafe(|| simulate(point, probe, tracer))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

fn simulate(point: &Point, probe: bool, tracer: Option<Arc<dyn Tracer>>) -> PointOut {
    let tally = Arc::new(CheckTally::default());
    let mut out = match point {
        Point::Paper(cfg) => {
            let n = cfg.cluster.len() as u32;
            let expect = PaperProgram::expected_sum(n);
            let programs = || {
                (0..n)
                    .map(|r| Checked::new(PaperProgram::new(cfg, r), r, n, expect, tally.clone()))
                    .collect::<Vec<_>>()
            };
            match cfg.mode {
                Mode::Baseline => solo(cfg, probe, tracer, programs, |r, ec| Engine::new(r, n, ec)),
                Mode::Bypass(delay) => solo(cfg, probe, tracer, programs, |r, ec| {
                    let ab = AbConfig {
                        enabled: true,
                        delay,
                        nic_offload: false,
                    };
                    AbEngine::new(r, n, ec, ab)
                }),
                other => panic!("no benchmark point runs mode {}", other.label()),
            }
        }
        Point::Tenant(cfg) => {
            let programs = || {
                cfg.mix
                    .jobs
                    .iter()
                    .map(|spec| {
                        TenantProgram::job(spec)
                            .into_iter()
                            .enumerate()
                            .map(|(r, p)| {
                                let expect = f64::from(spec.ranks);
                                Checked::new(p, r as u32, spec.ranks, expect, tally.clone())
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            };
            if cfg.ab {
                jobs(cfg, probe, tracer, programs, |job, r, size, ec| {
                    let mut e = AbEngine::new(r, size, ec, AbConfig::default());
                    e.set_world(Communicator::job(job, size));
                    e
                })
            } else {
                jobs(cfg, probe, tracer, programs, |job, r, size, ec| {
                    let mut e = Engine::new(r, size, ec);
                    e.set_world(Communicator::job(job, size));
                    e
                })
            }
        }
    };
    out.model_cpu_us = match point {
        Point::Paper(_) => {
            let mut acc = Accumulator::new();
            for node in &out.nodes {
                for o in node.obs.iter().filter(|o| o.key == "cpu_util_us") {
                    acc.push(o.value);
                }
            }
            acc.mean()
        }
        Point::Tenant(_) => {
            let host: f64 = out
                .nodes
                .iter()
                .map(|n| n.cpu_poll_us + n.cpu_protocol_us + n.cpu_signal_us)
                .sum();
            host / point.rank_reductions() as f64
        }
    };
    out.checked = tally.checked();
    out.wrong = tally.wrong();
    out
}

/// A solo cluster through `DesDriver::new`.
fn solo<E: MessageEngine, P: Program>(
    cfg: &CpuUtilConfig,
    probe: bool,
    tracer: Option<Arc<dyn Tracer>>,
    programs: impl FnOnce() -> Vec<P>,
    make: impl Fn(u32, EngineConfig) -> E,
) -> PointOut {
    if probe {
        finish(
            || {
                let programs = programs().into_iter().map(Timed).collect();
                DesDriver::new(&cfg.cluster, |r, ec| Timed(make(r, ec)), programs)
            },
            &cfg.faults,
            tracer,
        )
    } else {
        finish(
            || DesDriver::new(&cfg.cluster, make, programs()),
            &cfg.faults,
            tracer,
        )
    }
}

/// Place a tenant mix on its cluster.
pub fn placement(cfg: &TenantConfig) -> Placement {
    place(&cfg.mix, cfg.cluster.len(), cfg.slots, cfg.policy)
        .expect("tenant mix must fit the cluster")
}

/// A job mix through `DesDriver::new_jobs`; placement counts as set-up.
fn jobs<E: MessageEngine, P: Program>(
    cfg: &TenantConfig,
    probe: bool,
    tracer: Option<Arc<dyn Tracer>>,
    programs: impl FnOnce() -> Vec<Vec<P>>,
    make: impl Fn(u32, u32, u32, EngineConfig) -> E,
) -> PointOut {
    let none = FaultPlan::none();
    if probe {
        finish(
            || {
                let placement = placement(cfg);
                let programs = programs()
                    .into_iter()
                    .map(|job| job.into_iter().map(Timed).collect())
                    .collect();
                let make = |j, r, s, ec| Timed(make(j, r, s, ec));
                DesDriver::new_jobs(&cfg.cluster, &placement.node_of, make, programs)
            },
            &none,
            tracer,
        )
    } else {
        finish(
            || DesDriver::new_jobs(&cfg.cluster, &placement(cfg).node_of, make, programs()),
            &none,
            tracer,
        )
    }
}

/// Time the build and the run, then read the results.
fn finish<E: MessageEngine, P: Program>(
    build: impl FnOnce() -> DesDriver<E, P>,
    faults: &FaultPlan,
    tracer: Option<Arc<dyn Tracer>>,
) -> PointOut {
    let t0 = Instant::now();
    let mut d = build();
    d.set_faults(faults, RelConfig::sim_default());
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        d.install_tracer(t);
    }
    probe::take_tally();
    let t1 = Instant::now();
    d.run();
    let sim_s = t1.elapsed().as_secs_f64();
    let layers = probe::take_tally();
    let net = d.network();
    PointOut {
        setup_s,
        sim_s,
        model_cpu_us: 0.0,
        makespan_us: d.now().as_us_f64(),
        events: d.events_processed(),
        packets: d.packets_delivered,
        nodes: d.results(),
        net: NetStats {
            packets: net.packets_carried(),
            bytes: net.bytes_carried(),
            link_waits: net.link_waits(),
            link_wait_us: net.link_wait_us(),
            floor_entries: net.floor_entries() as u64,
            floors_pruned: net.floors_pruned(),
        },
        rel: d.rel_stats().unwrap_or_default(),
        checked: 0,
        wrong: 0,
        layers,
    }
}
