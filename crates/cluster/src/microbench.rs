//! The paper's two microbenchmarks (§VI), parameterized like the figures.
//!
//! **CPU utilization**: per iteration each node opens a measurement window,
//! busy-loops a random skew in `[0, max_skew]`, performs the reduction,
//! busy-loops a catch-up delay (max skew plus a conservative bound on the
//! reduction latency, so asynchronous processing lands inside the window),
//! closes the window and subtracts the two injected delays. Iterations are
//! separated by barriers. The figure metric is the average across all nodes
//! and iterations.
//!
//! **Latency**: first the one-way small-message latency between the root
//! and the *last node* (deepest in the tree) is measured by ping-pong; then
//! each iteration times from the instant the last node enters the reduction
//! until it receives the root's completion notification, minus the one-way
//! latency. No skew is injected.

use crate::driver::{DesDriver, NodeResult};
use crate::node::ClusterSpec;
use crate::program::{Program, Step, StepCtx};
use abr_core::{AbConfig, AbEngine, DelayPolicy};
use abr_des::rng::StreamRng;
use abr_des::stats::Accumulator;
use abr_des::{SimDuration, SimTime};
use abr_faults::{FaultPlan, RelConfig, RelStats};
use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype, Rank};
use abr_trace::Tracer;
use bytes::Bytes;
use std::sync::Arc;

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Stock blocking MPICH reduction (`nab`).
    Baseline,
    /// Application-bypass reduction (`ab`) with an exit-delay policy.
    Bypass(DelayPolicy),
    /// The split-phase extension: every rank, root included, posts
    /// non-blocking and waits at the end of the iteration.
    SplitPhase,
    /// The NIC-based reduction extension (§VII): the NIC processor folds
    /// children in; no host polling and no host signals for late children.
    NicBypass,
}

impl Mode {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Baseline => "nab",
            Mode::Bypass(_) => "ab",
            Mode::SplitPhase => "ab-split",
            Mode::NicBypass => "ab-nic",
        }
    }
}

/// Which collective the CPU-utilization benchmark exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchColl {
    /// The paper's rooted reduction (the default everywhere).
    Reduce,
    /// Träff's dual-root doubly-pipelined allreduce (the bandwidth
    /// figure's third series).
    DualAllreduce,
}

/// CPU-utilization benchmark parameters.
#[derive(Debug, Clone)]
pub struct CpuUtilConfig {
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Elements per message (double words, as in the paper).
    pub elems: usize,
    /// Maximum random skew per node per iteration, µs.
    pub max_skew_us: u64,
    /// Iterations (the paper used 10,000; a few hundred converge).
    pub iters: u64,
    /// Root rank.
    pub root: Rank,
    /// Implementation under test.
    pub mode: Mode,
    /// RNG seed (same seed ⇒ same skew schedule for both modes).
    pub seed: u64,
    /// Conservative bound on the reduction latency added to the catch-up
    /// delay (µs).
    pub catchup_margin_us: u64,
    /// Naturally-occurring skew (OS noise, daemons, cache effects) present
    /// regardless of the injected skew — the effect §VI-B attributes the
    /// no-skew results to. Uniform in `[0, natural_jitter_us]`, drawn per
    /// node per iteration, and subtracted from the measurement like the
    /// injected delays.
    pub natural_jitter_us: u64,
    /// Fault plan injected into the network ([`FaultPlan::none`] = clean
    /// wire, zero-cost).
    pub faults: FaultPlan,
    /// Collective under test ([`BenchColl::Reduce`] reproduces the paper's
    /// microbenchmark; the bandwidth figure also sweeps the dual-root
    /// allreduce).
    pub coll: BenchColl,
    /// Record the per-iteration wall time of the collective (post to
    /// completion) as an `"iter_wall_us"` observation. Off by default: the
    /// paper's figures measure CPU, not wall, and skew makes wall noisy.
    pub record_wall: bool,
}

impl CpuUtilConfig {
    /// Paper-style defaults over a given cluster.
    pub fn new(cluster: ClusterSpec, mode: Mode) -> Self {
        CpuUtilConfig {
            cluster,
            elems: 4,
            max_skew_us: 1000,
            iters: 300,
            root: 0,
            mode,
            seed: 0xC0FFEE,
            catchup_margin_us: 400,
            natural_jitter_us: 40,
            faults: FaultPlan::none(),
            coll: BenchColl::Reduce,
            record_wall: false,
        }
    }
}

/// CPU-utilization results.
#[derive(Debug, Clone)]
pub struct CpuUtilResult {
    /// The figure metric: mean per-reduction CPU µs, averaged over nodes
    /// and iterations.
    pub mean_cpu_us: f64,
    /// Per-node means.
    pub per_node_us: Vec<f64>,
    /// Total signals taken across the run.
    pub signals: u64,
    /// Signals suppressed because progress was underway.
    pub signals_suppressed: u64,
    /// Sum of interesting engine counters across nodes.
    pub counters: Vec<(&'static str, u64)>,
    /// Median per-reduction CPU across all observations (µs).
    pub p50_us: f64,
    /// 95th-percentile per-reduction CPU (µs) — tail behaviour under skew.
    pub p95_us: f64,
    /// Worst observed per-reduction CPU (µs).
    pub max_us: f64,
    /// Mean per-iteration collective wall time (µs); zero unless
    /// [`CpuUtilConfig::record_wall`] was set.
    pub mean_wall_us: f64,
    /// Total NIC-processor time across the run (µs) — zero unless the
    /// NIC-offload extension is active.
    pub nic_us_total: f64,
    /// Aggregate reliability-layer counters (present only when a fault
    /// plan was active).
    pub rel: Option<RelStats>,
    /// Packets that queued behind a busy fabric link (zero on the flat
    /// crossbar, where links are never shared).
    pub link_waits: u64,
    /// Total time packets spent queued on busy fabric links (µs).
    pub link_wait_us: f64,
    /// Raw per-node results.
    pub nodes: Vec<NodeResult>,
}

struct CpuUtilProgram {
    rank: Rank,
    root: Rank,
    elems: usize,
    iters: u64,
    max_skew_us: u64,
    natural_jitter_us: u64,
    catchup: SimDuration,
    rng: StreamRng,
    iter: u64,
    phase: u8,
    cur_skew: SimDuration,
    coll: BenchColl,
    record_wall: bool,
    t_coll: SimTime,
}

impl CpuUtilProgram {
    /// This rank's contribution for the iteration.
    fn payload(&self) -> Vec<u8> {
        f64s_to_bytes(&vec![self.rank as f64 + 1.0; self.elems])
    }

    /// The blocking collective under test.
    fn blocking_step(&self) -> Step {
        match self.coll {
            BenchColl::Reduce => Step::Reduce {
                root: self.root,
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: self.payload(),
            },
            BenchColl::DualAllreduce => Step::AllreduceDual {
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: self.payload(),
            },
        }
    }

    /// The split-phase collective under test.
    fn split_step(&self) -> Step {
        match self.coll {
            BenchColl::Reduce => Step::ReduceSplit {
                root: self.root,
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: self.payload(),
            },
            BenchColl::DualAllreduce => Step::AllreduceDualSplit {
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: self.payload(),
            },
        }
    }

    /// Record the post-to-completion wall time if asked to.
    fn record_wall_obs(&self, ctx: &mut StepCtx) {
        if self.record_wall {
            ctx.record("iter_wall_us", (ctx.now - self.t_coll).as_us_f64());
        }
    }
}

impl Program for CpuUtilProgram {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        loop {
            if self.iter >= self.iters {
                return Step::Done;
            }
            match self.phase {
                0 => {
                    self.phase = 1;
                    return Step::WindowStart;
                }
                1 => {
                    let mut r = self.rng.derive(&[self.iter, self.rank as u64]);
                    let injected = r.below(self.max_skew_us + 1);
                    let natural = r.below(self.natural_jitter_us + 1);
                    self.cur_skew = SimDuration::from_us(injected + natural);
                    self.phase = 2;
                    return Step::Busy(self.cur_skew);
                }
                2 => {
                    self.phase = 3;
                    self.t_coll = ctx.now;
                    return self.blocking_step();
                }
                3 => {
                    self.record_wall_obs(ctx);
                    self.phase = 4;
                    return Step::Busy(self.catchup);
                }
                4 => {
                    self.phase = 5;
                    return Step::WindowStop;
                }
                5 => {
                    // The paper's subtraction: measured window minus the
                    // two injected busy delays.
                    let window = ctx.last_window.expect("window just closed");
                    let util = window
                        .host_total()
                        .saturating_sub(self.cur_skew)
                        .saturating_sub(self.catchup);
                    ctx.record("cpu_util_us", util.as_us_f64());
                    if !window.nic.is_zero() {
                        ctx.record("nic_us", window.nic.as_us_f64());
                    }
                    self.phase = 6;
                    continue;
                }
                6 => {
                    self.phase = 0;
                    self.iter += 1;
                    return Step::Barrier;
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Split-phase variant: post the reduce, overlap the catch-up "computation"
/// with it, and wait at the end of the window.
struct SplitUtilProgram {
    base: CpuUtilProgram,
}

impl Program for SplitUtilProgram {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        let p = &mut self.base;
        loop {
            if p.iter >= p.iters {
                return Step::Done;
            }
            match p.phase {
                0 => {
                    p.phase = 1;
                    return Step::WindowStart;
                }
                1 => {
                    let mut r = p.rng.derive(&[p.iter, p.rank as u64]);
                    let injected = r.below(p.max_skew_us + 1);
                    let natural = r.below(p.natural_jitter_us + 1);
                    p.cur_skew = SimDuration::from_us(injected + natural);
                    p.phase = 2;
                    return Step::Busy(p.cur_skew);
                }
                2 => {
                    p.phase = 3;
                    p.t_coll = ctx.now;
                    return p.split_step();
                }
                3 => {
                    p.phase = 4;
                    return Step::Busy(p.catchup);
                }
                4 => {
                    p.phase = 5;
                    return Step::WaitSplit;
                }
                5 => {
                    p.record_wall_obs(ctx);
                    p.phase = 6;
                    return Step::WindowStop;
                }
                6 => {
                    let window = ctx.last_window.expect("window just closed");
                    let util = window
                        .host_total()
                        .saturating_sub(p.cur_skew)
                        .saturating_sub(p.catchup);
                    ctx.record("cpu_util_us", util.as_us_f64());
                    if !window.nic.is_zero() {
                        ctx.record("nic_us", window.nic.as_us_f64());
                    }
                    p.phase = 7;
                    continue;
                }
                7 => {
                    p.phase = 0;
                    p.iter += 1;
                    return Step::Barrier;
                }
                _ => unreachable!(),
            }
        }
    }
}

fn cpu_util_program(cfg: &CpuUtilConfig, rank: u32) -> CpuUtilProgram {
    let root_rng = StreamRng::root(cfg.seed);
    CpuUtilProgram {
        rank,
        root: cfg.root,
        elems: cfg.elems,
        iters: cfg.iters,
        max_skew_us: cfg.max_skew_us,
        natural_jitter_us: cfg.natural_jitter_us,
        catchup: SimDuration::from_us(cfg.max_skew_us + cfg.catchup_margin_us),
        rng: root_rng.derive(&[0xBE7C, rank as u64]),
        iter: 0,
        phase: 0,
        cur_skew: SimDuration::ZERO,
        coll: cfg.coll,
        record_wall: cfg.record_wall,
        t_coll: SimTime::ZERO,
    }
}

/// Concrete (unboxed) program lists: every rank runs the same program
/// type, so the driver monomorphizes over it and the per-step dispatch in
/// `advance_program` is a direct call, not a vtable hop.
fn cpu_util_programs(cfg: &CpuUtilConfig) -> Vec<CpuUtilProgram> {
    (0..cfg.cluster.len() as u32)
        .map(|rank| cpu_util_program(cfg, rank))
        .collect()
}

fn split_util_programs(cfg: &CpuUtilConfig) -> Vec<SplitUtilProgram> {
    (0..cfg.cluster.len() as u32)
        .map(|rank| SplitUtilProgram {
            base: cpu_util_program(cfg, rank),
        })
        .collect()
}

fn aggregate_cpu(nodes: Vec<NodeResult>) -> CpuUtilResult {
    let mut per_node_us = Vec::with_capacity(nodes.len());
    let mut grand = Accumulator::new();
    let mut wall = Accumulator::new();
    let mut samples = Vec::new();
    for node in &nodes {
        let mut acc = Accumulator::new();
        for o in &node.obs {
            match o.key {
                "cpu_util_us" => {
                    acc.push(o.value);
                    grand.push(o.value);
                    samples.push(o.value);
                }
                "iter_wall_us" => wall.push(o.value),
                _ => {}
            }
        }
        per_node_us.push(acc.mean());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (p50_us, p95_us) = (
        crate::report::percentile(&samples, 0.5),
        crate::report::percentile(&samples, 0.95),
    );
    let max_us = samples.last().copied().unwrap_or(0.0);
    let signals = nodes.iter().map(|n| n.signals_raised).sum();
    let signals_suppressed = nodes.iter().map(|n| n.signals_suppressed_busy).sum();
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    for node in &nodes {
        for &(k, v) in &node.counters {
            match counters.iter_mut().find(|(ck, _)| *ck == k) {
                Some((_, cv)) => *cv += v,
                None => counters.push((k, v)),
            }
        }
    }
    let nic_us_total = nodes.iter().map(|n| n.cpu_nic_us).sum();
    CpuUtilResult {
        mean_cpu_us: grand.mean(),
        per_node_us,
        signals,
        signals_suppressed,
        counters,
        p50_us,
        p95_us,
        max_us,
        mean_wall_us: wall.mean(),
        nic_us_total,
        rel: None,
        link_waits: 0,
        link_wait_us: 0.0,
        nodes,
    }
}

/// Run a built driver to completion under the benchmark's fault plan and
/// aggregate into a [`CpuUtilResult`]. [`DesDriver::run`] takes the shard
/// count from `ABR_DES_SHARDS` (one shard whenever faults or a tracer are
/// installed).
fn run_cpu_driver<E: abr_mpr::engine::MessageEngine, P: Program>(
    mut d: DesDriver<E, P>,
    faults: &FaultPlan,
    tracer: Option<Arc<dyn Tracer>>,
) -> CpuUtilResult {
    if let Some(t) = tracer {
        d.install_tracer(t);
    }
    d.set_faults(faults, RelConfig::sim_default());
    d.run();
    let rel = d.rel_stats();
    let (link_waits, link_wait_us) = (d.network().link_waits(), d.network().link_wait_us());
    let mut res = aggregate_cpu(d.results());
    res.rel = rel;
    res.link_waits = link_waits;
    res.link_wait_us = link_wait_us;
    res
}

/// Run the CPU-utilization benchmark.
pub fn run_cpu_util(cfg: &CpuUtilConfig) -> CpuUtilResult {
    run_cpu_util_traced(cfg, None)
}

/// [`run_cpu_util`] with an optional [`Tracer`] installed on the driver
/// (see [`DesDriver::install_tracer`]); `None` is the cost-free default.
pub fn run_cpu_util_traced(cfg: &CpuUtilConfig, tracer: Option<Arc<dyn Tracer>>) -> CpuUtilResult {
    let n = cfg.cluster.len() as u32;
    match cfg.mode {
        Mode::Baseline => {
            let d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| Engine::new(rank, n, ec),
                cpu_util_programs(cfg),
            );
            run_cpu_driver(d, &cfg.faults, tracer)
        }
        Mode::Bypass(delay) => {
            let d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| {
                    AbEngine::new(
                        rank,
                        n,
                        ec,
                        AbConfig {
                            enabled: true,
                            delay,
                            nic_offload: false,
                        },
                    )
                },
                cpu_util_programs(cfg),
            );
            run_cpu_driver(d, &cfg.faults, tracer)
        }
        Mode::SplitPhase => {
            let d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| {
                    AbEngine::new(
                        rank,
                        n,
                        ec,
                        AbConfig {
                            enabled: true,
                            delay: DelayPolicy::None,
                            nic_offload: false,
                        },
                    )
                },
                split_util_programs(cfg),
            );
            run_cpu_driver(d, &cfg.faults, tracer)
        }
        Mode::NicBypass => {
            let d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| AbEngine::new(rank, n, ec, AbConfig::nic_offload()),
                cpu_util_programs(cfg),
            );
            run_cpu_driver(d, &cfg.faults, tracer)
        }
    }
}

// ---------------------------------------------------------------------
// Broadcast benchmark (the ref. \[8\] companion system)
// ---------------------------------------------------------------------

/// The broadcast analogue of the CPU-utilization benchmark: a skewed root
/// stalls the whole tree under the blocking broadcast; the bypass version
/// posts, computes through the catch-up delay, and collects the payload at
/// the end.
struct BcastUtilProgram {
    base: CpuUtilProgram,
    split: bool,
}

impl Program for BcastUtilProgram {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        let p = &mut self.base;
        loop {
            if p.iter >= p.iters {
                return Step::Done;
            }
            match p.phase {
                0 => {
                    p.phase = 1;
                    return Step::WindowStart;
                }
                1 => {
                    let mut r = p.rng.derive(&[p.iter, p.rank as u64]);
                    let injected = r.below(p.max_skew_us + 1);
                    let natural = r.below(p.natural_jitter_us + 1);
                    p.cur_skew = SimDuration::from_us(injected + natural);
                    p.phase = 2;
                    return Step::Busy(p.cur_skew);
                }
                2 => {
                    let payload = (p.rank == p.root)
                        .then(|| Bytes::from(f64s_to_bytes(&vec![p.iter as f64; p.elems])));
                    if self.split {
                        p.phase = 3;
                        return Step::BcastSplit {
                            root: p.root,
                            data: payload,
                            len: p.elems * 8,
                        };
                    }
                    p.phase = 4;
                    return Step::Bcast {
                        root: p.root,
                        data: payload,
                        len: p.elems * 8,
                    };
                }
                3 => {
                    p.phase = 35;
                    return Step::Busy(p.catchup);
                }
                35 => {
                    p.phase = 5;
                    return Step::WaitSplit;
                }
                4 => {
                    p.phase = 5;
                    return Step::Busy(p.catchup);
                }
                5 => {
                    p.phase = 6;
                    return Step::WindowStop;
                }
                6 => {
                    let window = ctx.last_window.expect("window just closed");
                    let util = window
                        .host_total()
                        .saturating_sub(p.cur_skew)
                        .saturating_sub(p.catchup);
                    ctx.record("cpu_util_us", util.as_us_f64());
                    p.phase = 7;
                    continue;
                }
                7 => {
                    p.phase = 0;
                    p.iter += 1;
                    return Step::Barrier;
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Run the broadcast CPU-utilization benchmark. `Mode::Baseline` is the
/// blocking binomial broadcast; any bypass mode runs the split-phase
/// application-bypass broadcast.
pub fn run_bcast_util(cfg: &CpuUtilConfig) -> CpuUtilResult {
    let n = cfg.cluster.len() as u32;
    let split = !matches!(cfg.mode, Mode::Baseline);
    let root_rng = StreamRng::root(cfg.seed);
    let programs: Vec<BcastUtilProgram> = (0..n)
        .map(|rank| BcastUtilProgram {
            base: CpuUtilProgram {
                rank,
                root: cfg.root,
                elems: cfg.elems,
                iters: cfg.iters,
                max_skew_us: cfg.max_skew_us,
                natural_jitter_us: cfg.natural_jitter_us,
                catchup: SimDuration::from_us(cfg.max_skew_us + cfg.catchup_margin_us),
                rng: root_rng.derive(&[0xBCA7, rank as u64]),
                iter: 0,
                phase: 0,
                cur_skew: SimDuration::ZERO,
                coll: BenchColl::Reduce,
                record_wall: false,
                t_coll: SimTime::ZERO,
            },
            split,
        })
        .collect();
    let ab = if split {
        AbConfig::default()
    } else {
        AbConfig::disabled()
    };
    let d = DesDriver::new(
        &cfg.cluster,
        |rank, ec: EngineConfig| AbEngine::new(rank, n, ec, ab.clone()),
        programs,
    );
    run_cpu_driver(d, &cfg.faults, None)
}

// ---------------------------------------------------------------------
// Application benchmark (§VII: "application-based evaluations")
// ---------------------------------------------------------------------

/// Parameters of the synthetic bulk-synchronous application: per sweep,
/// every rank computes (imbalanced), contributes to a global residual
/// reduction, and the root decides whether to continue.
#[derive(Debug, Clone)]
pub struct AppBenchConfig {
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Sweeps to run.
    pub sweeps: u64,
    /// Mean compute per sweep per rank, µs.
    pub compute_us: u64,
    /// Imbalance: each rank's per-sweep compute is uniform in
    /// `[compute_us, compute_us * (1 + imbalance)]`.
    pub imbalance: f64,
    /// Residual elements reduced per sweep.
    pub elems: usize,
    /// Implementation under test.
    pub mode: Mode,
    /// RNG seed.
    pub seed: u64,
    /// Fault plan injected into the network.
    pub faults: FaultPlan,
}

impl AppBenchConfig {
    /// Defaults mirroring a small imbalanced stencil.
    pub fn new(cluster: ClusterSpec, mode: Mode) -> Self {
        AppBenchConfig {
            cluster,
            sweeps: 50,
            compute_us: 300,
            imbalance: 1.0,
            elems: 4,
            mode,
            seed: 0xA11CE,
            faults: FaultPlan::none(),
        }
    }
}

/// Application benchmark results.
#[derive(Debug, Clone)]
pub struct AppBenchResult {
    /// Virtual wall-clock time to finish all sweeps (µs) — the
    /// application-visible metric.
    pub makespan_us: f64,
    /// Mean per-rank CPU spent in the runtime (polling + protocol +
    /// signals), µs.
    pub runtime_cpu_us: f64,
    /// Signals taken.
    pub signals: u64,
}

struct AppProgram {
    rank: Rank,
    sweeps: u64,
    compute_us: u64,
    imbalance: f64,
    elems: usize,
    split: bool,
    rng: StreamRng,
    sweep: u64,
    phase: u8,
    posted: bool,
}

impl Program for AppProgram {
    fn next(&mut self, _ctx: &mut StepCtx) -> Step {
        loop {
            match self.phase {
                // Compute this sweep's work (or finish).
                0 => {
                    if self.sweep >= self.sweeps {
                        if self.split && self.posted {
                            self.posted = false;
                            self.phase = 4;
                            return Step::WaitSplit; // drain the last reduce
                        }
                        return Step::Done;
                    }
                    let mut r = self.rng.derive(&[self.sweep, self.rank as u64]);
                    let extra = (self.compute_us as f64 * self.imbalance) as u64;
                    let work = self.compute_us + r.below(extra + 1);
                    self.phase = 1;
                    return Step::Busy(SimDuration::from_us(work));
                }
                // Pipelined split mode: collect the *previous* sweep's
                // residual only now — its latency hid under this sweep's
                // compute.
                1 => {
                    if self.split && self.posted {
                        self.posted = false;
                        self.phase = 2;
                        return Step::WaitSplit;
                    }
                    self.phase = 2;
                    continue;
                }
                // Contribute this sweep's residual.
                2 => {
                    let data = f64s_to_bytes(&vec![1.0; self.elems]);
                    self.sweep += 1;
                    self.phase = 0;
                    if self.split {
                        self.posted = true;
                        return Step::ReduceSplit {
                            root: 0,
                            op: ReduceOp::Sum,
                            dtype: Datatype::F64,
                            data,
                        };
                    }
                    return Step::Reduce {
                        root: 0,
                        op: ReduceOp::Sum,
                        dtype: Datatype::F64,
                        data,
                    };
                }
                4 => return Step::Done,
                _ => unreachable!(),
            }
        }
    }
}

/// Run the application benchmark; the headline number is the makespan.
pub fn run_app_bench(cfg: &AppBenchConfig) -> AppBenchResult {
    let n = cfg.cluster.len() as u32;
    let split = matches!(cfg.mode, Mode::SplitPhase);
    let root_rng = StreamRng::root(cfg.seed);
    let programs: Vec<AppProgram> = (0..n)
        .map(|rank| AppProgram {
            rank,
            sweeps: cfg.sweeps,
            compute_us: cfg.compute_us,
            imbalance: cfg.imbalance,
            elems: cfg.elems,
            split,
            rng: root_rng.derive(&[0xA99, rank as u64]),
            sweep: 0,
            phase: 0,
            posted: false,
        })
        .collect();
    let finish = |nodes: Vec<crate::driver::NodeResult>, makespan: f64| {
        let runtime_cpu_us = nodes
            .iter()
            .map(|r| r.cpu_poll_us + r.cpu_protocol_us + r.cpu_signal_us)
            .sum::<f64>()
            / nodes.len() as f64;
        AppBenchResult {
            makespan_us: makespan,
            runtime_cpu_us,
            signals: nodes.iter().map(|r| r.signals_raised).sum(),
        }
    };
    match cfg.mode {
        Mode::Baseline => {
            let mut d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| AbEngine::new(rank, n, ec, AbConfig::disabled()),
                programs,
            );
            d.set_faults(&cfg.faults, RelConfig::sim_default());
            d.run();
            let makespan = d.now().as_us_f64();
            finish(d.results(), makespan)
        }
        _ => {
            let ab = match cfg.mode {
                Mode::Bypass(delay) => AbConfig {
                    enabled: true,
                    delay,
                    nic_offload: false,
                },
                Mode::NicBypass => AbConfig::nic_offload(),
                _ => AbConfig::default(),
            };
            let mut d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| AbEngine::new(rank, n, ec, ab.clone()),
                programs,
            );
            d.set_faults(&cfg.faults, RelConfig::sim_default());
            d.run();
            let makespan = d.now().as_us_f64();
            finish(d.results(), makespan)
        }
    }
}

// ---------------------------------------------------------------------
// Latency benchmark
// ---------------------------------------------------------------------

/// Latency benchmark parameters.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Elements per message.
    pub elems: usize,
    /// Timed iterations.
    pub iters: u64,
    /// Root rank.
    pub root: Rank,
    /// Implementation under test.
    pub mode: Mode,
    /// Ping-pong rounds for the one-way calibration.
    pub pings: u64,
    /// Fault plan injected into the network.
    pub faults: FaultPlan,
}

impl LatencyConfig {
    /// Paper-style defaults.
    pub fn new(cluster: ClusterSpec, mode: Mode) -> Self {
        LatencyConfig {
            cluster,
            elems: 1,
            iters: 200,
            root: 0,
            mode,
            pings: 20,
            faults: FaultPlan::none(),
        }
    }
}

/// Latency results.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Mean reduction latency (µs), one-way-corrected, as the paper plots.
    pub mean_latency_us: f64,
    /// The measured one-way latency (µs).
    pub one_way_us: f64,
    /// Total signals taken.
    pub signals: u64,
    /// Raw per-node results.
    pub nodes: Vec<NodeResult>,
}

const NOTIFY_TAG: i32 = 990;
const PING_TAG: i32 = 991;
const PONG_TAG: i32 = 992;

/// Which latency-benchmark role a rank plays.
enum LatRole {
    Root { last: Rank },
    Last { root: Rank },
    Other,
}

struct LatencyProgram {
    role: LatRole,
    elems: usize,
    iters: u64,
    pings: u64,
    root: Rank,
    // progress
    ping: u64,
    iter: u64,
    phase: u8,
    t_mark: SimTime,
    rtt_sum: f64,
    one_way_us: f64,
}

impl Program for LatencyProgram {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        loop {
            match self.phase {
                // Phase 0: entry barrier.
                0 => {
                    self.phase = 1;
                    return Step::Barrier;
                }
                // Phase 1: ping-pong calibration (root and last only).
                1 => match &self.role {
                    LatRole::Last { root } => {
                        if self.ping >= self.pings {
                            self.one_way_us = self.rtt_sum / (2.0 * self.pings as f64);
                            ctx.record("one_way_us", self.one_way_us);
                            self.phase = 2;
                            continue;
                        }
                        self.t_mark = ctx.now;
                        self.phase = 10;
                        return Step::Send {
                            dst: *root,
                            tag: PING_TAG,
                            data: Bytes::from(vec![0u8; 8]),
                        };
                    }
                    LatRole::Root { last } => {
                        if self.ping >= self.pings {
                            self.phase = 2;
                            continue;
                        }
                        self.ping += 1;
                        self.phase = 12;
                        let last = *last;
                        return Step::Recv {
                            src: last,
                            tag: PING_TAG,
                            cap: 8,
                        };
                    }
                    LatRole::Other => {
                        self.phase = 2;
                        continue;
                    }
                },
                // Last: waiting for pong.
                10 => {
                    self.phase = 11;
                    let root = match &self.role {
                        LatRole::Last { root } => *root,
                        _ => unreachable!(),
                    };
                    return Step::Recv {
                        src: root,
                        tag: PONG_TAG,
                        cap: 8,
                    };
                }
                11 => {
                    let rtt = (ctx.now - self.t_mark).as_us_f64();
                    self.rtt_sum += rtt;
                    self.ping += 1;
                    self.phase = 1;
                    continue;
                }
                // Root: send the pong back.
                12 => {
                    self.phase = 1;
                    let last = match &self.role {
                        LatRole::Root { last } => *last,
                        _ => unreachable!(),
                    };
                    return Step::Send {
                        dst: last,
                        tag: PONG_TAG,
                        data: Bytes::from(vec![0u8; 8]),
                    };
                }
                // Phase 2: barrier before the timed loop.
                2 => {
                    self.phase = 3;
                    return Step::Barrier;
                }
                // Phase 3: the timed reduction loop.
                3 => {
                    if self.iter >= self.iters {
                        return Step::Done;
                    }
                    self.t_mark = ctx.now;
                    self.phase = 4;
                    return Step::Reduce {
                        root: self.root,
                        op: ReduceOp::Sum,
                        dtype: Datatype::F64,
                        data: f64s_to_bytes(&vec![1.0; self.elems]),
                    };
                }
                4 => match &self.role {
                    LatRole::Root { last } => {
                        // Reduction complete at the root: notify the last
                        // node.
                        self.phase = 6;
                        let last = *last;
                        return Step::Send {
                            dst: last,
                            tag: NOTIFY_TAG,
                            data: Bytes::from(vec![0u8; 8]),
                        };
                    }
                    LatRole::Last { root } => {
                        self.phase = 5;
                        let root = *root;
                        return Step::Recv {
                            src: root,
                            tag: NOTIFY_TAG,
                            cap: 8,
                        };
                    }
                    LatRole::Other => {
                        self.phase = 6;
                        continue;
                    }
                },
                5 => {
                    // Last node: notification received.
                    let total = (ctx.now - self.t_mark).as_us_f64();
                    ctx.record("latency_us", total - self.one_way_us);
                    self.phase = 6;
                    continue;
                }
                6 => {
                    self.iter += 1;
                    self.phase = 3;
                    return Step::Barrier;
                }
                _ => unreachable!(),
            }
        }
    }
}

fn latency_programs(cfg: &LatencyConfig) -> Vec<LatencyProgram> {
    let n = cfg.cluster.len() as u32;
    // Topology-aware: the deepest rank of the configured tree, not the
    // binomial popcount rule.
    let last = cfg.cluster.topology.schedule(cfg.root, n).last_node();
    (0..n)
        .map(|rank| {
            let role = if rank == cfg.root && n > 1 {
                LatRole::Root { last }
            } else if rank == last && n > 1 {
                LatRole::Last { root: cfg.root }
            } else {
                LatRole::Other
            };
            LatencyProgram {
                role,
                elems: cfg.elems,
                iters: cfg.iters,
                pings: cfg.pings,
                root: cfg.root,
                ping: 0,
                iter: 0,
                phase: 0,
                t_mark: SimTime::ZERO,
                rtt_sum: 0.0,
                one_way_us: 0.0,
            }
        })
        .collect()
}

fn aggregate_latency(nodes: Vec<NodeResult>) -> LatencyResult {
    let mut lat = Accumulator::new();
    let mut one_way = 0.0;
    for node in &nodes {
        for o in &node.obs {
            match o.key {
                "latency_us" => lat.push(o.value),
                "one_way_us" => one_way = o.value,
                _ => {}
            }
        }
    }
    LatencyResult {
        mean_latency_us: lat.mean(),
        one_way_us: one_way,
        signals: nodes.iter().map(|n| n.signals_raised).sum(),
        nodes,
    }
}

/// Run the latency benchmark.
pub fn run_latency(cfg: &LatencyConfig) -> LatencyResult {
    let n = cfg.cluster.len() as u32;
    let programs = latency_programs(cfg);
    match cfg.mode {
        Mode::Baseline => {
            let mut d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| Engine::new(rank, n, ec),
                programs,
            );
            d.set_faults(&cfg.faults, RelConfig::sim_default());
            d.run();
            aggregate_latency(d.results())
        }
        Mode::Bypass(_) | Mode::SplitPhase | Mode::NicBypass => {
            let delay = match cfg.mode {
                Mode::Bypass(d) => d,
                _ => DelayPolicy::None,
            };
            let nic = matches!(cfg.mode, Mode::NicBypass);
            let mut d = DesDriver::new(
                &cfg.cluster,
                |rank, ec: EngineConfig| {
                    AbEngine::new(
                        rank,
                        n,
                        ec,
                        AbConfig {
                            enabled: true,
                            delay,
                            nic_offload: nic,
                        },
                    )
                },
                programs,
            );
            d.set_faults(&cfg.faults, RelConfig::sim_default());
            d.run();
            aggregate_latency(d.results())
        }
    }
}

// ---------------------------------------------------------------------
// Scale benchmark (events/sec at large rank counts)
// ---------------------------------------------------------------------

/// One timed scale-benchmark run.
#[derive(Debug, Clone)]
pub struct ScaleRunResult {
    /// Cluster size.
    pub ranks: u32,
    /// DES events processed.
    pub events: u64,
    /// Wall-clock seconds, from driver construction through run completion
    /// (engine construction and lazy schedule builds included — at scale
    /// those *are* the hot path being measured).
    pub wall_secs: f64,
    /// The headline throughput metric.
    pub events_per_sec: f64,
    /// Virtual makespan (µs).
    pub makespan_us: f64,
    /// Mean per-reduction CPU µs (the figure metric, as a sanity anchor).
    pub mean_cpu_us: f64,
    /// Packets delivered.
    pub packets_delivered: u64,
}

/// Time the baseline-engine CPU-utilization workload at `n` ranks through
/// [`DesDriver::run`] and report DES throughput (events/sec).
pub fn run_scale_bench(n: u32, iters: u64) -> ScaleRunResult {
    let cfg = CpuUtilConfig {
        elems: 4,
        max_skew_us: 200,
        iters,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous(n), Mode::Baseline)
    };
    let start = std::time::Instant::now();
    let mut d = DesDriver::new(
        &cfg.cluster,
        |rank, ec: EngineConfig| Engine::new(rank, n, ec),
        cpu_util_programs(&cfg),
    );
    d.run();
    let wall_secs = start.elapsed().as_secs_f64();
    let events = d.events_processed();
    let mut acc = Accumulator::new();
    for node in &d.results() {
        for o in node.obs.iter().filter(|o| o.key == "cpu_util_us") {
            acc.push(o.value);
        }
    }
    ScaleRunResult {
        ranks: n,
        events,
        wall_secs,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        makespan_us: d.now().as_us_f64(),
        mean_cpu_us: acc.mean(),
        packets_delivered: d.packets_delivered,
    }
}
