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
//!
//! Each benchmark is a [`StepTemplate`] that [`IterProgram`] runs: the
//! template lists one iteration's steps and its hook records the
//! observations after the steps complete. One CPU-utilization template
//! serves the blocking and split reduce, the dual-root allreduce and the
//! broadcast; the application sweep and the latency benchmark (whose
//! iteration 0 is the barrier and ping-pong prologue) are the other two.

use crate::driver::{DesDriver, NodeResult};
use crate::node::ClusterSpec;
use crate::program::{IterProgram, Program, Step, StepCtx, StepTemplate};
use abr_core::{AbConfig, AbEngine, DelayPolicy};
use abr_des::rng::StreamRng;
use abr_des::stats::Accumulator;
use abr_des::{SimDuration, SimTime};
use abr_faults::{FaultPlan, RelConfig, RelStats};
use abr_mpr::engine::{Engine, MessageEngine};
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

    /// The bypass-layer configuration this mode runs under.
    pub fn ab_config(&self) -> AbConfig {
        match *self {
            Mode::Baseline => AbConfig::disabled(),
            Mode::Bypass(delay) => AbConfig {
                enabled: true,
                delay,
                nic_offload: false,
            },
            Mode::SplitPhase => AbConfig::default(),
            Mode::NicBypass => AbConfig::nic_offload(),
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

/// An f64 sum of `data` to `root`: blocking, or split-phase if `split`.
fn sum_to(root: Rank, data: Vec<u8>, split: bool) -> Step {
    let (op, dtype) = (ReduceOp::Sum, Datatype::F64);
    match split {
        false => Step::Reduce {
            root,
            op,
            dtype,
            data,
        },
        true => Step::ReduceSplit {
            root,
            op,
            dtype,
            data,
        },
    }
}

/// The collective a CPU-utilization iteration posts.
#[derive(Clone, Copy)]
enum Post {
    Reduce,
    DualAllreduce,
    /// The root's payload is the iteration number.
    Bcast,
}

/// The §VI CPU-utilization loop as a step template. Each iteration opens
/// the window, busy-loops the skew, posts the collective, busy-loops the
/// catch-up delay (and waits on a split-phase post after it), closes the
/// window, records it minus both delays, and ends at a barrier.
struct CpuUtilTemplate<'a> {
    cfg: &'a CpuUtilConfig,
    rank: Rank,
    rng: StreamRng,
    post: Post,
    split: bool,
    record_wall: bool,
    catchup: SimDuration,
    /// This iteration's skew (injected plus natural).
    skew: SimDuration,
    /// When the collective was posted.
    t_coll: SimTime,
}

impl CpuUtilTemplate<'_> {
    /// The collective step, carrying this rank's contribution.
    fn post_step(&self, iter: u64) -> Step {
        let (root, elems) = (self.cfg.root, self.cfg.elems);
        if let Post::Bcast = self.post {
            let data =
                (self.rank == root).then(|| Bytes::from(f64s_to_bytes(&vec![iter as f64; elems])));
            let len = elems * 8;
            return match self.split {
                false => Step::Bcast { root, data, len },
                true => Step::BcastSplit { root, data, len },
            };
        }
        let (op, dtype) = (ReduceOp::Sum, Datatype::F64);
        let data = f64s_to_bytes(&vec![self.rank as f64 + 1.0; elems]);
        match (self.post, self.split) {
            (Post::Reduce, split) => sum_to(root, data, split),
            (_, false) => Step::AllreduceDual { op, dtype, data },
            (_, true) => Step::AllreduceDualSplit { op, dtype, data },
        }
    }
}

impl StepTemplate for CpuUtilTemplate<'_> {
    fn iters(&self) -> u64 {
        self.cfg.iters
    }

    /// `[WindowStart, Busy(skew), post, Busy(catchup), WaitSplit,
    /// WindowStop, Barrier]`; a blocking post has no `WaitSplit`.
    #[inline]
    fn step(&mut self, iter: u64, idx: usize, _ctx: &StepCtx) -> Option<Step> {
        let phase = if !self.split && idx >= 4 {
            idx + 1
        } else {
            idx
        };
        Some(match phase {
            0 => {
                let mut r = self.rng.derive(&[iter, self.rank as u64]);
                let injected = r.below(self.cfg.max_skew_us + 1);
                let natural = r.below(self.cfg.natural_jitter_us + 1);
                self.skew = SimDuration::from_us(injected + natural);
                Step::WindowStart
            }
            1 => Step::Busy(self.skew),
            2 => self.post_step(iter),
            3 => Step::Busy(self.catchup),
            4 => Step::WaitSplit,
            5 => Step::WindowStop,
            6 => Step::Barrier,
            _ => return None,
        })
    }

    #[inline]
    fn after(&mut self, _iter: u64, idx: usize, ctx: &mut StepCtx) {
        match (idx, self.split) {
            (1, _) => self.t_coll = ctx.now,
            // The collective completed (blocking call or split wait).
            (2, false) | (4, true) if self.record_wall => {
                ctx.record("iter_wall_us", (ctx.now - self.t_coll).as_us_f64());
            }
            // The window closed: the paper's subtraction of the two
            // injected busy delays.
            (4, false) | (5, true) => {
                let window = ctx.last_window.expect("window just closed");
                let util = window
                    .host_total()
                    .saturating_sub(self.skew)
                    .saturating_sub(self.catchup);
                ctx.record("cpu_util_us", util.as_us_f64());
                if !window.nic.is_zero() {
                    ctx.record("nic_us", window.nic.as_us_f64());
                }
            }
            _ => {}
        }
    }
}

/// RNG stream label of the CPU-utilization benchmark's skew draws.
const STREAM_CPU: u64 = 0xBE7C;
/// RNG stream label of the broadcast benchmark's skew draws.
const STREAM_BCAST: u64 = 0xBCA7;

/// One CPU-utilization program per rank. `stream` labels the skew draws;
/// concrete (unboxed) programs let the driver monomorphize its per-step
/// dispatch.
fn cpu_programs(
    cfg: &CpuUtilConfig,
    stream: u64,
    post: Post,
    split: bool,
) -> Vec<IterProgram<CpuUtilTemplate<'_>>> {
    let root_rng = StreamRng::root(cfg.seed);
    (0..cfg.cluster.len() as u32)
        .map(|rank| {
            IterProgram::new(CpuUtilTemplate {
                cfg,
                rank,
                rng: root_rng.derive(&[stream, rank as u64]),
                post,
                split,
                record_wall: cfg.record_wall,
                catchup: SimDuration::from_us(cfg.max_skew_us + cfg.catchup_margin_us),
                skew: SimDuration::ZERO,
                t_coll: SimTime::ZERO,
            })
        })
        .collect()
}

/// Fold a finished CPU-utilization run into a [`CpuUtilResult`].
fn aggregate_cpu<E: MessageEngine, P: Program>(d: &DesDriver<E, P>) -> CpuUtilResult {
    let nodes = d.results();
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
        rel: d.rel_stats(),
        link_waits: d.network().link_waits(),
        link_wait_us: d.network().link_wait_us(),
        nodes,
    }
}

/// Install the tracer (if any) and the fault plan, then run the driver to
/// completion. [`DesDriver::run`] takes the shard count from
/// `ABR_DES_SHARDS` (one shard whenever faults or a tracer are installed).
fn run_driver<E: MessageEngine, P: Program>(
    mut d: DesDriver<E, P>,
    faults: &FaultPlan,
    tracer: Option<Arc<dyn Tracer>>,
) -> DesDriver<E, P> {
    if let Some(t) = tracer {
        d.install_tracer(t);
    }
    d.set_faults(faults, RelConfig::sim_default());
    d.run();
    d
}

/// Run the CPU-utilization benchmark.
pub fn run_cpu_util(cfg: &CpuUtilConfig) -> CpuUtilResult {
    run_cpu_util_traced(cfg, None)
}

/// [`run_cpu_util`] with an optional [`Tracer`] installed on the driver
/// (see [`DesDriver::install_tracer`]); `None` is the cost-free default.
pub fn run_cpu_util_traced(cfg: &CpuUtilConfig, tracer: Option<Arc<dyn Tracer>>) -> CpuUtilResult {
    let n = cfg.cluster.len() as u32;
    let post = match cfg.coll {
        BenchColl::Reduce => Post::Reduce,
        BenchColl::DualAllreduce => Post::DualAllreduce,
    };
    let programs = cpu_programs(cfg, STREAM_CPU, post, cfg.mode == Mode::SplitPhase);
    match cfg.mode {
        Mode::Baseline => {
            let d = DesDriver::new(&cfg.cluster, |rank, ec| Engine::new(rank, n, ec), programs);
            aggregate_cpu(&run_driver(d, &cfg.faults, tracer))
        }
        mode => {
            let ab = mode.ab_config();
            let d = DesDriver::new(
                &cfg.cluster,
                |rank, ec| AbEngine::new(rank, n, ec, ab.clone()),
                programs,
            );
            aggregate_cpu(&run_driver(d, &cfg.faults, tracer))
        }
    }
}

// ---------------------------------------------------------------------
// Broadcast benchmark (the ref. \[8\] companion system)
// ---------------------------------------------------------------------

/// Run the broadcast CPU-utilization benchmark: the CPU-utilization loop
/// around a broadcast whose root payload is the iteration number. A skewed
/// root stalls the whole tree under the blocking broadcast
/// (`Mode::Baseline`); any bypass mode posts the split-phase
/// application-bypass broadcast, computes through the catch-up delay, and
/// collects the payload at the end.
pub fn run_bcast_util(cfg: &CpuUtilConfig) -> CpuUtilResult {
    let n = cfg.cluster.len() as u32;
    let programs = cpu_programs(cfg, STREAM_BCAST, Post::Bcast, cfg.mode != Mode::Baseline);
    let ab = cfg.mode.ab_config();
    let d = DesDriver::new(
        &cfg.cluster,
        |rank, ec| AbEngine::new(rank, n, ec, ab.clone()),
        programs,
    );
    aggregate_cpu(&run_driver(d, &cfg.faults, None))
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

/// One rank's sweeps: compute (imbalanced), then contribute the residual.
/// Split mode pipelines: each sweep collects the *previous* sweep's
/// residual only after its compute, so the reduction's latency hides under
/// it, and the last sweep drains its own.
struct AppTemplate<'a> {
    cfg: &'a AppBenchConfig,
    rank: Rank,
    rng: StreamRng,
}

impl StepTemplate for AppTemplate<'_> {
    fn iters(&self) -> u64 {
        self.cfg.sweeps
    }

    /// `[Busy(work), WaitSplit, post, WaitSplit]`: split mode waits for
    /// the previous sweep's reduction before posting (from the second
    /// sweep) and drains its own after the last post.
    #[inline]
    fn step(&mut self, sweep: u64, idx: usize, _ctx: &StepCtx) -> Option<Step> {
        let cfg = self.cfg;
        let split = cfg.mode == Mode::SplitPhase;
        let post = 1 + (split && sweep > 0) as usize;
        match idx {
            0 => {
                let mut r = self.rng.derive(&[sweep, self.rank as u64]);
                let extra = (cfg.compute_us as f64 * cfg.imbalance) as u64;
                let work = cfg.compute_us + r.below(extra + 1);
                Some(Step::Busy(SimDuration::from_us(work)))
            }
            i if i < post => Some(Step::WaitSplit),
            i if i == post => Some(sum_to(0, f64s_to_bytes(&vec![1.0; cfg.elems]), split)),
            i if i == post + 1 && split && sweep + 1 == cfg.sweeps => Some(Step::WaitSplit),
            _ => None,
        }
    }
}

/// Run the application benchmark; the headline number is the makespan.
pub fn run_app_bench(cfg: &AppBenchConfig) -> AppBenchResult {
    let n = cfg.cluster.len() as u32;
    let root_rng = StreamRng::root(cfg.seed);
    let programs: Vec<_> = (0..n)
        .map(|rank| {
            let rng = root_rng.derive(&[0xA99, rank as u64]);
            IterProgram::new(AppTemplate { cfg, rank, rng })
        })
        .collect();
    let ab = cfg.mode.ab_config();
    let d = DesDriver::new(
        &cfg.cluster,
        |rank, ec| AbEngine::new(rank, n, ec, ab.clone()),
        programs,
    );
    let d = run_driver(d, &cfg.faults, None);
    let nodes = d.results();
    let runtime_cpu_us = nodes
        .iter()
        .map(|r| r.cpu_poll_us + r.cpu_protocol_us + r.cpu_signal_us)
        .sum::<f64>()
        / nodes.len() as f64;
    AppBenchResult {
        makespan_us: d.now().as_us_f64(),
        runtime_cpu_us,
        signals: nodes.iter().map(|r| r.signals_raised).sum(),
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

/// An 8-byte control message to `dst`.
fn send(dst: Rank, tag: i32) -> Step {
    let data = Bytes::from(vec![0u8; 8]);
    Step::Send { dst, tag, data }
}

/// Receive an 8-byte control message from `src`.
fn recv(src: Rank, tag: i32) -> Step {
    Step::Recv { src, tag, cap: 8 }
}

/// Which latency-benchmark role a rank plays.
enum LatRole {
    Root { last: Rank },
    Last { root: Rank },
    Other,
}

/// One rank of the latency benchmark. Iteration 0 is the prologue: a
/// barrier, the ping-pong calibration between the root and the last node,
/// and a barrier. Each later iteration is one timed reduction: the root
/// notifies the last node of completion, and a barrier ends it.
struct LatencyTemplate<'a> {
    cfg: &'a LatencyConfig,
    role: LatRole,
    /// Last node: when the open ping or timed reduction started.
    t_mark: SimTime,
    rtt_sum: f64,
    one_way_us: f64,
}

impl LatencyTemplate<'_> {
    /// This rank's side of a control message between the last node and
    /// the root: a send when it is the sender (`from_last` says which),
    /// else a receive.
    fn control(&self, from_last: bool, tag: i32) -> Step {
        match self.role {
            LatRole::Last { root } if from_last => send(root, tag),
            LatRole::Last { root } => recv(root, tag),
            LatRole::Root { last } if from_last => recv(last, tag),
            LatRole::Root { last } => send(last, tag),
            LatRole::Other => unreachable!("only the root and the last node exchange messages"),
        }
    }
}

impl StepTemplate for LatencyTemplate<'_> {
    fn iters(&self) -> u64 {
        self.cfg.iters + 1
    }

    /// Iteration 0 is `[Barrier, ping, pong, ..., Barrier]`, the later
    /// ones `[reduce, notice, Barrier]`; ranks other than the root and the
    /// last node skip the pings and the notice.
    #[inline]
    fn step(&mut self, iter: u64, idx: usize, ctx: &StepCtx) -> Option<Step> {
        let talks = !matches!(self.role, LatRole::Other);
        let body = match iter {
            0 if talks => 1 + 2 * self.cfg.pings as usize,
            0 => 1,
            _ => 1 + talks as usize,
        };
        Some(match (iter, idx) {
            (_, i) if i > body => return None,
            (_, i) if i == body => Step::Barrier,
            (0, 0) => Step::Barrier,
            // Odd steps are the last node's pings, even ones the root's pongs.
            (0, i) if i % 2 == 1 => self.control(true, PING_TAG),
            (0, _) => self.control(false, PONG_TAG),
            (_, 0) => {
                self.t_mark = ctx.now;
                let data = f64s_to_bytes(&vec![1.0; self.cfg.elems]);
                sum_to(self.cfg.root, data, false)
            }
            (_, _) => self.control(false, NOTIFY_TAG),
        })
    }

    #[inline]
    fn after(&mut self, iter: u64, idx: usize, ctx: &mut StepCtx) {
        if !matches!(self.role, LatRole::Last { .. }) {
            return;
        }
        let pings = self.cfg.pings;
        let last_pong = 2 * pings as usize;
        if iter == 0 && idx.is_multiple_of(2) && idx <= last_pong {
            // The entry barrier or a pong completed; the next ping leaves now.
            if idx > 0 {
                self.rtt_sum += (ctx.now - self.t_mark).as_us_f64();
            }
            if idx == last_pong {
                self.one_way_us = self.rtt_sum / (2.0 * pings as f64);
                ctx.record("one_way_us", self.one_way_us);
            }
            self.t_mark = ctx.now;
        } else if iter > 0 && idx == 1 {
            // The root's completion notice arrived.
            let total = (ctx.now - self.t_mark).as_us_f64();
            ctx.record("latency_us", total - self.one_way_us);
        }
    }
}

fn latency_programs(cfg: &LatencyConfig) -> Vec<IterProgram<LatencyTemplate<'_>>> {
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
            IterProgram::new(LatencyTemplate {
                cfg,
                role,
                t_mark: SimTime::ZERO,
                rtt_sum: 0.0,
                one_way_us: 0.0,
            })
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
            let d = DesDriver::new(&cfg.cluster, |rank, ec| Engine::new(rank, n, ec), programs);
            aggregate_latency(run_driver(d, &cfg.faults, None).results())
        }
        mode => {
            let ab = mode.ab_config();
            let d = DesDriver::new(
                &cfg.cluster,
                |rank, ec| AbEngine::new(rank, n, ec, ab.clone()),
                programs,
            );
            aggregate_latency(run_driver(d, &cfg.faults, None).results())
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
        |rank, ec| Engine::new(rank, n, ec),
        cpu_programs(&cfg, STREAM_CPU, Post::Reduce, false),
    );
    d.run();
    let wall_secs = start.elapsed().as_secs_f64();
    let events = d.events_processed();
    ScaleRunResult {
        ranks: n,
        events,
        wall_secs,
        events_per_sec: events as f64 / wall_secs.max(1e-9),
        makespan_us: d.now().as_us_f64(),
        mean_cpu_us: aggregate_cpu(&d).mean_cpu_us,
        packets_delivered: d.packets_delivered,
    }
}
