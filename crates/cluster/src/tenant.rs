//! The multi-tenant collective-service harness.
//!
//! Runs a seeded [`JobMix`] — shuffle+reduce jobs and iterative-allreduce
//! training jobs — co-scheduled on one cluster through the DES driver's
//! multi-job construction path ([`DesDriver::new_jobs`]): each job gets its
//! own engine set over job-local ranks and its own
//! [`Communicator::job`] context, while co-located ranks contend for their
//! node's NIC-injection clock and (when blocked-polling) stretch each
//! other's CPU work. Every job rank runs a [`TenantTemplate`] (think, then
//! the job's collective, one iteration at a time) through
//! [`IterProgram`]. The harness turns the per-job results into the
//! saturation figure's metrics: aggregate reductions/sec, pooled
//! p50/p99/p999 iteration latency, and Jain fairness across jobs.
//!
//! The headline: under the nab baseline every blocked rank busy-polls,
//! burning exactly the host CPU its co-tenants need, so throughput
//! collapses and tails explode as offered load rises; application bypass
//! blocks ranks quietly and keeps the service near its fair share.

use crate::driver::{DesDriver, NodeResult};
use crate::node::ClusterSpec;
use crate::program::{IterProgram, Step, StepCtx, StepTemplate};
use crate::report::Percentiles;
use abr_core::{AbConfig, AbEngine};
use abr_des::rng::StreamRng;
use abr_des::{SimDuration, SimTime};
use abr_jobs::{place, JobKind, JobMix, JobSpec, PlacePolicy, Placement};
use abr_mpr::engine::{Engine, EngineConfig, MessageEngine};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};
use abr_mpr::Communicator;
use bytes::Bytes;

/// RNG stream label for per-rank compute jitter.
const STREAM_JITTER: u64 = 0x54454e4a; // "TENJ"

/// One tenant-service run: a mix, a cluster, and how to pack one onto the
/// other.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// The cluster hosting the mix.
    pub cluster: ClusterSpec,
    /// The co-scheduled jobs.
    pub mix: JobMix,
    /// Ranks one node can host.
    pub slots: usize,
    /// Placement policy.
    pub policy: PlacePolicy,
    /// `true` runs application-bypass engines, `false` the busy-polling
    /// baseline.
    pub ab: bool,
}

/// Per-job outcome of a tenant run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Dense job id.
    pub job: u32,
    /// Job shape label (`"shuffle"` / `"train"`).
    pub kind: &'static str,
    /// Ranks in the job.
    pub ranks: u32,
    /// Reductions the job completed (one per iteration).
    pub reductions: u64,
    /// Virtual time at which the job finished (µs).
    pub finish_us: f64,
    /// Per-iteration wall latencies observed at the job's rank 0 (µs).
    pub iter_us: Vec<f64>,
}

impl JobOutcome {
    /// The job's throughput in reductions per virtual second.
    pub fn reductions_per_sec(&self) -> f64 {
        if self.finish_us <= 0.0 {
            return 0.0;
        }
        self.reductions as f64 / (self.finish_us / 1e6)
    }
}

/// Aggregate outcome of a tenant run.
#[derive(Debug, Clone)]
pub struct TenantResult {
    /// Per-job outcomes, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Virtual time at which the last job finished (µs).
    pub makespan_us: f64,
    /// Aggregate service throughput: total reductions over the makespan.
    pub reductions_per_sec: f64,
    /// Pooled per-iteration latency tails across every job.
    pub latency: Percentiles,
    /// Jain fairness index over per-job throughput: 1.0 when every job
    /// gets an identical share, toward `1/n` as one job starves the rest.
    pub fairness: f64,
    /// DES events processed (diagnostic).
    pub events: u64,
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` over per-job shares.
/// Returns 1.0 for an empty or all-zero set (nothing to be unfair about).
pub fn jain_fairness(shares: &[f64]) -> f64 {
    let n = shares.len() as f64;
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if n == 0.0 || sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sq)
}

/// One rank of one tenant job: `iters` iterations of think-then-communicate.
///
/// * [`JobKind::Training`]: think, then a blocking gradient allreduce.
/// * [`JobKind::ShuffleReduce`]: think, shuffle the partial result one hop
///   around the job ring (eager send + receive), then reduce to rank 0 —
///   the MapReduce shuffle+reduce shape. The blocking reduce is the §IV-E
///   showcase: ab interior ranks split-exit immediately while nab ranks
///   busy-poll for their late children.
///
/// The *program* is identical under both engines — the service-level
/// difference is entirely how each engine waits. A blocked nab rank
/// busy-polls, burning a host core its co-tenants need; a blocked ab rank
/// sleeps on NIC signals and burns nothing.
///
/// Rank 0 records one `"iter_us"` observation per iteration (wall latency
/// of the whole iteration) and, after the last, a `"done_us"` stamp; the
/// harness aggregates those into the saturation metrics.
pub struct TenantTemplate {
    kind: JobKind,
    rank: u32,
    size: u32,
    iters: u32,
    think: SimDuration,
    jitter: SimDuration,
    payload: Vec<u8>,
    block: Bytes,
    rng: StreamRng,
    iter_start: SimTime,
}

/// A tenant job rank's program.
pub type TenantProgram = IterProgram<TenantTemplate>;

impl TenantProgram {
    /// Programs for every rank of `spec`, in rank order.
    ///
    /// # Panics
    /// Panics on a job with no iterations: rank 0's `done_us` stamp
    /// follows its last iteration.
    pub fn job(spec: &JobSpec) -> Vec<TenantProgram> {
        assert!(
            spec.iters > 0,
            "{}: a tenant job runs at least one iteration",
            spec.id
        );
        let elems = spec.elems as usize;
        (0..spec.ranks)
            .map(|rank| {
                IterProgram::new(TenantTemplate {
                    kind: spec.kind,
                    rank,
                    size: spec.ranks,
                    iters: spec.iters,
                    think: SimDuration::from_us(spec.think_us),
                    jitter: SimDuration::from_us(spec.jitter_us),
                    payload: f64s_to_bytes(&vec![1.0; elems]),
                    block: Bytes::from(f64s_to_bytes(&vec![rank as f64; elems])),
                    rng: StreamRng::root(spec.seed).derive(&[STREAM_JITTER, rank as u64]),
                    iter_start: SimTime::ZERO,
                })
            })
            .collect()
    }
}

impl StepTemplate for TenantTemplate {
    fn iters(&self) -> u64 {
        self.iters as u64
    }

    /// `[Busy(think + jitter), Allreduce]` for training,
    /// `[Busy(think + jitter), Send, Recv, Reduce]` for a shuffle (no
    /// `Send`/`Recv` in a one-rank job).
    #[inline]
    fn step(&mut self, iter: u64, idx: usize, ctx: &StepCtx) -> Option<Step> {
        let last = self.last_step();
        Some(match idx {
            0 => {
                self.iter_start = ctx.now;
                // The seeded compute step. The jitter de-synchronizes
                // ranks — the straggler skew that makes bypass matter —
                // and is an absolute quantity ([`JobSpec::jitter_us`]), so
                // at saturating load (short think) blocked peers spend
                // most of each iteration waiting on the slowest rank.
                let jitter = self.rng.below(self.jitter.as_nanos() + 1);
                Step::Busy(SimDuration::from_nanos(self.think.as_nanos() + jitter))
            }
            i if i == last => {
                let (op, dtype, data) = (ReduceOp::Sum, Datatype::F64, self.payload.clone());
                match self.kind {
                    JobKind::Training => Step::Allreduce { op, dtype, data },
                    JobKind::ShuffleReduce => Step::Reduce {
                        root: 0,
                        op,
                        dtype,
                        data,
                    },
                }
            }
            1 if last == 3 => Step::Send {
                dst: (self.rank + 1) % self.size,
                tag: iter as i32,
                data: self.block.clone(),
            },
            2 if last == 3 => Step::Recv {
                src: (self.rank + self.size - 1) % self.size,
                tag: iter as i32,
                cap: self.block.len(),
            },
            _ => return None,
        })
    }

    #[inline]
    fn after(&mut self, iter: u64, idx: usize, ctx: &mut StepCtx) {
        if self.rank != 0 || idx != self.last_step() {
            return;
        }
        let lat = ctx.now.saturating_since(self.iter_start);
        ctx.record("iter_us", lat.as_us_f64());
        if iter + 1 == self.iters as u64 {
            ctx.record("done_us", ctx.now.as_us_f64());
        }
    }
}

impl TenantTemplate {
    /// Index of an iteration's collective, its last step: 3 when the job
    /// shuffles around a ring of two or more ranks first, else 1.
    #[inline]
    fn last_step(&self) -> usize {
        if self.kind == JobKind::ShuffleReduce && self.size > 1 {
            3
        } else {
            1
        }
    }
}

/// One point of the saturation sweep the tenant figure draws.
///
/// Offered load `load` scales the *demand* on a **fixed** cluster along
/// both axes a shared service sees: `ceil(base_jobs × load)` co-scheduled
/// jobs, each communicating `load`× more often (shorter think time). The
/// cluster is sized once, for the top of the ladder (`max_load`, `slots`
/// ranks per node), so the relaxed end of the sweep spreads ranks thinly
/// across near-empty nodes — no co-tenancy, both engines network-bound —
/// while the saturated end fills every slot and the engines' waiting
/// disciplines (busy-poll vs signal-sleep) decide who keeps serving.
///
/// # Panics
/// Panics if `load` exceeds `max_load` (the point would not fit the
/// cluster) or on degenerate ladder parameters.
pub fn saturation_config(
    seed: u64,
    base_jobs: usize,
    load: f64,
    max_load: f64,
    slots: usize,
    ab: bool,
) -> TenantConfig {
    assert!(
        load <= max_load,
        "sweep point {load} above the ladder top {max_load}"
    );
    let n_jobs = |l: f64| ((base_jobs as f64 * l).ceil() as usize).max(1);
    let peak = JobMix::generate(seed, n_jobs(max_load), max_load);
    let nodes = peak.total_ranks().div_ceil(slots).max(2);
    TenantConfig {
        cluster: ClusterSpec::homogeneous_1000(nodes as u32),
        mix: JobMix::generate(seed, n_jobs(load), load),
        slots,
        policy: PlacePolicy::Packed,
        ab,
    }
}

/// Place `cfg.mix` on `cfg.cluster` and run it to completion through the
/// DES driver's multi-job path. Panics on a placement that does not fit
/// (the figure bin sizes its cluster from the mix).
pub fn run_tenant(cfg: &TenantConfig) -> TenantResult {
    let placement = place(&cfg.mix, cfg.cluster.len(), cfg.slots, cfg.policy)
        .expect("tenant mix must fit the cluster");
    if cfg.ab {
        run_tenant_driver(cfg, &placement, |job, rank, size, ec| {
            let mut e = AbEngine::new(rank, size, ec, AbConfig::default());
            e.set_world(Communicator::job(job, size));
            e
        })
    } else {
        run_tenant_driver(cfg, &placement, |job, rank, size, ec| {
            let mut e = Engine::new(rank, size, ec);
            e.set_world(Communicator::job(job, size));
            e
        })
    }
}

fn run_tenant_driver<E: MessageEngine>(
    cfg: &TenantConfig,
    placement: &Placement,
    make_engine: impl FnMut(u32, u32, u32, EngineConfig) -> E,
) -> TenantResult {
    let programs: Vec<Vec<TenantProgram>> = cfg.mix.jobs.iter().map(TenantProgram::job).collect();
    let mut driver = DesDriver::new_jobs(&cfg.cluster, &placement.node_of, make_engine, programs);
    driver.run();
    let events = driver.events_processed();
    let by_job = driver.results_by_job();
    summarize(&cfg.mix, by_job, events)
}

/// Fold per-job driver results into the saturation metrics.
fn summarize(mix: &JobMix, by_job: Vec<Vec<NodeResult>>, events: u64) -> TenantResult {
    assert_eq!(by_job.len(), mix.jobs.len());
    let mut jobs = Vec::with_capacity(mix.jobs.len());
    let mut pooled: Vec<f64> = Vec::new();
    for (spec, ranks) in mix.jobs.iter().zip(by_job) {
        let root = &ranks[0];
        let iter_us: Vec<f64> = root
            .obs
            .iter()
            .filter(|o| o.key == "iter_us")
            .map(|o| o.value)
            .collect();
        let finish_us = root
            .obs
            .iter()
            .rfind(|o| o.key == "done_us")
            .map(|o| o.value)
            .expect("every tenant job stamps done_us at rank 0");
        assert_eq!(
            iter_us.len(),
            spec.iters as usize,
            "{}: one latency sample per iteration",
            spec.id
        );
        pooled.extend_from_slice(&iter_us);
        jobs.push(JobOutcome {
            job: spec.id.0,
            kind: spec.kind.label(),
            ranks: spec.ranks,
            reductions: spec.reductions(),
            finish_us,
            iter_us,
        });
    }
    let makespan_us = jobs.iter().map(|j| j.finish_us).fold(0.0, f64::max);
    let total: u64 = jobs.iter().map(|j| j.reductions).sum();
    let reductions_per_sec = if makespan_us > 0.0 {
        total as f64 / (makespan_us / 1e6)
    } else {
        0.0
    };
    let shares: Vec<f64> = jobs.iter().map(JobOutcome::reductions_per_sec).collect();
    TenantResult {
        makespan_us,
        reductions_per_sec,
        latency: Percentiles::from_unsorted(&mut pooled),
        fairness: jain_fairness(&shares),
        jobs,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Obs, Program};

    fn config(seed: u64, n_jobs: usize, load: f64, ab: bool) -> TenantConfig {
        let mix = JobMix::generate(seed, n_jobs, load);
        // Four slots per node: every 4/8/16-rank job shares nodes with
        // its own ranks and (under Packed) with other jobs.
        let nodes = mix.total_ranks().div_ceil(4).max(2);
        TenantConfig {
            cluster: ClusterSpec::homogeneous_1000(nodes as u32),
            mix,
            slots: 4,
            policy: PlacePolicy::Packed,
            ab,
        }
    }

    #[test]
    fn tenant_run_is_deterministic() {
        let cfg = config(11, 3, 2.0, true);
        let a = run_tenant(&cfg);
        let b = run_tenant(&cfg);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.events, b.events);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.finish_us, y.finish_us);
            assert_eq!(x.iter_us, y.iter_us);
        }
    }

    #[test]
    fn tenant_metrics_are_complete_and_sane() {
        let cfg = config(5, 4, 2.0, true);
        let r = run_tenant(&cfg);
        assert_eq!(r.jobs.len(), 4);
        assert!(r.makespan_us > 0.0);
        assert!(r.reductions_per_sec > 0.0);
        assert!(r.latency.p50 > 0.0 && r.latency.p50 <= r.latency.p999);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0 + 1e-9);
        for j in &r.jobs {
            assert!(j.finish_us <= r.makespan_us);
            assert_eq!(j.iter_us.len() as u64, j.reductions);
        }
    }

    #[test]
    fn bypass_beats_baseline_under_contention() {
        // A saturated sweep point: slots full, nab's blocked ranks
        // busy-poll on the shared host CPUs, so the service completes
        // the same mix slower than ab end to end.
        let nab = run_tenant(&saturation_config(23, 2, 8.0, 8.0, 4, false));
        let ab = run_tenant(&saturation_config(23, 2, 8.0, 8.0, 4, true));
        assert!(
            ab.reductions_per_sec > nab.reductions_per_sec,
            "ab {:.1} red/s must beat nab {:.1} red/s under contention",
            ab.reductions_per_sec,
            nab.reductions_per_sec
        );
    }

    #[test]
    fn relaxed_sweep_point_spreads_ranks_without_co_tenancy() {
        // The bottom of the ladder must be contention-free: the cluster is
        // sized for the top, so a load-1 mix spreads one rank per node and
        // the two engines see (near-)identical conditions.
        let cfg = saturation_config(17, 2, 1.0, 8.0, 4, false);
        let placement = place(&cfg.mix, cfg.cluster.len(), cfg.slots, cfg.policy)
            .expect("relaxed point must fit");
        let mut per_node = vec![0u32; cfg.cluster.len()];
        for &n in placement.node_of.iter().flatten() {
            per_node[n] += 1;
        }
        assert!(
            per_node.iter().all(|&c| c <= 1),
            "relaxed point co-located ranks: {per_node:?}"
        );
    }

    /// Run one rank's program to `Done` with one step per µs: each
    /// iteration's step shapes (with the point-to-point tag and peer), and
    /// the rank's observations.
    fn drive(mut p: TenantProgram, steps_per_iter: usize) -> (Vec<Vec<String>>, Vec<Obs>) {
        let mut ctx = StepCtx::new();
        let mut iters: Vec<Vec<String>> = Vec::new();
        for k in 0u64.. {
            ctx.now = SimTime::from_us(k);
            let shape = match p.next(&mut ctx) {
                Step::Done => break,
                Step::Busy(d) => {
                    assert!(
                        (50_000..=60_000).contains(&d.as_nanos()),
                        "think + jitter: {d}"
                    );
                    "busy".to_string()
                }
                Step::Send { dst, tag, .. } => format!("send {dst} tag {tag}"),
                Step::Recv { src, tag, .. } => format!("recv {src} tag {tag}"),
                Step::Reduce { root, .. } => format!("reduce {root}"),
                Step::Allreduce { .. } => "allreduce".to_string(),
                step => panic!("unexpected step {step:?}"),
            };
            match iters.last_mut() {
                Some(it) if it.len() < steps_per_iter => it.push(shape),
                _ => iters.push(vec![shape]),
            }
        }
        (iters, ctx.obs)
    }

    #[test]
    fn tenant_template_steps_and_hooks_for_each_job_shape() {
        let spec = |kind, ranks| JobSpec {
            id: abr_jobs::JobId(0),
            kind,
            ranks,
            iters: 3,
            elems: 2,
            think_us: 50,
            jitter_us: 10,
            seed: 9,
        };
        for (kind, ranks) in [
            (JobKind::Training, 4),
            (JobKind::ShuffleReduce, 4),
            (JobKind::ShuffleReduce, 1),
        ] {
            let shape = |iter: u64| -> Vec<String> {
                match (kind, ranks) {
                    (JobKind::Training, _) => vec!["busy".into(), "allreduce".into()],
                    (_, 1) => vec!["busy".into(), "reduce 0".into()],
                    _ => vec![
                        "busy".into(),
                        format!("send 1 tag {iter}"),
                        format!("recv 3 tag {iter}"),
                        "reduce 0".into(),
                    ],
                }
            };
            let want: Vec<_> = (0..3).map(shape).collect();
            let per_iter = want[0].len();
            let mut programs = TenantProgram::job(&spec(kind, ranks)).into_iter();
            let (got, obs) = drive(programs.next().expect("rank 0"), per_iter);
            assert_eq!(got, want, "{kind:?} x {ranks}");
            // Rank 0 stamps each iteration at its last step (one µs per
            // step) and the job's end once, after the last iteration.
            let n = per_iter as f64;
            let mut stamps: Vec<_> = vec![("iter_us", n); 3];
            stamps.push(("done_us", 3.0 * n));
            let got: Vec<_> = obs.iter().map(|o| (o.key, o.value)).collect();
            assert_eq!(got, stamps, "{kind:?} x {ranks}");
            // Other ranks run the same shape and record nothing.
            for p in programs {
                let (_, obs) = drive(p, per_iter);
                assert!(obs.is_empty(), "{kind:?} x {ranks}: {obs:?}");
            }
        }
    }

    #[test]
    fn jain_fairness_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[2.0, 2.0, 2.0]), 1.0);
        let skewed = jain_fairness(&[10.0, 1.0, 1.0, 1.0]);
        assert!(skewed < 0.6, "skewed shares must score low, got {skewed}");
        assert!(skewed >= 0.25, "bounded below by 1/n, got {skewed}");
    }
}

/// Ignored-by-default diagnostic: dump the saturation ladder across a few
/// seeds to eyeball the widening mechanism when tuning the workload model.
/// Run with
/// `cargo test -p abr_cluster --lib diag -- --ignored --nocapture`.
#[cfg(test)]
mod diag {
    use super::*;

    #[test]
    #[ignore = "diagnostic dump for tuning, not an assertion"]
    fn dump_tenant_diagnostics() {
        for seed in [17u64, 23, 99] {
            for load in [1.0, 2.0, 4.0, 8.0] {
                for ab in [false, true] {
                    let cfg = saturation_config(seed, 2, load, 8.0, 4, ab);
                    let jobs = cfg.mix.jobs.len();
                    let ranks = cfg.mix.total_ranks();
                    let nodes = cfg.cluster.len();
                    let r = run_tenant(&cfg);
                    println!(
                        "seed={seed} load={load} ab={ab} jobs={jobs} ranks={ranks} nodes={nodes} mk={:.0}us red/s={:.0} p50={:.0} p99={:.0} fair={:.3}",
                        r.makespan_us, r.reductions_per_sec, r.latency.p50, r.latency.p99, r.fairness
                    );
                }
            }
        }
    }
}
