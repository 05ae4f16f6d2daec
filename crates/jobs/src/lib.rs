//! The multi-tenant job layer.
//!
//! Production clusters do not run one solo 32-rank benchmark — they run
//! hundreds of co-scheduled jobs whose ranks share nodes, NICs, and host
//! CPUs. This crate defines the *workload* half of that picture, kept
//! deliberately free of any driver machinery so both the discrete-event and
//! the live threaded runtimes can execute the same mixes:
//!
//! * [`JobSpec`] / [`JobMix`] — a seeded generator producing a deterministic
//!   mix of MapReduce-style shuffle+reduce jobs (the Snippets 2–3 shape:
//!   each iteration shuffles partial results around a ring, then reduces to
//!   a root) and iterative-allreduce "training" jobs.
//! * [`place`] — a placement layer mapping every job rank onto a cluster
//!   node under a per-node slot limit, with [`PlacePolicy::Blocked`] /
//!   [`PlacePolicy::Cyclic`] / [`PlacePolicy::Packed`] policies.
//! * Fail-fast environment knobs (`ABR_TENANT_JOBS`, `ABR_TENANT_LOAD`,
//!   `ABR_TENANT_SLOTS`) parsed through [`abr_trace::parse_env`], so a
//!   typo'd value aborts loudly instead of silently running the default.
//!
//! Everything is a pure function of its seed: the same `(seed, jobs, load)`
//! triple generates byte-identical mixes, and placement is deterministic in
//! the mix — the property the multi-tenant determinism tests pin.

#![deny(missing_docs)]

use abr_des::rng::StreamRng;

mod place;

pub use place::{place, PlacePolicy, Placement};

/// Identifies one job in a [`JobMix`]. Job ids are dense, starting at 0;
/// job 0 of a single-job mix is the solo-driver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// What a job's ranks do each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// MapReduce-style iteration: each rank computes (busy loop), shuffles
    /// its partial result one hop around the job's rank ring, then the job
    /// reduces to a root — the Snippets 2–3 shuffle+reduce shape.
    ShuffleReduce,
    /// Iterative training job: each rank computes, then the job runs a
    /// (gradient) allreduce.
    Training,
}

impl JobKind {
    /// Short stable label, used in figures and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::ShuffleReduce => "shuffle",
            JobKind::Training => "train",
        }
    }
}

/// One job: a rank count, an iteration count, and the per-iteration
/// compute/communication shape. All fields are produced by the seeded
/// generator, so a spec is fully reproducible from the mix seed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Dense job id.
    pub id: JobId,
    /// Iteration shape.
    pub kind: JobKind,
    /// Ranks in the job's communicator.
    pub ranks: u32,
    /// Iterations (each completes one reduction collective).
    pub iters: u32,
    /// Elements per reduction vector.
    pub elems: u32,
    /// Mean per-iteration compute ("think") time in microseconds —
    /// already divided by the offered-load factor.
    pub think_us: u64,
    /// Per-rank straggler-jitter bound in microseconds. An *absolute*
    /// quantity (OS noise, cache misses, timer quanta), deliberately not
    /// scaled by load: as load rises and think time shrinks, the jitter
    /// comes to dominate the iteration — exactly the regime where blocked
    /// peers wait on stragglers most of the time.
    pub jitter_us: u64,
    /// Per-job RNG seed (drives the per-rank compute jitter).
    pub seed: u64,
}

impl JobSpec {
    /// Reductions this job completes over its lifetime (one per iteration).
    pub fn reductions(&self) -> u64 {
        self.iters as u64
    }
}

/// A seeded, deterministic collection of co-scheduled jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// The generator seed this mix was derived from.
    pub seed: u64,
    /// The offered-load factor the mix was generated at.
    pub load: f64,
    /// The jobs, in id order.
    pub jobs: Vec<JobSpec>,
}

/// RNG stream label for the mix generator.
const STREAM_MIX: u64 = 0x4a4f424d; // "JOBM"

impl JobMix {
    /// Generate `n_jobs` jobs from `seed` at offered-load factor `load`.
    ///
    /// `load` scales how often each job communicates: per-iteration think
    /// time is drawn in a fixed band and divided by `load`, so `load = 1.0`
    /// is a relaxed mix and rising load drives every job toward
    /// back-to-back collectives (saturation). Rank counts alternate through
    /// {4, 8, 16} and kinds through the two shapes, both seed-jittered, so
    /// any nontrivial mix exercises both job kinds and several job sizes.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite `load`, or zero `n_jobs` —
    /// the callers (figure bins, tests) always have a concrete mix in mind.
    pub fn generate(seed: u64, n_jobs: usize, load: f64) -> JobMix {
        assert!(n_jobs >= 1, "a job mix needs at least one job");
        assert!(
            load.is_finite() && load > 0.0,
            "offered load must be positive and finite, got {load}"
        );
        let root = StreamRng::root(seed);
        let jobs = (0..n_jobs as u32)
            .map(|j| {
                let mut rng = root.derive(&[STREAM_MIX, j as u64]);
                let kind = if rng.below(2) == 0 {
                    JobKind::ShuffleReduce
                } else {
                    JobKind::Training
                };
                let ranks = 1 << rng.range_inclusive(2, 4); // 4 / 8 / 16
                let iters = rng.range_inclusive(8, 16) as u32;
                let base_think = rng.range_inclusive(300, 800) as f64;
                let think_us = (base_think / load).max(1.0).round() as u64;
                let jitter_us = rng.range_inclusive(40, 120);
                JobSpec {
                    id: JobId(j),
                    kind,
                    ranks: ranks as u32,
                    iters,
                    elems: 4,
                    think_us,
                    jitter_us,
                    seed: rng.next_u64(),
                }
            })
            .collect();
        JobMix { seed, load, jobs }
    }

    /// Total ranks across all jobs (the slot demand placement must satisfy).
    pub fn total_ranks(&self) -> usize {
        self.jobs.iter().map(|j| j.ranks as usize).sum()
    }

    /// Total reductions the mix completes.
    pub fn total_reductions(&self) -> u64 {
        self.jobs.iter().map(|j| j.reductions()).sum()
    }
}

/// `ABR_TENANT_JOBS`: number of jobs in the tenant mix.
///
/// # Panics
/// Panics on a set-but-invalid value (non-numeric or zero).
pub fn tenant_jobs_from_env() -> Option<usize> {
    abr_trace::parse_env("ABR_TENANT_JOBS", |raw| match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "ABR_TENANT_JOBS must be a positive job count, got {raw:?}"
        )),
        Ok(n) => Ok(n),
    })
}

/// `ABR_TENANT_LOAD`: cap the offered-load sweep at this factor (the
/// figure sweeps a fixed ladder of load points and drops those above the
/// cap).
///
/// # Panics
/// Panics on a set-but-invalid value (non-positive or non-finite).
pub fn tenant_load_from_env() -> Option<f64> {
    abr_trace::parse_env("ABR_TENANT_LOAD", |raw| match raw.trim().parse::<f64>() {
        Ok(l) if l.is_finite() && l > 0.0 => Ok(l),
        _ => Err(format!(
            "ABR_TENANT_LOAD must be a positive load factor, got {raw:?}"
        )),
    })
}

/// `ABR_TENANT_SLOTS`: ranks a single cluster node can host.
///
/// # Panics
/// Panics on a set-but-invalid value (non-numeric or zero).
pub fn tenant_slots_from_env() -> Option<usize> {
    abr_trace::parse_env("ABR_TENANT_SLOTS", |raw| {
        match raw.trim().parse::<usize>() {
            Ok(0) | Err(_) => Err(format!(
                "ABR_TENANT_SLOTS must be a positive slot count, got {raw:?}"
            )),
            Ok(n) => Ok(n),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_in_its_seed() {
        let a = JobMix::generate(42, 8, 2.0);
        let b = JobMix::generate(42, 8, 2.0);
        assert_eq!(a, b);
        let c = JobMix::generate(43, 8, 2.0);
        assert_ne!(a, c, "different seeds should perturb the mix");
    }

    #[test]
    fn mix_covers_both_kinds_and_several_sizes() {
        let mix = JobMix::generate(7, 16, 1.0);
        assert!(mix.jobs.iter().any(|j| j.kind == JobKind::ShuffleReduce));
        assert!(mix.jobs.iter().any(|j| j.kind == JobKind::Training));
        let sizes: std::collections::HashSet<u32> = mix.jobs.iter().map(|j| j.ranks).collect();
        assert!(sizes.len() >= 2, "one rank count only: {sizes:?}");
        for j in &mix.jobs {
            assert!(matches!(j.ranks, 4 | 8 | 16));
            assert!(j.iters >= 8 && j.iters <= 16);
        }
    }

    #[test]
    fn load_scales_think_time_down() {
        let relaxed = JobMix::generate(9, 4, 1.0);
        let saturated = JobMix::generate(9, 4, 8.0);
        for (a, b) in relaxed.jobs.iter().zip(&saturated.jobs) {
            assert!(
                b.think_us < a.think_us,
                "job {}: {} !< {}",
                a.id,
                b.think_us,
                a.think_us
            );
            // Straggler jitter is absolute: load must not touch it.
            assert_eq!(a.jitter_us, b.jitter_us, "job {}: jitter scaled", a.id);
            assert!(a.jitter_us >= 40 && a.jitter_us <= 120);
        }
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn nonpositive_load_fails_fast() {
        let _ = JobMix::generate(1, 2, 0.0);
    }

    #[test]
    fn job_id_displays_compactly() {
        assert_eq!(JobId(3).to_string(), "job3");
    }
}
