//! Multi-tenant driver guarantees.
//!
//! Two properties the refactor must hold forever:
//!
//! 1. **Single-job equivalence** — one job through the multi-job
//!    constructor is *bit-for-bit* `DesDriver::new`: same per-node results,
//!    same packet count, same final virtual clock. On the identity placement
//!    that is the same code path; on a permuted placement of identical nodes
//!    it pins the tenant rank translation (header rewrite, per-node poller
//!    tallies) as a pure relabelling.
//! 2. **Determinism** — a multi-job tenant run is a pure function of its
//!    mix seed: repeated runs are identical, and running many tenant
//!    points through the parallel sweep executor at any worker count
//!    changes nothing.

use abr_cluster::node::ClusterSpec;
use abr_cluster::program::ScriptProgram;
use abr_cluster::sweep::Sweep;
use abr_cluster::tenant::{run_tenant, saturation_config, TenantConfig, TenantResult};
use abr_cluster::{DesDriver, Step};
use abr_core::{AbConfig, AbEngine};
use abr_des::{SimDuration, SimTime};
use abr_jobs::Placement;
use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};

/// The scale-determinism workload, reused: skewed compute, rotating-root
/// reductions, broadcasts, barriers.
fn programs(n: u32, seed: u64) -> Vec<ScriptProgram> {
    (0..n)
        .map(|rank| {
            let mut steps = Vec::new();
            let mut x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(rank as u64);
            for round in 0..3u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let skew_us = (x >> 33) % 400;
                steps.push(Step::Busy(SimDuration::from_us(skew_us)));
                steps.push(Step::Reduce {
                    root: round % n,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&[rank as f64 + 1.0, round as f64]),
                });
                steps.push(Step::Bcast {
                    root: 0,
                    data: (rank == 0).then(|| f64s_to_bytes(&[round as f64; 4]).into()),
                    len: 32,
                });
                steps.push(Step::Barrier);
            }
            ScriptProgram::new(steps)
        })
        .collect()
}

type Fingerprint = (Vec<abr_cluster::driver::NodeResult>, u64, SimTime);

/// Permuted single-job placements of `n` ranks: reversed, and
/// `r -> (5r + 3) mod n` (a permutation whenever `gcd(5, n) = 1`).
fn permutations(n: usize) -> [Vec<usize>; 2] {
    [
        (0..n).rev().collect(),
        (0..n).map(|r| (5 * r + 3) % n).collect(),
    ]
}

/// Run `programs` as one job on `placement` through the multi-job
/// constructor, and through [`DesDriver::new`], and require both
/// fingerprints to agree bit for bit.
fn assert_one_job_matches_solo<E: abr_mpr::engine::MessageEngine>(
    spec: &ClusterSpec,
    placement: Vec<usize>,
    make: impl Fn(u32, EngineConfig) -> E,
    programs: impl Fn() -> Vec<ScriptProgram>,
    what: &str,
) {
    let solo: Fingerprint = {
        let mut d = DesDriver::new(spec, &make, programs());
        d.run();
        assert_eq!(d.results_by_job(), vec![d.results()], "{what}: one slice");
        assert_eq!(d.job_map(), None, "{what}: one job has no job map");
        (d.results(), d.packets_delivered, d.now())
    };
    let job: Fingerprint = {
        let mut d = DesDriver::new_jobs(
            spec,
            &[placement],
            |_job, r, _size, ec| make(r, ec),
            vec![programs()],
        );
        d.run();
        (d.results(), d.packets_delivered, d.now())
    };
    assert_eq!(
        solo, job,
        "{what}: one-job run diverged from DesDriver::new"
    );
}

#[test]
fn single_job_tenant_is_bit_identical_to_solo_driver_nab() {
    for n in [11u32, 16] {
        let make = |r, ec| Engine::new(r, n, ec);
        for seed in [3u64, 0xFEED] {
            let progs = || programs(n, seed);
            let identity = Placement::identity(n as usize).node_of.remove(0);
            let spec = ClusterSpec::heterogeneous(n);
            assert_one_job_matches_solo(&spec, identity, make, progs, "identity");
            // Permuted placements must run through the rank translation and
            // still match: on homogeneous nodes a relabelling is invisible.
            let spec = ClusterSpec::homogeneous_1000(n);
            for p in permutations(n as usize) {
                assert_one_job_matches_solo(&spec, p, make, progs, "permuted");
            }
        }
    }
}

#[test]
fn single_job_tenant_is_bit_identical_to_solo_driver_ab() {
    for n in [12u32, 16] {
        let make = |r, ec| AbEngine::new(r, n, ec, AbConfig::default());
        for seed in [7u64, 0xFEED] {
            let progs = || programs(n, seed);
            let identity = Placement::identity(n as usize).node_of.remove(0);
            let spec = ClusterSpec::heterogeneous(n);
            assert_one_job_matches_solo(&spec, identity, make, progs, "identity");
            let spec = ClusterSpec::homogeneous_1000(n);
            for p in permutations(n as usize) {
                assert_one_job_matches_solo(&spec, p, make, progs, "permuted");
            }
        }
    }
}

/// A saturation-ladder point: fixed cluster sized for load 8, job count
/// and communication rate scaling with `load` (see
/// `abr_cluster::tenant::saturation_config`).
fn tenant_config(seed: u64, load: f64, ab: bool) -> TenantConfig {
    saturation_config(seed, 2, load, 8.0, 4, ab)
}

/// One job's worth of fingerprint: id, reductions, finish bits, iter bits.
type JobPrint = (u32, u64, u64, Vec<u64>);

/// Everything a tenant run can disagree on, rendered comparable.
fn tenant_fingerprint(r: &TenantResult) -> (Vec<JobPrint>, u64, u64) {
    let jobs = r
        .jobs
        .iter()
        .map(|j| {
            (
                j.job,
                j.reductions,
                j.finish_us.to_bits(),
                j.iter_us.iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect();
    (jobs, r.makespan_us.to_bits(), r.events)
}

#[test]
fn multi_job_tenant_run_is_deterministic_across_repeats() {
    for ab in [false, true] {
        let cfg = tenant_config(0xA11CE, 3.0, ab);
        let a = tenant_fingerprint(&run_tenant(&cfg));
        let b = tenant_fingerprint(&run_tenant(&cfg));
        assert_eq!(a, b, "ab={ab}: repeated tenant runs diverged");
    }
}

#[test]
fn tenant_points_identical_across_sweep_parallelism() {
    // The saturation figure maps tenant points through the parallel sweep
    // executor: any ABR_JOBS worker count must produce byte-identical
    // results for every point.
    let points: Vec<TenantConfig> = [1.0, 3.0, 6.0]
        .iter()
        .flat_map(|&load| [false, true].map(|ab| tenant_config(99, load, ab)))
        .collect();
    let run_all = |workers: usize| -> Vec<_> {
        Sweep::with_jobs(workers).map(&points, |cfg| tenant_fingerprint(&run_tenant(cfg)))
    };
    let serial = run_all(1);
    for workers in [2usize, 8] {
        assert_eq!(
            serial,
            run_all(workers),
            "{workers}-worker sweep diverged from serial"
        );
    }
}

#[test]
fn tenant_trace_renders_one_lane_group_per_job() {
    use abr_trace::{chrome_trace_json, validate_json, RingRecorder, TraceClock};

    // Two tiny jobs, one rank-to-node placement per job, recorder wired
    // through the multi-job driver with the driver's own job map.
    let spec = ClusterSpec::homogeneous_1000(5);
    let node_of: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3, 4]];
    let progs = vec![programs(3, 5), programs(2, 5)];
    let mut d = DesDriver::new_jobs(
        &spec,
        &node_of,
        |_job, r, size, ec| Engine::new(r, size, ec),
        progs,
    );
    let rec = RingRecorder::new(5, 4096, TraceClock::Virtual, 5, 0);
    d.install_tracer(rec.clone());
    rec.set_job_map(d.job_map().expect("multi-job driver has a job map"));
    d.run();

    let trace = rec.snapshot();
    assert!(trace.has_jobs, "job map must mark the trace multi-tenant");
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("tenant chrome export must stay valid JSON");
    for name in ["\"job 0\"", "\"job 1\""] {
        assert!(json.contains(name), "missing process group {name}");
    }
    // Lanes are grouped per job: pid is the job id, not the rank.
    assert!(json.contains("\"pid\":1"), "job 1 events carry pid 1");
}

#[test]
fn colocation_hurts_the_baseline_more_than_bypass() {
    // The figure's mechanism, pinned as a test: moving from relaxed to
    // saturating load must cost nab more aggregate throughput (relative)
    // than ab — blocked nab ranks busy-poll on shared hosts.
    let lo_nab = run_tenant(&tenant_config(17, 1.0, false)).reductions_per_sec;
    let hi_nab = run_tenant(&tenant_config(17, 8.0, false)).reductions_per_sec;
    let lo_ab = run_tenant(&tenant_config(17, 1.0, true)).reductions_per_sec;
    let hi_ab = run_tenant(&tenant_config(17, 8.0, true)).reductions_per_sec;
    // At saturating load ab must deliver strictly more service.
    assert!(
        hi_ab > hi_nab,
        "saturated: ab {hi_ab:.1} red/s must beat nab {hi_nab:.1} red/s"
    );
    // And the ab advantage must *grow* with load (the figure's headline).
    let adv_lo = lo_ab / lo_nab;
    let adv_hi = hi_ab / hi_nab;
    assert!(
        adv_hi > adv_lo,
        "ab advantage must widen with load: {adv_lo:.3}x at load 1 vs {adv_hi:.3}x at load 8"
    );
}
