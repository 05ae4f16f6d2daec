//! Determinism of the conservative window executor: `run()` and every
//! shard count must produce *identical* results — per-node CPU meters,
//! observations, signal counts, packet and event totals, and the final
//! virtual clock — because every event carries a partition-independent
//! `(origin, counter)` tie-break key, shards only advance inside provably
//! safe lookahead windows, and every run stops at the same horizon.

use abr_cluster::node::ClusterSpec;
use abr_cluster::program::ScriptProgram;
use abr_cluster::{DesDriver, Step};
use abr_core::{AbConfig, AbEngine};
use abr_des::{SimDuration, SimTime};
use abr_mpr::engine::{Engine, EngineConfig, MessageEngine};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};

/// A deterministic mixed workload: per-rank skewed compute, reductions to
/// rotating roots, broadcasts, and barriers. `seed` varies the skew
/// pattern, which varies which events collide in time.
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

/// Everything a run can disagree on, in one comparable bundle.
type Fingerprint = (Vec<abr_cluster::driver::NodeResult>, u64, u64, SimTime);

fn fingerprint<E: MessageEngine>(d: &DesDriver<E, ScriptProgram>) -> Fingerprint {
    (
        d.results(),
        d.packets_delivered,
        d.events_processed(),
        d.now(),
    )
}

/// `run()` and `run_sharded(k)` for k in {1, 2, 3, 8} must agree on the
/// whole fingerprint.
fn assert_shard_invariant<E: MessageEngine>(
    what: &str,
    build: impl Fn() -> DesDriver<E, ScriptProgram>,
) {
    let mut d = build();
    d.run();
    let reference = fingerprint(&d);
    for shards in [1, 2, 3, 8] {
        let mut d = build();
        d.run_sharded(shards);
        assert_eq!(
            reference,
            fingerprint(&d),
            "{what}: run() and run_sharded({shards}) diverged"
        );
    }
}

#[test]
fn sharded_runs_identical_across_shard_counts() {
    let n = 13u32; // odd: shards get unequal contiguous ranges
    for seed in [1u64, 0xDEAD_BEEF, 42] {
        let spec = ClusterSpec::heterogeneous(n);
        assert_shard_invariant(&format!("seed {seed:#x}"), || {
            DesDriver::new(
                &spec,
                |r, ec: EngineConfig| Engine::new(r, n, ec),
                programs(n, seed),
            )
        });
    }
}

#[test]
fn sharded_runs_identical_with_bypass_engine() {
    // The signal-driven bypass engine exercises preemption (StepDone
    // cancel/reschedule) and synthesized signals — the orderings most
    // sensitive to tie-breaking.
    let n = 12u32;
    let spec = ClusterSpec::heterogeneous(n);
    assert_shard_invariant("bypass engine", || {
        DesDriver::new(
            &spec,
            |r, ec: EngineConfig| AbEngine::new(r, n, ec, AbConfig::default()),
            programs(n, 7),
        )
    });
}

#[test]
fn sharded_runs_identical_on_the_dual_root_allreduce() {
    // The bandwidth figure's dual-root point: 1 MiB segmented allreduces
    // between zero-length busy steps and barriers, as the figure's
    // zero-skew iterations run them, so many events collide at the same
    // instant and only the tie-break key orders them.
    let n = 8u32;
    let spec = ClusterSpec::heterogeneous(n).with_segments(8);
    let elems = (1usize << 20) / 8;
    assert_shard_invariant("dual-root allreduce", || {
        let programs = (0..n)
            .map(|rank| {
                let iteration = [
                    Step::Busy(SimDuration::ZERO),
                    Step::AllreduceDual {
                        op: ReduceOp::Sum,
                        dtype: Datatype::F64,
                        data: f64s_to_bytes(&vec![f64::from(rank) + 1.0; elems]),
                    },
                    Step::Busy(SimDuration::ZERO),
                    Step::Barrier,
                ];
                ScriptProgram::new((0..3).flat_map(|_| iteration.clone()).collect())
            })
            .collect();
        DesDriver::new(&spec, |r, ec: EngineConfig| Engine::new(r, n, ec), programs)
    });
}

#[test]
fn sharded_executor_rejects_reuse() {
    let n = 4u32;
    let spec = ClusterSpec::homogeneous_1000(n);
    let build = || {
        DesDriver::new(
            &spec,
            |r, ec: EngineConfig| Engine::new(r, n, ec),
            programs(n, 1),
        )
    };
    let mut d = build();
    d.run_sharded(2);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.run_sharded(2)));
    assert!(err.is_err(), "a second run_sharded() must be rejected");
    let mut d = build();
    d.run();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.run()));
    assert!(err.is_err(), "a second run() must be rejected");
}

#[test]
fn shard_count_clamps_to_cluster_size() {
    let n = 3u32;
    let spec = ClusterSpec::homogeneous_1000(n);
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, n, ec),
        programs(n, 2),
    );
    // More shards than ranks: clamps, still completes and matches.
    d.run_sharded(16);
    let mut d1 = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, n, ec),
        programs(n, 2),
    );
    d1.run_sharded(1);
    assert_eq!(d.results(), d1.results());
}

/// Overflow regression at the 64k-rank target: one full binomial reduction
/// across 65,536 ranks. Exercises rank indices near u16::MAX through the
/// packet headers, the `(origin << 40)` key packing at the largest origin,
/// and the arena indexing — any u16/u32 truncation in the path corrupts
/// the tree and the run deadlocks or panics.
#[test]
fn reduce_completes_at_64k_ranks() {
    let n = 65_536u32;
    let spec = ClusterSpec::homogeneous_1000(n);
    let programs: Vec<ScriptProgram> = (0..n)
        .map(|rank| {
            ScriptProgram::new(vec![Step::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: f64s_to_bytes(&[rank as f64]),
            }])
        })
        .collect();
    let mut d = DesDriver::new(&spec, |r, ec: EngineConfig| Engine::new(r, n, ec), programs);
    d.run_sharded(2);
    assert_eq!(
        d.packets_delivered, 65_535,
        "binomial reduce delivers exactly n-1 contributions"
    );
    assert!(d.now() > SimTime::ZERO);
}
