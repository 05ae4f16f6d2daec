//! Driver-level behaviour of the contended fabric: determinism of the
//! one-shard executor under link contention, the flat fabric's
//! equivalence with the default (fabric-less) configuration, and the
//! executor guard that keeps per-link busy clocks off the sharded path.

use abr_cluster::microbench::{run_cpu_util, CpuUtilConfig, Mode};
use abr_cluster::node::ClusterSpec;
use abr_cluster::program::ScriptProgram;
use abr_cluster::{DesDriver, Step};
use abr_des::SimDuration;
use abr_fabric::FabricSpec;
use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};

fn cfg(fabric: FabricSpec, mode: Mode) -> CpuUtilConfig {
    CpuUtilConfig {
        elems: 32,
        max_skew_us: 200,
        iters: 12,
        mode,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous(64).with_fabric(fabric), mode)
    }
}

#[test]
fn contended_runs_are_deterministic() {
    let run = || {
        let r = run_cpu_util(&cfg(FabricSpec::fat_tree(4.0), Mode::Baseline));
        (
            r.mean_cpu_us,
            r.per_node_us.clone(),
            r.signals,
            r.link_waits,
            r.link_wait_us,
        )
    };
    let a = run();
    assert!(a.3 > 0, "64-rank fat-tree run produced no link contention");
    assert_eq!(a, run(), "contended run is not reproducible");
}

#[test]
fn flat_fabric_matches_default_configuration() {
    // An explicit flat fabric must be indistinguishable from the spec the
    // constructors build when ABR_FABRIC is unset — the guarantee that
    // keeps every committed figure byte-identical.
    let default_spec = ClusterSpec::heterogeneous(64);
    assert!(
        default_spec.fabric.is_flat(),
        "tests assume ABR_FABRIC unset"
    );
    for mode in [Mode::Baseline, Mode::Bypass(abr_core::DelayPolicy::None)] {
        let flat = run_cpu_util(&cfg(FabricSpec::flat(), mode));
        let defaulted = run_cpu_util(&CpuUtilConfig {
            elems: 32,
            max_skew_us: 200,
            iters: 12,
            mode,
            ..CpuUtilConfig::new(default_spec.clone(), mode)
        });
        assert_eq!(flat.mean_cpu_us, defaulted.mean_cpu_us);
        assert_eq!(flat.per_node_us, defaulted.per_node_us);
        assert_eq!(flat.link_waits, 0);
        assert_eq!(flat.link_wait_us, 0.0);
    }
}

#[test]
fn contention_slows_the_blocking_engine() {
    let flat = run_cpu_util(&cfg(FabricSpec::flat(), Mode::Baseline));
    let contended = run_cpu_util(&cfg(FabricSpec::fat_tree(4.0), Mode::Baseline));
    assert!(contended.link_waits > 0);
    assert!(
        contended.mean_cpu_us > flat.mean_cpu_us,
        "oversubscribed fat-tree did not raise blocking CPU: {} vs {}",
        contended.mean_cpu_us,
        flat.mean_cpu_us
    );
}

fn tiny_programs(n: u32) -> Vec<ScriptProgram> {
    (0..n)
        .map(|rank| {
            ScriptProgram::new(vec![
                Step::Busy(SimDuration::from_us(u64::from(rank % 7) * 10)),
                Step::Reduce {
                    root: 0,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&[f64::from(rank) + 1.0]),
                },
            ])
        })
        .collect()
}

#[test]
fn run_sharded_rejects_contended_fabric() {
    let n = 32u32;
    let spec = ClusterSpec::heterogeneous(n).with_fabric(FabricSpec::fat_tree(4.0));
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, n, ec),
        tiny_programs(n),
    );
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.run_sharded(2)))
        .expect_err("run_sharded accepted a contended fabric");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("ABR_FABRIC"),
        "panic does not name the knob: {msg}"
    );
}

#[test]
fn sharded_flat_fabric_still_works() {
    // The guard must not catch the degenerate case: a flat FabricNetwork
    // builds no link graph and stays shardable.
    let n = 32u32;
    let spec = ClusterSpec::heterogeneous(n).with_fabric(FabricSpec::flat());
    let run = |shards: usize| {
        let mut d = DesDriver::new(
            &spec,
            |r, ec: EngineConfig| Engine::new(r, n, ec),
            tiny_programs(n),
        );
        d.run_sharded(shards);
        (d.results(), d.packets_delivered, d.now())
    };
    assert_eq!(run(1), run(8), "flat fabric broke sharded determinism");
}
