//! `run` guards and fallbacks around `ABR_DES_SHARDS` (own test binary:
//! these tests mutate process-global environment variables, so they live
//! alone and run as one sequential test).

use abr_cluster::node::ClusterSpec;
use abr_cluster::program::ScriptProgram;
use abr_cluster::{DesDriver, Step};
use abr_des::SimDuration;
use abr_fabric::FabricSpec;
use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};
use std::sync::Arc;

fn programs(n: u32) -> Vec<ScriptProgram> {
    (0..n)
        .map(|rank| {
            ScriptProgram::new(vec![
                Step::Busy(SimDuration::from_us(u64::from(rank % 5) * 20)),
                Step::Reduce {
                    root: 0,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&[f64::from(rank)]),
                },
            ])
        })
        .collect()
}

fn driver(spec: &ClusterSpec) -> DesDriver<Engine, ScriptProgram> {
    let n = spec.len() as u32;
    DesDriver::new(
        spec,
        move |r, ec: EngineConfig| Engine::new(r, n, ec),
        programs(n),
    )
}

#[test]
fn run_guards_and_fallbacks() {
    std::env::set_var("ABR_DES_SHARDS", "2");

    // 1. Sharding requested + contended fabric: fail fast, naming both
    //    knobs, instead of silently picking one.
    let contended = ClusterSpec::heterogeneous(16).with_fabric(FabricSpec::fat_tree(4.0));
    let mut d = driver(&contended);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.run()))
        .expect_err("run accepted ABR_DES_SHARDS with a contended fabric");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("ABR_DES_SHARDS"), "missing knob name: {msg}");
    assert!(msg.contains("ABR_FABRIC"), "missing knob name: {msg}");

    // 2. Sharding requested + order-dependent instrumentation (tracer):
    //    warn and fall back to one shard, producing exactly the results of
    //    an unset knob.
    let flat = ClusterSpec::heterogeneous(16);
    let recorder = abr_trace::RingRecorder::new(16, 1 << 12, abr_trace::TraceClock::Virtual, 7, 0);
    let mut traced = driver(&flat);
    traced.install_tracer(Arc::clone(&recorder) as Arc<dyn abr_trace::Tracer>);
    traced.run(); // must not panic, must fall back
    let mut plain = driver(&flat);
    std::env::remove_var("ABR_DES_SHARDS");
    plain.run();
    assert_eq!(traced.results(), plain.results());
    assert_eq!(traced.packets_delivered, plain.packets_delivered);
    assert!(
        !recorder.snapshot().is_empty(),
        "fallback run did not actually trace"
    );

    // 3. With the variable gone, a contended fabric runs fine (a dense
    //    synchronized burst, so links demonstrably queue).
    let burst = ClusterSpec::heterogeneous(64).with_fabric(FabricSpec::fat_tree(4.0));
    let n = burst.len() as u32;
    let mut d = DesDriver::new(
        &burst,
        move |r, ec: EngineConfig| Engine::new(r, n, ec),
        (0..n)
            .map(|rank| {
                ScriptProgram::new(vec![Step::Reduce {
                    root: 0,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&vec![f64::from(rank); 512]),
                }])
            })
            .collect(),
    );
    d.run();
    assert!(d.network().link_waits() > 0);
}
