//! The Fig. 2 time lines come from the trace rings: every CPU charge the
//! driver's meters take is one `CpuCharge` record on the charging rank.

use abr_cluster::node::ClusterSpec;
use abr_cluster::program::{Program, ScriptProgram, Step};
use abr_cluster::DesDriver;
use abr_core::{AbConfig, AbEngine};
use abr_des::SimDuration;
use abr_mpr::engine::{Engine, EngineConfig, MessageEngine};
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};
use abr_trace::{RingRecorder, Trace, TraceClock, TraceEvent};

fn programs(n: u32, skew_of: impl Fn(u32) -> u64) -> Vec<Box<dyn Program>> {
    (0..n)
        .map(|r| {
            Box::new(ScriptProgram::new(vec![
                Step::Busy(SimDuration::from_us(skew_of(r))),
                Step::Reduce {
                    root: 0,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&[r as f64]),
                },
                Step::Busy(SimDuration::from_us(300)),
                Step::Barrier,
            ])) as Box<dyn Program>
        })
        .collect()
}

/// Run `d` with a recorder installed; return the trace and the driver.
fn traced<E: MessageEngine>(mut d: DesDriver<E>) -> (Trace, DesDriver<E>) {
    let rec = RingRecorder::new(4, 1 << 14, TraceClock::Virtual, 0, 0);
    d.install_tracer(rec.clone());
    d.run();
    let trace = rec.snapshot();
    assert_eq!(trace.dropped, 0, "trace rings overflowed");
    (trace, d)
}

/// Nanoseconds `node` charged to `bucket`, summed over its ring.
fn charged_ns(trace: &Trace, node: usize, bucket: &str) -> u64 {
    trace.per_rank[node]
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::CpuCharge { bucket: b, nanos } if b == bucket => Some(nanos),
            _ => None,
        })
        .sum()
}

#[test]
#[allow(clippy::needless_range_loop)] // rank used as value and index
fn timeline_records_all_activity_classes_for_baseline() {
    let spec = ClusterSpec::homogeneous_1000(4);
    let (trace, d) = traced(DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, 4, ec),
        programs(4, |r| r as u64 * 100),
    ));
    let total = |bucket: &str| (0..4).map(|n| charged_ns(&trace, n, bucket)).sum::<u64>();
    assert!(total("app") > 0, "busy loops recorded");
    assert!(total("poll") > 0, "blocking waits recorded");
    assert!(total("protocol") > 0, "protocol work recorded");
    assert_eq!(total("signal"), 0, "baseline never signals");
    // The rings reconcile with the meters exactly.
    let results = d.results();
    for node in 0..4usize {
        let us = |bucket| charged_ns(&trace, node, bucket) as f64 / 1e3;
        assert_eq!(us("app"), results[node].cpu_app_us, "node {node} app");
        assert_eq!(us("poll"), results[node].cpu_poll_us, "node {node} poll");
        assert_eq!(
            us("protocol"),
            results[node].cpu_protocol_us,
            "node {node} protocol"
        );
    }
}

#[test]
fn timeline_shows_signal_handlers_under_bypass() {
    let spec = ClusterSpec::homogeneous_1000(4);
    let (trace, _) = traced(DesDriver::new(
        &spec,
        |r, ec: EngineConfig| AbEngine::new(r, 4, ec, AbConfig::default()),
        programs(4, |r| if r == 3 { 250 } else { 0 }),
    ));
    // Node 2 (parent of late node 3) must take a handler for node 3's
    // late contribution.
    assert!(
        charged_ns(&trace, 2, "signal") > 0,
        "node 2 must take a signal for late node 3"
    );
}
