//! Tracing-layer integration: the DES and live drivers must emit the same
//! ordered event skeleton for the same seed and fault plan, trace CPU
//! attribution must reconcile exactly with the driver's meters, and an
//! installed-but-absent tracer must not perturb simulation results.

use abr_cluster::microbench::{run_cpu_util, run_cpu_util_traced, CpuUtilConfig, Mode};
use abr_cluster::node::ClusterSpec;
use abr_cluster::program::{FnProgram, Program, Step, StepCtx};
use abr_cluster::{DesDriver, FaultPlan, RelConfig};
use abr_core::{AbConfig, AbEngine, DelayPolicy};
use abr_faults::{FaultKind, FaultRule, KindSel, LinkSel};
use abr_mpr::engine::EngineConfig;
use abr_mpr::op::ReduceOp;
use abr_mpr::topology::TopologyKind;
use abr_mpr::types::{f64s_to_bytes, Datatype};
use abr_trace::{cpu_attribution, RingRecorder, Trace, TraceClock, TraceEvent, Tracer};
use std::sync::Arc;

/// One sum-reduction to root 0 under the DES with a tracer installed;
/// returns the trace's ordered send/recv skeleton.
fn des_skeleton(n: u32, topo: TopologyKind, plan: &FaultPlan) -> Vec<String> {
    des_trace(n, topo, plan, 2).skeleton()
}

/// One sum-reduction of `doubles` elements per rank to root 0 under the
/// DES with a tracer installed; returns the whole trace.
fn des_trace(n: u32, topo: TopologyKind, plan: &FaultPlan, doubles: usize) -> Trace {
    let spec = ClusterSpec::homogeneous_1000(n).with_topology(topo);
    let programs: Vec<Box<dyn Program>> = (0..n)
        .map(|rank| {
            let mut done = false;
            Box::new(FnProgram(move |_ctx: &mut StepCtx| {
                if done {
                    return Step::Done;
                }
                done = true;
                let mut data = vec![2.0; doubles];
                data[0] = rank as f64 + 1.0;
                Step::Reduce {
                    root: 0,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&data),
                }
            })) as Box<dyn Program>
        })
        .collect();
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| AbEngine::new(r, n, ec, AbConfig::default()),
        programs,
    );
    let rec = RingRecorder::new(n, 1 << 14, TraceClock::Virtual, plan.seed, 0);
    d.install_tracer(Arc::clone(&rec) as Arc<dyn Tracer>);
    d.set_faults(plan, RelConfig::sim_default());
    d.run();
    rec.snapshot()
}

/// The same reduction over real threads, wall-clock stamped.
fn live_skeleton(n: u32, topo: TopologyKind, plan: &FaultPlan) -> Vec<String> {
    let rec = RingRecorder::new(n, 1 << 14, TraceClock::Wall, plan.seed, 0);
    abr_cluster::live::run_live_traced(
        &ClusterSpec::homogeneous_1000(n).with_topology(topo),
        AbConfig::default(),
        plan,
        RelConfig::live_default(),
        Some(Arc::clone(&rec) as Arc<dyn Tracer>),
        |ctx| {
            let data = f64s_to_bytes(&[ctx.rank() as f64 + 1.0, 2.0]);
            ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap()
        },
    );
    rec.snapshot().skeleton()
}

#[test]
fn des_and_live_emit_identical_skeleton_clean() {
    let n = 8;
    let plan = FaultPlan::none();
    let des = des_skeleton(n, TopologyKind::Binomial, &plan);
    let live = live_skeleton(n, TopologyKind::Binomial, &plan);
    assert_eq!(des, live, "clean-wire skeletons diverge");
    // Sanity: the skeleton is non-trivial — every rank but the root sends.
    assert_eq!(des.len(), n as usize);
    assert!(des[1].contains("send"), "rank 1 must send: {}", des[1]);
    assert!(des[0].contains("recv"), "root must receive: {}", des[0]);
}

#[test]
fn des_and_live_emit_identical_skeleton_under_faults() {
    let n = 8;
    // Duplicate the first packet on 1 -> 0 and delay the first on 2 -> 0:
    // deterministic (p = 1.0), lossless, so both drivers replay it exactly.
    let plan = FaultPlan {
        seed: 0xD1CE,
        rules: vec![
            FaultRule {
                link: LinkSel::Between(1, 0),
                kinds: KindSel::Any,
                window: None,
                attempt: Some(0),
                fault: FaultKind::Duplicate { p: 1.0 },
            },
            FaultRule {
                link: LinkSel::Between(2, 0),
                kinds: KindSel::Any,
                window: None,
                attempt: Some(0),
                fault: FaultKind::Delay {
                    p: 1.0,
                    extra_ns: 200_000,
                },
            },
        ],
    };
    let des = des_skeleton(n, TopologyKind::Binomial, &plan);
    let live = live_skeleton(n, TopologyKind::Binomial, &plan);
    assert_eq!(des, live, "faulted skeletons diverge");
    // The duplicate is suppressed by the reliability layer before the
    // engine, so it must NOT appear as a second recv from rank 1.
    assert_eq!(
        des,
        des_skeleton(n, TopologyKind::Binomial, &FaultPlan::none()),
        "lossless faults must not change the skeleton"
    );
}

#[test]
fn des_and_live_emit_identical_skeleton_chain_topology_under_faults() {
    let n = 8;
    // On a chain rooted at 0, rank r sends to r-1, so the only link into
    // the root is 1 -> 0; rank 2's traffic rides 2 -> 1. Duplicate the
    // first packet on 1 -> 0 and delay the first on 2 -> 1: deterministic
    // and lossless, so both drivers must replay the same skeleton.
    let plan = FaultPlan {
        seed: 0xD1CE,
        rules: vec![
            FaultRule {
                link: LinkSel::Between(1, 0),
                kinds: KindSel::Any,
                window: None,
                attempt: Some(0),
                fault: FaultKind::Duplicate { p: 1.0 },
            },
            FaultRule {
                link: LinkSel::Between(2, 1),
                kinds: KindSel::Any,
                window: None,
                attempt: Some(0),
                fault: FaultKind::Delay {
                    p: 1.0,
                    extra_ns: 200_000,
                },
            },
        ],
    };
    let des = des_skeleton(n, TopologyKind::Chain, &plan);
    let live = live_skeleton(n, TopologyKind::Chain, &plan);
    assert_eq!(des, live, "faulted chain skeletons diverge");
    assert_eq!(
        des,
        des_skeleton(n, TopologyKind::Chain, &FaultPlan::none()),
        "lossless faults must not change the chain skeleton"
    );
    // Sanity: the topology knob actually changed the traffic pattern.
    assert_ne!(
        des,
        des_skeleton(n, TopologyKind::Binomial, &FaultPlan::none()),
        "chain and binomial skeletons should differ"
    );
}

/// Every packet the engines send is traced: a 32 KiB reduction goes
/// rendezvous (RTS, CTS, DATA), and for each packet kind the fault-free run
/// records as many sends as receives.
#[test]
fn every_sent_packet_kind_is_traced() {
    let trace = des_trace(8, TopologyKind::Binomial, &FaultPlan::none(), 4096);
    assert_eq!(trace.dropped, 0);
    let mut counts: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for rec in trace.per_rank.iter().flatten() {
        match rec.event {
            TraceEvent::PacketSend { kind, .. } => counts.entry(kind).or_default().0 += 1,
            TraceEvent::PacketRecv { kind, .. } => counts.entry(kind).or_default().1 += 1,
            _ => {}
        }
    }
    assert!(
        counts.len() >= 3,
        "expected the rendezvous kinds: {counts:?}"
    );
    for (kind, (sends, recvs)) in &counts {
        assert_eq!(
            sends, recvs,
            "{kind}: {sends} sends traced, {recvs} receives"
        );
    }
}

#[test]
fn trace_cpu_attribution_reconciles_with_meters() {
    let cfg = CpuUtilConfig {
        iters: 20,
        ..CpuUtilConfig::new(
            ClusterSpec::heterogeneous(8),
            Mode::Bypass(DelayPolicy::None),
        )
    };
    let rec = RingRecorder::new(8, 1 << 16, TraceClock::Virtual, cfg.seed, 0);
    let res = run_cpu_util_traced(&cfg, Some(Arc::clone(&rec) as Arc<dyn Tracer>));
    let trace = rec.snapshot();
    assert_eq!(trace.dropped, 0, "ring overflow would break reconciliation");
    let attr = cpu_attribution(&trace);
    assert_eq!(attr.per_rank.len(), 8);
    for (rank, rc) in attr.per_rank.iter().enumerate() {
        for (bucket, us) in [
            ("app", res.nodes[rank].cpu_app_us),
            ("poll", res.nodes[rank].cpu_poll_us),
            ("protocol", res.nodes[rank].cpu_protocol_us),
            ("signal", res.nodes[rank].cpu_signal_us),
            ("nic", res.nodes[rank].cpu_nic_us),
        ] {
            let traced_us = rc.bucket_ns(bucket) as f64 / 1000.0;
            assert!(
                (traced_us - us).abs() < 1e-6,
                "rank {rank} bucket {bucket}: trace {traced_us} us vs meter {us} us"
            );
        }
    }
}

/// Installing a tracer must be invisible to the simulation itself: every
/// result a run reports (virtual-time CPU, signals, engine counters,
/// percentiles) is identical with and without the recorder. Combined with
/// the existing sweep-determinism suite this pins the cost-neutrality
/// contract: `ABR_TRACE` unset changes nothing but wall-clock overhead.
#[test]
fn tracer_does_not_perturb_simulation_results() {
    let cfg = CpuUtilConfig {
        iters: 15,
        ..CpuUtilConfig::new(
            ClusterSpec::heterogeneous(8),
            Mode::Bypass(DelayPolicy::None),
        )
    };
    let plain = run_cpu_util(&cfg);
    let rec = RingRecorder::new(8, 1 << 16, TraceClock::Virtual, cfg.seed, 0);
    let traced = run_cpu_util_traced(&cfg, Some(Arc::clone(&rec) as Arc<dyn Tracer>));
    assert!(
        !rec.snapshot().is_empty(),
        "the traced run must record events"
    );
    let digest = |r: &abr_cluster::CpuUtilResult| {
        format!(
            "{:?} {:?} {} {} {:?} {:?} {:?} {:?} {:?}",
            r.mean_cpu_us,
            r.per_node_us,
            r.signals,
            r.signals_suppressed,
            r.counters,
            r.p50_us,
            r.p95_us,
            r.max_us,
            r.nic_us_total
        )
    };
    assert_eq!(digest(&plain), digest(&traced));
}
