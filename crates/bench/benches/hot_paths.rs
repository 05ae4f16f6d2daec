//! Criterion microbenchmarks for the stack's hot paths: tree math, the
//! reduction operators, matching queues, the DES event queue, a full
//! engine-level reduction over the loopback, and one simulated
//! CPU-utilization iteration.

use abr_cluster::microbench::{run_cpu_util, run_scale_bench, CpuUtilConfig, Mode, ScaleExec};
use abr_cluster::node::ClusterSpec;
use abr_core::DelayPolicy;
use abr_des::{EventQueue, SimTime};
use abr_mpr::engine::{Action, EngineConfig};
use abr_mpr::matchq::{MsgKey, PostedQueue, PostedRecv, UnexpectedQueue};
use abr_mpr::op::ReduceOp;
use abr_mpr::testutil::{engines, Loopback};
use abr_mpr::topology::{ScheduleCache, TopologyKind};
use abr_mpr::tree;
use abr_mpr::types::{f64s_to_bytes, Datatype, TagSel};
use abr_mpr::ReqId;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_tree(c: &mut Criterion) {
    c.bench_function("tree/children_32x32", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for root in 0..32u32 {
                for rank in 0..32u32 {
                    acc += tree::children(black_box(rank), black_box(root), 32).len();
                }
            }
            acc
        })
    });
    // Same walk through a cached schedule: children_of returns a slice
    // into the CSR child array, so the inner loop is allocation-free —
    // compare against tree/children_32x32, which builds a Vec per call.
    c.bench_function("tree/sched_children_32x32", |b| {
        let mut cache = ScheduleCache::new(TopologyKind::Binomial);
        let scheds: Vec<_> = (0..32u32).map(|root| cache.get(root, 32)).collect();
        b.iter(|| {
            let mut acc = 0usize;
            for s in &scheds {
                for rank in 0..32u32 {
                    acc += s.children_of(black_box(rank)).len();
                }
            }
            acc
        })
    });
    c.bench_function("tree/parent_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for rank in 0..1024u32 {
                acc = acc.wrapping_add(tree::parent(rank, 7, 1024).unwrap_or(0));
            }
            acc
        })
    });
}

fn bench_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce_op");
    for elems in [4usize, 32, 128, 1024] {
        let rhs = f64s_to_bytes(&vec![1.5; elems]);
        g.bench_with_input(BenchmarkId::new("sum_f64", elems), &elems, |b, &n| {
            let mut acc = f64s_to_bytes(&vec![2.0; n]);
            b.iter(|| {
                ReduceOp::Sum
                    .apply(Datatype::F64, black_box(&mut acc), black_box(&rhs))
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_matchq(c: &mut Criterion) {
    // Deep exact matching: every take scans past all earlier-posted recvs
    // under the linear-scan implementation, so this is quadratic there and
    // linear with per-(tag, src) FIFO buckets.
    c.bench_function("matchq/post_and_match_512", |b| {
        b.iter(|| {
            let mut q = PostedQueue::new();
            for i in 0..512 {
                q.post(PostedRecv {
                    id: ReqId::from_raw(i),
                    src: Some(i as u32),
                    tag: TagSel::Is(i as i32),
                    context: 0,
                    capacity: 64,
                    expect_coll_seq: None,
                });
            }
            for i in (0..512).rev() {
                let hit = q.take_match(&MsgKey {
                    src: i as u32,
                    tag: i,
                    context: 0,
                });
                black_box(hit);
            }
        })
    });
    c.bench_function("matchq/unexpected_deep_512", |b| {
        b.iter(|| {
            let mut q = UnexpectedQueue::new();
            for i in 0..512u32 {
                q.push(abr_mpr::matchq::UnexpectedMsg {
                    src: i,
                    tag: i as i32,
                    context: 0,
                    kind: abr_gm::packet::PacketKind::Eager,
                    coll_seq: 0,
                    data: bytes::Bytes::new(),
                    msg_len: 0,
                });
            }
            for i in (0..512u32).rev() {
                black_box(q.take_match(Some(i), TagSel::Is(i as i32), 0));
            }
        })
    });
    // Wildcard receives must still honour global arrival order.
    c.bench_function("matchq/unexpected_wildcard_256", |b| {
        b.iter(|| {
            let mut q = UnexpectedQueue::new();
            for i in 0..256u32 {
                q.push(abr_mpr::matchq::UnexpectedMsg {
                    src: i,
                    tag: i as i32,
                    context: 0,
                    kind: abr_gm::packet::PacketKind::Eager,
                    coll_seq: 0,
                    data: bytes::Bytes::new(),
                    msg_len: 0,
                });
            }
            for _ in 0..256 {
                black_box(q.take_match(None, TagSel::Any, 0));
            }
        })
    });
    c.bench_function("matchq/post_and_match_64", |b| {
        b.iter(|| {
            let mut q = PostedQueue::new();
            for i in 0..64 {
                q.post(PostedRecv {
                    id: ReqId::from_raw(i),
                    src: Some(i as u32),
                    tag: TagSel::Is(i as i32),
                    context: 0,
                    capacity: 64,
                    expect_coll_seq: None,
                });
            }
            for i in (0..64).rev() {
                let hit = q.take_match(&MsgKey {
                    src: i as u32,
                    tag: i,
                    context: 0,
                });
                black_box(hit);
            }
        })
    });
    c.bench_function("matchq/unexpected_sweep_64", |b| {
        b.iter(|| {
            let mut q = UnexpectedQueue::new();
            for i in 0..64u32 {
                q.push(abr_mpr::matchq::UnexpectedMsg {
                    src: i,
                    tag: 5,
                    context: 0,
                    kind: abr_gm::packet::PacketKind::Eager,
                    coll_seq: 0,
                    data: bytes::Bytes::new(),
                    msg_len: 0,
                });
            }
            for i in 0..64u32 {
                black_box(q.take_match(Some(i), TagSel::Is(5), 0));
            }
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    // Preemption churn: a fixed set of in-flight completions is repeatedly
    // cancelled and rescheduled, the pattern the cluster driver hits every
    // time a signal handler steals the CPU from a busy loop.
    c.bench_function("des/event_queue_cancel_churn", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut ids = Vec::with_capacity(256);
            for i in 0..256u64 {
                ids.push(q.schedule(SimTime::from_nanos(1_000 + i), i));
            }
            let mut t = 2_000u64;
            for round in 0..4_096u64 {
                let victim = (round % 256) as usize;
                q.cancel(ids[victim]);
                ids[victim] = q.schedule(SimTime::from_nanos(t), round);
                t += 3;
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.payload);
            }
            acc
        })
    });
    c.bench_function("des/event_queue_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.payload);
            }
            acc
        })
    });
}

fn bench_loopback_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(30);
    g.bench_function("loopback_reduce_16r_32e", |b| {
        b.iter(|| {
            let mut lb = Loopback::new(engines(16, EngineConfig::default()));
            let comm = lb.engines[0].world();
            let reqs: Vec<_> = (0..16usize)
                .map(|r| {
                    let data = f64s_to_bytes(&vec![r as f64; 32]);
                    (
                        r,
                        lb.engines[r].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
                    )
                })
                .collect();
            lb.run_until_complete(&reqs, 2000);
            black_box(lb.engines[0].take_outcome(reqs[0].1))
        })
    });
    g.finish();
}

fn bench_drain_actions(c: &mut Criterion) {
    // Models the driver's per-progress-call action collection: every send
    // enqueues an action that the driver immediately drains into its own
    // working buffer.
    let mut g = c.benchmark_group("engine");
    g.bench_function("drain_actions_churn_64", |b| {
        let payload: bytes::Bytes = f64s_to_bytes(&[1.0; 4]).into();
        b.iter(|| {
            let mut lb = Loopback::new(engines(2, EngineConfig::default()));
            let comm = lb.engines[0].world();
            let mut out: Vec<Action> = Vec::new();
            let mut total = 0usize;
            for i in 0..64 {
                lb.engines[0].isend(&comm, 1, i, payload.clone());
                lb.engines[0].drain_actions_into(&mut out);
                total += out.len();
                out.clear();
            }
            total
        })
    });
    g.finish();
}

fn bench_simulated_iteration(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_microbench");
    g.sample_size(10);
    for (label, mode) in [
        ("nab", Mode::Baseline),
        ("ab", Mode::Bypass(DelayPolicy::None)),
    ] {
        g.bench_function(format!("cpu_util_32n_20it_{label}"), |b| {
            b.iter(|| {
                let cfg = CpuUtilConfig {
                    iters: 20,
                    ..CpuUtilConfig::new(ClusterSpec::heterogeneous_32(), mode)
                };
                black_box(run_cpu_util(&cfg).mean_cpu_us)
            })
        });
    }
    g.finish();
}

fn bench_scale(c: &mut Criterion) {
    // Events/sec at scale. The 8k run lives in `scale_figure` /
    // BENCH_scale.json; these smaller sizes keep `cargo bench` quick.
    let mut g = c.benchmark_group("des_scale");
    g.sample_size(10);
    for ranks in [256u32, 1024] {
        g.bench_function(format!("cpu_util_{ranks}n"), |b| {
            b.iter(|| black_box(run_scale_bench(ranks, 2, ScaleExec::Sequential)).events)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_tree,
    bench_ops,
    bench_matchq,
    bench_event_queue,
    bench_loopback_reduce,
    bench_drain_actions,
    bench_simulated_iteration,
    bench_scale
);
criterion_main!(benches);
