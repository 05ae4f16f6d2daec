//! End-to-end tests of the discrete-event driver and the microbenchmarks.

use abr_cluster::microbench::{run_cpu_util, run_latency, CpuUtilConfig, LatencyConfig, Mode};
use abr_cluster::node::ClusterSpec;
use abr_cluster::program::{FnProgram, ScriptProgram, Step, StepCtx};
use abr_cluster::DesDriver;
use abr_core::{AbConfig, AbEngine, DelayPolicy};
use abr_des::SimDuration;
use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::op::ReduceOp;
use abr_mpr::topology::TopologyKind;
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype};
use bytes::Bytes;

fn reduce_step(rank: u32, elems: usize) -> Step {
    Step::Reduce {
        root: 0,
        op: ReduceOp::Sum,
        dtype: Datatype::F64,
        data: f64s_to_bytes(&vec![rank as f64; elems]),
    }
}

#[test]
fn baseline_reduce_completes_under_des() {
    let spec = ClusterSpec::homogeneous_1000(4);
    let programs: Vec<_> = (0..4u32)
        .map(|r| {
            Box::new(ScriptProgram::new(vec![reduce_step(r, 4), Step::Barrier]))
                as Box<dyn abr_cluster::Program>
        })
        .collect();
    let mut d = DesDriver::new(&spec, |r, ec: EngineConfig| Engine::new(r, 4, ec), programs);
    d.run();
    assert!(d.now() > abr_des::SimTime::ZERO);
    let results = d.results();
    // Root polled (it waits on children); everyone paid protocol CPU.
    assert!(results[0].cpu_protocol_us > 0.0);
}

#[test]
fn ab_reduce_completes_under_des_with_skew() {
    let spec = ClusterSpec::homogeneous_1000(8);
    let programs: Vec<_> = (0..8u32)
        .map(|r| {
            // Heavy skew on rank 3 (a leaf under 2): others proceed.
            let skew = if r == 3 { 800 } else { r as u64 * 10 };
            Box::new(ScriptProgram::new(vec![
                Step::Busy(SimDuration::from_us(skew)),
                reduce_step(r, 4),
                Step::Busy(SimDuration::from_us(1200)),
                Step::Barrier,
            ])) as Box<dyn abr_cluster::Program>
        })
        .collect();
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| AbEngine::new(r, 8, ec, AbConfig::default()),
        programs,
    );
    d.run();
    let results = d.results();
    let signals: u64 = results.iter().map(|r| r.signals_raised).sum();
    assert!(signals > 0, "late children must trigger signals");
    let handler_cpu: f64 = results.iter().map(|r| r.cpu_signal_us).sum();
    assert!(handler_cpu > 0.0, "handler CPU must be charged");
}

#[test]
fn des_is_deterministic() {
    let run = || {
        let cfg = CpuUtilConfig {
            iters: 20,
            ..CpuUtilConfig::new(
                ClusterSpec::heterogeneous(8),
                Mode::Bypass(DelayPolicy::None),
            )
        };
        let r = run_cpu_util(&cfg);
        (format!("{:.6}", r.mean_cpu_us), r.signals)
    };
    assert_eq!(run(), run());
}

#[test]
fn cpu_util_ab_beats_nab_under_heavy_skew() {
    let base = CpuUtilConfig {
        iters: 40,
        max_skew_us: 1000,
        elems: 4,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous(16), Mode::Baseline)
    };
    let nab = run_cpu_util(&base);
    let ab = run_cpu_util(&CpuUtilConfig {
        mode: Mode::Bypass(DelayPolicy::None),
        ..base.clone()
    });
    assert!(
        ab.mean_cpu_us < nab.mean_cpu_us,
        "ab {:.1}us should beat nab {:.1}us at 1000us skew",
        ab.mean_cpu_us,
        nab.mean_cpu_us
    );
    // The improvement should be substantial (paper: ~4-5x at 16-32 nodes).
    assert!(
        nab.mean_cpu_us / ab.mean_cpu_us > 2.0,
        "factor of improvement {:.2} too small (nab={:.1}, ab={:.1})",
        nab.mean_cpu_us / ab.mean_cpu_us,
        nab.mean_cpu_us,
        ab.mean_cpu_us
    );
    assert!(ab.signals > 0, "skewed ab run must take signals");
    assert_eq!(nab.signals, 0, "baseline must never signal");
}

#[test]
fn cpu_util_no_skew_is_cheap_for_both() {
    let base = CpuUtilConfig {
        iters: 40,
        max_skew_us: 0,
        elems: 4,
        catchup_margin_us: 300,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous(8), Mode::Baseline)
    };
    let nab = run_cpu_util(&base);
    let ab = run_cpu_util(&CpuUtilConfig {
        mode: Mode::Bypass(DelayPolicy::None),
        ..base.clone()
    });
    // Without injected skew both implementations should sit well below the
    // 1000us-skew numbers; tens of microseconds territory.
    assert!(
        nab.mean_cpu_us < 120.0,
        "nab no-skew too expensive: {}",
        nab.mean_cpu_us
    );
    assert!(
        ab.mean_cpu_us < 120.0,
        "ab no-skew too expensive: {}",
        ab.mean_cpu_us
    );
}

#[test]
fn latency_benchmark_produces_plausible_numbers() {
    let cfg = LatencyConfig {
        iters: 30,
        ..LatencyConfig::new(ClusterSpec::homogeneous_700(16), Mode::Baseline)
    };
    let nab = run_latency(&cfg);
    assert!(
        nab.one_way_us > 1.0 && nab.one_way_us < 30.0,
        "one-way {}",
        nab.one_way_us
    );
    assert!(
        nab.mean_latency_us > 10.0 && nab.mean_latency_us < 300.0,
        "16-node latency {}us implausible",
        nab.mean_latency_us
    );
    let ab = run_latency(&LatencyConfig {
        mode: Mode::Bypass(DelayPolicy::None),
        ..cfg
    });
    // With no skew, ab pays some signal overhead: latency should not be
    // dramatically better than nab.
    assert!(
        ab.mean_latency_us > nab.mean_latency_us * 0.7,
        "ab {} vs nab {}",
        ab.mean_latency_us,
        nab.mean_latency_us
    );
}

#[test]
fn latency_two_nodes_nearly_identical_between_modes() {
    // Two nodes: no internal nodes, ab degenerates to nab (paper Fig. 9).
    let cfg = LatencyConfig {
        iters: 30,
        ..LatencyConfig::new(ClusterSpec::homogeneous_700(2), Mode::Baseline)
    };
    let nab = run_latency(&cfg);
    let ab = run_latency(&LatencyConfig {
        mode: Mode::Bypass(DelayPolicy::None),
        ..cfg
    });
    let rel = (ab.mean_latency_us - nab.mean_latency_us).abs() / nab.mean_latency_us;
    assert!(
        rel < 0.05,
        "2-node ab/nab diverge: {} vs {}",
        ab.mean_latency_us,
        nab.mean_latency_us
    );
    assert_eq!(ab.signals, 0, "no internal nodes, no signals");
}

#[test]
fn split_phase_mode_runs_and_reduces_cpu_waste_at_root() {
    let base = CpuUtilConfig {
        iters: 30,
        max_skew_us: 1000,
        ..CpuUtilConfig::new(ClusterSpec::homogeneous_1000(8), Mode::Baseline)
    };
    let nab = run_cpu_util(&base);
    let split = run_cpu_util(&CpuUtilConfig {
        mode: Mode::SplitPhase,
        ..base.clone()
    });
    // Split-phase overlaps the reduce with the catch-up busy work on every
    // rank including the root, so it should do at least as well as ab.
    assert!(
        split.mean_cpu_us < nab.mean_cpu_us,
        "split {:.1} vs nab {:.1}",
        split.mean_cpu_us,
        nab.mean_cpu_us
    );
}

#[test]
fn delay_policy_reduces_signals() {
    let base = CpuUtilConfig {
        iters: 40,
        max_skew_us: 200,
        ..CpuUtilConfig::new(
            ClusterSpec::homogeneous_1000(8),
            Mode::Bypass(DelayPolicy::None),
        )
    };
    let no_delay = run_cpu_util(&base);
    let with_delay = run_cpu_util(&CpuUtilConfig {
        mode: Mode::Bypass(DelayPolicy::Fixed { us: 250.0 }),
        ..base.clone()
    });
    assert!(
        with_delay.signals < no_delay.signals,
        "a 250us exit delay at 200us max skew should absorb most signals: {} vs {}",
        with_delay.signals,
        no_delay.signals
    );
}

#[test]
fn heterogeneous_cluster_runs_both_modes() {
    for mode in [Mode::Baseline, Mode::Bypass(DelayPolicy::None)] {
        let cfg = CpuUtilConfig {
            iters: 10,
            ..CpuUtilConfig::new(ClusterSpec::heterogeneous_32(), mode)
        };
        let r = run_cpu_util(&cfg);
        assert!(r.mean_cpu_us > 0.0);
        assert_eq!(r.per_node_us.len(), 32);
    }
}

/// A flat tree at 2,048 ranks. The reduce root hears from every other
/// rank, and the broadcast root, sending past the eager limit, keeps one
/// request, one pending rendezvous transfer and one pinned region per
/// peer, so the per-rank maps on both paths outgrow their inline scan and
/// spill. Results must still match the closed form.
#[test]
fn flat_tree_fan_in_and_rendezvous_fan_out_at_2048_ranks() {
    const N: u32 = 2048;
    const BCAST_ROOT: u32 = N - 1;
    let spec = ClusterSpec::homogeneous_1000(N).with_topology(TopologyKind::Flat);
    let len = spec.eager_limit + 1000;
    let payload: Bytes = (0..len).map(|i| (i % 251) as u8).collect();
    let programs: Vec<_> = (0..N)
        .map(|r| {
            let payload = payload.clone();
            let mut step = 0;
            FnProgram(move |ctx: &mut StepCtx| {
                step += 1;
                match step {
                    1 => Step::Reduce {
                        root: 0,
                        op: ReduceOp::Sum,
                        dtype: Datatype::F64,
                        data: f64s_to_bytes(&[f64::from(r) + 1.0, 2.0 * f64::from(r)]),
                    },
                    2 => {
                        if r == 0 {
                            let sum = bytes_to_f64s(ctx.last_data.as_ref().expect("root result"));
                            ctx.record("sum0", sum[0]);
                            ctx.record("sum1", sum[1]);
                        }
                        Step::Bcast {
                            root: BCAST_ROOT,
                            data: (r == BCAST_ROOT).then(|| payload.clone()),
                            len,
                        }
                    }
                    3 => {
                        let got = ctx.last_data.as_ref() == Some(&payload);
                        ctx.record("bcast_ok", f64::from(u8::from(got)));
                        Step::Done
                    }
                    _ => Step::Done,
                }
            })
        })
        .collect();
    let mut d = DesDriver::new(&spec, |r, ec: EngineConfig| Engine::new(r, N, ec), programs);
    d.run();
    let results = d.results();
    let obs = |rank: usize, key: &str| {
        results[rank]
            .obs
            .iter()
            .find(|o| o.key == key)
            .unwrap_or_else(|| panic!("rank {rank} recorded no {key}"))
            .value
    };
    let n = f64::from(N);
    assert_eq!(obs(0, "sum0"), n * (n + 1.0) / 2.0);
    assert_eq!(obs(0, "sum1"), n * (n - 1.0));
    for rank in 0..N as usize {
        assert_eq!(
            obs(rank, "bcast_ok"),
            1.0,
            "rank {rank} got a wrong broadcast"
        );
    }
    let counter = |rank: usize, key: &str| {
        results[rank]
            .counters
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap()
            .1
    };
    assert_eq!(counter(BCAST_ROOT as usize, "rndv_sent"), u64::from(N - 1));
}

#[test]
#[should_panic(expected = "event cap exceeded")]
fn event_cap_guards_against_livelock() {
    let spec = ClusterSpec::homogeneous_1000(2);
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, 2, ec),
        (0..2)
            .map(|r| {
                Box::new(ScriptProgram::new(
                    // Enough traffic to exceed a tiny cap.
                    (0..50)
                        .flat_map(|_| [reduce_step(r, 1), Step::Barrier])
                        .collect(),
                )) as Box<dyn abr_cluster::Program>
            })
            .collect(),
    )
    .with_max_events(10);
    d.run();
}

#[test]
fn network_counters_track_traffic() {
    let spec = ClusterSpec::homogeneous_1000(4);
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, 4, ec),
        (0..4u32)
            .map(|r| {
                Box::new(ScriptProgram::new(vec![
                    Step::Busy(SimDuration::from_us(0)),
                    reduce_step(r, 1),
                    Step::Busy(SimDuration::from_us(300)),
                    Step::Barrier,
                ])) as Box<dyn abr_cluster::Program>
            })
            .collect(),
    );
    d.run();
    assert!(d.network().packets_carried() > 0);
    assert!(d.network().bytes_carried() > d.network().packets_carried());
    assert_eq!(d.packets_delivered, d.network().packets_carried());
}

/// Two ranks: rank 0 waits for a message rank 1 never sends.
fn deadlocked_pair() -> DesDriver<Engine, ScriptProgram> {
    let spec = ClusterSpec::homogeneous_1000(2);
    DesDriver::new(
        &spec,
        |r, ec: EngineConfig| Engine::new(r, 2, ec),
        vec![
            ScriptProgram::new(vec![Step::Recv {
                src: 1,
                tag: 7,
                cap: 8,
            }]),
            ScriptProgram::new(vec![]),
        ],
    )
}

#[test]
#[should_panic(expected = "DES deadlock: nodes [0] never finished (rank 0 blocked on request 0)")]
fn deadlock_names_the_stuck_rank_sequentially() {
    deadlocked_pair().run();
}

#[test]
#[should_panic(expected = "DES deadlock: nodes [0] never finished (rank 0 blocked on request 0)")]
fn deadlock_names_the_stuck_rank_on_one_shard() {
    deadlocked_pair().run_sharded(1);
}

#[test]
#[should_panic(expected = "DES deadlock: nodes [0] never finished (rank 0 blocked on request 0)")]
fn deadlock_names_the_stuck_rank_across_shards() {
    deadlocked_pair().run_sharded(2);
}
