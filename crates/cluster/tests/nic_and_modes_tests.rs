//! Tests for the NIC-offload extension and mode coverage under the
//! discrete-event driver.

use abr_cluster::microbench::{
    run_bcast_util, run_cpu_util, run_latency, BenchColl, CpuUtilConfig, LatencyConfig, Mode,
};
use abr_cluster::node::ClusterSpec;
use abr_cluster::program::{Program, Step, StepCtx};
use abr_cluster::DesDriver;
use abr_core::{AbConfig, AbEngine};
use abr_mpr::engine::EngineConfig;
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype};

/// One reduce per rank, staggered by per-rank busy delays, recording the
/// root's result.
struct OneReduce {
    rank: u32,
    skew_us: u64,
    elems: usize,
    phase: u8,
}

impl Program for OneReduce {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Busy(abr_des::SimDuration::from_us(self.skew_us))
            }
            1 => {
                self.phase = 2;
                Step::Reduce {
                    root: 0,
                    op: ReduceOp::Sum,
                    dtype: Datatype::F64,
                    data: f64s_to_bytes(&vec![self.rank as f64 + 1.0; self.elems]),
                }
            }
            2 => {
                if self.rank == 0 {
                    if let Some(d) = ctx.last_data.take() {
                        for v in bytes_to_f64s(&d) {
                            ctx.record("sum", v);
                        }
                    }
                }
                self.phase = 3;
                Step::Barrier
            }
            _ => Step::Done,
        }
    }
}

fn run_one_reduce(
    n: u32,
    config: AbConfig,
    elems: usize,
) -> (Vec<f64>, Vec<abr_cluster::driver::NodeResult>) {
    let spec = ClusterSpec::heterogeneous(n);
    let programs: Vec<Box<dyn Program>> = (0..n)
        .map(|rank| {
            Box::new(OneReduce {
                rank,
                skew_us: (rank as u64 * 83) % 400,
                elems,
                phase: 0,
            }) as Box<dyn Program>
        })
        .collect();
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| AbEngine::new(r, n, ec, config.clone()),
        programs,
    );
    d.run();
    let results = d.results();
    let sums: Vec<f64> = results[0]
        .obs
        .iter()
        .filter(|o| o.key == "sum")
        .map(|o| o.value)
        .collect();
    (sums, results)
}

#[test]
fn nic_offload_computes_identical_results() {
    for n in [4u32, 8, 16] {
        let expect: f64 = (1..=n).map(f64::from).sum();
        let (plain, _) = run_one_reduce(n, AbConfig::default(), 3);
        let (nic, _) = run_one_reduce(n, AbConfig::nic_offload(), 3);
        assert_eq!(plain, vec![expect; 3], "plain ab n={n}");
        assert_eq!(nic, vec![expect; 3], "nic ab n={n}");
    }
}

#[test]
fn nic_offload_charges_the_nic_not_the_host() {
    let (_, results) = run_one_reduce(16, AbConfig::nic_offload(), 4);
    let nic_total: f64 = results.iter().map(|r| r.cpu_nic_us).sum();
    let signals: u64 = results.iter().map(|r| r.signals_raised).sum();
    assert!(nic_total > 0.0, "NIC meter must show the offloaded work");
    assert_eq!(signals, 0, "NIC offload must not signal the host");
    // Internal nodes still pay their synchronous call, but no handler time.
    let handler: f64 = results.iter().map(|r| r.cpu_signal_us).sum();
    assert_eq!(handler, 0.0);
}

#[test]
fn plain_bypass_uses_host_not_nic() {
    let (_, results) = run_one_reduce(16, AbConfig::default(), 4);
    let nic_total: f64 = results.iter().map(|r| r.cpu_nic_us).sum();
    assert_eq!(nic_total, 0.0);
}

#[test]
fn nic_mode_cuts_host_cpu_below_plain_bypass_under_skew() {
    let base = CpuUtilConfig {
        iters: 40,
        max_skew_us: 500,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous(16), Mode::Baseline)
    };
    let ab = run_cpu_util(&CpuUtilConfig {
        mode: Mode::Bypass(abr_core::DelayPolicy::None),
        ..base.clone()
    });
    let nic = run_cpu_util(&CpuUtilConfig {
        mode: Mode::NicBypass,
        ..base.clone()
    });
    assert!(
        nic.mean_cpu_us < ab.mean_cpu_us,
        "nic {:.1} should beat ab {:.1} on host CPU",
        nic.mean_cpu_us,
        ab.mean_cpu_us
    );
    assert_eq!(nic.signals, 0);
    assert!(nic.nic_us_total > 0.0);
}

#[test]
fn nic_latency_grows_with_message_size_faster_than_host_paths() {
    let lat = |elems, mode| {
        run_latency(&LatencyConfig {
            elems,
            iters: 25,
            ..LatencyConfig::new(ClusterSpec::heterogeneous(16), mode)
        })
        .mean_latency_us
    };
    let growth_nic = lat(256, Mode::NicBypass) / lat(1, Mode::NicBypass);
    let growth_ab = lat(256, Mode::Bypass(abr_core::DelayPolicy::None))
        / lat(1, Mode::Bypass(abr_core::DelayPolicy::None));
    assert!(
        growth_nic > growth_ab,
        "slow NIC arithmetic must show in the size scaling: {growth_nic:.2} vs {growth_ab:.2}"
    );
}

#[test]
fn all_modes_run_on_every_cluster_flavour() {
    for spec in [
        ClusterSpec::heterogeneous(8),
        ClusterSpec::homogeneous_700(8),
        ClusterSpec::homogeneous_1000(8),
    ] {
        for mode in [
            Mode::Baseline,
            Mode::Bypass(abr_core::DelayPolicy::Fixed { us: 30.0 }),
            Mode::SplitPhase,
            Mode::NicBypass,
        ] {
            let r = run_cpu_util(&CpuUtilConfig {
                iters: 8,
                ..CpuUtilConfig::new(spec.clone(), mode)
            });
            assert!(
                r.mean_cpu_us.is_finite() && r.mean_cpu_us >= 0.0,
                "{mode:?}"
            );
        }
    }
}

#[test]
fn broadcast_benchmark_records_wall_time_when_asked() {
    for mode in [Mode::Baseline, Mode::SplitPhase] {
        let cfg = CpuUtilConfig {
            iters: 5,
            max_skew_us: 100,
            record_wall: true,
            ..CpuUtilConfig::new(ClusterSpec::heterogeneous(8), mode)
        };
        let r = run_bcast_util(&cfg);
        assert!(r.mean_wall_us > 0.0, "{mode:?}: no broadcast wall time");
        let quiet = run_bcast_util(&CpuUtilConfig {
            record_wall: false,
            ..cfg
        });
        assert_eq!(quiet.mean_wall_us, 0.0, "{mode:?}: wall recorded unasked");
    }
}

/// A small CPU-utilization run: 16 nodes, 300 µs skew, four iterations.
fn small(mode: Mode, segments: usize, elems: usize) -> CpuUtilConfig {
    CpuUtilConfig {
        iters: 4,
        max_skew_us: 300,
        elems,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous(16).with_segments(segments), mode)
    }
}

/// One run's engine counters, summed over its nodes: the nonzero ones as
/// `name=value`, four to a line.
fn counter_lines(label: &str, cfg: &CpuUtilConfig, bcast: bool) -> String {
    let r = match bcast {
        false => run_cpu_util(cfg),
        true => run_bcast_util(cfg),
    };
    let pairs: Vec<String> = r
        .counters
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let lines: Vec<String> = pairs.chunks(4).map(|c| c.join(" ")).collect();
    format!("[{label}]\n{}\n", lines.join("\n"))
}

#[test]
fn bypass_counters_match_recorded_values() {
    // Every bypass counter, summed over small runs of each mode and path:
    // the §V-B mode select (root, leaf, over-eager and segmented), the
    // synchronous, asynchronous and NIC child folds, early parks and the
    // bypassed broadcast. No figure prints most of these, so this is their
    // pin. Values recorded from the engine before its rules were merged.
    let none = Mode::Bypass(abr_core::DelayPolicy::None);
    let delayed = Mode::Bypass(abr_core::DelayPolicy::Fixed { us: 30.0 });
    let (eager, large) = (4, 8192); // 8192 doubles: 4x the 16 KiB eager limit
    let dual = CpuUtilConfig {
        coll: BenchColl::DualAllreduce,
        ..small(Mode::SplitPhase, 8, large)
    };
    let runs = [
        ("ab", false, small(none, 1, eager)),
        ("ab-delay", false, small(delayed, 1, eager)),
        ("ab-split", false, small(Mode::SplitPhase, 1, eager)),
        ("ab-nic", false, small(Mode::NicBypass, 1, eager)),
        ("bcast-ab", true, small(none, 1, eager)),
        ("ab-large", false, small(none, 1, large)),
        ("split-large", false, small(Mode::SplitPhase, 1, large)),
        ("seg-ab", false, small(none, 8, large)),
        ("seg-split", false, small(Mode::SplitPhase, 8, large)),
        ("dual-split", false, dual),
    ];
    let got: String = runs
        .iter()
        .map(|(label, bcast, cfg)| counter_lines(label, cfg, *bcast))
        .collect();
    assert_eq!(got, RECORDED_COUNTERS, "bypass counters moved:\n{got}");
}

const RECORDED_COUNTERS: &str = "\
[ab]
eager_sent=316 packets_processed=272 posted_matched=184 unexpected_enqueued=88
unexpected_matched=88 copies=676 copy_bytes=2656 polls=294
colls_completed=100 ab_reductions=28 fallback_root=4 fallback_leaf=32
sync_children=12 async_children=32 zero_copy_children=44 signals_handled=32
delegated_to_async=22 completed_in_sync=12 copies_saved=44 descriptor_high_water=7
[ab-delay]
eager_sent=316 packets_processed=272 posted_matched=184 unexpected_enqueued=88
unexpected_matched=88 copies=676 copy_bytes=2656 polls=304
colls_completed=100 ab_reductions=28 fallback_root=4 fallback_leaf=32
sync_children=18 async_children=26 zero_copy_children=44 signals_handled=26
delegated_to_async=19 completed_in_sync=15 copies_saved=44 descriptor_high_water=7
[ab-split]
eager_sent=316 packets_processed=256 posted_matched=165 unexpected_enqueued=91
unexpected_matched=91 copies=663 copy_bytes=1920 polls=252
colls_completed=96 sync_children=18 async_children=42 zero_copy_children=60
signals_handled=42 delegated_to_async=25 completed_in_sync=14 copies_saved=60
descriptor_high_water=8
[ab-nic]
eager_sent=293 packets_processed=272 posted_matched=187 unexpected_enqueued=85
unexpected_matched=85 copies=650 copy_bytes=1920 polls=296
colls_completed=100 ab_reductions=28 fallback_root=4 fallback_leaf=32
sync_children=12 zero_copy_children=44 delegated_to_async=22 completed_in_sync=10
copies_saved=44 descriptor_high_water=7 nic_children=32
[bcast-ab]
eager_sent=316 packets_processed=256 posted_matched=178 unexpected_enqueued=78
unexpected_matched=78 copies=650 copy_bytes=1920 polls=262
colls_completed=64 signals_handled=43 bcast_splits=64 bcast_forwards=60
[ab-large]
eager_sent=256 rndv_sent=60 packets_processed=436 posted_matched=192
unexpected_enqueued=124 unexpected_matched=124 copies=636 polls=551
colls_completed=128 fallback_root=4 fallback_leaf=32 fallback_large=28
[split-large]
eager_sent=256 rndv_sent=60 packets_processed=436 posted_matched=192
unexpected_enqueued=124 unexpected_matched=124 copies=636 polls=512
colls_completed=128 fallback_large=64
[seg-ab]
eager_sent=1756 packets_processed=656 posted_matched=333 unexpected_enqueued=323
unexpected_matched=323 copies=2735 copy_bytes=5524880 polls=632
colls_completed=100 ab_reductions=28 fallback_root=4 fallback_leaf=32
sync_children=1100 ab_unexpected_parked=299 zero_copy_children=801 delegated_to_async=647
completed_in_sync=753 copies_saved=1100 descriptor_high_water=56
[seg-split]
eager_sent=1756 packets_processed=313 posted_matched=158 unexpected_enqueued=155
unexpected_matched=155 copies=2224 copy_bytes=4223216 polls=260
colls_completed=96 fallback_leaf=32 sync_children=116 async_children=1384
ab_unexpected_parked=58 zero_copy_children=1385 signals_handled=1496 delegated_to_async=796
completed_in_sync=8 copies_saved=1443 descriptor_high_water=64
[dual-split]
eager_sent=9376 packets_processed=256 posted_matched=149 unexpected_enqueued=107
unexpected_matched=107 copies=9739 copy_bytes=7864320 polls=7346
colls_completed=368 sync_children=3379 async_children=1181 ab_unexpected_parked=23
zero_copy_children=4537 signals_handled=1942 delegated_to_async=4536 completed_in_sync=3155
copies_saved=4560 descriptor_high_water=240 bcast_splits=4864 bcast_forwards=4560
";
