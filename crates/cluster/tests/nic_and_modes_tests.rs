//! Tests for the NIC-offload extension and mode coverage under the
//! discrete-event driver.

use abr_cluster::microbench::{
    run_bcast_util, run_cpu_util, run_latency, CpuUtilConfig, LatencyConfig, Mode,
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
