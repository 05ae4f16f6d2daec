//! The benchmark measures the code users run, and its instrumentation does
//! not change what is simulated.

use abr_cluster::microbench::{run_cpu_util, CpuUtilConfig, Mode};
use abr_cluster::{run_tenant, saturation_config, ClusterSpec, FaultPlan};
use abr_core::DelayPolicy;
use abr_fabric::FabricSpec;
use abr_mpr::TopologyKind;
use perfbench::probe::Tally;
use perfbench::workload::FABRIC_FAULTS;
use perfbench::{run_point, Point, Workload, END_TO_END, PER_LAYER};

const MODES: [Mode; 2] = [Mode::Baseline, Mode::Bypass(DelayPolicy::None)];

/// A small paper point; `lossy` puts it on the contended fat-tree with
/// the `fabric_lossy2k` fault plan.
fn small_paper(mode: Mode, lossy: bool) -> CpuUtilConfig {
    let mut cluster = ClusterSpec::heterogeneous(16)
        .with_topology(TopologyKind::Binomial)
        .with_fabric(FabricSpec::flat())
        .with_segments(1);
    let mut faults = FaultPlan::none();
    if lossy {
        cluster = cluster.with_fabric(FabricSpec::fat_tree(4.0));
        faults = FaultPlan::parse(FABRIC_FAULTS).expect("valid plan");
    }
    CpuUtilConfig {
        elems: 32,
        max_skew_us: 500,
        iters: 6,
        seed: 3,
        faults,
        ..CpuUtilConfig::new(cluster, mode)
    }
}

#[test]
fn paper_programs_reproduce_run_cpu_util() {
    for mode in MODES {
        for lossy in [false, true] {
            let cfg = small_paper(mode, lossy);
            let lib = run_cpu_util(&cfg);
            let ours = run_point(&Point::Paper(cfg), false, None).expect("point runs");
            assert_eq!(ours.model_cpu_us.to_bits(), lib.mean_cpu_us.to_bits());
            assert_eq!(ours.nodes, lib.nodes);
            assert_eq!(ours.checked, 6, "one root result per iteration");
            assert_eq!(ours.wrong, 0);
        }
    }
}

#[test]
fn tenant_points_reproduce_run_tenant() {
    for point in Workload::Tenant.points(1) {
        let Point::Tenant(cfg) = &point else {
            unreachable!("tenant workload has tenant points")
        };
        let lib = run_tenant(cfg);
        let ours = run_point(&point, false, None).expect("point runs");
        assert_eq!(ours.events, lib.events);
        let mut base = 0;
        for (spec, job) in cfg.mix.jobs.iter().zip(&lib.jobs) {
            let root = &ours.nodes[base].obs;
            let iter_us: Vec<f64> = root
                .iter()
                .filter(|o| o.key == "iter_us")
                .map(|o| o.value)
                .collect();
            assert_eq!(iter_us, job.iter_us);
            let done = root
                .iter()
                .rfind(|o| o.key == "done_us")
                .expect("done stamp");
            assert_eq!(done.value, job.finish_us);
            base += spec.ranks as usize;
        }
        assert!(ours.checked > 0);
        assert_eq!(ours.wrong, 0);
    }
}

#[test]
fn adapters_leave_results_unchanged() {
    let tenant = Workload::Tenant.points(1);
    let mut points: Vec<Point> = MODES
        .into_iter()
        .flat_map(|m| [false, true].map(|lossy| Point::Paper(small_paper(m, lossy))))
        .collect();
    points.extend(tenant.into_iter().take(4));
    for p in &points {
        let plain = run_point(p, false, None).expect("point runs");
        let probed = run_point(p, true, None).expect("point runs");
        assert_eq!(plain.nodes, probed.nodes);
        assert_eq!(plain.events, probed.events);
        assert_eq!(plain.packets, probed.packets);
        assert_eq!(plain.net, probed.net);
        assert_eq!(plain.rel, probed.rel);
        assert_eq!(plain.layers, Tally::default());
        assert!(probed.layers.engine_calls > 0 && probed.layers.program_calls > 0);
    }
}

#[test]
fn a_deadlocked_point_is_reported_not_fatal() {
    // Known failure: application-bypass tenant runs deadlock on most job
    // mixes (README.md). The benchmark must count it, not abort.
    let cfg = saturation_config(1, 4, 1.0, 8.0, 4, true);
    let err = run_point(&Point::Tenant(cfg), false, None).expect_err("known deadlock");
    assert!(err.contains("DES deadlock"), "{err}");
}

#[test]
fn frozen_points_pair_with_current_ones() {
    // The end-to-end run times point i of the current build against point
    // i of the frozen build, so the two lists must describe the same runs.
    for w in Workload::ALL {
        let twin = perfbench_frozen::Workload::parse(w.name()).expect("same workloads");
        let (ours, theirs) = (w.points(5), twin.points(5));
        assert_eq!(ours.len(), theirs.len(), "{}", w.name());
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(
                (a.rank_reductions(), a.ranks(), a.ab()),
                (b.rank_reductions(), b.ranks(), b.ab())
            );
        }
    }
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let entries = compact.matches("\"name\":").count();
    let workloads = Workload::ALL.len();
    assert_eq!(entries, workloads + END_TO_END.len() + PER_LAYER.len());
}
