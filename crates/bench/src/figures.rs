//! Per-figure data generation.
//!
//! Every figure is a *sweep*: a flat list of independent config points
//! (each a complete, seeded simulation) evaluated via
//! [`abr_cluster::sweep::Sweep`], then assembled into tables in a fixed
//! order. Points run in parallel when `ABR_JOBS` (or the core count)
//! allows; because every point is a pure function of its config, the
//! emitted tables are bit-identical at any worker count.

use abr_cluster::microbench::{AppBenchConfig, BenchColl, CpuUtilConfig, LatencyConfig, Mode};
use abr_cluster::node::ClusterSpec;
use abr_cluster::report::{f2, ratio, Table};
use abr_cluster::sweep::{RunOut, RunSpec, Sweep};
use abr_cluster::tenant::{run_tenant, saturation_config, TenantConfig};
use abr_cluster::{FaultPlan, RelStats};
use abr_core::DelayPolicy;
use abr_fabric::{FabricSpec, PlacementPolicy};
use abr_gm::cost::CostModel;
use abr_mpr::topology::TopologyKind;

const ELEMS: [usize; 3] = [4, 32, 128];
const NODE_SWEEP: [u32; 5] = [2, 4, 8, 16, 32];

fn ab_mode() -> Mode {
    Mode::Bypass(DelayPolicy::None)
}

fn sweep() -> Sweep {
    Sweep::from_env()
}

fn cpu_spec(cluster: ClusterSpec, elems: usize, skew: u64, iters: u64, mode: Mode) -> RunSpec {
    RunSpec::Cpu(CpuUtilConfig {
        elems,
        max_skew_us: skew,
        iters,
        mode,
        ..CpuUtilConfig::new(cluster, mode)
    })
}

fn lat_spec(cluster: ClusterSpec, elems: usize, iters: u64, mode: Mode) -> RunSpec {
    RunSpec::Latency(LatencyConfig {
        elems,
        iters,
        mode,
        ..LatencyConfig::new(cluster, mode)
    })
}

fn mean_cpu(out: &RunOut) -> f64 {
    out.cpu().mean_cpu_us
}

fn mean_latency(out: &RunOut) -> f64 {
    out.latency().mean_latency_us
}

/// Fig. 6: average CPU utilization (a) and factor of improvement (b) for 32
/// nodes, skew 0..1000 µs, 4/32/128-element double-word messages.
pub fn fig6(iters: u64) -> Vec<Table> {
    let skews: Vec<u64> = (0..=1000).step_by(100).collect();
    let mut specs = Vec::new();
    for &skew in &skews {
        for mode in [Mode::Baseline, ab_mode()] {
            for &e in &ELEMS {
                specs.push(cpu_spec(
                    ClusterSpec::heterogeneous_32(),
                    e,
                    skew,
                    iters,
                    mode,
                ));
            }
        }
    }
    let out = sweep().run_points(&specs);
    let mut t_util = Table::new(
        "Fig 6a: Average CPU utilization vs max skew (32 nodes, us)",
        &[
            "skew_us", "nab-4", "nab-32", "nab-128", "ab-4", "ab-32", "ab-128",
        ],
    );
    let mut t_foi = Table::new(
        "Fig 6b: Factor of improvement vs max skew (32 nodes)",
        &["skew_us", "foi-4", "foi-32", "foi-128"],
    );
    for (row, &skew) in skews.iter().enumerate() {
        let cells = &out[row * 6..row * 6 + 6];
        let nab: Vec<f64> = cells[..3].iter().map(mean_cpu).collect();
        let ab: Vec<f64> = cells[3..].iter().map(mean_cpu).collect();
        t_util.row(vec![
            skew.to_string(),
            f2(nab[0]),
            f2(nab[1]),
            f2(nab[2]),
            f2(ab[0]),
            f2(ab[1]),
            f2(ab[2]),
        ]);
        t_foi.row(vec![
            skew.to_string(),
            ratio(nab[0], ab[0]),
            ratio(nab[1], ab[1]),
            ratio(nab[2], ab[2]),
        ]);
    }
    vec![t_util, t_foi]
}

/// Fig. 7: CPU utilization (a) and factor of improvement (b) vs node count
/// at 1000 µs maximum skew.
pub fn fig7(iters: u64) -> Vec<Table> {
    node_sweep_tables(iters, 1000, "Fig 7a", "Fig 7b", "maximal (1000us) skew")
}

/// Fig. 8: CPU utilization (a) and factor of improvement (b) vs node count
/// with **no** injected skew (natural skew only).
pub fn fig8(iters: u64) -> Vec<Table> {
    node_sweep_tables(iters, 0, "Fig 8a", "Fig 8b", "no injected skew")
}

fn node_sweep_tables(iters: u64, skew: u64, a_name: &str, b_name: &str, what: &str) -> Vec<Table> {
    let mut specs = Vec::new();
    for &n in &NODE_SWEEP {
        for mode in [Mode::Baseline, ab_mode()] {
            for &e in &ELEMS {
                specs.push(cpu_spec(
                    ClusterSpec::heterogeneous(n),
                    e,
                    skew,
                    iters,
                    mode,
                ));
            }
        }
    }
    let out = sweep().run_points(&specs);
    let mut t_util = Table::new(
        format!("{a_name}: Average CPU utilization vs nodes ({what}, us)"),
        &[
            "nodes", "nab-4", "nab-32", "nab-128", "ab-4", "ab-32", "ab-128",
        ],
    );
    let mut t_foi = Table::new(
        format!("{b_name}: Factor of improvement vs nodes ({what})"),
        &["nodes", "foi-4", "foi-32", "foi-128"],
    );
    for (row, &n) in NODE_SWEEP.iter().enumerate() {
        let cells = &out[row * 6..row * 6 + 6];
        let nab: Vec<f64> = cells[..3].iter().map(mean_cpu).collect();
        let ab: Vec<f64> = cells[3..].iter().map(mean_cpu).collect();
        t_util.row(vec![
            n.to_string(),
            f2(nab[0]),
            f2(nab[1]),
            f2(nab[2]),
            f2(ab[0]),
            f2(ab[1]),
            f2(ab[2]),
        ]);
        t_foi.row(vec![
            n.to_string(),
            ratio(nab[0], ab[0]),
            ratio(nab[1], ab[1]),
            ratio(nab[2], ab[2]),
        ]);
    }
    vec![t_util, t_foi]
}

/// Fig. 9: reduction latency vs node count without skew, single-element
/// messages: (a) the heterogeneous 32-node cluster, (b) the homogeneous
/// 16-node 700-MHz cluster.
pub fn fig9(iters: u64) -> Vec<Table> {
    const HOM_SWEEP: [u32; 4] = [2, 4, 8, 16];
    let mut specs = Vec::new();
    for &n in &NODE_SWEEP {
        specs.push(lat_spec(
            ClusterSpec::heterogeneous(n),
            1,
            iters,
            Mode::Baseline,
        ));
        specs.push(lat_spec(ClusterSpec::heterogeneous(n), 1, iters, ab_mode()));
    }
    for &n in &HOM_SWEEP {
        specs.push(lat_spec(
            ClusterSpec::homogeneous_700(n),
            1,
            iters,
            Mode::Baseline,
        ));
        specs.push(lat_spec(
            ClusterSpec::homogeneous_700(n),
            1,
            iters,
            ab_mode(),
        ));
    }
    let out = sweep().run_points(&specs);
    let mut t_het = Table::new(
        "Fig 9a: Latency vs nodes, heterogeneous cluster (1 elem, us)",
        &["nodes", "nab", "ab"],
    );
    for (row, &n) in NODE_SWEEP.iter().enumerate() {
        let nab = mean_latency(&out[row * 2]);
        let ab = mean_latency(&out[row * 2 + 1]);
        t_het.row(vec![n.to_string(), f2(nab), f2(ab)]);
    }
    let mut t_hom = Table::new(
        "Fig 9b: Latency vs nodes, homogeneous 700-MHz cluster (1 elem, us)",
        &["nodes", "nab", "ab"],
    );
    let base = NODE_SWEEP.len() * 2;
    for (row, &n) in HOM_SWEEP.iter().enumerate() {
        let nab = mean_latency(&out[base + row * 2]);
        let ab = mean_latency(&out[base + row * 2 + 1]);
        t_hom.row(vec![n.to_string(), f2(nab), f2(ab)]);
    }
    vec![t_het, t_hom]
}

/// Fig. 10: reduction latency vs message size (1..128 double words) on the
/// 32-node heterogeneous cluster, no skew.
pub fn fig10(iters: u64) -> Vec<Table> {
    const SIZES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
    let mut specs = Vec::new();
    for &e in &SIZES {
        specs.push(lat_spec(
            ClusterSpec::heterogeneous_32(),
            e,
            iters,
            Mode::Baseline,
        ));
        specs.push(lat_spec(
            ClusterSpec::heterogeneous_32(),
            e,
            iters,
            ab_mode(),
        ));
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Fig 10: Latency vs message size (32 nodes, us)",
        &["elems", "nab", "ab", "ab-nab"],
    );
    for (row, &e) in SIZES.iter().enumerate() {
        let nab = mean_latency(&out[row * 2]);
        let ab = mean_latency(&out[row * 2 + 1]);
        t.row(vec![e.to_string(), f2(nab), f2(ab), f2(ab - nab)]);
    }
    vec![t]
}

/// Ablation: the §IV-E exit-delay policy — signals taken and CPU cost as
/// the delay grows, at moderate skew.
pub fn ablation_delay(iters: u64) -> Vec<Table> {
    let cluster = ClusterSpec::heterogeneous(16);
    let policies: Vec<(String, DelayPolicy)> = vec![
        ("none".into(), DelayPolicy::None),
        ("fixed-50us".into(), DelayPolicy::Fixed { us: 50.0 }),
        ("fixed-250us".into(), DelayPolicy::Fixed { us: 250.0 }),
        (
            "per-proc-2us".into(),
            DelayPolicy::PerProcess {
                us_per_process: 2.0,
            },
        ),
        (
            "per-proc-15us".into(),
            DelayPolicy::PerProcess {
                us_per_process: 15.0,
            },
        ),
        (
            "per-level-20us".into(),
            DelayPolicy::PerTreeLevel { us_per_level: 20.0 },
        ),
    ];
    let mut specs = vec![cpu_spec(cluster.clone(), 4, 200, iters, Mode::Baseline)];
    for &(_, p) in &policies {
        specs.push(cpu_spec(cluster.clone(), 4, 200, iters, Mode::Bypass(p)));
    }
    let out = sweep().run_points(&specs);
    let nab = out[0].cpu();
    let mut t = Table::new(
        "Ablation: exit-delay policy (16 nodes, 200us max skew, 4 elems)",
        &[
            "policy",
            "delay_us@16",
            "mean_cpu_us",
            "signals",
            "foi_vs_nab",
        ],
    );
    for (i, (name, p)) in policies.into_iter().enumerate() {
        let r = out[i + 1].cpu();
        t.row(vec![
            name,
            f2(p.budget(16).as_us_f64()),
            f2(r.mean_cpu_us),
            r.signals.to_string(),
            ratio(nab.mean_cpu_us, r.mean_cpu_us),
        ]);
    }
    vec![t]
}

/// Ablation: sensitivity of the factor of improvement to the signal cost
/// (the interrupt-vs-poll trade at the heart of the design).
pub fn ablation_signal_cost(iters: u64) -> Vec<Table> {
    const SIGNAL_US: [f64; 6] = [1.0, 2.5, 5.5, 11.0, 22.0, 44.0];
    let mut specs = Vec::new();
    for &sig in &SIGNAL_US {
        let cost = CostModel {
            signal_delivery_us: sig * 0.8,
            signal_handler_entry_us: sig * 0.2,
            ..CostModel::default()
        };
        let cluster = ClusterSpec::heterogeneous_32().with_cost(cost);
        specs.push(cpu_spec(cluster.clone(), 4, 1000, iters, Mode::Baseline));
        specs.push(cpu_spec(cluster, 4, 1000, iters, ab_mode()));
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Ablation: signal-cost sensitivity (32 nodes, 1000us skew, 4 elems)",
        &["signal_us", "nab_cpu_us", "ab_cpu_us", "foi"],
    );
    for (row, &sig) in SIGNAL_US.iter().enumerate() {
        let nab = mean_cpu(&out[row * 2]);
        let ab = mean_cpu(&out[row * 2 + 1]);
        t.row(vec![f2(sig), f2(nab), f2(ab), ratio(nab, ab)]);
    }
    vec![t]
}

/// Ablation: the copy-count claims of §V (50% fewer copies for unexpected
/// messages, 100% for expected/late) plus the split-phase extension.
pub fn ablation_copies(iters: u64) -> Vec<Table> {
    let cluster = ClusterSpec::heterogeneous(16);
    let modes = [Mode::Baseline, ab_mode(), Mode::SplitPhase];
    let specs: Vec<RunSpec> = modes
        .iter()
        .map(|&mode| cpu_spec(cluster.clone(), 32, 300, iters, mode))
        .collect();
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Copy accounting and split-phase (16 nodes, 300us skew, 32 elems)",
        &[
            "mode",
            "mean_cpu_us",
            "copies",
            "copy_bytes",
            "copies_saved",
            "signals",
        ],
    );
    for (mode, out) in modes.iter().zip(&out) {
        let r = out.cpu();
        let get = |k: &str| {
            r.counters
                .iter()
                .find(|(n, _)| *n == k)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        t.row(vec![
            mode.label().to_string(),
            f2(r.mean_cpu_us),
            get("copies").to_string(),
            get("copy_bytes").to_string(),
            get("copies_saved").to_string(),
            r.signals.to_string(),
        ]);
    }
    vec![t]
}

/// Ablation: the §VII NIC-based reduction extension — how much host CPU the
/// NIC absorbs, and where the slow LANai arithmetic starts to hurt latency.
pub fn ablation_nic(iters: u64) -> Vec<Table> {
    const SIZES: [usize; 5] = [1, 8, 32, 128, 512];
    let cluster = ClusterSpec::heterogeneous(16);
    let modes = [Mode::Baseline, ab_mode(), Mode::NicBypass];
    let mut specs: Vec<RunSpec> = modes
        .iter()
        .map(|&mode| cpu_spec(cluster.clone(), 4, 500, iters, mode))
        .collect();
    for &e in &SIZES {
        for mode in [Mode::Baseline, ab_mode(), Mode::NicBypass] {
            specs.push(lat_spec(ClusterSpec::heterogeneous_32(), e, iters, mode));
        }
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Ablation: NIC-based reduction, CPU (16 nodes, 500us max skew, 4 elems)",
        &["mode", "host_cpu_us", "nic_us_total", "signals"],
    );
    for (mode, out) in modes.iter().zip(&out) {
        let r = out.cpu();
        t.row(vec![
            mode.label().to_string(),
            f2(r.mean_cpu_us),
            f2(r.nic_us_total),
            r.signals.to_string(),
        ]);
    }
    let mut t2 = Table::new(
        "Ablation: NIC-based reduction, latency vs message size (32 nodes, us)",
        &["elems", "nab", "ab", "ab-nic"],
    );
    for (row, &e) in SIZES.iter().enumerate() {
        let cells = &out[modes.len() + row * 3..modes.len() + row * 3 + 3];
        t2.row(vec![
            e.to_string(),
            f2(mean_latency(&cells[0])),
            f2(mean_latency(&cells[1])),
            f2(mean_latency(&cells[2])),
        ]);
    }
    vec![t, t2]
}

/// Ablation: application-bypass *broadcast* (the ref. \[8\] companion
/// system) — a skewed root stalls the blocking broadcast's whole tree;
/// bypass frees it.
pub fn ablation_bcast(iters: u64) -> Vec<Table> {
    const SKEWS: [u64; 4] = [0, 250, 500, 1000];
    let mut specs = Vec::new();
    for &skew in &SKEWS {
        let base = CpuUtilConfig {
            elems: 4,
            max_skew_us: skew,
            iters,
            ..CpuUtilConfig::new(ClusterSpec::heterogeneous(16), Mode::Baseline)
        };
        specs.push(RunSpec::Bcast(base.clone()));
        specs.push(RunSpec::Bcast(CpuUtilConfig {
            mode: ab_mode(),
            ..base
        }));
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Ablation: application-bypass broadcast (16 nodes, 4 elems)",
        &["skew_us", "blocking_us", "bypass_us", "foi", "signals"],
    );
    for (row, &skew) in SKEWS.iter().enumerate() {
        let blocking = out[row * 2].cpu();
        let bypass = out[row * 2 + 1].cpu();
        t.row(vec![
            skew.to_string(),
            f2(blocking.mean_cpu_us),
            f2(bypass.mean_cpu_us),
            ratio(blocking.mean_cpu_us, bypass.mean_cpu_us),
            bypass.signals.to_string(),
        ]);
    }
    vec![t]
}

/// Ablation: §VII's first future-work item — "evaluate the performance of
/// application-bypass operations on large-scale clusters" — taken beyond
/// the paper's 32-node testbed.
pub fn ablation_scale(iters: u64) -> Vec<Table> {
    const NODES: [u32; 4] = [32, 64, 128, 256];
    let mut specs = Vec::new();
    for &n in &NODES {
        for mode in [Mode::Baseline, ab_mode(), Mode::SplitPhase] {
            specs.push(cpu_spec(
                ClusterSpec::heterogeneous(n),
                4,
                1000,
                iters,
                mode,
            ));
        }
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Ablation: scaling beyond the testbed (1000us max skew, 4 elems)",
        &[
            "nodes",
            "nab_us",
            "ab_us",
            "foi",
            "ab_split_us",
            "foi_split",
        ],
    );
    for (row, &n) in NODES.iter().enumerate() {
        let nab = out[row * 3].cpu();
        let ab = out[row * 3 + 1].cpu();
        let split = out[row * 3 + 2].cpu();
        t.row(vec![
            n.to_string(),
            f2(nab.mean_cpu_us),
            f2(ab.mean_cpu_us),
            ratio(nab.mean_cpu_us, ab.mean_cpu_us),
            f2(split.mean_cpu_us),
            ratio(nab.mean_cpu_us, split.mean_cpu_us),
        ]);
    }
    vec![t]
}

/// Ablation: §VII's second future-work item — an application-based
/// evaluation. A bulk-synchronous app (imbalanced compute + per-sweep
/// residual reduction, no barriers) measured by *time-to-solution*.
pub fn ablation_app(iters: u64) -> Vec<Table> {
    const CASES: [(u32, f64); 4] = [(8, 0.5), (8, 2.0), (32, 0.5), (32, 2.0)];
    let sweeps = iters.clamp(20, 200);
    let mut specs = Vec::new();
    for &(n, imb) in &CASES {
        let base = AppBenchConfig {
            sweeps,
            imbalance: imb,
            ..AppBenchConfig::new(ClusterSpec::heterogeneous(n), Mode::Baseline)
        };
        specs.push(RunSpec::App(base.clone()));
        specs.push(RunSpec::App(AppBenchConfig {
            mode: ab_mode(),
            ..base.clone()
        }));
        specs.push(RunSpec::App(AppBenchConfig {
            mode: Mode::SplitPhase,
            ..base
        }));
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Ablation: application benchmark — 50 imbalanced sweeps, no barriers",
        &[
            "nodes",
            "imbalance",
            "nab_makespan",
            "ab_makespan",
            "split_makespan",
            "nab_cpu",
            "ab_cpu",
            "split_cpu",
        ],
    );
    for (row, &(n, imb)) in CASES.iter().enumerate() {
        let nab = out[row * 3].app();
        let ab = out[row * 3 + 1].app();
        let split = out[row * 3 + 2].app();
        t.row(vec![
            n.to_string(),
            format!("{imb:.1}"),
            f2(nab.makespan_us),
            f2(ab.makespan_us),
            f2(split.makespan_us),
            f2(nab.runtime_cpu_us),
            f2(ab.runtime_cpu_us),
            f2(split.runtime_cpu_us),
        ]);
    }
    vec![t]
}

/// Beyond the paper: CPU utilization and latency as the injected
/// drop+duplicate rate rises (32 nodes, reliable delivery on). The bypass
/// advantage should survive loss — retransmissions are absorbed by the
/// reliability layer below both modes — and the rel counters confirm the
/// injected schedule was actually exercised.
pub fn fig_loss(iters: u64) -> Vec<Table> {
    const LOSS: [f64; 5] = [0.0, 0.001, 0.005, 0.01, 0.02];
    let mut specs = Vec::new();
    for (i, &p) in LOSS.iter().enumerate() {
        let plan = if p == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::uniform_loss(0xAB5EED ^ i as u64, p)
        };
        for mode in [Mode::Baseline, ab_mode()] {
            specs.push(RunSpec::Cpu(CpuUtilConfig {
                elems: 4,
                max_skew_us: 200,
                iters,
                mode,
                faults: plan.clone(),
                ..CpuUtilConfig::new(ClusterSpec::heterogeneous_32(), mode)
            }));
            specs.push(RunSpec::Latency(LatencyConfig {
                elems: 4,
                iters,
                mode,
                faults: plan.clone(),
                ..LatencyConfig::new(ClusterSpec::heterogeneous_32(), mode)
            }));
        }
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        "Loss sweep: CPU utilization and latency vs drop+dup rate (32 nodes, 200us skew, 4 elems)",
        &[
            "loss_pct", "nab_cpu", "ab_cpu", "foi", "nab_lat", "ab_lat", "nab_retx", "ab_retx",
            "dups",
        ],
    );
    for (row, &p) in LOSS.iter().enumerate() {
        let cells = &out[row * 4..row * 4 + 4];
        let nab_cpu = cells[0].cpu();
        let ab_cpu = cells[2].cpu();
        let nab_rel = rel_of(&cells[0]);
        let ab_rel = rel_of(&cells[2]);
        t.row(vec![
            format!("{:.1}", p * 100.0),
            f2(nab_cpu.mean_cpu_us),
            f2(ab_cpu.mean_cpu_us),
            ratio(nab_cpu.mean_cpu_us, ab_cpu.mean_cpu_us),
            f2(mean_latency(&cells[1])),
            f2(mean_latency(&cells[3])),
            nab_rel.retransmissions.to_string(),
            ab_rel.retransmissions.to_string(),
            (nab_rel.duplicates_suppressed + ab_rel.duplicates_suppressed).to_string(),
        ]);
    }
    vec![t]
}

/// Beyond the paper: CPU-time factor of improvement per reduction
/// topology as skew rises (32 nodes, 32 elems). The schedule layer makes
/// the tree family a config axis, so the bypass advantage can be compared
/// across binomial, 4-nomial, chain and flat trees: chain trees make
/// every non-leaf rank an internal node (bypass helps most), flat trees
/// have no internal nodes at all (bypass has nothing to skip).
pub fn fig_topology(iters: u64) -> Vec<Table> {
    const TOPOS: [TopologyKind; 4] = [
        TopologyKind::Binomial,
        TopologyKind::Knomial(4),
        TopologyKind::Chain,
        TopologyKind::Flat,
    ];
    let skews: Vec<u64> = (0..=1000).step_by(250).collect();
    let mut specs = Vec::new();
    for &skew in &skews {
        for mode in [Mode::Baseline, ab_mode()] {
            for &topo in &TOPOS {
                specs.push(cpu_spec(
                    ClusterSpec::heterogeneous_32().with_topology(topo),
                    32,
                    skew,
                    iters,
                    mode,
                ));
            }
        }
    }
    let out = sweep().run_points(&specs);
    let cols: Vec<String> = std::iter::once("skew_us".to_string())
        .chain(TOPOS.iter().map(|t| format!("nab-{t}")))
        .chain(TOPOS.iter().map(|t| format!("ab-{t}")))
        .collect();
    let mut t_util = Table::new(
        "Topology sweep: Average CPU utilization vs max skew per tree family (32 nodes, 32 elems, us)",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let foi_cols: Vec<String> = std::iter::once("skew_us".to_string())
        .chain(TOPOS.iter().map(|t| format!("foi-{t}")))
        .collect();
    let mut t_foi = Table::new(
        "Topology sweep: Factor of improvement vs max skew per tree family (32 nodes, 32 elems)",
        &foi_cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let w = TOPOS.len();
    for (row, &skew) in skews.iter().enumerate() {
        let cells = &out[row * 2 * w..(row + 1) * 2 * w];
        let nab: Vec<f64> = cells[..w].iter().map(mean_cpu).collect();
        let ab: Vec<f64> = cells[w..].iter().map(mean_cpu).collect();
        let mut util_row = vec![skew.to_string()];
        util_row.extend(nab.iter().map(|&v| f2(v)));
        util_row.extend(ab.iter().map(|&v| f2(v)));
        t_util.row(util_row);
        let mut foi_row = vec![skew.to_string()];
        foi_row.extend((0..w).map(|i| ratio(nab[i], ab[i])));
        t_foi.row(foi_row);
    }
    vec![t_util, t_foi]
}

/// The scale figure: ab-vs-nab factor of improvement from the paper's
/// 32-node testbed up to 65,536 ranks, on two tree families. Per-size
/// iteration counts shrink as the cluster grows (a 64k-rank dissemination
/// barrier is ~1M packets per iteration); the FoI converges in a couple of
/// iterations because every rank × iteration contributes a sample.
/// `ABR_SCALE_MAX` caps the largest size (CI smoke uses 1,024).
pub fn fig_scale(iters: u64) -> Vec<Table> {
    const SIZES: [u32; 5] = [32, 256, 1024, 8192, 65_536];
    const TOPOS: [TopologyKind; 2] = [TopologyKind::Binomial, TopologyKind::Knomial(4)];
    let max = crate::scale_max();
    let sizes: Vec<u32> = SIZES.into_iter().filter(|&n| n <= max).collect();
    let mut specs = Vec::new();
    for &n in &sizes {
        let it = scale_iters(iters, n);
        for &topo in &TOPOS {
            for mode in [Mode::Baseline, ab_mode()] {
                specs.push(cpu_spec(
                    ClusterSpec::heterogeneous(n).with_topology(topo),
                    4,
                    1000,
                    it,
                    mode,
                ));
            }
        }
    }
    let out = sweep().run_points(&specs);
    let cols: Vec<String> = std::iter::once("nodes".to_string())
        .chain(
            TOPOS
                .iter()
                .flat_map(|t| [format!("nab-{t}"), format!("ab-{t}"), format!("foi-{t}")]),
        )
        .collect();
    let mut t = Table::new(
        "Scale sweep: CPU utilization and factor of improvement vs cluster size (1000us max skew, 4 elems, us)",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (row, &n) in sizes.iter().enumerate() {
        let cells = &out[row * 4..row * 4 + 4];
        let mut r = vec![n.to_string()];
        for ti in 0..TOPOS.len() {
            let nab = mean_cpu(&cells[ti * 2]);
            let ab = mean_cpu(&cells[ti * 2 + 1]);
            r.push(f2(nab));
            r.push(f2(ab));
            r.push(ratio(nab, ab));
        }
        t.row(r);
    }
    vec![t]
}

/// Iterations for one scale-figure size: shrink with the cluster so the
/// event count per point stays bounded, never below 2.
fn scale_iters(iters: u64, n: u32) -> u64 {
    iters.min((131_072 / n as u64).max(2))
}

/// The fabric the fabric figure sweeps: `ABR_FABRIC` when set, otherwise
/// the 4:1-oversubscribed fat-tree (`ABR_OVERSUB` still applies to the
/// default).
pub fn fabric_for_figure() -> FabricSpec {
    FabricSpec::from_env()
        .unwrap_or_else(|| FabricSpec::fat_tree(abr_fabric::spec::oversub_from_env()))
}

/// The topology contenders: placement-oblivious binomial against the two
/// placement-aware families, with the locality tree shaped to the fabric
/// under test.
fn fabric_topos(fabric: &FabricSpec) -> [TopologyKind; 3] {
    [
        TopologyKind::Binomial,
        TopologyKind::Bine,
        TopologyKind::Locality {
            ranks_per_node: fabric.ranks_per_node,
            nodes_per_pod: fabric.nodes_per_pod(),
            cyclic: fabric.placement == PlacementPolicy::Cyclic,
        },
    ]
}

/// The fabric figure: ab-vs-nab CPU and factor of improvement per
/// reduction topology on a *contended* fabric (see [`fabric_for_figure`]).
/// On the oversubscribed fat-tree the placement-oblivious binomial tree
/// pays for its cross-pod edges in uplink queueing, which the blocking
/// engine spins through; the Bine and locality-greedy trees keep more
/// edges inside a node or pod and shed that wait. `ABR_SCALE_MAX` caps the
/// largest size (CI smoke uses a small cap).
pub fn fig_fabric(iters: u64) -> Vec<Table> {
    fig_fabric_data(iters).0
}

/// One (size, topology) point of the fabric figure.
#[derive(Debug, Clone)]
pub struct FabricPoint {
    /// Cluster size (ranks).
    pub size: u32,
    /// Reduction topology label (`ABR_TOPO` syntax).
    pub topo: String,
    /// Blocking-mode mean per-reduction CPU (µs).
    pub nab_us: f64,
    /// Bypass-mode mean per-reduction CPU (µs).
    pub ab_us: f64,
    /// Factor of improvement (nab / ab).
    pub foi: f64,
    /// Packets that queued behind a busy link (nab + ab runs).
    pub link_waits: u64,
    /// Total queueing time on busy links (µs, nab + ab runs).
    pub link_wait_us: f64,
}

/// The topology with the lowest blocking-mode CPU at the largest size:
/// the "placement-aware trees win under contention" headline.
pub fn best_nab(points: &[FabricPoint]) -> Option<&FabricPoint> {
    let largest = points.iter().map(|p| p.size).max()?;
    points
        .iter()
        .filter(|p| p.size == largest)
        .min_by(|a, b| a.nab_us.partial_cmp(&b.nab_us).expect("finite"))
}

/// [`fig_fabric`] plus the per-point records for `BENCH_fabric.json`.
pub fn fig_fabric_data(iters: u64) -> (Vec<Table>, Vec<FabricPoint>) {
    const SIZES: [u32; 3] = [512, 2048, 8192];
    let fabric = fabric_for_figure();
    let topos = fabric_topos(&fabric);
    let max = crate::scale_max();
    let mut sizes: Vec<u32> = SIZES.into_iter().filter(|&n| n <= max).collect();
    if sizes.is_empty() {
        sizes.push(max);
    }
    let mut specs = Vec::new();
    for &n in &sizes {
        let it = scale_iters(iters, n);
        for &topo in &topos {
            for mode in [Mode::Baseline, ab_mode()] {
                specs.push(cpu_spec(
                    ClusterSpec::heterogeneous(n)
                        .with_topology(topo)
                        .with_fabric(fabric.clone()),
                    32,
                    200,
                    it,
                    mode,
                ));
            }
        }
    }
    let out = sweep().run_points(&specs);
    let cols: Vec<String> = std::iter::once("nodes".to_string())
        .chain(
            topos
                .iter()
                .flat_map(|t| [format!("nab-{t}"), format!("ab-{t}"), format!("foi-{t}")]),
        )
        .collect();
    let mut t = Table::new(
        format!(
            "Fabric sweep [{}]: CPU utilization and factor of improvement vs cluster size (200us max skew, 32 elems, us)",
            fabric.label()
        ),
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let wait_cols: Vec<String> = std::iter::once("nodes".to_string())
        .chain(
            topos
                .iter()
                .flat_map(|t| [format!("waits-{t}"), format!("wait_us-{t}")]),
        )
        .collect();
    let mut t_wait = Table::new(
        format!(
            "Fabric sweep [{}]: packets queued on busy links and total queueing time (nab+ab)",
            fabric.label()
        ),
        &wait_cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut points = Vec::new();
    let w = topos.len();
    for (row, &n) in sizes.iter().enumerate() {
        let cells = &out[row * 2 * w..(row + 1) * 2 * w];
        let mut r = vec![n.to_string()];
        let mut wr = vec![n.to_string()];
        for (ti, topo) in topos.iter().enumerate() {
            let nab = cells[ti * 2].cpu();
            let ab = cells[ti * 2 + 1].cpu();
            r.push(f2(nab.mean_cpu_us));
            r.push(f2(ab.mean_cpu_us));
            r.push(ratio(nab.mean_cpu_us, ab.mean_cpu_us));
            let waits = nab.link_waits + ab.link_waits;
            let wait_us = nab.link_wait_us + ab.link_wait_us;
            wr.push(waits.to_string());
            wr.push(f2(wait_us));
            points.push(FabricPoint {
                size: n,
                topo: topo.to_string(),
                nab_us: nab.mean_cpu_us,
                ab_us: ab.mean_cpu_us,
                foi: nab.mean_cpu_us / ab.mean_cpu_us.max(1e-9),
                link_waits: waits,
                link_wait_us: wait_us,
            });
        }
        t.row(r);
        t_wait.row(wr);
    }
    (vec![t, t_wait], points)
}

/// The series the bandwidth figure compares: two reduce-tree families
/// plus the dual-root doubly-pipelined allreduce (which builds its own
/// chain pair internally; the topology field only shapes the label-free
/// fallbacks there).
const BW_SERIES: [(&str, TopologyKind, BenchColl); 3] = [
    ("binomial", TopologyKind::Binomial, BenchColl::Reduce),
    ("chain", TopologyKind::Chain, BenchColl::Reduce),
    ("dual-root", TopologyKind::Chain, BenchColl::DualAllreduce),
];

/// Ranks in the bandwidth sweep: small on purpose — the figure varies the
/// message, not the cluster, and 64-MiB chains over 8 ranks already run
/// thousands of segment reduces per iteration.
const BW_RANKS: u32 = 8;

/// The segmentation pipeline window the bandwidth figure runs under:
/// `ABR_SEGMENTS` when set (including an explicit `1` to watch the
/// unsegmented rendezvous path), otherwise `8` — unlike the paper
/// figures, this sweep exists to show the pipeline, so the knob's
/// "off by default" convention is inverted here.
pub fn bandwidth_window() -> usize {
    if std::env::var_os("ABR_SEGMENTS").is_some() {
        abr_cluster::node::segments_from_env()
    } else {
        8
    }
}

/// Iterations for one bandwidth-figure size: shrink with the payload so
/// the event count per point stays bounded, never below 2.
fn bw_iters(iters: u64, bytes: usize) -> u64 {
    iters.min((4_194_304 / bytes as u64).max(2))
}

/// The message sizes the bandwidth figure sweeps: powers of four from
/// 1 KiB up to `ABR_MSG_BYTES` (the cap itself is appended when it is not
/// already a sweep point, so CI smoke caps land on the exact cap).
fn bw_sizes() -> Vec<usize> {
    let cap = crate::msg_bytes();
    let mut sizes: Vec<usize> = (0..)
        .map(|i| 1024usize << (2 * i))
        .take_while(|&b| b <= cap)
        .collect();
    if sizes.last() != Some(&cap) {
        sizes.push(cap);
    }
    sizes
}

/// The bandwidth figure: delivered bandwidth and CPU factor of
/// improvement vs message size (1 KiB → `ABR_MSG_BYTES`), blocking (nab)
/// against split-phase bypass (ab), on binomial/chain reduces and the
/// dual-root allreduce.
pub fn fig_bandwidth(iters: u64) -> Vec<Table> {
    fig_bandwidth_data(iters).0
}

/// One (message size, series) point of the bandwidth figure.
#[derive(Debug, Clone)]
pub struct BwPoint {
    /// Message size in bytes.
    pub msg_bytes: usize,
    /// Series label: `binomial`, `chain`, or `dual-root`.
    pub series: String,
    /// Blocking-mode mean post-to-completion wall time (µs).
    pub nab_wall_us: f64,
    /// Split-phase bypass mean post-to-completion wall time (µs).
    pub ab_wall_us: f64,
    /// Blocking-mode delivered bandwidth (MB/s, decimal).
    pub nab_bw_mbs: f64,
    /// Split-phase bypass delivered bandwidth (MB/s, decimal).
    pub ab_bw_mbs: f64,
    /// Blocking-mode mean per-iteration host CPU (µs).
    pub nab_cpu_us: f64,
    /// Split-phase bypass mean per-iteration host CPU (µs).
    pub ab_cpu_us: f64,
    /// CPU factor of improvement (nab / ab).
    pub foi: f64,
}

impl BwPoint {
    /// Delivered bandwidth for a payload completing in `wall_us`
    /// microseconds: bytes per µs, which is decimal MB/s.
    pub fn bandwidth_mbs(bytes: usize, wall_us: f64) -> f64 {
        bytes as f64 / wall_us.max(1e-9)
    }
}

/// The series with the highest bypass bandwidth at the largest size: the
/// "segmentation keeps large messages on the bypass path" headline.
pub fn peak_ab(points: &[BwPoint]) -> Option<&BwPoint> {
    let largest = points.iter().map(|p| p.msg_bytes).max()?;
    points
        .iter()
        .filter(|p| p.msg_bytes == largest)
        .max_by(|a, b| a.ab_bw_mbs.partial_cmp(&b.ab_bw_mbs).expect("finite"))
}

/// [`fig_bandwidth`] plus the per-point records for `BENCH_bw.json`.
///
/// Skew, jitter, and the catch-up margin are all zeroed so the recorded
/// post-to-completion wall time is the collective alone: bandwidth is
/// `bytes / mean_wall_us` and the FoI is the usual blocking-vs-bypass CPU
/// ratio. Both modes run the same Lowery–Langou segment plan (the window
/// from [`bandwidth_window`]); what differs is who drives it — the
/// blocking engine spins through every segment, the split-phase bypass
/// engine folds them in handlers.
pub fn fig_bandwidth_data(iters: u64) -> (Vec<Table>, Vec<BwPoint>) {
    let window = bandwidth_window();
    let sizes = bw_sizes();
    let mut specs = Vec::new();
    for &bytes in &sizes {
        let it = bw_iters(iters, bytes);
        for &(_, topo, coll) in &BW_SERIES {
            for mode in [Mode::Baseline, Mode::SplitPhase] {
                specs.push(RunSpec::Cpu(CpuUtilConfig {
                    elems: (bytes / 8).max(1),
                    max_skew_us: 0,
                    natural_jitter_us: 0,
                    catchup_margin_us: 0,
                    iters: it,
                    coll,
                    record_wall: true,
                    ..CpuUtilConfig::new(
                        ClusterSpec::heterogeneous(BW_RANKS)
                            .with_topology(topo)
                            .with_segments(window),
                        mode,
                    )
                }));
            }
        }
    }
    let out = sweep().run_points(&specs);
    let bw_cols: Vec<String> = std::iter::once("bytes".to_string())
        .chain(
            BW_SERIES
                .iter()
                .flat_map(|(s, _, _)| [format!("nab-{s}"), format!("ab-{s}")]),
        )
        .collect();
    let mut t_bw = Table::new(
        format!("Bandwidth vs message size ({BW_RANKS} ranks, window {window}, MB/s)"),
        &bw_cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let foi_cols: Vec<String> = std::iter::once("bytes".to_string())
        .chain(BW_SERIES.iter().map(|(s, _, _)| format!("foi-{s}")))
        .collect();
    let mut t_foi = Table::new(
        format!("CPU factor of improvement vs message size ({BW_RANKS} ranks, window {window})"),
        &foi_cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut points = Vec::new();
    let w = BW_SERIES.len();
    for (row, &bytes) in sizes.iter().enumerate() {
        let cells = &out[row * 2 * w..(row + 1) * 2 * w];
        let mut bw_row = vec![bytes.to_string()];
        let mut foi_row = vec![bytes.to_string()];
        for (si, (series, _, _)) in BW_SERIES.iter().enumerate() {
            let nab = cells[si * 2].cpu();
            let ab = cells[si * 2 + 1].cpu();
            let nab_bw = BwPoint::bandwidth_mbs(bytes, nab.mean_wall_us);
            let ab_bw = BwPoint::bandwidth_mbs(bytes, ab.mean_wall_us);
            bw_row.push(f2(nab_bw));
            bw_row.push(f2(ab_bw));
            foi_row.push(ratio(nab.mean_cpu_us, ab.mean_cpu_us));
            points.push(BwPoint {
                msg_bytes: bytes,
                series: series.to_string(),
                nab_wall_us: nab.mean_wall_us,
                ab_wall_us: ab.mean_wall_us,
                nab_bw_mbs: nab_bw,
                ab_bw_mbs: ab_bw,
                nab_cpu_us: nab.mean_cpu_us,
                ab_cpu_us: ab.mean_cpu_us,
                foi: nab.mean_cpu_us / ab.mean_cpu_us.max(1e-9),
            });
        }
        t_bw.row(bw_row);
        t_foi.row(foi_row);
    }
    (vec![t_bw, t_foi], points)
}

/// One sweep point per mode under an explicit [`FaultPlan`] (the
/// `ABR_FAULTS` path of the `loss_figure` binary), with the full
/// reliability-counter breakdown.
pub fn custom_fault_tables(iters: u64, plan: &FaultPlan) -> Vec<Table> {
    let mut specs = Vec::new();
    for mode in [Mode::Baseline, ab_mode()] {
        specs.push(RunSpec::Cpu(CpuUtilConfig {
            elems: 4,
            max_skew_us: 200,
            iters,
            mode,
            faults: plan.clone(),
            ..CpuUtilConfig::new(ClusterSpec::heterogeneous_32(), mode)
        }));
        specs.push(RunSpec::Latency(LatencyConfig {
            elems: 4,
            iters,
            mode,
            faults: plan.clone(),
            ..LatencyConfig::new(ClusterSpec::heterogeneous_32(), mode)
        }));
    }
    let out = sweep().run_points(&specs);
    let mut t = Table::new(
        format!(
            "Custom fault plan (seed {}, {} rule(s)) on 32 nodes, 200us skew, 4 elems",
            plan.seed,
            plan.rules.len()
        ),
        &[
            "mode", "cpu_us", "lat_us", "sent", "retx", "dups", "buffered", "dead",
        ],
    );
    for (i, mode) in [Mode::Baseline, ab_mode()].iter().enumerate() {
        let cpu = out[i * 2].cpu();
        let rel = rel_of(&out[i * 2]);
        t.row(vec![
            mode.label().to_string(),
            f2(cpu.mean_cpu_us),
            f2(mean_latency(&out[i * 2 + 1])),
            rel.data_sent.to_string(),
            rel.retransmissions.to_string(),
            rel.duplicates_suppressed.to_string(),
            rel.out_of_order_buffered.to_string(),
            rel.links_dead.to_string(),
        ]);
    }
    vec![t]
}

fn rel_of(out: &RunOut) -> RelStats {
    out.cpu().rel.unwrap_or_default()
}

/// Seed of the tenant figure's job mixes.
pub const TENANT_SEED: u64 = 17;

/// The tenant figure's offered-load ladder.
pub const TENANT_LADDER: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];

/// One offered-load point of the saturation sweep (both engine modes).
#[derive(Debug, Clone)]
pub struct TenantPoint {
    /// Offered-load factor (x-axis).
    pub load: f64,
    /// Co-scheduled jobs at this point.
    pub jobs: usize,
    /// Total ranks across the mix.
    pub ranks: usize,
    /// Baseline aggregate throughput (reductions/sec).
    pub nab_red_s: f64,
    /// Bypass aggregate throughput (reductions/sec).
    pub ab_red_s: f64,
    /// Baseline pooled iteration-latency percentiles (µs).
    pub nab_p50_us: f64,
    /// Baseline p99 (µs).
    pub nab_p99_us: f64,
    /// Baseline p999 (µs).
    pub nab_p999_us: f64,
    /// Bypass pooled iteration-latency percentiles (µs).
    pub ab_p50_us: f64,
    /// Bypass p99 (µs).
    pub ab_p99_us: f64,
    /// Bypass p999 (µs).
    pub ab_p999_us: f64,
    /// Baseline Jain fairness over per-job throughput.
    pub nab_fairness: f64,
    /// Bypass Jain fairness over per-job throughput.
    pub ab_fairness: f64,
}

impl TenantPoint {
    /// The bypass throughput advantage at this point (ab / nab).
    pub fn advantage(&self) -> f64 {
        if self.nab_red_s <= 0.0 {
            return 0.0;
        }
        self.ab_red_s / self.nab_red_s
    }
}

/// The tenant figure's claim over a sweep: the ab advantage at the
/// relaxed end, at the saturated end, and whether it widened. `None` for
/// sweeps with fewer than two points.
pub fn headline(points: &[TenantPoint]) -> Option<(f64, f64, bool)> {
    if points.len() < 2 {
        return None;
    }
    let lo = points.first()?.advantage();
    let hi = points.last()?.advantage();
    Some((lo, hi, hi > lo))
}

/// The knobs and per-point results of one tenant saturation sweep.
pub struct TenantFigure {
    /// Jobs co-scheduled at load 1 (`ABR_TENANT_JOBS`, default 2).
    pub base_jobs: usize,
    /// Ranks one node hosts at saturation (`ABR_TENANT_SLOTS`, default 4).
    pub slots: usize,
    /// One entry per ladder point, both engine modes folded in.
    pub points: Vec<TenantPoint>,
}

/// The multi-tenant saturation figure: offered load swept up a fixed
/// ladder on a fixed cluster, each point running the same seeded job mix
/// under busy-polling baseline engines and under application-bypass
/// engines (see `abr_cluster::tenant::saturation_config`). `ABR_TENANT_LOAD`
/// caps the ladder (the cluster is sized for the capped top, so the last
/// point is always the saturated one).
pub fn fig_tenant_data() -> (Vec<Table>, TenantFigure) {
    let base_jobs = abr_jobs::tenant_jobs_from_env().unwrap_or(2);
    let slots = abr_jobs::tenant_slots_from_env().unwrap_or(4);
    let cap = abr_jobs::tenant_load_from_env().unwrap_or(*TENANT_LADDER.last().expect("ladder"));
    let mut ladder: Vec<f64> = TENANT_LADDER
        .iter()
        .copied()
        .filter(|&l| l <= cap)
        .collect();
    if ladder.is_empty() {
        // A cap below the ladder bottom still sweeps that single point.
        ladder.push(cap);
    }
    let max_load = *ladder.last().expect("ladder is non-empty");
    let configs: Vec<TenantConfig> = ladder
        .iter()
        .flat_map(|&load| {
            [false, true]
                .map(|ab| saturation_config(TENANT_SEED, base_jobs, load, max_load, slots, ab))
        })
        .collect();
    let results = sweep().map(&configs, run_tenant);
    let points: Vec<TenantPoint> = ladder
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            let (nab, ab) = (&results[2 * i], &results[2 * i + 1]);
            TenantPoint {
                load,
                jobs: configs[2 * i].mix.jobs.len(),
                ranks: configs[2 * i].mix.total_ranks(),
                nab_red_s: nab.reductions_per_sec,
                ab_red_s: ab.reductions_per_sec,
                nab_p50_us: nab.latency.p50,
                nab_p99_us: nab.latency.p99,
                nab_p999_us: nab.latency.p999,
                ab_p50_us: ab.latency.p50,
                ab_p99_us: ab.latency.p99,
                ab_p999_us: ab.latency.p999,
                nab_fairness: nab.fairness,
                ab_fairness: ab.fairness,
            }
        })
        .collect();

    let mut t_thru = Table::new(
        "fig_tenant (a): aggregate service throughput vs offered load",
        &[
            "load",
            "jobs",
            "ranks",
            "nab red/s",
            "ab red/s",
            "ab advantage",
        ],
    );
    let mut t_tail = Table::new(
        "fig_tenant (b): pooled iteration-latency tails and Jain fairness",
        &[
            "load", "nab p50", "nab p99", "nab p999", "ab p50", "ab p99", "ab p999", "nab fair",
            "ab fair",
        ],
    );
    for p in &points {
        t_thru.row(vec![
            f2(p.load),
            p.jobs.to_string(),
            p.ranks.to_string(),
            format!("{:.0}", p.nab_red_s),
            format!("{:.0}", p.ab_red_s),
            ratio(p.ab_red_s, p.nab_red_s),
        ]);
        t_tail.row(vec![
            f2(p.load),
            format!("{:.0}", p.nab_p50_us),
            format!("{:.0}", p.nab_p99_us),
            format!("{:.0}", p.nab_p999_us),
            format!("{:.0}", p.ab_p50_us),
            format!("{:.0}", p.ab_p99_us),
            format!("{:.0}", p.ab_p999_us),
            format!("{:.3}", p.nab_fairness),
            format!("{:.3}", p.ab_fairness),
        ]);
    }
    (
        vec![t_thru, t_tail],
        TenantFigure {
            base_jobs,
            slots,
            points,
        },
    )
}

/// A figure generator: iteration count in, printable tables out.
pub type FigureFn = fn(u64) -> Vec<Table>;

/// Every figure `all_figures` regenerates, in print order; `ablations`
/// runs the `ablation_*` entries.
pub const FIGURES: [(&str, FigureFn); 14] = [
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablation_delay", ablation_delay),
    ("ablation_signal_cost", ablation_signal_cost),
    ("ablation_copies", ablation_copies),
    ("ablation_nic", ablation_nic),
    ("ablation_bcast", ablation_bcast),
    ("ablation_scale", ablation_scale),
    ("ablation_app", ablation_app),
    ("fig_loss", fig_loss),
    ("fig_topology", fig_topology),
];

/// Print a set of tables.
pub fn print_all(tables: &[Table]) {
    for t in tables {
        t.print();
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_guards_zero_wall() {
        assert!(BwPoint::bandwidth_mbs(1024, 0.0) > 0.0);
        let bw = BwPoint::bandwidth_mbs(2_000_000, 1000.0);
        assert!((bw - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn advantage_guards_zero_baseline() {
        let pt = |nab_red_s, ab_red_s| TenantPoint {
            load: 1.0,
            jobs: 2,
            ranks: 20,
            nab_red_s,
            ab_red_s,
            nab_p50_us: 0.0,
            nab_p99_us: 0.0,
            nab_p999_us: 0.0,
            ab_p50_us: 0.0,
            ab_p99_us: 0.0,
            ab_p999_us: 0.0,
            nab_fairness: 1.0,
            ab_fairness: 1.0,
        };
        assert_eq!(pt(0.0, 10.0).advantage(), 0.0);
        assert!((pt(10.0, 25.0).advantage() - 2.5).abs() < 1e-12);
    }
}
