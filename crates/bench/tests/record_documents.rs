//! Byte-exact pins of every `BENCH_*.json` document schema.
//!
//! Each test renders one schema from fixed inputs and compares the whole
//! document against its expected bytes, then checks it parses as JSON.
//! The inputs cover empty, single and multi-point sets, so every `null`
//! headline and every list shape is pinned.

use abr_bench::figures::{BwPoint, FabricPoint, TenantPoint};
use abr_bench::record::{self, FigureRecord};
use abr_cluster::microbench::ScaleRunResult;

fn sweep_doc(jobs: usize, iters: u64, figs: &[FigureRecord]) -> String {
    record::sweep(jobs, iters, figs).render()
}

fn scale_doc(scale_max: u32, run: &ScaleRunResult, fig: &FigureRecord) -> String {
    record::scale(scale_max, run, fig).render()
}

fn fabric_doc(fabric: &str, points: &[FabricPoint], fig: &FigureRecord) -> String {
    record::fabric(fabric, points, fig).render()
}

fn bw_doc(window: usize, points: &[BwPoint], fig: &FigureRecord) -> String {
    record::bw(window, points, fig).render()
}

fn tenant_doc(
    seed: u64,
    base_jobs: usize,
    slots: usize,
    points: &[TenantPoint],
    fig: &FigureRecord,
) -> String {
    record::tenant(seed, base_jobs, slots, points, fig).render()
}

/// Assert `doc` is exactly `expected` and is valid JSON.
fn pin(doc: String, expected: &str) {
    assert_eq!(doc, expected);
    abr_trace::validate_json(&doc).expect("record must be valid JSON");
}

/// Assert `rec` goes to `default` with `ABR_RECORD_JSON` unset, to the
/// knob's value when it is set, and refuses a set-but-empty knob.
fn pin_out_path(rec: &record::Record, default: &str) {
    assert_eq!(rec.out_path(None), Ok(default.to_string()));
    assert_eq!(rec.out_path(Some("out.json")), Ok("out.json".to_string()));
    for bad in ["", "   "] {
        let err = rec.out_path(Some(bad)).unwrap_err();
        assert!(err.contains("ABR_RECORD_JSON"), "{bad:?}: {err}");
    }
}

fn fig(name: &'static str, points: u64, wall_ms: f64) -> FigureRecord {
    FigureRecord {
        name,
        points,
        wall_ms,
    }
}

fn fabric_pt(size: u32, topo: &str, nab_us: f64, link_wait_us: f64) -> FabricPoint {
    FabricPoint {
        size,
        topo: topo.to_string(),
        nab_us,
        ab_us: nab_us / 3.0,
        foi: 3.0,
        link_waits: size as u64 / 4,
        link_wait_us,
    }
}

fn bw_pt(msg_bytes: usize, series: &str, ab_bw_mbs: f64) -> BwPoint {
    BwPoint {
        msg_bytes,
        series: series.to_string(),
        nab_wall_us: 100.125,
        ab_wall_us: 80.0,
        nab_bw_mbs: ab_bw_mbs / 2.0,
        ab_bw_mbs,
        nab_cpu_us: 90.456,
        ab_cpu_us: 30.0,
        foi: 90.456 / 30.0,
    }
}

fn tenant_pt(load: f64, nab_red_s: f64, ab_red_s: f64) -> TenantPoint {
    TenantPoint {
        load,
        jobs: (2.0 * load).ceil() as usize,
        ranks: (20.0 * load).ceil() as usize,
        nab_red_s,
        ab_red_s,
        nab_p50_us: 400.04,
        nab_p99_us: 900.0,
        nab_p999_us: 1200.56,
        ab_p50_us: 200.0,
        ab_p99_us: 350.25,
        ab_p999_us: 500.0,
        nab_fairness: 0.97,
        ab_fairness: 0.123456,
    }
}

#[test]
fn sweep_with_no_figures() {
    // An empty sum of f64 is -0.0, so an empty sweep prints `-0.000`.
    pin(
        sweep_doc(1, 300, &[]),
        r#"{
  "schema": "abr-sweep-v1",
  "jobs": 1,
  "iters": 300,
  "total_points": 0,
  "total_wall_ms": -0.000,
  "figures": [
  ]
}
"#,
    );
}

#[test]
fn sweep_with_one_figure() {
    pin(
        sweep_doc(2, 20, &[fig("fig_loss", 12, 4.2426)]),
        r#"{
  "schema": "abr-sweep-v1",
  "jobs": 2,
  "iters": 20,
  "total_points": 12,
  "total_wall_ms": 4.243,
  "figures": [
    {"name": "fig_loss", "points": 12, "wall_ms": 4.243}
  ]
}
"#,
    );
}

#[test]
fn sweep_with_three_figures() {
    pin(
        sweep_doc(
            4,
            300,
            &[
                fig("fig6", 66, 12.5),
                fig("fig7", 60, 8.25),
                fig("ablation_delay", 40, 0.0004),
            ],
        ),
        r#"{
  "schema": "abr-sweep-v1",
  "jobs": 4,
  "iters": 300,
  "total_points": 166,
  "total_wall_ms": 20.750,
  "figures": [
    {"name": "fig6", "points": 66, "wall_ms": 12.500},
    {"name": "fig7", "points": 60, "wall_ms": 8.250},
    {"name": "ablation_delay", "points": 40, "wall_ms": 0.000}
  ]
}
"#,
    );
}

#[test]
fn scale_record() {
    pin(
        scale_doc(
            65_536,
            &ScaleRunResult {
                ranks: 8192,
                events: 1_234_567,
                wall_secs: 2.34567,
                events_per_sec: 526_312.6,
                makespan_us: 123.45,
                mean_cpu_us: 9.9,
                packets_delivered: 321,
            },
            &fig("fig_scale", 20, 55.0),
        ),
        r#"{
  "schema": "abr-scale-v2",
  "scale_max": 65536,
  "throughput": {"ranks": 8192, "events": 1234567, "wall_secs": 2.346, "events_per_sec": 526313, "makespan_us": 123.5, "packets": 321},
  "figure": {"name": "fig_scale", "points": 20, "wall_ms": 55.000}
}
"#,
    );
}

#[test]
fn fabric_with_no_points_has_null_best() {
    pin(
        fabric_doc("flat", &[], &fig("fig_fabric", 0, 0.0)),
        r#"{
  "schema": "abr-fabric-v1",
  "fabric": "flat",
  "best_nab": null,
  "points": [
  ],
  "figure": {"name": "fig_fabric", "points": 0, "wall_ms": 0.000}
}
"#,
    );
}

#[test]
fn fabric_with_one_point() {
    pin(
        fabric_doc(
            "fattree:4:cyclic",
            &[fabric_pt(512, "binomial", 50.005, 5.55)],
            &fig("fig_fabric", 6, 7.0),
        ),
        r#"{
  "schema": "abr-fabric-v1",
  "fabric": "fattree:4:cyclic",
  "best_nab": {"size": 512, "topo": "binomial", "nab_us": 50.01},
  "points": [
    {"size": 512, "topo": "binomial", "nab_us": 50.01, "ab_us": 16.67, "foi": 3.00, "link_waits": 128, "link_wait_us": 5.5}
  ],
  "figure": {"name": "fig_fabric", "points": 6, "wall_ms": 7.000}
}
"#,
    );
}

#[test]
fn fabric_best_is_judged_at_the_largest_size() {
    pin(
        fabric_doc(
            "dragonfly:blocked",
            &[
                fabric_pt(512, "binomial", 50.0, 0.0),
                fabric_pt(2048, "binomial", 90.0, 1234.56),
                fabric_pt(2048, "locality4x16:cyclic", 60.0, 99.94),
            ],
            &fig("fig_fabric", 12, 1234.5678),
        ),
        r#"{
  "schema": "abr-fabric-v1",
  "fabric": "dragonfly:blocked",
  "best_nab": {"size": 2048, "topo": "locality4x16:cyclic", "nab_us": 60.00},
  "points": [
    {"size": 512, "topo": "binomial", "nab_us": 50.00, "ab_us": 16.67, "foi": 3.00, "link_waits": 128, "link_wait_us": 0.0},
    {"size": 2048, "topo": "binomial", "nab_us": 90.00, "ab_us": 30.00, "foi": 3.00, "link_waits": 512, "link_wait_us": 1234.6},
    {"size": 2048, "topo": "locality4x16:cyclic", "nab_us": 60.00, "ab_us": 20.00, "foi": 3.00, "link_waits": 512, "link_wait_us": 99.9}
  ],
  "figure": {"name": "fig_fabric", "points": 12, "wall_ms": 1234.568}
}
"#,
    );
}

#[test]
fn bw_with_no_points_has_null_peak() {
    pin(
        bw_doc(1, &[], &fig("fig_bandwidth", 0, 0.0)),
        r#"{
  "schema": "abr-bw-v1",
  "segments": 1,
  "peak_ab": null,
  "points": [
  ],
  "figure": {"name": "fig_bandwidth", "points": 0, "wall_ms": 0.000}
}
"#,
    );
}

#[test]
fn bw_with_one_point() {
    pin(
        bw_doc(
            8,
            &[bw_pt(1024, "binomial", 40.0)],
            &fig("fig_bandwidth", 6, 7.5),
        ),
        r#"{
  "schema": "abr-bw-v1",
  "segments": 8,
  "peak_ab": {"msg_bytes": 1024, "series": "binomial", "ab_bw_mbs": 40.00},
  "points": [
    {"msg_bytes": 1024, "series": "binomial", "nab_wall_us": 100.12, "ab_wall_us": 80.00, "nab_bw_mbs": 20.00, "ab_bw_mbs": 40.00, "nab_cpu_us": 90.46, "ab_cpu_us": 30.00, "foi": 3.02}
  ],
  "figure": {"name": "fig_bandwidth", "points": 6, "wall_ms": 7.500}
}
"#,
    );
}

#[test]
fn bw_peak_is_judged_at_the_largest_size() {
    pin(
        bw_doc(
            8,
            &[
                bw_pt(1024, "binomial", 40.0),
                bw_pt(65536, "chain", 120.0),
                bw_pt(65536, "dual-root", 200.333),
            ],
            &fig("fig_bandwidth", 12, 7.0),
        ),
        r#"{
  "schema": "abr-bw-v1",
  "segments": 8,
  "peak_ab": {"msg_bytes": 65536, "series": "dual-root", "ab_bw_mbs": 200.33},
  "points": [
    {"msg_bytes": 1024, "series": "binomial", "nab_wall_us": 100.12, "ab_wall_us": 80.00, "nab_bw_mbs": 20.00, "ab_bw_mbs": 40.00, "nab_cpu_us": 90.46, "ab_cpu_us": 30.00, "foi": 3.02},
    {"msg_bytes": 65536, "series": "chain", "nab_wall_us": 100.12, "ab_wall_us": 80.00, "nab_bw_mbs": 60.00, "ab_bw_mbs": 120.00, "nab_cpu_us": 90.46, "ab_cpu_us": 30.00, "foi": 3.02},
    {"msg_bytes": 65536, "series": "dual-root", "nab_wall_us": 100.12, "ab_wall_us": 80.00, "nab_bw_mbs": 100.17, "ab_bw_mbs": 200.33, "nab_cpu_us": 90.46, "ab_cpu_us": 30.00, "foi": 3.02}
  ],
  "figure": {"name": "fig_bandwidth", "points": 12, "wall_ms": 7.000}
}
"#,
    );
}

#[test]
fn tenant_with_no_points_has_null_headline() {
    pin(
        tenant_doc(17, 2, 4, &[], &fig("fig_tenant", 0, 0.0)),
        r#"{
  "schema": "abr-tenant-v1",
  "seed": 17,
  "base_jobs": 2,
  "slots": 4,
  "headline": null,
  "points": [
  ],
  "figure": {"name": "fig_tenant", "points": 0, "wall_ms": 0.000}
}
"#,
    );
}

#[test]
fn tenant_with_one_point_has_null_headline() {
    pin(
        tenant_doc(
            17,
            2,
            4,
            &[tenant_pt(1.0, 2000.0, 2020.0)],
            &fig("fig_tenant", 2, 1.0),
        ),
        r#"{
  "schema": "abr-tenant-v1",
  "seed": 17,
  "base_jobs": 2,
  "slots": 4,
  "headline": null,
  "points": [
    {"load": 1, "jobs": 2, "ranks": 20, "nab_red_s": 2000.0, "ab_red_s": 2020.0, "advantage": 1.010, "nab_p50_us": 400.0, "nab_p99_us": 900.0, "nab_p999_us": 1200.6, "ab_p50_us": 200.0, "ab_p99_us": 350.2, "ab_p999_us": 500.0, "nab_fairness": 0.9700, "ab_fairness": 0.1235}
  ],
  "figure": {"name": "fig_tenant", "points": 2, "wall_ms": 1.000}
}
"#,
    );
}

#[test]
fn tenant_headline_not_widening() {
    // `load` prints with plain `{}`; a zero baseline gives advantage 0.
    pin(
        tenant_doc(
            5,
            3,
            2,
            &[tenant_pt(1.0, 2000.0, 2200.0), tenant_pt(2.5, 3000.0, 0.0)],
            &fig("fig_tenant", 4, 3.0),
        ),
        r#"{
  "schema": "abr-tenant-v1",
  "seed": 5,
  "base_jobs": 3,
  "slots": 2,
  "headline": {"adv_relaxed": 1.100, "adv_saturated": 0.000, "widening": false},
  "points": [
    {"load": 1, "jobs": 2, "ranks": 20, "nab_red_s": 2000.0, "ab_red_s": 2200.0, "advantage": 1.100, "nab_p50_us": 400.0, "nab_p99_us": 900.0, "nab_p999_us": 1200.6, "ab_p50_us": 200.0, "ab_p99_us": 350.2, "ab_p999_us": 500.0, "nab_fairness": 0.9700, "ab_fairness": 0.1235},
    {"load": 2.5, "jobs": 5, "ranks": 50, "nab_red_s": 3000.0, "ab_red_s": 0.0, "advantage": 0.000, "nab_p50_us": 400.0, "nab_p99_us": 900.0, "nab_p999_us": 1200.6, "ab_p50_us": 200.0, "ab_p99_us": 350.2, "ab_p999_us": 500.0, "nab_fairness": 0.9700, "ab_fairness": 0.1235}
  ],
  "figure": {"name": "fig_tenant", "points": 4, "wall_ms": 3.000}
}
"#,
    );
}

#[test]
fn tenant_headline_widening() {
    pin(
        tenant_doc(
            17,
            2,
            4,
            &[
                tenant_pt(1.0, 2000.0, 2020.0),
                tenant_pt(4.0, 0.0, 5000.0),
                tenant_pt(8.0, 30000.0, 62000.0),
            ],
            &fig("fig_tenant", 6, 11.0),
        ),
        r#"{
  "schema": "abr-tenant-v1",
  "seed": 17,
  "base_jobs": 2,
  "slots": 4,
  "headline": {"adv_relaxed": 1.010, "adv_saturated": 2.067, "widening": true},
  "points": [
    {"load": 1, "jobs": 2, "ranks": 20, "nab_red_s": 2000.0, "ab_red_s": 2020.0, "advantage": 1.010, "nab_p50_us": 400.0, "nab_p99_us": 900.0, "nab_p999_us": 1200.6, "ab_p50_us": 200.0, "ab_p99_us": 350.2, "ab_p999_us": 500.0, "nab_fairness": 0.9700, "ab_fairness": 0.1235},
    {"load": 4, "jobs": 8, "ranks": 80, "nab_red_s": 0.0, "ab_red_s": 5000.0, "advantage": 0.000, "nab_p50_us": 400.0, "nab_p99_us": 900.0, "nab_p999_us": 1200.6, "ab_p50_us": 200.0, "ab_p99_us": 350.2, "ab_p999_us": 500.0, "nab_fairness": 0.9700, "ab_fairness": 0.1235},
    {"load": 8, "jobs": 16, "ranks": 160, "nab_red_s": 30000.0, "ab_red_s": 62000.0, "advantage": 2.067, "nab_p50_us": 400.0, "nab_p99_us": 900.0, "nab_p999_us": 1200.6, "ab_p50_us": 200.0, "ab_p99_us": 350.2, "ab_p999_us": 500.0, "nab_fairness": 0.9700, "ab_fairness": 0.1235}
  ],
  "figure": {"name": "fig_tenant", "points": 6, "wall_ms": 11.000}
}
"#,
    );
}

#[test]
fn sweep_out_path_rejects_empty() {
    pin_out_path(&record::sweep(1, 1, &[]), "BENCH_sweep.json");
}

#[test]
fn scale_out_path_rejects_empty() {
    let run = ScaleRunResult {
        ranks: 2,
        events: 0,
        wall_secs: 0.0,
        events_per_sec: 0.0,
        makespan_us: 0.0,
        mean_cpu_us: 0.0,
        packets_delivered: 0,
    };
    pin_out_path(
        &record::scale(2, &run, &fig("fig_scale", 0, 0.0)),
        "BENCH_scale.json",
    );
}

#[test]
fn fabric_out_path_rejects_empty() {
    pin_out_path(
        &record::fabric("flat", &[], &fig("fig_fabric", 0, 0.0)),
        "BENCH_fabric.json",
    );
}

#[test]
fn bw_out_path_rejects_empty() {
    pin_out_path(
        &record::bw(1, &[], &fig("fig_bandwidth", 0, 0.0)),
        "BENCH_bw.json",
    );
}

#[test]
fn tenant_out_path_rejects_empty() {
    pin_out_path(
        &record::tenant(17, 4, 4, &[], &fig("fig_tenant", 0, 0.0)),
        "BENCH_tenant.json",
    );
}
