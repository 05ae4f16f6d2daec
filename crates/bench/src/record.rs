//! The `BENCH_*.json` records: one layout, one path rule, one write.
//!
//! Every figure binary writes exactly one record: `all_figures`,
//! `ablations` and `loss_figure` the sweep timings (`BENCH_sweep.json`),
//! and `scale_figure`, `fabric_figure`, `bandwidth_figure` and
//! `tenant_figure` their own (`BENCH_scale.json`, `BENCH_fabric.json`,
//! `BENCH_bw.json`, `BENCH_tenant.json`). A [`Record`] is a schema tag,
//! a default file name and a list of top-level fields; the functions
//! [`sweep`], [`scale`], [`fabric`], [`bw`] and [`tenant`] spell out each
//! schema as such a list, and [`write()`] puts the rendered document at
//! `ABR_RECORD_JSON` when that is set, otherwise at the default path.
//!
//! The JSON is hand-rolled (no serializer dependency). Every string
//! written is a figure, series, topology or fabric label, so no escaping
//! is needed.

use crate::figures::{best_nab, headline, peak_ab, BwPoint, FabricPoint, TenantPoint};
use abr_cluster::microbench::ScaleRunResult;
use abr_cluster::report::Table;
use abr_cluster::sweep::points_run;
use std::fmt;
use std::time::Instant;

/// One JSON value of a record.
#[derive(Debug, Clone)]
pub enum Value {
    /// A non-negative integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A float printed in its shortest round-trip form (`1`, `2.5`).
    Float(f64),
    /// A string, printed between quotes as is.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`, e.g. the headline of a sweep too small to have one.
    Null,
    /// An object, printed on one line as `{"k": v, ...}`.
    Object(Vec<(&'static str, Value)>),
    /// A list. As a top-level field it prints one item per line.
    List(Vec<Value>),
}

impl fmt::Display for Value {
    /// The one-line form of the value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => f.write_str("null"),
            Value::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}\"{k}\": {v}")?;
                }
                f.write_str("}")
            }
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

/// One schema-tagged document.
#[derive(Debug, Clone)]
pub struct Record {
    /// Schema tag, printed as the first field (e.g. `abr-sweep-v1`).
    pub schema: &'static str,
    /// Where [`write()`] puts the document when `ABR_RECORD_JSON` is unset.
    pub default_path: &'static str,
    /// Top-level fields after `"schema"`, in print order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Render the document: each top-level field on its own line at two
    /// spaces, nested objects inline, and top-level lists one item per
    /// line at four spaces.
    pub fn render(&self) -> String {
        let mut s = format!("{{\n  \"schema\": \"{}\"", self.schema);
        for (k, v) in &self.fields {
            s.push_str(&format!(",\n  \"{k}\": "));
            match v {
                Value::List(items) => {
                    let rows: Vec<String> = items.iter().map(|i| format!("\n    {i}")).collect();
                    s.push_str(&format!("[{}\n  ]", rows.join(",")));
                }
                v => s.push_str(&v.to_string()),
            }
        }
        s.push_str("\n}\n");
        s
    }

    /// Where [`write()`] puts the document: `knob`, the value of
    /// `ABR_RECORD_JSON`, when that is set, otherwise the default path.
    ///
    /// # Errors
    /// A set-but-empty `knob`, as [`parse_out_path`] judges it.
    pub fn out_path(&self, knob: Option<&str>) -> Result<String, String> {
        knob.map_or_else(|| Ok(self.default_path.to_string()), parse_out_path)
    }
}

/// Write `record` to `ABR_RECORD_JSON`, or to its default path when the
/// knob is unset, and print a one-line notice to stderr.
///
/// # Panics
/// Panics on a set-but-empty `ABR_RECORD_JSON`, and when the file cannot
/// be written (the message names the path and the OS error): a figure
/// run whose record is missing must not look like a success.
pub fn write(record: &Record) {
    let knob = abr_trace::knob::RECORD_JSON.read(|raw| Ok(raw.to_string()));
    let path = record
        .out_path(knob.as_deref())
        .unwrap_or_else(|e| panic!("{e}"));
    if let Err(e) = std::fs::write(&path, record.render()) {
        panic!("could not write {} record to {path}: {e}", record.schema);
    }
    eprintln!("{} record written to {path}", record.schema);
}

/// Validate an explicit `ABR_RECORD_JSON` value: any non-empty path.
pub fn parse_out_path(raw: &str) -> Result<String, String> {
    if raw.trim().is_empty() {
        Err("ABR_RECORD_JSON must be a non-empty output path".to_string())
    } else {
        Ok(raw.to_string())
    }
}

/// Wall-clock record for one figure's sweep.
#[derive(Debug, Clone)]
pub struct FigureRecord {
    /// Figure name, e.g. `fig6`.
    pub name: &'static str,
    /// Simulation points the sweep evaluated.
    pub points: u64,
    /// Wall-clock time for the whole figure (ms).
    pub wall_ms: f64,
}

impl FigureRecord {
    /// The `{"name", "points", "wall_ms"}` object every record carries.
    pub fn value(&self) -> Value {
        Value::Object(vec![
            ("name", Value::Str(self.name.to_string())),
            ("points", Value::Int(self.points)),
            ("wall_ms", Value::Fixed(self.wall_ms, 3)),
        ])
    }
}

/// Run `f`, returning its tables plus a timing record attributing the
/// sweep points it executed.
pub fn timed_figure(
    name: &'static str,
    f: impl FnOnce() -> Vec<Table>,
) -> (Vec<Table>, FigureRecord) {
    let points_before = points_run();
    let t0 = Instant::now();
    let tables = f();
    let record = FigureRecord {
        name,
        points: points_run() - points_before,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    (tables, record)
}

/// `BENCH_sweep.json` (schema `abr-sweep-v1`): worker and iteration
/// counts plus one timing record per figure. The series are
/// deterministic at any worker count (see [`abr_cluster::sweep`]), so
/// this is the place to look for the throughput effect of `ABR_JOBS`.
pub fn sweep(jobs: usize, iters: u64, figures: &[FigureRecord]) -> Record {
    let total_points: u64 = figures.iter().map(|r| r.points).sum();
    let total_ms: f64 = figures.iter().map(|r| r.wall_ms).sum();
    Record {
        schema: "abr-sweep-v1",
        default_path: "BENCH_sweep.json",
        fields: vec![
            ("jobs", Value::Int(jobs as u64)),
            ("iters", Value::Int(iters)),
            ("total_points", Value::Int(total_points)),
            ("total_wall_ms", Value::Fixed(total_ms, 3)),
            (
                "figures",
                Value::List(figures.iter().map(FigureRecord::value).collect()),
            ),
        ],
    }
}

/// `BENCH_scale.json` (schema `abr-scale-v2`): DES throughput of one
/// baseline-engine run at scale, plus the scale figure's timing.
pub fn scale(scale_max: u32, run: &ScaleRunResult, figure: &FigureRecord) -> Record {
    Record {
        schema: "abr-scale-v2",
        default_path: "BENCH_scale.json",
        fields: vec![
            ("scale_max", Value::Int(scale_max.into())),
            (
                "throughput",
                Value::Object(vec![
                    ("ranks", Value::Int(run.ranks.into())),
                    ("events", Value::Int(run.events)),
                    ("wall_secs", Value::Fixed(run.wall_secs, 3)),
                    ("events_per_sec", Value::Fixed(run.events_per_sec, 0)),
                    ("makespan_us", Value::Fixed(run.makespan_us, 1)),
                    ("packets", Value::Int(run.packets_delivered)),
                ]),
            ),
            ("figure", figure.value()),
        ],
    }
}

/// `BENCH_fabric.json` (schema `abr-fabric-v1`): every point of the
/// fabric-contention figure, headed by `best_nab`, the topology with the
/// lowest blocking-mode CPU at the largest size.
pub fn fabric(fabric: &str, points: &[FabricPoint], figure: &FigureRecord) -> Record {
    let best = best_nab(points).map_or(Value::Null, |b| {
        Value::Object(vec![
            ("size", Value::Int(b.size.into())),
            ("topo", Value::Str(b.topo.clone())),
            ("nab_us", Value::Fixed(b.nab_us, 2)),
        ])
    });
    let rows = points.iter().map(|p| {
        Value::Object(vec![
            ("size", Value::Int(p.size.into())),
            ("topo", Value::Str(p.topo.clone())),
            ("nab_us", Value::Fixed(p.nab_us, 2)),
            ("ab_us", Value::Fixed(p.ab_us, 2)),
            ("foi", Value::Fixed(p.foi, 2)),
            ("link_waits", Value::Int(p.link_waits)),
            ("link_wait_us", Value::Fixed(p.link_wait_us, 1)),
        ])
    });
    Record {
        schema: "abr-fabric-v1",
        default_path: "BENCH_fabric.json",
        fields: vec![
            ("fabric", Value::Str(fabric.to_string())),
            ("best_nab", best),
            ("points", Value::List(rows.collect())),
            ("figure", figure.value()),
        ],
    }
}

/// `BENCH_bw.json` (schema `abr-bw-v1`): every point of the bandwidth
/// figure, headed by `peak_ab`, the series with the highest bypass
/// bandwidth at the largest message size.
pub fn bw(window: usize, points: &[BwPoint], figure: &FigureRecord) -> Record {
    let peak = peak_ab(points).map_or(Value::Null, |b| {
        Value::Object(vec![
            ("msg_bytes", Value::Int(b.msg_bytes as u64)),
            ("series", Value::Str(b.series.clone())),
            ("ab_bw_mbs", Value::Fixed(b.ab_bw_mbs, 2)),
        ])
    });
    let rows = points.iter().map(|p| {
        Value::Object(vec![
            ("msg_bytes", Value::Int(p.msg_bytes as u64)),
            ("series", Value::Str(p.series.clone())),
            ("nab_wall_us", Value::Fixed(p.nab_wall_us, 2)),
            ("ab_wall_us", Value::Fixed(p.ab_wall_us, 2)),
            ("nab_bw_mbs", Value::Fixed(p.nab_bw_mbs, 2)),
            ("ab_bw_mbs", Value::Fixed(p.ab_bw_mbs, 2)),
            ("nab_cpu_us", Value::Fixed(p.nab_cpu_us, 2)),
            ("ab_cpu_us", Value::Fixed(p.ab_cpu_us, 2)),
            ("foi", Value::Fixed(p.foi, 2)),
        ])
    });
    Record {
        schema: "abr-bw-v1",
        default_path: "BENCH_bw.json",
        fields: vec![
            ("segments", Value::Int(window as u64)),
            ("peak_ab", peak),
            ("points", Value::List(rows.collect())),
            ("figure", figure.value()),
        ],
    }
}

/// `BENCH_tenant.json` (schema `abr-tenant-v1`): every offered-load point
/// of the saturation figure, headed by the claim that the ab throughput
/// advantage widens as load rises (`null` below two points).
pub fn tenant(
    seed: u64,
    base_jobs: usize,
    slots: usize,
    points: &[TenantPoint],
    figure: &FigureRecord,
) -> Record {
    let claim = headline(points).map_or(Value::Null, |(lo, hi, widening)| {
        Value::Object(vec![
            ("adv_relaxed", Value::Fixed(lo, 3)),
            ("adv_saturated", Value::Fixed(hi, 3)),
            ("widening", Value::Bool(widening)),
        ])
    });
    let rows = points.iter().map(|p| {
        Value::Object(vec![
            ("load", Value::Float(p.load)),
            ("jobs", Value::Int(p.jobs as u64)),
            ("ranks", Value::Int(p.ranks as u64)),
            ("nab_red_s", Value::Fixed(p.nab_red_s, 1)),
            ("ab_red_s", Value::Fixed(p.ab_red_s, 1)),
            ("advantage", Value::Fixed(p.advantage(), 3)),
            ("nab_p50_us", Value::Fixed(p.nab_p50_us, 1)),
            ("nab_p99_us", Value::Fixed(p.nab_p99_us, 1)),
            ("nab_p999_us", Value::Fixed(p.nab_p999_us, 1)),
            ("ab_p50_us", Value::Fixed(p.ab_p50_us, 1)),
            ("ab_p99_us", Value::Fixed(p.ab_p99_us, 1)),
            ("ab_p999_us", Value::Fixed(p.ab_p999_us, 1)),
            ("nab_fairness", Value::Fixed(p.nab_fairness, 4)),
            ("ab_fairness", Value::Fixed(p.ab_fairness, 4)),
        ])
    });
    Record {
        schema: "abr-tenant-v1",
        default_path: "BENCH_tenant.json",
        fields: vec![
            ("seed", Value::Int(seed)),
            ("base_jobs", Value::Int(base_jobs as u64)),
            ("slots", Value::Int(slots as u64)),
            ("headline", claim),
            ("points", Value::List(rows.collect())),
            ("figure", figure.value()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_out_path_rejects_empty() {
        assert_eq!(parse_out_path("out.json"), Ok("out.json".to_string()));
        for bad in ["", "   "] {
            let err = parse_out_path(bad).unwrap_err();
            assert!(err.contains("ABR_RECORD_JSON"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn timed_figure_attributes_points() {
        use abr_cluster::sweep::Sweep;
        let (tables, rec) = timed_figure("probe", || {
            Sweep::with_jobs(1).map(&[1u8, 2], |&x| x);
            Vec::new()
        });
        assert!(tables.is_empty());
        assert_eq!(rec.name, "probe");
        assert!(rec.points >= 2);
        assert!(rec.wall_ms >= 0.0);
    }

    #[test]
    #[should_panic(expected = "could not write probe-v1 record to /nonexistent/dir/probe.json")]
    fn failed_write_panics_naming_the_path() {
        // Writes to the default path, so it needs `ABR_RECORD_JSON` unset.
        write(&Record {
            schema: "probe-v1",
            default_path: "/nonexistent/dir/probe.json",
            fields: Vec::new(),
        });
    }

    #[test]
    fn nested_values_render_inline() {
        let record = Record {
            schema: "probe-v1",
            default_path: "probe.json",
            fields: vec![(
                "nested",
                Value::Object(vec![
                    ("list", Value::List(vec![Value::Int(1), Value::Null])),
                    ("flag", Value::Bool(false)),
                ]),
            )],
        };
        let doc = record.render();
        assert_eq!(
            doc,
            "{\n  \"schema\": \"probe-v1\",\n  \"nested\": {\"list\": [1, null], \"flag\": false}\n}\n"
        );
        abr_trace::validate_json(&doc).expect("valid JSON");
    }
}
