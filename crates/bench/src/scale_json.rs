//! `BENCH_scale.json`: DES throughput at scale.
//!
//! The `scale_figure` binary times the baseline-engine CPU-utilization
//! workload once at a large rank count and records the run here. The JSON
//! is hand-rolled like `BENCH_sweep.json`; the output path defaults to
//! `BENCH_scale.json` and can be overridden with the `ABR_SCALE_JSON`
//! environment variable.

use crate::sweep_json::FigureRecord;
use abr_cluster::microbench::ScaleRunResult;

/// The output path: `ABR_SCALE_JSON` or `BENCH_scale.json`.
///
/// # Panics
/// Panics on a set-but-empty `ABR_SCALE_JSON`.
pub fn out_path() -> String {
    abr_trace::parse_env("ABR_SCALE_JSON", parse_out_path)
        .unwrap_or_else(|| "BENCH_scale.json".to_string())
}

/// Validate an explicit `ABR_SCALE_JSON` value: any non-empty path.
pub fn parse_out_path(raw: &str) -> Result<String, String> {
    if raw.trim().is_empty() {
        Err("ABR_SCALE_JSON must be a non-empty output path".to_string())
    } else {
        Ok(raw.to_string())
    }
}

/// Render the summary document (schema `abr-scale-v2`).
pub fn render(scale_max: u32, r: &ScaleRunResult, figure: &FigureRecord) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"abr-scale-v2\",\n");
    s.push_str(&format!("  \"scale_max\": {scale_max},\n"));
    s.push_str(&format!(
        "  \"throughput\": {{\"ranks\": {}, \"events\": {}, \"wall_secs\": {:.3}, \
         \"events_per_sec\": {:.0}, \"makespan_us\": {:.1}, \"packets\": {}}},\n",
        r.ranks, r.events, r.wall_secs, r.events_per_sec, r.makespan_us, r.packets_delivered
    ));
    s.push_str(&format!(
        "  \"figure\": {{\"name\": \"{}\", \"points\": {}, \"wall_ms\": {:.3}}}\n",
        figure.name, figure.points, figure.wall_ms
    ));
    s.push_str("}\n");
    s
}

/// Write the summary to [`out_path`]; prints a notice on success and a
/// warning (without failing the run) if the write is impossible.
pub fn write(scale_max: u32, run: &ScaleRunResult, fig: &FigureRecord) {
    let path = out_path();
    match std::fs::write(&path, render(scale_max, run, fig)) {
        Ok(()) => eprintln!("scale throughput written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(ranks: u32, eps: f64) -> ScaleRunResult {
        ScaleRunResult {
            ranks,
            events: 1_000,
            wall_secs: 1_000.0 / eps,
            events_per_sec: eps,
            makespan_us: 123.4,
            mean_cpu_us: 9.9,
            packets_delivered: 321,
        }
    }

    #[test]
    fn render_is_valid_shape() {
        let fig = FigureRecord {
            name: "fig_scale",
            points: 20,
            wall_ms: 55.0,
        };
        let s = render(65_536, &fake(8192, 900.0), &fig);
        assert!(s.contains("\"schema\": \"abr-scale-v2\""));
        assert!(s.contains("\"throughput\": {\"ranks\": 8192"));
        assert!(s.contains("\"events_per_sec\": 900"));
        assert!(s.contains("\"name\": \"fig_scale\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn parse_out_path_rejects_empty() {
        assert_eq!(parse_out_path("x.json"), Ok("x.json".to_string()));
        assert!(parse_out_path("  ").unwrap_err().contains("ABR_SCALE_JSON"));
    }
}
