//! Plain-text table rendering for the figure harnesses.

use std::fmt::Write as _;

/// A simple fixed-width table with a title, printed in the style the bench
/// targets use to regenerate the paper's figures.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ", w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The `q`-th quantile of **sorted** `samples`, by the nearest-rank
/// convention every harness in this repo uses: index
/// `round((len - 1) * q)`. Returns 0 for an empty slice. This is the one
/// shared percentile implementation — the microbenchmark aggregates and the
/// tenant latency metrics both call it, so their tails are computed
/// identically.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile() requires sorted samples"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::disallowed_methods,
        reason = "a sample index, computed once per aggregate"
    )]
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The latency tail summary the tenant figure reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Percentiles {
    /// Compute p50/p99/p999 from unsorted samples (sorts in place).
    pub fn from_unsorted(samples: &mut [f64]) -> Percentiles {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Percentiles {
            p50: percentile(samples, 0.5),
            p99: percentile(samples, 0.99),
            p999: percentile(samples, 0.999),
        }
    }
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a ratio ("factor of improvement") with two decimals.
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.2}", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["skew", "nab", "ab", "factor"]);
        t.row(vec![
            "0".into(),
            "12.10".into(),
            "9.00".into(),
            "1.34".into(),
        ]);
        t.row(vec![
            "1000".into(),
            "101.55".into(),
            "20.01".into(),
            "5.07".into(),
        ]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("skew"));
        assert!(s.contains("5.07"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(1.0, 0.0), "inf");
        assert_eq!(ratio(5.0, 2.0), "2.50");
        assert_eq!(f2(1.005), "1.00"); // banker's-ish rounding is fine
    }

    #[test]
    fn percentile_uses_nearest_rank_rounding() {
        let s: Vec<f64> = (0..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&s, 0.0), 0.0);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        // round((4-1)*0.5) = 2 — matches the historical microbench closure.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_single_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentiles_sort_then_summarize() {
        let mut s: Vec<f64> = (0..1000).rev().map(|x| x as f64).collect();
        let p = Percentiles::from_unsorted(&mut s);
        assert_eq!(p.p50, 500.0); // round(999*0.5) = 500
        assert_eq!(p.p99, 989.0); // round(999*0.99) = 989
        assert_eq!(p.p999, 998.0); // round(999*0.999) = 998
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "sorted in place");
    }
}
