//! Per-rank CPU-time attribution report.
//!
//! Folds every [`TraceEvent::CpuCharge`] in a drained trace into
//! per-rank bucket totals — the paper's Figure-style per-node CPU
//! metric decomposed into poll / compute / signal-handler time. Totals
//! are exact integer nanosecond sums of the same charges the
//! simulator's `CpuMeter` accumulates, so the report reconciles with
//! the existing counters by construction.

use crate::event::TraceEvent;
use crate::recorder::Trace;
use std::fmt::Write as _;

/// Canonical bucket display order (labels from `abr_des::CpuCategory`);
/// unknown labels sort after these, alphabetically.
const BUCKET_ORDER: [&str; 5] = ["app", "poll", "protocol", "signal", "nic"];

/// CPU time for one rank, decomposed by attribution bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankCpu {
    /// The rank.
    pub rank: u32,
    /// `(bucket label, nanoseconds)` in canonical bucket order.
    pub buckets: Vec<(&'static str, u64)>,
}

impl RankCpu {
    /// Nanoseconds attributed to `bucket` (0 when absent).
    pub fn bucket_ns(&self, bucket: &str) -> u64 {
        self.buckets
            .iter()
            .find(|(b, _)| *b == bucket)
            .map_or(0, |(_, n)| *n)
    }

    /// Host CPU nanoseconds: every bucket except `"nic"`, which is
    /// offload-engine time and excluded from host totals exactly as
    /// `CpuWindow::host_total` excludes it.
    pub fn host_ns(&self) -> u64 {
        self.buckets
            .iter()
            .filter(|(b, _)| *b != "nic")
            .map(|(_, n)| *n)
            .sum()
    }

    /// Total nanoseconds across all buckets, NIC included.
    pub fn total_ns(&self) -> u64 {
        self.buckets.iter().map(|(_, n)| *n).sum()
    }
}

/// The full attribution report: one [`RankCpu`] per rank that charged
/// anything, plus the trace's drop counter (a non-zero drop count means
/// totals are lower bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuAttribution {
    /// Per-rank decompositions, ascending by rank.
    pub per_rank: Vec<RankCpu>,
    /// Ring-buffer drops in the source trace.
    pub dropped: u64,
}

impl CpuAttribution {
    /// Bucket labels present anywhere in the report, canonical order.
    pub fn bucket_labels(&self) -> Vec<&'static str> {
        let mut labels: Vec<&'static str> = Vec::new();
        for r in &self.per_rank {
            for (b, _) in &r.buckets {
                if !labels.contains(b) {
                    labels.push(b);
                }
            }
        }
        labels.sort_by_key(|b| {
            BUCKET_ORDER
                .iter()
                .position(|k| k == b)
                .map_or((BUCKET_ORDER.len(), *b), |i| (i, ""))
        });
        labels
    }

    /// Render a fixed-width text table, one row per rank plus a sum
    /// row, all values in microseconds with nanosecond precision.
    pub fn render(&self) -> String {
        let labels = self.bucket_labels();
        let mut out = String::new();
        let _ = write!(out, "{:>5}", "rank");
        for l in &labels {
            let _ = write!(out, " {l:>14}");
        }
        let _ = writeln!(out, " {:>14} {:>14}", "host_us", "total_us");
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let mut sums = vec![0u64; labels.len()];
        let (mut host_sum, mut total_sum) = (0u64, 0u64);
        for r in &self.per_rank {
            let _ = write!(out, "{:>5}", r.rank);
            for (i, l) in labels.iter().enumerate() {
                let ns = r.bucket_ns(l);
                sums[i] += ns;
                let _ = write!(out, " {:>14}", us(ns));
            }
            host_sum += r.host_ns();
            total_sum += r.total_ns();
            let _ = writeln!(out, " {:>14} {:>14}", us(r.host_ns()), us(r.total_ns()));
        }
        let _ = write!(out, "{:>5}", "sum");
        for s in &sums {
            let _ = write!(out, " {:>14}", us(*s));
        }
        let _ = writeln!(out, " {:>14} {:>14}", us(host_sum), us(total_sum));
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "warning: {} events dropped (ring full); totals are lower bounds",
                self.dropped
            );
        }
        out
    }
}

/// Fold a drained trace into the per-rank CPU-attribution report.
///
/// # Examples
///
/// ```
/// use abr_trace::{cpu_attribution, RingRecorder, TraceClock, TraceEvent};
///
/// let rec = RingRecorder::new(1, 16, TraceClock::Virtual, 1, 0);
/// let h = rec.handle_for(0);
/// h.emit(TraceEvent::CpuCharge { bucket: "poll", nanos: 1_500 });
/// h.emit(TraceEvent::CpuCharge { bucket: "poll", nanos: 500 });
/// h.emit(TraceEvent::CpuCharge { bucket: "nic", nanos: 9_000 });
/// let report = cpu_attribution(&rec.snapshot());
/// assert_eq!(report.per_rank[0].bucket_ns("poll"), 2_000);
/// assert_eq!(report.per_rank[0].host_ns(), 2_000); // nic excluded
/// assert_eq!(report.per_rank[0].total_ns(), 11_000);
/// ```
pub fn cpu_attribution(trace: &Trace) -> CpuAttribution {
    let mut per_rank = Vec::new();
    for (rank, recs) in trace.per_rank.iter().enumerate() {
        let mut buckets: Vec<(&'static str, u64)> = Vec::new();
        for r in recs {
            if let TraceEvent::CpuCharge { bucket, nanos } = r.event {
                match buckets.iter_mut().find(|(b, _)| *b == bucket) {
                    Some((_, n)) => *n += nanos,
                    None => buckets.push((bucket, nanos)),
                }
            }
        }
        if buckets.is_empty() {
            continue;
        }
        buckets.sort_by_key(|(b, _)| {
            BUCKET_ORDER
                .iter()
                .position(|k| k == b)
                .map_or((BUCKET_ORDER.len(), *b), |i| (i, ""))
        });
        per_rank.push(RankCpu {
            rank: rank as u32,
            buckets,
        });
    }
    CpuAttribution {
        per_rank,
        dropped: trace.dropped,
    }
}
