//! Traced Fig. 6-style data point: the seeded 32-rank skewed
//! CPU-utilization run, once per mode (`nab`, `ab`), with a tracer
//! recording every packet, CPU charge, wire segment, signal and phase.
//!
//! Outputs (paths configurable via `ABR_TRACE=chrome=...,report=...`):
//!
//! * a Chrome `trace_event` JSON of the bypass run — load it at
//!   `chrome://tracing` or <https://ui.perfetto.dev> to see the timeline;
//! * a per-rank CPU-attribution report for both modes, reconciled against
//!   the driver's own [`CpuMeter`](abr_des::CpuMeter) totals and the
//!   engines' `AbStats` counters.
//!
//! Tracing defaults **on** here (it is the entire point of this binary);
//! `ABR_ITERS` scales the run like every other figure target.

use abr_cluster::microbench::{run_cpu_util_traced, CpuUtilConfig, CpuUtilResult, Mode};
use abr_cluster::node::ClusterSpec;
use abr_core::DelayPolicy;
use abr_trace::{
    chrome_trace_json, cpu_attribution, knob, validate_json, RingRecorder, Trace, TraceClock,
    TraceConfig, Tracer,
};
use std::sync::Arc;

const RANKS: u32 = 32;

fn traced_run(mode: Mode, iters: u64, capacity: usize) -> (CpuUtilResult, Trace) {
    let cfg = CpuUtilConfig {
        iters,
        ..CpuUtilConfig::new(ClusterSpec::heterogeneous_32(), mode)
    };
    let rec = RingRecorder::new(RANKS, capacity, TraceClock::Virtual, cfg.seed, 0);
    let res = run_cpu_util_traced(&cfg, Some(Arc::clone(&rec) as Arc<dyn Tracer>));
    (res, rec.snapshot())
}

/// Every CPU nanosecond in the trace must equal the meter totals the
/// driver reports — they are the same `charge()` calls, seen twice.
fn reconcile_cpu(label: &str, res: &CpuUtilResult, trace: &Trace) {
    assert_eq!(
        trace.dropped, 0,
        "{label}: ring overflow breaks reconciliation"
    );
    let attr = cpu_attribution(trace);
    for (rank, rc) in attr.per_rank.iter().enumerate() {
        let meter_us = [
            ("app", res.nodes[rank].cpu_app_us),
            ("poll", res.nodes[rank].cpu_poll_us),
            ("protocol", res.nodes[rank].cpu_protocol_us),
            ("signal", res.nodes[rank].cpu_signal_us),
            ("nic", res.nodes[rank].cpu_nic_us),
        ];
        for (bucket, us) in meter_us {
            let traced_us = rc.bucket_ns(bucket) as f64 / 1000.0;
            assert!(
                (traced_us - us).abs() < 1e-6,
                "{label} rank {rank} bucket {bucket}: trace says {traced_us} us, meter says {us} us"
            );
        }
    }
}

/// Each `handle_signal` call bumps `signals_handled` and emits exactly one
/// `signal-handler` phase entry, so the two counts must agree.
fn reconcile_signals(label: &str, res: &CpuUtilResult, trace: &Trace) {
    let handled: u64 = res
        .counters
        .iter()
        .find(|(k, _)| *k == "signals_handled")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    let phases = trace
        .per_rank
        .iter()
        .flatten()
        .filter(|r| {
            matches!(r.event, abr_trace::TraceEvent::PhaseEnter { phase } if phase == "signal-handler")
        })
        .count() as u64;
    assert_eq!(
        phases, handled,
        "{label}: {phases} traced signal-handler phases vs {handled} in AbStats"
    );
}

fn main() {
    // Tracing on by default (the knob's default is `on`); `ABR_TRACE=...`
    // customises paths and capacity, and `ABR_TRACE=0` turns it off.
    let Some(tc) = knob::TRACE.read_or_default(TraceConfig::parse) else {
        eprintln!("ABR_TRACE is disabled; trace_figure exists to trace — nothing to do");
        return;
    };
    let iters = knob::ITERS.positive_or_default();

    let (nab_res, nab_trace) = traced_run(Mode::Baseline, iters, tc.capacity);
    let (ab_res, ab_trace) = traced_run(Mode::Bypass(DelayPolicy::None), iters, tc.capacity);

    reconcile_cpu("nab", &nab_res, &nab_trace);
    reconcile_cpu("ab", &ab_res, &ab_trace);
    reconcile_signals("ab", &ab_res, &ab_trace);

    let json = chrome_trace_json(&ab_trace);
    validate_json(&json).expect("chrome trace must be valid JSON");
    if let Some(path) = &tc.chrome_path {
        std::fs::write(path, &json).expect("write chrome trace");
    }

    let mut report = String::new();
    for (label, res, trace) in [
        ("nab (blocking baseline)", &nab_res, &nab_trace),
        ("ab (application bypass)", &ab_res, &ab_trace),
    ] {
        report.push_str(&format!(
            "== {label}: 32 ranks, max skew 1000us, {iters} iters, mean {:.2} us/reduction ==\n",
            res.mean_cpu_us
        ));
        report.push_str(&cpu_attribution(trace).render());
        report.push('\n');
    }
    let foi = nab_res.mean_cpu_us / ab_res.mean_cpu_us;
    report.push_str(&format!(
        "mean per-reduction CPU: nab {:.2} us, ab {:.2} us, factor of improvement {:.1}x\n",
        nab_res.mean_cpu_us, ab_res.mean_cpu_us, foi
    ));
    if let Some(path) = &tc.report_path {
        std::fs::write(path, &report).expect("write CPU report");
    }

    println!("{report}");
    println!(
        "chrome trace: {} ({} events, {} bytes); report: {}",
        tc.chrome_path.as_deref().unwrap_or("<not written>"),
        ab_trace.len(),
        json.len(),
        tc.report_path.as_deref().unwrap_or("<not written>")
    );
    println!("reconciliation OK: trace CPU sums match meter totals on all {RANKS} ranks");
}
