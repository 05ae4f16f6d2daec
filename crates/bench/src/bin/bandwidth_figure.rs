//! Regenerate the bandwidth figure: delivered bandwidth and CPU factor
//! of improvement vs message size (1 KiB → 64 MiB) for blocking (nab)
//! against split-phase bypass (ab) runs of binomial/chain reduces and
//! the dual-root doubly-pipelined allreduce, on 8 ranks.
//!
//! Knobs: `ABR_MSG_BYTES` caps the largest message (CI smoke uses a
//! small cap), `ABR_SEGMENTS` overrides the pipeline window (default 8
//! *for this figure*; everywhere else the knob defaults to 1, i.e.
//! segmentation off), `ABR_RECORD_JSON` redirects the JSON record, and
//! `ABR_ITERS` scales iteration counts (large messages shrink them
//! automatically).

use abr_bench::{figures, record};

fn main() {
    let iters = abr_bench::iters();
    let window = figures::bandwidth_window();
    let mut points = Vec::new();
    let (tables, figure) = record::timed_figure("fig_bandwidth", || {
        let (tables, pts) = figures::fig_bandwidth_data(iters);
        points = pts;
        tables
    });
    println!("### {} [window {}]", figure.name, window);
    figures::print_all(&tables);
    if let Some(peak) = figures::peak_ab(&points) {
        println!(
            "peak bypass bandwidth at {} bytes: {} ({:.2} MB/s)",
            peak.msg_bytes, peak.series, peak.ab_bw_mbs
        );
    }
    record::write(&record::bw(window, &points, &figure));
}
