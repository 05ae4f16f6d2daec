//! Regenerate the scale figure (ab vs nab factor of improvement from 32 up
//! to 65,536 ranks on two tree families) and measure DES throughput at
//! scale.
//!
//! Knobs: `ABR_SCALE_MAX` caps the largest cluster (CI smoke uses 1,024),
//! `ABR_DES_SHARDS` sets the executor's shard count (the tables do not
//! change), `ABR_RECORD_JSON` redirects the throughput summary.

use abr_bench::{figures, record};
use abr_cluster::microbench::run_scale_bench;
use abr_trace::knob;

fn main() {
    let iters = knob::ITERS.positive_or_default();
    let max = knob::SCALE_MAX.positive_or_default();
    let (tables, figure) = record::timed_figure("fig_scale", || figures::fig_scale(iters));
    println!("### {}", figure.name);
    figures::print_all(&tables);

    // DES throughput at 8k ranks (or the ABR_SCALE_MAX cap).
    let ranks = 8_192.min(max);
    let run = run_scale_bench(ranks, 2);
    println!("### hot-path throughput at {ranks} ranks");
    println!(
        "{} events in {:.2}s = {:.0} events/sec",
        run.events, run.wall_secs, run.events_per_sec
    );
    record::write(&record::scale(max, &run, &figure));
}
