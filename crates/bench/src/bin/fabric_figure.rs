//! Regenerate the fabric-contention figure: ab-vs-nab CPU and factor of
//! improvement for binomial vs bine vs locality-greedy reduction trees on
//! a contended fabric (default: 4:1-oversubscribed fat-tree, cyclic
//! placement), 512–8192 ranks.
//!
//! Knobs: `ABR_FABRIC` picks the fabric (`fattree[:blocked|:cyclic]`,
//! `dragonfly[...]`; `flat` turns contention off), `ABR_OVERSUB` the
//! uplink oversubscription ratio, `ABR_SCALE_MAX` caps the largest
//! cluster (CI smoke uses a small cap), `ABR_RECORD_JSON` redirects the
//! JSON record. Contended fabrics run on the sequential executor; setting
//! `ABR_DES_SHARDS` alongside one fails fast.

use abr_bench::{figures, record};

fn main() {
    let iters = abr_bench::iters();
    let fabric = figures::fabric_for_figure();
    let mut points = Vec::new();
    let (tables, figure) = record::timed_figure("fig_fabric", || {
        let (tables, pts) = figures::fig_fabric_data(iters);
        points = pts;
        tables
    });
    println!("### {} [{}]", figure.name, fabric.label());
    figures::print_all(&tables);
    if let Some(best) = figures::best_nab(&points) {
        println!(
            "best blocking-mode topology at {} ranks: {} ({:.2} us)",
            best.size, best.topo, best.nab_us
        );
    }
    record::write(&record::fabric(&fabric.label(), &points, &figure));
}
