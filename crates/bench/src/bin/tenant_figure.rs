//! Regenerate the multi-tenant saturation figure: aggregate service
//! throughput, pooled iteration-latency tails (p50/p99/p999), and Jain
//! fairness for application-bypass vs busy-polling engines as offered
//! load climbs a fixed ladder on a fixed cluster. The headline: the ab
//! throughput advantage widens with load, because saturated nodes are
//! full of blocked nab ranks busy-polling the CPUs their co-tenants need
//! while ab ranks sleep on NIC signals.
//!
//! Knobs: `ABR_TENANT_JOBS` sets the jobs co-scheduled at load 1 (each
//! ladder point runs `ceil(jobs × load)`), `ABR_TENANT_SLOTS` the ranks
//! one node hosts at saturation, `ABR_TENANT_LOAD` caps the offered-load
//! ladder (CI smoke uses a small cap), `ABR_RECORD_JSON` redirects the
//! JSON record.

use abr_bench::{figures, record};

fn main() {
    let mut fig = None;
    let (tables, figure) = record::timed_figure("fig_tenant", || {
        let (tables, f) = figures::fig_tenant_data();
        fig = Some(f);
        tables
    });
    let fig = fig.expect("figure data populated by the closure");
    println!("### {}", figure.name);
    figures::print_all(&tables);
    if let Some((lo, hi, widening)) = figures::headline(&fig.points) {
        println!(
            "ab advantage: {lo:.2}x relaxed -> {hi:.2}x saturated ({})",
            if widening { "widening" } else { "NOT widening" }
        );
    }
    record::write(&record::tenant(
        figures::TENANT_SEED,
        fig.base_jobs,
        fig.slots,
        &fig.points,
        &figure,
    ));
}
