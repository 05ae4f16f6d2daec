//! Regenerate only the loss-sweep figure: ab vs nab degradation as the
//! injected drop+duplicate rate rises, with reliability-layer counters.
//!
//! With `ABR_FAULTS` set (inline rule spec or `@path` to a plan file), runs
//! that exact plan instead of the default loss ladder and prints the full
//! counter breakdown — the quickest way to eyeball a custom fault schedule.

use abr_bench::record;
use abr_cluster::sweep::jobs_from_env;
use abr_cluster::FaultPlan;
use abr_trace::knob;

fn main() {
    let iters = knob::ITERS.positive_or_default();
    let (tables, figure) = match &FaultPlan::from_env() {
        Some(plan) => record::timed_figure("custom_faults", || {
            abr_bench::figures::custom_fault_tables(iters, plan)
        }),
        None => record::timed_figure("fig_loss", || abr_bench::figures::fig_loss(iters)),
    };
    println!("### {}", figure.name);
    abr_bench::figures::print_all(&tables);
    record::write(&record::sweep(jobs_from_env(), iters, &[figure]));
}
