//! Regenerate every figure in the paper plus the ablations, fanning each
//! figure's config points across `ABR_JOBS` workers (default: all cores),
//! and record per-figure wall-clock timings to `BENCH_sweep.json`.

use abr_bench::figures::{print_all, FIGURES};
use abr_bench::record;
use abr_cluster::sweep::jobs_from_env;
use abr_trace::knob;

fn main() {
    let iters = knob::ITERS.positive_or_default();
    let mut figures = Vec::new();
    for (name, f) in FIGURES {
        let (tables, figure) = record::timed_figure(name, || f(iters));
        println!("### {name}");
        print_all(&tables);
        figures.push(figure);
    }
    record::write(&record::sweep(jobs_from_env(), iters, &figures));
}
