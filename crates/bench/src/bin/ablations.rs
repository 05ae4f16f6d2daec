//! Run the ablation studies: exit-delay policy, signal-cost sensitivity,
//! copy accounting and the split-phase extension. Points fan out across
//! `ABR_JOBS` workers; timings land in `BENCH_sweep.json`.

use abr_bench::figures::{print_all, FIGURES};
use abr_bench::record;
use abr_cluster::sweep::jobs_from_env;

fn main() {
    let iters = abr_bench::iters();
    let mut figures = Vec::new();
    for (name, f) in FIGURES {
        if !name.starts_with("ablation_") {
            continue;
        }
        let (tables, figure) = record::timed_figure(name, || f(iters));
        print_all(&tables);
        figures.push(figure);
    }
    record::write(&record::sweep(jobs_from_env(), iters, &figures));
}
