//! Regenerate Fig. 7 (CPU utilization and factor of improvement vs nodes
//! at maximal skew).

use abr_trace::knob;

fn main() {
    abr_bench::figures::print_all(&abr_bench::figures::fig7(knob::ITERS.positive_or_default()));
}
