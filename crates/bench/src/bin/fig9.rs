//! Regenerate Fig9 data series.

use abr_trace::knob;

fn main() {
    abr_bench::figures::print_all(&abr_bench::figures::fig9(knob::ITERS.positive_or_default()));
}
