//! Regenerate only the skew-vs-topology figure: CPU utilization and
//! factor of improvement per reduction-tree family (binomial, 4-nomial,
//! chain, flat) on the 32-node heterogeneous cluster.
//!
//! The figure sweeps the topology axis explicitly, so it ignores
//! `ABR_TOPO`; use that knob to steer the *other* figure binaries onto a
//! non-default tree.

use abr_trace::knob;

fn main() {
    abr_bench::figures::print_all(&abr_bench::figures::fig_topology(
        knob::ITERS.positive_or_default(),
    ));
}
