//! End-to-end and per-layer benchmark of the application-bypass reduction
//! simulator. `main.rs` is the command line; the modules here are what
//! its tests drive. `frozen/Cargo.toml` builds this same library against
//! a frozen copy of the simulator, as `perfbench_frozen`, for the
//! reference half of the end-to-end run. See README.md for the workloads
//! and metrics.

pub mod point;
pub mod probe;
pub mod programs;
pub mod workload;

pub use point::{run_point, Point, PointOut};
pub use workload::Workload;

/// End-to-end metrics: name and unit. `sim_us` is simulated (virtual)
/// time, not wall time; `x` is the frozen simulator's time over the
/// current one's.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_speedup", "x"),
    ("wall_speedup", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_nab_cpu_us", "sim_us"),
    ("model_ab_cpu_us", "sim_us"),
    ("model_foi", "ratio"),
    ("model_makespan_us", "sim_us"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("host.rank_reductions_per_s", "1/s"),
    ("host.wall_s", "s"),
    ("driver.events", "count"),
    ("driver.packets", "count"),
    ("driver.self_ns_per_event", "ns"),
    ("mpr.calls", "count"),
    ("mpr.busy_s", "s"),
    ("mpr.ns_per_call", "ns"),
    ("mpr.progress_hit_ratio", "ratio"),
    ("mpr.polls", "count"),
    ("mpr.copies", "count"),
    ("mpr.copy_bytes", "bytes"),
    ("mpr.unexpected_ratio", "ratio"),
    ("core.calls", "count"),
    ("core.busy_s", "s"),
    ("core.ns_per_call", "ns"),
    ("core.signals_raised", "count"),
    ("core.signals_suppressed", "count"),
    ("core.signal_hit_ratio", "ratio"),
    ("cpu.nab.app_us", "sim_us"),
    ("cpu.nab.poll_us", "sim_us"),
    ("cpu.nab.protocol_us", "sim_us"),
    ("cpu.nab.signal_us", "sim_us"),
    ("cpu.nab.nic_us", "sim_us"),
    ("cpu.ab.app_us", "sim_us"),
    ("cpu.ab.poll_us", "sim_us"),
    ("cpu.ab.protocol_us", "sim_us"),
    ("cpu.ab.signal_us", "sim_us"),
    ("cpu.ab.nic_us", "sim_us"),
    ("fabric.packets", "count"),
    ("fabric.bytes", "bytes"),
    ("fabric.link_waits", "count"),
    ("fabric.link_wait_us", "sim_us"),
    ("fabric.floor_entries", "count"),
    ("fabric.floors_pruned", "count"),
    ("faults.retransmissions", "count"),
    ("faults.duplicates_suppressed", "count"),
    ("faults.acks_sent", "count"),
    ("faults.links_dead", "count"),
    ("topology.build_ms", "ms"),
    ("jobs.place_ms", "ms"),
    ("program.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.records", "count"),
    ("adapters.overhead_ratio", "ratio"),
    ("adapters.timer_ns", "ns"),
    ("adapters.layers_below_timer", "count"),
];
