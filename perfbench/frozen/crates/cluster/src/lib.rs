//! `abr_cluster` — the cluster harness: node configurations, the
//! discrete-event driver, the live threaded driver, and the paper's two
//! microbenchmarks.
//!
//! * [`node`] — node and cluster specifications, including the paper's
//!   heterogeneous 32-node testbed with its interlaced host list (§VI),
//! * [`program`] — resumable per-node benchmark programs (busy loops,
//!   collectives, timing marks),
//! * [`driver`] — the discrete-event driver: virtual time, per-node CPU
//!   accounting, blocking-call emulation by event-driven polling, signal
//!   delivery with preemption, and the GM network model,
//! * [`microbench`] — the CPU-utilization and latency microbenchmarks of
//!   §VI, parameterized exactly like the paper's figures,
//! * [`live`] — a real threaded runtime (one OS thread per rank plus one
//!   signal-dispatcher thread per rank) running the same engines,
//! * [`tenant`] — the multi-tenant collective service: seeded job mixes
//!   co-scheduled over engine sets, with shared-node contention and the
//!   saturation-sweep metrics (throughput, latency tails, Jain fairness),
//! * [`report`] — plain-text table rendering for the figure harnesses.

//! # Example
//!
//! Run a bypassed reduction across eight real threads:
//!
//! ```
//! use abr_cluster::{live::run_live, node::ClusterSpec};
//! use abr_core::AbConfig;
//! use abr_mpr::op::ReduceOp;
//! use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype};
//!
//! let spec = ClusterSpec::homogeneous_1000(8);
//! let results = run_live(&spec, AbConfig::default(), |ctx| {
//!     let mine = f64s_to_bytes(&[ctx.rank() as f64]);
//!     ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &mine).unwrap()
//! });
//! let root = results[0].as_ref().unwrap();
//! assert_eq!(bytes_to_f64s(root), vec![28.0]);
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod live;
pub mod microbench;
pub mod node;
pub mod program;
pub mod report;
pub mod sweep;
pub mod tenant;

pub use abr_faults::{FaultPlan, RelConfig, RelStats};
pub use driver::DesDriver;
pub use microbench::{CpuUtilConfig, CpuUtilResult, LatencyConfig, LatencyResult};
pub use node::ClusterSpec;
pub use program::{Program, Step, StepCtx};
pub use report::{percentile, Percentiles};
pub use tenant::{run_tenant, saturation_config, TenantConfig, TenantResult};
