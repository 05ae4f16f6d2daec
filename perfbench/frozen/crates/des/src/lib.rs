//! `abr_des` — a small, deterministic discrete-event simulation (DES) kernel.
//!
//! This crate provides the virtual-time substrate on which the cluster
//! simulator in `abr_cluster` runs:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a cancellable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking,
//! * [`rng`] — hierarchically derivable, seeded random-number streams so that
//!   every (experiment, iteration, rank) tuple draws from an independent and
//!   reproducible stream,
//! * [`stats`] — streaming accumulators and histograms used by the
//!   benchmark harnesses,
//! * [`CpuMeter`] — per-node CPU-time accounting with measurement windows,
//!   the instrument behind the paper's "average CPU utilization" metric.
//!
//! The kernel is intentionally generic: it knows nothing about networks,
//! NICs or MPI. Higher layers define their own event payload types.
//!
//! **Tracing**: with an [`abr_trace::TraceHandle`] installed,
//! [`EventQueue::pop`] publishes virtual time to the recorder (making the
//! event loop the single time source for trace stamps) and every
//! [`CpuMeter::charge`] emits a `CpuCharge` event, so trace-side CPU
//! attribution reconciles with the meters by construction. Without a
//! handle both sites cost one `Option` branch.

//! # Example
//!
//! ```
//! use abr_des::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_us(30), "late");
//! let early = q.schedule(SimTime::from_us(10), "early");
//! q.cancel(early);
//! assert_eq!(q.pop().unwrap().payload, "late");
//! assert_eq!(q.now(), SimTime::from_us(30));
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod hash;
pub mod meter;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue, ScheduledEvent, ShardedEventQueue};
pub use hash::{FxHashMap, FxHashSet};
pub use meter::{CpuMeter, CpuWindow};
pub use rng::StreamRng;
pub use stats::{Accumulator, Histogram};
pub use time::{SimDuration, SimTime};
