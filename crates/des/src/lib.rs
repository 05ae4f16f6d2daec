//! `abr_des` — a small, deterministic discrete-event simulation (DES) kernel.
//!
//! This crate provides the virtual-time substrate on which the cluster
//! simulator in `abr_cluster` runs:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a cancellable priority queue of timestamped events
//!   whose same-instant ties pop in caller-keyed order,
//! * [`rng`] — hierarchically derivable, seeded random-number streams so that
//!   every (experiment, iteration, rank) tuple draws from an independent and
//!   reproducible stream,
//! * [`stats`] — the streaming [`Accumulator`] used by the
//!   benchmark harnesses,
//! * [`CpuMeter`] — per-node CPU-time accounting with measurement windows,
//!   the instrument behind the paper's "average CPU utilization" metric,
//! * [`SmallMap`] / [`FxHashMap`] — the maps for per-rank and per-packet
//!   state: a scanned inline vector that spills to a deterministic hash.
//!
//! The kernel is intentionally generic: it knows nothing about networks,
//! NICs or MPI. Higher layers define their own event payload types.
//!
//! **Tracing**: with an [`abr_trace::TraceHandle`] installed,
//! [`EventQueue::pop_before`] publishes virtual time to the recorder
//! (making the event loop the single time source for trace stamps) and every
//! [`CpuMeter::charge`] emits a `CpuCharge` event, so trace-side CPU
//! attribution reconciles with the meters by construction. Without a
//! handle both sites cost one `Option` branch.

//! # Example
//!
//! ```
//! use abr_des::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_us(30), 0, "late");
//! let early = q.schedule(SimTime::from_us(10), 1, "early");
//! q.cancel(early);
//! assert!(q.pop_before(SimTime::from_us(30)).is_none());
//! assert_eq!(q.pop_before(SimTime::MAX).unwrap().payload, "late");
//! assert_eq!(q.now(), SimTime::from_us(30));
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod hash;
pub mod meter;
pub mod rng;
pub mod small_map;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use hash::{FxHashMap, FxHashSet};
pub use meter::{CpuMeter, CpuWindow};
pub use rng::StreamRng;
pub use small_map::SmallMap;
pub use stats::Accumulator;
pub use time::{SimDuration, SimTime};
