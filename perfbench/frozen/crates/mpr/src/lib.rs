//! `abr_mpr` — an MPICH-like message-passing runtime over the GM substrate.
//!
//! This crate rebuilds the parts of MPICH-1.2.4..8a that the paper's
//! application-bypass reduction modifies or depends on:
//!
//! * [`types`] — ranks, tags, datatypes, errors,
//! * [`op`] — MPI reduction operators applied over typed byte buffers,
//! * [`tree`] — the binomial tree MPICH organizes collectives around (Fig. 1),
//! * [`topology`] — pluggable tree families (binomial, k-nomial, chain,
//!   flat) compiled into precomputed per-rank schedules the collective
//!   state machines step against,
//! * [`comm`] — communicators (context ids separate point-to-point,
//!   collective and application-bypass traffic),
//! * [`matchq`] — posted-receive and unexpected-message queues with MPI
//!   matching semantics (§III),
//! * [`charge`] — CPU-cost accounting shared with the drivers,
//! * [`request`] — non-blocking request handles,
//! * [`coll`] — collective state machines: the **default blocking binomial
//!   reduction (the paper's `nab` baseline)**, broadcast, dissemination
//!   barrier and allreduce,
//! * [`engine`] — the per-rank sans-I/O protocol engine: eager and
//!   rendezvous point-to-point, the progress engine of Fig. 4 (minus the
//!   gray application-bypass boxes, which `abr_core` adds by wrapping it).
//!
//! The engine is *sans-I/O*: it consumes delivered packets and application
//! calls, and emits [`engine::Action`]s plus CPU charges. The same engine
//! runs under the discrete-event driver and the live threaded driver in
//! `abr_cluster`, which is how the simulated figures and the real threaded
//! examples exercise identical protocol code.

//! # Example
//!
//! Two engines exchanging an eager message through the test loopback:
//!
//! ```
//! use abr_mpr::engine::EngineConfig;
//! use abr_mpr::testutil::{engines, Loopback};
//! use abr_mpr::types::TagSel;
//! use bytes::Bytes;
//!
//! let mut lb = Loopback::new(engines(2, EngineConfig::default()));
//! let comm = lb.engines[0].world();
//! let s = lb.engines[0].isend(&comm, 1, 7, Bytes::from(vec![1, 2, 3]));
//! let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(7), 16);
//! lb.run_until_complete(&[(0, s), (1, r)], 100);
//! assert_eq!(lb.expect_data(1, r).as_ref(), &[1, 2, 3]);
//! ```

#![warn(missing_docs)]

pub mod charge;
pub mod coll;
pub mod comm;
pub mod engine;
pub mod matchq;
pub mod op;
pub mod request;
#[doc(hidden)]
pub mod testutil;
pub mod topology;
pub mod tree;
pub mod types;

pub use charge::Charges;
pub use comm::Communicator;
pub use engine::{Action, Engine, EngineConfig, MessageEngine};
pub use op::ReduceOp;
pub use request::ReqId;
pub use topology::{ScheduleCache, TopoSchedule, TopologyKind};
pub use types::{Datatype, MprError, Rank, TagSel};
