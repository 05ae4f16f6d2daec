//! `abr_core` — application-bypass reduction (the paper's contribution).
//!
//! A collective operation with *application bypass* does not require the
//! application to block for the operation to make progress. This crate
//! implements the paper's application-bypass `MPI_Reduce` on top of the
//! MPICH-like runtime in `abr_mpr`:
//!
//! * [`descriptor`] — the *descriptor queue* holding intermediate reduction
//!   state (partial result, parent, pending children) between the
//!   synchronous call and asynchronous processing (§IV-B, §V-A),
//! * [`unexpected`] — the dedicated application-bypass unexpected queue that
//!   halves the copy count for early messages (§V-A),
//! * [`delay`] — the §IV-E bounded exit delay that trades a little blocking
//!   for fewer signals,
//! * [`stats`] — counters proving the paper's copy-reduction claims and
//!   auditing signal behaviour,
//! * [`engine`] — [`AbEngine`], which wraps [`abr_mpr::Engine`] and adds the
//!   gray boxes of Figs. 3-5: the synchronous component inside the reduce
//!   call, the asynchronous handler triggered by NIC signals, and the
//!   signal enable/disable policy,
//! * a split-phase extension ([`engine::AbEngine::ireduce_split`])
//!   implementing the paper's §II/§VII suggestion that a split-phase
//!   interface would let even the *root* benefit from bypass. The
//!   split-phase allreduce, the bypassed segmented reduce and the bypassed
//!   dual-root allreduce run on the baseline's
//!   [`abr_mpr::coll::SegPipeline`], each segment a split-phase sub-request.
//!
//! The decision table (§V-B): root and leaf ranks, and messages beyond the
//! eager limit, fall back to the stock blocking reduction; internal tree
//! nodes run bypassed.
//!
//! **Tracing**: with an [`abr_trace::TraceHandle`] installed (via
//! `MessageEngine::set_tracer`), [`AbEngine`] brackets the synchronous
//! reduction component (`reduce-sync`) and the asynchronous handler
//! (`signal-handler`) as phase events and marks descriptor/broadcast
//! completions, so a Chrome timeline shows Figs. 3-5 as they execute.

//! # Example
//!
//! The Fig. 2 scenario in miniature: an internal node's reduce call
//! returns even though its child never showed up; a signal finishes the
//! reduction later.
//!
//! ```
//! use abr_core::{AbConfig, AbEngine};
//! use abr_mpr::engine::{EngineConfig, MessageEngine};
//! use abr_mpr::{ReduceOp, Datatype};
//! use abr_mpr::types::f64s_to_bytes;
//!
//! // Rank 2 of 4 is internal (children: rank 3) when the root is 0.
//! let mut e = AbEngine::new(2, 4, EngineConfig::default(), AbConfig::default());
//! let comm = e.world();
//! let req = e.ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &f64s_to_bytes(&[2.0]));
//! // Child 3 has not arrived, yet the call may return: exit the bounded
//! // block (what a driver does when the §IV-E delay budget expires).
//! assert!(!e.test(req));
//! e.split_phase_exit(req);
//! assert!(e.test(req), "the call returned — application bypass");
//! assert_eq!(e.descriptor_queue().len(), 1, "the reduction itself is pending");
//! assert!(e.signals_enabled(), "and will finish via a signal");
//! ```

#![deny(missing_docs)]

pub mod bcast;
pub mod delay;
pub mod descriptor;
pub mod engine;
pub mod stats;
pub mod unexpected;

pub use abr_mpr::tree::tree_depth;
pub use bcast::{BcastWait, BcastWaitQueue};
pub use delay::DelayPolicy;
pub use descriptor::{DescriptorQueue, ReduceDescriptor};
pub use engine::{AbConfig, AbEngine};
pub use stats::AbStats;
pub use unexpected::AbUnexpectedQueue;
