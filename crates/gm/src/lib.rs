//! `abr_gm` — a GM/Myrinet-like user-level messaging substrate.
//!
//! GM is the user-level message-passing system for Myrinet networks that the
//! paper's MPICH port runs on. We cannot run LANai firmware, so this crate
//! rebuilds the *interfaces and costs* that the application-bypass design
//! depends on:
//!
//! * [`packet`] — the wire format, including the paper's new **collective
//!   packet type** (§V-A) that the NIC uses to decide whether to raise a
//!   host signal,
//! * [`cost`] — the machine cost model: host overheads, memory-copy costs,
//!   PCI/wire/NIC transfer times, signal delivery cost, poll cost. All
//!   figure-level behaviour is driven by these calibrated constants,
//! * [`nic`] — node hardware classes (the paper's two Pentium-III node
//!   flavours, PCI widths and LANai revisions) and [`nic::PathCost`], the
//!   uncontended crossbar path a packet takes between two of them. The
//!   stateful delivery model built on it (NIC injection clocks, per-pair
//!   FIFO order, shared fabric links) is `abr_fabric::FabricNetwork`,
//! * [`memory`] — the pinned-memory (DMA registration) bookkeeping behind
//!   GM's eager/rendezvous split,
//! * [`signal`] — host-side signal enable/disable control mirroring the
//!   GM-library calls the paper added, with counters,
//! * [`live`] — a real in-process transport (mailboxes + wakeups) used by
//!   the live threaded runtime in `abr_cluster`.
//!
//! **Tracing**: with an [`abr_trace::TraceHandle`] installed,
//! [`signal::SignalControl::on_arrival`] emits every raise/suppress
//! decision; the delivery model in `abr_fabric` emits each packet's
//! [`nic::PathCost`] segments, so a timeline shows exactly where each
//! microsecond of the cost model went.

#![deny(missing_docs)]

pub mod cost;
pub mod live;
pub mod memory;
pub mod nic;
pub mod packet;
pub mod signal;

pub use cost::CostModel;
pub use memory::MemoryRegistry;
pub use nic::{LanaiClass, NodeHw, PathCost, PciClass};
pub use packet::{NodeId, Packet, PacketHeader, PacketKind};
pub use signal::SignalControl;
