//! `abr_faults` — deterministic fault injection and reliable delivery.
//!
//! The paper's design (and our `abr_gm` substrate) silently assumes GM's
//! reliable, ordered delivery. This crate removes that assumption in a
//! controlled way:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seeded schedule of drop /
//!   duplicate / extra-delay / NIC-stall faults, scoped per-link,
//!   per-packet-kind, per-time-window, or to a single targeted transmission
//!   attempt. Every decision is a pure function of the seed, so the DES and
//!   live drivers replay the identical schedule.
//! * [`NodeReliability`] — a sans-I/O cumulative-ack protocol (per-link
//!   sequence numbers, timeout + exponential-backoff retransmission, retry
//!   budget with [`RelEvent::LinkDead`] escalation) shared verbatim by both
//!   drivers.
//!
//! With [`FaultPlan::none()`] the drivers bypass both pieces entirely, so
//! the fault layer is cost-neutral when unused.
//!
//! **Tracing**: with an [`abr_trace::TraceHandle`] installed, every
//! non-clean [`Verdict`] (and the drop it implies) and every timer-driven
//! retransmission is emitted as a trace event, so a fault schedule can be
//! read back off the timeline next to the packets it perturbed.

#![deny(missing_docs)]

pub mod plan;
pub mod reliability;

pub use plan::{
    FaultInjector, FaultKind, FaultPlan, FaultRule, InjectStats, KindSel, LinkSel, Verdict,
};
pub use reliability::{NodeReliability, RelConfig, RelEvent, RelStats};
