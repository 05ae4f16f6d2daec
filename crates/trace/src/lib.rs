//! Structured tracing for the application-bypass reduction stack.
//!
//! The paper's argument is about *where CPU time goes* during a skewed
//! reduction; aggregate counters (`AbStats`, `CpuMeter`) say how much,
//! but not when or why. This crate records *typed, timestamped events*
//! from the hot paths of every other crate in the workspace — packet
//! life-cycle, NIC/wire cost charges, host-signal decisions, engine
//! state and reduction-phase transitions, fault verdicts — into
//! lock-free per-rank ring buffers, and exports them as a Chrome
//! `trace_event` timeline plus a per-rank CPU-attribution report.
//!
//! # Zero cost when disabled
//!
//! Instrumented components hold a [`TraceHandle`]; the default handle
//! is disabled and every `emit` is a single `None` branch. No recorder
//! is ever allocated unless a caller installs one (`trace_figure` does,
//! configured by `ABR_TRACE` into a [`TraceConfig`]), so benchmark output is
//! byte-identical with tracing off — the same cost-neutrality contract
//! `FaultPlan::none()` follows.
//!
//! # Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`event`] | [`TraceEvent`] taxonomy and the stamped [`TraceRecord`] |
//! | [`ring`] | wait-free write-once [`EventRing`] (one per rank) |
//! | [`recorder`] | [`Tracer`] trait, [`RingRecorder`], [`TraceHandle`], drained [`Trace`] |
//! | [`chrome`] | Chrome `trace_event` JSON exporter + mini JSON validator |
//! | [`report`] | per-rank CPU-attribution report ([`cpu_attribution`]) |
//! | [`mod@env`] | `ABR_TRACE` parsing ([`TraceConfig`]) |
//! | [`knob`] | the one table of `ABR_*` environment knobs ([`knob::KNOBS`]) and their fail-fast readers |
//!
//! # End-to-end example
//!
//! ```
//! use abr_trace::{chrome_trace_json, cpu_attribution, RingRecorder, TraceClock, TraceEvent};
//!
//! // One recorder per run: 2 ranks, 1024-event rings, DES clock.
//! let rec = RingRecorder::new(2, 1024, TraceClock::Virtual, 0xC0FFEE, 0);
//!
//! // The event loop publishes virtual time; components emit through
//! // per-rank handles.
//! rec.set_now_ns(10_000);
//! let h0 = rec.handle_for(0);
//! h0.emit(TraceEvent::PhaseEnter { phase: "reduce-sync" });
//! h0.emit(TraceEvent::PacketSend { dst: 1, kind: "coll", bytes: 256 });
//! h0.emit(TraceEvent::CpuCharge { bucket: "protocol", nanos: 2_000 });
//! rec.set_now_ns(14_000);
//! h0.emit(TraceEvent::PhaseExit { phase: "reduce-sync" });
//!
//! let trace = rec.snapshot();
//! assert_eq!(trace.per_rank[0].len(), 4);
//! let json = chrome_trace_json(&trace);
//! assert!(abr_trace::validate_json(&json).is_ok());
//! let report = cpu_attribution(&trace);
//! assert_eq!(report.per_rank[0].bucket_ns("protocol"), 2_000);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod chrome;
pub mod env;
pub mod event;
pub mod knob;
pub mod recorder;
pub mod report;
pub mod ring;

pub use chrome::{chrome_trace_json, validate_json};
pub use env::TraceConfig;
pub use event::{TraceEvent, TraceRecord};
pub use recorder::{RingRecorder, Trace, TraceClock, TraceHandle, Tracer};
pub use report::{cpu_attribution, CpuAttribution, RankCpu};
pub use ring::EventRing;
