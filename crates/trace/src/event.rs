//! Typed trace events and the record wrapper that stamps them.
//!
//! Events deliberately use only primitive fields (`u32` ranks, `u64`
//! nanoseconds, `&'static str` labels) so that every crate in the
//! workspace can depend on `abr_trace` without `abr_trace` depending on
//! any of them.

/// One typed observation from an instrumented hot path.
///
/// Variants mirror the taxonomy in DESIGN.md §"Observability": packet
/// life-cycle, cost charges, signal decisions, engine/protocol state,
/// and fault verdicts. Every payload is `Copy` so recording never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The message engine queued a packet for transmission.
    ///
    /// Emitted at the engine layer (shared by the DES and live
    /// drivers), so per-rank send order is deterministic for a given
    /// seed and fault plan.
    PacketSend {
        /// Destination rank.
        dst: u32,
        /// Protocol packet kind label (e.g. `"coll"`, `"eager"`).
        kind: &'static str,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// The message engine accepted a packet from the network.
    PacketRecv {
        /// Source rank.
        src: u32,
        /// Protocol packet kind label.
        kind: &'static str,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// The fault injector dropped a packet on the wire.
    PacketDrop {
        /// Destination rank the packet would have reached.
        dst: u32,
        /// Protocol packet kind label.
        kind: &'static str,
    },
    /// The reliability layer re-sent an unacknowledged packet.
    Retransmit {
        /// Peer rank the retransmission targets.
        peer: u32,
        /// Per-link reliability sequence number being re-sent.
        seq: u64,
    },
    /// Host CPU time charged to an attribution bucket.
    ///
    /// Bucket labels follow `abr_des::CpuCategory`: `"app"`, `"poll"`,
    /// `"protocol"`, `"signal"`, `"nic"`.
    CpuCharge {
        /// Attribution bucket label.
        bucket: &'static str,
        /// Charge size in nanoseconds.
        nanos: u64,
    },
    /// One segment of the NIC/wire delivery pipeline (source PCI DMA,
    /// source NIC serialization, wire, destination NIC, destination
    /// PCI DMA). The fabric model in `abr_fabric` emits all five for every
    /// packet on every fabric kind. On a routed (contended, cross-node)
    /// path `wire` is the switch hops plus each link's transfer time;
    /// time queued behind busy links is reported only by
    /// [`TraceEvent::LinkWait`], so an isolated packet's five segments
    /// sum to its delivery latency up to per-term rounding.
    WireSegment {
        /// Destination rank of the packet in flight.
        dst: u32,
        /// Pipeline segment label (`"src-pci"`, `"src-nic"`, `"wire"`,
        /// `"dst-nic"`, `"dst-pci"`).
        segment: &'static str,
        /// Segment duration in nanoseconds.
        nanos: u64,
    },
    /// A packet queued behind earlier traffic on a shared fabric link
    /// (oversubscribed uplink, router port). Emitted by the contended
    /// fabric model in `abr_fabric`; absent on the flat crossbar.
    LinkWait {
        /// Fabric-assigned link id the packet serialized on.
        link: u32,
        /// Time spent queued behind the link's busy clock, nanoseconds.
        wait_ns: u64,
    },
    /// A host-signal decision on packet arrival: raised, or suppressed
    /// with a reason.
    Signal {
        /// `"raised"`, `"suppressed-disabled"`, `"suppressed-kind"`, or
        /// `"suppressed-progress"`.
        outcome: &'static str,
    },
    /// Driver-level node execution state transition.
    EngineState {
        /// `"busy"`, `"blocked"`, or `"done"`.
        state: &'static str,
    },
    /// Entered a named protocol phase (paired with [`TraceEvent::PhaseExit`]).
    PhaseEnter {
        /// Phase label (e.g. `"reduce-sync"`, `"signal-handler"`).
        phase: &'static str,
    },
    /// Left a named protocol phase.
    PhaseExit {
        /// Phase label matching the corresponding enter event.
        phase: &'static str,
    },
    /// Entered a named protocol phase on behalf of one segment of a
    /// segmented (pipelined) collective. Same bracket semantics as
    /// [`TraceEvent::PhaseEnter`], with the segment index attached so
    /// timeline views can show the pipeline's segments overlapping.
    SegPhaseEnter {
        /// Phase label (e.g. `"seg-reduce"`).
        phase: &'static str,
        /// Zero-based segment index within the collective.
        seg: u32,
    },
    /// Left a named per-segment protocol phase.
    SegPhaseExit {
        /// Phase label matching the corresponding enter event.
        phase: &'static str,
        /// Zero-based segment index within the collective.
        seg: u32,
    },
    /// Fault-plan verdict for one wire transmission.
    FaultVerdict {
        /// Destination rank of the judged packet.
        dst: u32,
        /// Copies to deliver (0 = drop, 1 = clean, 2+ = duplicate).
        copies: u32,
        /// Extra injected latency in nanoseconds.
        extra_delay_ns: u64,
    },
    /// Match-queue probe outcome in the rendezvous/matching layer.
    MatchOutcome {
        /// Queue probed: `"posted"` or `"unexpected"`.
        queue: &'static str,
        /// `"hit"` or `"miss"`.
        outcome: &'static str,
    },
}

impl TraceEvent {
    /// Short category label used by exporters to group events into
    /// timeline lanes.
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::PacketSend { .. }
            | TraceEvent::PacketRecv { .. }
            | TraceEvent::PacketDrop { .. }
            | TraceEvent::Retransmit { .. } => "packet",
            TraceEvent::CpuCharge { .. } => "cpu",
            TraceEvent::WireSegment { .. } | TraceEvent::LinkWait { .. } => "wire",
            TraceEvent::Signal { .. } => "signal",
            TraceEvent::EngineState { .. }
            | TraceEvent::PhaseEnter { .. }
            | TraceEvent::PhaseExit { .. }
            | TraceEvent::SegPhaseEnter { .. }
            | TraceEvent::SegPhaseExit { .. } => "state",
            TraceEvent::FaultVerdict { .. } => "fault",
            TraceEvent::MatchOutcome { .. } => "match",
        }
    }
}

/// A recorded event stamped with time and the emitting rank.
///
/// `t_ns` is virtual nanoseconds under the DES clock or wall
/// nanoseconds since run start under the live clock; the owning
/// [`crate::Trace`] says which (plus the run's seed and attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp in nanoseconds (virtual or wall; see [`crate::TraceClock`]).
    pub t_ns: u64,
    /// Rank that emitted the event.
    pub rank: u32,
    /// Job the emitting rank belongs to. Always 0 unless a job map was
    /// installed on the recorder ([`crate::RingRecorder::set_job_map`]);
    /// multi-tenant drivers install one so exporters can group lanes
    /// per job.
    pub job: u32,
    /// The event payload.
    pub event: TraceEvent,
}
