//! Host-side control of NIC signal generation.
//!
//! The paper modifies GM so that (a) only the new collective packet type can
//! generate a host signal and (b) MPICH can enable/disable signal generation
//! cheaply from user space (§V-A). Signals start disabled; they are enabled
//! only while at least one reduction is outstanding asynchronously, and
//! disabled again as soon as the descriptor queue drains.
//!
//! [`SignalControl`] models that toggle plus the delivery decision, and
//! counts what happened so benchmarks and tests can audit signal behaviour
//! (e.g. "no signals are ever generated in a run with no late messages").

use crate::packet::Packet;
use abr_trace::{TraceEvent, TraceHandle};

/// Why a packet did not produce a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalSuppression {
    /// Signals are disabled at the NIC.
    Disabled,
    /// The packet is not of the collective type.
    WrongKind,
    /// The host was already inside the progress engine, so the signal was
    /// ignored (Fig. 4: "if a signal happens to occur while progress is
    /// already underway, it is simply ignored").
    ProgressUnderway,
}

/// Per-node signal state and counters.
#[derive(Debug, Clone, Default)]
pub struct SignalControl {
    enabled: bool,
    raised: u64,
    suppressed_disabled: u64,
    suppressed_busy: u64,
    toggles: u64,
    trace: TraceHandle,
}

impl SignalControl {
    /// Initial state: disabled, as MPICH initializes it (§V-A: "We
    /// initialize MPICH with signals in a disabled state").
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit every signal decision to `trace` as
    /// [`TraceEvent::Signal`] events.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Enable NIC signal generation. Idempotent; returns true if the state
    /// changed (i.e. a real GM library call would have been made).
    pub fn enable(&mut self) -> bool {
        let changed = !self.enabled;
        if changed {
            self.enabled = true;
            self.toggles += 1;
        }
        changed
    }

    /// Disable NIC signal generation. Idempotent; returns true on change.
    pub fn disable(&mut self) -> bool {
        let changed = self.enabled;
        if changed {
            self.enabled = false;
            self.toggles += 1;
        }
        changed
    }

    /// Current state.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Decide whether the arrival of `packet` raises a host signal, given
    /// whether the host is already making progress. Updates counters.
    pub fn on_arrival(
        &mut self,
        packet: &Packet,
        progress_underway: bool,
    ) -> Result<(), SignalSuppression> {
        if !packet.generates_signal() {
            self.trace.emit(TraceEvent::Signal {
                outcome: "suppressed-kind",
            });
            return Err(SignalSuppression::WrongKind);
        }
        if !self.enabled {
            self.suppressed_disabled += 1;
            self.trace.emit(TraceEvent::Signal {
                outcome: "suppressed-disabled",
            });
            return Err(SignalSuppression::Disabled);
        }
        if progress_underway {
            self.suppressed_busy += 1;
            self.trace.emit(TraceEvent::Signal {
                outcome: "suppressed-progress",
            });
            return Err(SignalSuppression::ProgressUnderway);
        }
        self.raised += 1;
        self.trace.emit(TraceEvent::Signal { outcome: "raised" });
        Ok(())
    }

    /// Signals actually raised.
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Collective packets that arrived while signals were disabled.
    pub fn suppressed_disabled(&self) -> u64 {
        self.suppressed_disabled
    }

    /// Signals ignored because progress was already underway.
    pub fn suppressed_progress_underway(&self) -> u64 {
        self.suppressed_busy
    }

    /// Number of real enable/disable transitions.
    pub fn toggles(&self) -> u64 {
        self.toggles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketHeader, PacketKind};
    use bytes::Bytes;

    fn pkt(kind: PacketKind) -> Packet {
        Packet::new(
            PacketHeader {
                src: NodeId(0),
                dst: NodeId(1),
                kind,
                context: 0,
                tag: 0,
                coll_seq: 0,
                coll_root: 0,
                msg_len: 0,
                wire_seq: 0,
                rel_seq: 0,
            },
            Bytes::new(),
        )
    }

    #[test]
    fn starts_disabled() {
        let s = SignalControl::new();
        assert!(!s.is_enabled());
    }

    #[test]
    fn collective_packet_signals_when_enabled_and_idle() {
        let mut s = SignalControl::new();
        s.enable();
        assert_eq!(s.on_arrival(&pkt(PacketKind::Collective), false), Ok(()));
        assert_eq!(s.raised(), 1);
    }

    #[test]
    fn disabled_suppresses() {
        let mut s = SignalControl::new();
        assert_eq!(
            s.on_arrival(&pkt(PacketKind::Collective), false),
            Err(SignalSuppression::Disabled)
        );
        assert_eq!(s.suppressed_disabled(), 1);
        assert_eq!(s.raised(), 0);
    }

    #[test]
    fn non_collective_never_signals_even_when_enabled() {
        let mut s = SignalControl::new();
        s.enable();
        for kind in [
            PacketKind::Eager,
            PacketKind::RendezvousRts,
            PacketKind::RendezvousCts,
            PacketKind::RendezvousData,
        ] {
            assert_eq!(
                s.on_arrival(&pkt(kind), false),
                Err(SignalSuppression::WrongKind)
            );
        }
    }

    #[test]
    fn progress_underway_suppresses() {
        let mut s = SignalControl::new();
        s.enable();
        assert_eq!(
            s.on_arrival(&pkt(PacketKind::Collective), true),
            Err(SignalSuppression::ProgressUnderway)
        );
        assert_eq!(s.suppressed_progress_underway(), 1);
    }

    #[test]
    fn toggles_are_idempotent_and_counted() {
        let mut s = SignalControl::new();
        assert!(s.enable());
        assert!(!s.enable(), "second enable is a no-op");
        assert!(s.disable());
        assert!(!s.disable(), "second disable is a no-op");
        assert_eq!(s.toggles(), 2);
    }

    #[test]
    fn kind_check_precedes_enabled_check() {
        // An eager packet with signals disabled counts as wrong-kind, not
        // disabled — the NIC filters on type first.
        let mut s = SignalControl::new();
        assert_eq!(
            s.on_arrival(&pkt(PacketKind::Eager), false),
            Err(SignalSuppression::WrongKind)
        );
        assert_eq!(s.suppressed_disabled(), 0);
    }
}
