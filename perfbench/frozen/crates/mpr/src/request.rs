//! Non-blocking request handles.
//!
//! Every operation — point-to-point or collective — is posted as a request
//! and driven to completion by the progress engine. "Blocking" MPI calls
//! are realized by the *driver* polling [`crate::Engine::progress`] until
//! the request tests complete, which is exactly how the default MPICH
//! implementation burns CPU while waiting (and what application bypass
//! avoids for internal tree nodes).

use crate::coll::CollState;
use crate::types::MprError;
use bytes::Bytes;

/// An opaque request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(u64);

impl ReqId {
    /// Construct from a raw id (used by the engine and by tests).
    pub const fn from_raw(raw: u64) -> Self {
        ReqId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// What a completed request yields.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed with no payload (sends, barrier, non-root reduce).
    Done,
    /// Completed with payload (receives, root reduce, bcast, allreduce).
    Data(Bytes),
    /// Completed with an error.
    Failed(MprError),
}

/// The state of one request inside the engine.
#[derive(Debug)]
pub enum RequestBody {
    /// An eager-mode send (completes as soon as the bounce copy is made).
    SendEager,
    /// A rendezvous send awaiting its clear-to-send.
    SendRndv(RndvSend),
    /// A receive (posted, or already satisfied).
    Recv(RecvState),
    /// A collective operation state machine (boxed: the segmented and
    /// dual-root states dwarf the point-to-point variants).
    Coll(Box<CollState>),
}

/// Rendezvous-send bookkeeping.
#[derive(Debug)]
pub struct RndvSend {
    /// Destination rank.
    pub dst: u32,
    /// Transfer id carried in the RTS/CTS/DATA headers.
    pub xfer_id: u64,
    /// The payload, held until the CTS arrives.
    pub data: Bytes,
    /// Pinned-region handle for the in-place source buffer.
    pub region: abr_gm::memory::RegionId,
    /// Message tag (for the DATA header).
    pub tag: i32,
    /// Context id.
    pub context: u32,
}

/// Receive-side state.
#[derive(Debug, Default)]
pub struct RecvState {
    /// Payload, once the message lands.
    pub data: Option<Bytes>,
    /// Pinned region while a rendezvous transfer is in flight.
    pub region: Option<abr_gm::memory::RegionId>,
}

/// A request record: body plus completion outcome.
#[derive(Debug)]
pub struct Request {
    /// Operation state.
    pub body: RequestBody,
    /// Set when complete.
    pub outcome: Option<Outcome>,
}

impl Request {
    /// A fresh pending request.
    pub fn new(body: RequestBody) -> Self {
        Request {
            body,
            outcome: None,
        }
    }

    /// True once the operation finished (successfully or not).
    pub fn is_complete(&self) -> bool {
        self.outcome.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_id_roundtrip() {
        let id = ReqId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id, ReqId::from_raw(42));
        assert_ne!(id, ReqId::from_raw(43));
    }

    #[test]
    fn fresh_request_is_pending() {
        let r = Request::new(RequestBody::SendEager);
        assert!(!r.is_complete());
    }

    #[test]
    fn outcome_completes_request() {
        let mut r = Request::new(RequestBody::Recv(RecvState::default()));
        r.outcome = Some(Outcome::Done);
        assert!(r.is_complete());
    }
}
