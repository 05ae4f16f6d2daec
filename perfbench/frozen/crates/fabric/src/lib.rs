//! `abr_fabric` — contended interconnect fabrics for the DES driver.
//!
//! Every result before this crate ran on `abr_gm::nic::Network`: one ideal
//! cut-through crossbar where a packet's delivery time depends only on the
//! two endpoints, never on other traffic. Real clusters are built from
//! switches and links, and collective performance is lost to shared,
//! oversubscribed uplinks. This crate models that loss while keeping the
//! flat crossbar available (and bit-identical) as a degenerate case:
//!
//! * [`spec`] — [`FabricSpec`]: which fabric ([`FabricKind::Flat`],
//!   [`FabricKind::FatTree`], [`FabricKind::Dragonfly`]), the
//!   oversubscription ratio, and the rank→node [`PlacementPolicy`]
//!   (blocked or cyclic/round-robin), parsed from `ABR_FABRIC` /
//!   `ABR_OVERSUB`,
//! * [`net`] — [`FabricNetwork`]: an [`abr_gm::LinkCost`] implementation
//!   that statically routes each packet over the fabric graph and
//!   serializes concurrent packets on shared links via per-link
//!   busy-until clocks. With [`FabricKind::Flat`] every call is delegated
//!   verbatim to the wrapped [`abr_gm::Network`], so flat-fabric runs
//!   reproduce the legacy model bit-for-bit by construction.
//!
//! Contention is deterministic but order-sensitive: link clocks are
//! global state, so the contended kinds require the sequential DES
//! executor (the driver rejects `ABR_DES_SHARDS` combined with a
//! contended `ABR_FABRIC` instead of silently computing different
//! arrival times per shard count).

#![deny(missing_docs)]

pub mod net;
pub mod spec;

pub use net::FabricNetwork;
pub use spec::{FabricKind, FabricSpec, Placement, PlacementPolicy};
