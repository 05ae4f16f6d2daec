//! `abr_fabric` — the interconnect: one delivery-time model for the flat
//! crossbar and the contended fabrics.
//!
//! The paper's testbed is one 32-port Myrinet-2000 crossbar, where a
//! packet's delivery time depends only on its two endpoints and on the
//! source NIC's earlier traffic. Real clusters are built from switches
//! and links, and collective performance is lost to shared,
//! oversubscribed uplinks. This crate models both with one type:
//!
//! * [`spec`] — [`FabricSpec`]: which fabric ([`FabricKind::Flat`],
//!   [`FabricKind::FatTree`], [`FabricKind::Dragonfly`]), the
//!   oversubscription ratio, and the rank→node [`PlacementPolicy`]
//!   (blocked or cyclic/round-robin), parsed from `ABR_FABRIC` /
//!   `ABR_OVERSUB`,
//! * [`net`] — [`FabricNetwork`]: source-NIC injection clocks, per-pair
//!   FIFO floors, traffic counters and delivery-segment tracing for every
//!   kind. A flat spec builds no link graph, so every packet takes the
//!   crossbar formula ([`abr_gm::PathCost`]); a contended spec routes each
//!   cross-node packet statically over the fabric graph and serializes
//!   concurrent packets on shared links via per-link busy-until clocks.
//!   Same-node pairs take the crossbar formula on every kind.
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
