//! Counters auditing the application-bypass implementation.
//!
//! These exist to *prove* the paper's claims in tests and benches: the 50%
//! copy reduction for unexpected messages, the 100% reduction for expected
//! and late messages, the fallback decision table, and the signal economy.

/// Application-bypass counters (monotone).
#[derive(Debug, Clone, Copy, Default)]
pub struct AbStats {
    /// Reductions run through the bypass path (internal nodes).
    pub ab_reductions: u64,
    /// Fallbacks because this rank was the instance root.
    pub fallback_root: u64,
    /// Fallbacks because this rank was a leaf.
    pub fallback_leaf: u64,
    /// Fallbacks because the message exceeded the eager limit.
    pub fallback_large: u64,
    /// Fallbacks because bypass is disabled in configuration.
    pub fallback_disabled: u64,
    /// Children folded in during the synchronous component (Fig. 3).
    pub sync_children: u64,
    /// Children folded in by the asynchronous handler (Fig. 5).
    pub async_children: u64,
    /// Early messages parked on the AB unexpected queue (one copy instead
    /// of MPICH's two: 50% saved).
    pub ab_unexpected_parked: u64,
    /// Expected or late messages consumed directly from the packet buffer
    /// (zero copies instead of MPICH's one: 100% saved).
    pub zero_copy_children: u64,
    /// Results sent to parents from the asynchronous handler.
    pub async_parent_sends: u64,
    /// Results sent to parents inside the synchronous call.
    pub sync_parent_sends: u64,
    /// Signals handled (asynchronous activations).
    pub signals_handled: u64,
    /// Exit delays applied (§IV-E), regardless of whether they helped.
    pub exit_delays: u64,
    /// Reductions whose descriptor drained before the call exited (the
    /// delay or fast children made asynchronous processing unnecessary).
    pub completed_in_sync: u64,
    /// Reductions that exited the call with children still outstanding.
    pub delegated_to_async: u64,
    /// Split-phase reductions posted via the extension API.
    pub split_phase_started: u64,
    /// Children folded in by the NIC processor (NIC-offload extension).
    pub nic_children: u64,
    /// Results forwarded to parents directly by the NIC.
    pub nic_parent_sends: u64,
    /// Application-bypass broadcasts posted (ref. \[8\] companion system).
    pub bcast_splits: u64,
    /// Broadcast payloads forwarded to children by the bypass machinery.
    pub bcast_forwards: u64,
    /// Broadcast waits satisfied inside a signal handler.
    pub async_bcasts: u64,
    /// Split-phase allreduces posted (§II extension).
    pub allreduce_splits: u64,
    /// Segmented (pipelined) bypassed reductions posted: large payloads
    /// run as a window of eager-sized per-segment reduces instead of
    /// falling back to the stock rendezvous path.
    pub seg_reductions: u64,
    /// Bypassed dual-root doubly-pipelined allreduces posted (Träff).
    pub dual_allreduce_splits: u64,
    /// Retransmitted duplicates suppressed by the bypass layer (repeat
    /// `rel_seq` at delivery, or a non-pending sender at descriptor match).
    pub duplicates_suppressed: u64,
}

impl AbStats {
    /// Host memory copies *saved* versus the default MPICH implementation:
    /// one per zero-copy child (expected/late) and one per AB-parked early
    /// message.
    pub fn copies_saved(&self) -> u64 {
        self.zero_copy_children + self.ab_unexpected_parked
    }

    /// Total children folded in through bypass machinery.
    pub fn children_processed(&self) -> u64 {
        self.sync_children + self.async_children
    }

    /// Total fallback count.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_root + self.fallback_leaf + self.fallback_large + self.fallback_disabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_sums() {
        let s = AbStats {
            zero_copy_children: 3,
            ab_unexpected_parked: 2,
            sync_children: 4,
            async_children: 5,
            fallback_root: 1,
            fallback_leaf: 2,
            fallback_large: 3,
            fallback_disabled: 4,
            ..Default::default()
        };
        assert_eq!(s.copies_saved(), 5);
        assert_eq!(s.children_processed(), 9);
        assert_eq!(s.fallbacks(), 10);
    }

    #[test]
    fn default_is_zero() {
        let s = AbStats::default();
        assert_eq!(s.copies_saved(), 0);
        assert_eq!(s.fallbacks(), 0);
    }
}
