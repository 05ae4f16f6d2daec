//! Pinned-memory (DMA registration) bookkeeping.
//!
//! GM can only DMA to and from *registered* (pinned) memory. Registration is
//! a system call and expensive, which is why MPICH-over-GM sends small
//! messages through pre-pinned bounce buffers (eager mode) and only pins
//! in place for large messages (rendezvous mode) — §III of the paper. This
//! registry models the bookkeeping so the protocol layer can be audited for
//! balanced pin/unpin behaviour and for respecting a pinned-memory budget.

use std::collections::HashMap;

/// Identifies a registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(u64);

/// Errors from the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Deregistering a region that is not registered.
    UnknownRegion(RegionId),
    /// Registering would exceed the configured pinnable-memory budget.
    BudgetExceeded {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available under the budget.
        available: usize,
    },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::UnknownRegion(id) => write!(f, "unknown pinned region {id:?}"),
            MemoryError::BudgetExceeded {
                requested,
                available,
            } => write!(
                f,
                "pin request of {requested} bytes exceeds remaining budget of {available} bytes"
            ),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Tracks pinned regions and enforces an optional budget.
#[derive(Debug, Clone)]
pub struct MemoryRegistry {
    regions: HashMap<u64, usize>,
    next_id: u64,
    pinned_bytes: usize,
    budget: Option<usize>,
    total_pins: u64,
    total_unpins: u64,
    high_water: usize,
}

impl Default for MemoryRegistry {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl MemoryRegistry {
    /// A registry with no budget limit.
    pub fn unbounded() -> Self {
        MemoryRegistry {
            regions: HashMap::new(),
            next_id: 0,
            pinned_bytes: 0,
            budget: None,
            total_pins: 0,
            total_unpins: 0,
            high_water: 0,
        }
    }

    /// A registry that refuses to pin beyond `budget_bytes` at once.
    pub fn with_budget(budget_bytes: usize) -> Self {
        MemoryRegistry {
            budget: Some(budget_bytes),
            ..Self::unbounded()
        }
    }

    /// Register (pin) a region of `len` bytes.
    pub fn register(&mut self, len: usize) -> Result<RegionId, MemoryError> {
        if let Some(budget) = self.budget {
            let available = budget.saturating_sub(self.pinned_bytes);
            if len > available {
                return Err(MemoryError::BudgetExceeded {
                    requested: len,
                    available,
                });
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.regions.insert(id, len);
        self.pinned_bytes += len;
        self.high_water = self.high_water.max(self.pinned_bytes);
        self.total_pins += 1;
        Ok(RegionId(id))
    }

    /// Deregister (unpin) a region.
    pub fn deregister(&mut self, id: RegionId) -> Result<(), MemoryError> {
        match self.regions.remove(&id.0) {
            Some(len) => {
                self.pinned_bytes -= len;
                self.total_unpins += 1;
                Ok(())
            }
            None => Err(MemoryError::UnknownRegion(id)),
        }
    }

    /// Bytes currently pinned.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
    }

    /// Number of currently registered regions.
    pub fn live_regions(&self) -> usize {
        self.regions.len()
    }

    /// Highest concurrent pinned-byte count seen.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Lifetime pin count.
    pub fn total_pins(&self) -> u64 {
        self.total_pins
    }

    /// Lifetime unpin count.
    pub fn total_unpins(&self) -> u64 {
        self.total_unpins
    }

    /// True when every pin has been matched by an unpin — asserted at the
    /// end of protocol tests.
    pub fn is_balanced(&self) -> bool {
        self.regions.is_empty() && self.total_pins == self.total_unpins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_deregister_balances() {
        let mut m = MemoryRegistry::unbounded();
        let a = m.register(4096).unwrap();
        let b = m.register(100).unwrap();
        assert_eq!(m.pinned_bytes(), 4196);
        assert_eq!(m.live_regions(), 2);
        m.deregister(a).unwrap();
        m.deregister(b).unwrap();
        assert!(m.is_balanced());
        assert_eq!(m.pinned_bytes(), 0);
    }

    #[test]
    fn double_deregister_fails() {
        let mut m = MemoryRegistry::unbounded();
        let a = m.register(10).unwrap();
        m.deregister(a).unwrap();
        assert_eq!(m.deregister(a), Err(MemoryError::UnknownRegion(a)));
    }

    #[test]
    fn budget_is_enforced() {
        let mut m = MemoryRegistry::with_budget(1000);
        let a = m.register(800).unwrap();
        let err = m.register(300).unwrap_err();
        assert_eq!(
            err,
            MemoryError::BudgetExceeded {
                requested: 300,
                available: 200
            }
        );
        m.deregister(a).unwrap();
        m.register(300).unwrap();
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m = MemoryRegistry::unbounded();
        let a = m.register(500).unwrap();
        let b = m.register(500).unwrap();
        m.deregister(a).unwrap();
        m.deregister(b).unwrap();
        let _ = m.register(100).unwrap();
        assert_eq!(m.high_water(), 1000);
    }

    #[test]
    fn distinct_ids_for_distinct_regions() {
        let mut m = MemoryRegistry::unbounded();
        let a = m.register(1).unwrap();
        let b = m.register(1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_length_region_is_fine() {
        let mut m = MemoryRegistry::with_budget(0);
        let a = m.register(0).unwrap();
        m.deregister(a).unwrap();
        assert!(m.is_balanced());
    }

    #[test]
    fn error_display_is_informative() {
        let msg = format!(
            "{}",
            MemoryError::BudgetExceeded {
                requested: 10,
                available: 5
            }
        );
        assert!(msg.contains("10") && msg.contains("5"));
    }
}
