//! Communicators: a (point-to-point context, collective context, size)
//! triple. MPICH separates collective traffic from application traffic with
//! a hidden context id; the application-bypass layer additionally relies on
//! a per-communicator collective *sequence number* to identify reduction
//! instances (§IV-D).

use crate::types::{MprError, Rank};

/// A communicator handle. All ranks must create communicators in the same
/// order so context ids agree, as in MPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Communicator {
    /// Context id stamped on point-to-point traffic.
    pub pt2pt_context: u32,
    /// Context id stamped on collective traffic (hidden from applications).
    pub coll_context: u32,
    /// Number of ranks.
    pub size: u32,
}

impl Communicator {
    /// The world communicator over `size` ranks.
    pub fn world(size: u32) -> Self {
        debug_assert!(size >= 1);
        Communicator {
            pt2pt_context: 0,
            coll_context: 1,
            size,
        }
    }

    /// Derive the `n`-th application-created communicator (all ranks must
    /// use the same `n` sequence). Context ids are allocated in pairs above
    /// the world communicator's.
    pub fn derived(n: u32, size: u32) -> Self {
        Communicator {
            pt2pt_context: 2 + 2 * n,
            coll_context: 3 + 2 * n,
            size,
        }
    }

    /// The world communicator of tenant job `job` over `size` ranks.
    ///
    /// Job 0 *is* the classic world communicator — a single-job tenant run
    /// must be bit-identical to the solo driver path — while every later
    /// job gets a context pair in a high band ([`Communicator::JOB_BASE`]
    /// and up) that can never collide with [`Communicator::derived`]
    /// communicators an application creates inside any job.
    pub fn job(job: u32, size: u32) -> Self {
        if job == 0 {
            return Communicator::world(size);
        }
        Communicator {
            pt2pt_context: Self::JOB_BASE + 2 * job,
            coll_context: Self::JOB_BASE + 2 * job + 1,
            size,
        }
    }

    /// First context id of the per-job band used by [`Communicator::job`].
    pub const JOB_BASE: u32 = 1 << 16;

    /// Validate a rank against this communicator.
    pub fn check_rank(&self, rank: Rank) -> Result<(), MprError> {
        if rank < self.size {
            Ok(())
        } else {
            Err(MprError::InvalidRank {
                rank,
                size: self.size,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_contexts_are_distinct() {
        let w = Communicator::world(4);
        assert_ne!(w.pt2pt_context, w.coll_context);
        assert_eq!(w.size, 4);
    }

    #[test]
    fn derived_contexts_never_collide() {
        let w = Communicator::world(4);
        let mut seen = std::collections::HashSet::new();
        seen.insert(w.pt2pt_context);
        seen.insert(w.coll_context);
        for n in 0..10 {
            let c = Communicator::derived(n, 4);
            assert!(seen.insert(c.pt2pt_context), "pt2pt ctx collision at {n}");
            assert!(seen.insert(c.coll_context), "coll ctx collision at {n}");
        }
    }

    #[test]
    fn job_zero_is_world_and_later_jobs_never_collide() {
        assert_eq!(Communicator::job(0, 8), Communicator::world(8));
        let mut seen = std::collections::HashSet::new();
        // A generous band of application-derived communicators…
        for n in 0..1000 {
            let c = Communicator::derived(n, 8);
            seen.insert(c.pt2pt_context);
            seen.insert(c.coll_context);
        }
        // …must stay disjoint from every per-job context pair.
        for job in 1..64 {
            let c = Communicator::job(job, 8);
            assert_ne!(c.pt2pt_context, c.coll_context);
            assert!(seen.insert(c.pt2pt_context), "job {job} pt2pt collision");
            assert!(seen.insert(c.coll_context), "job {job} coll collision");
        }
    }

    #[test]
    fn rank_validation() {
        let w = Communicator::world(4);
        assert!(w.check_rank(0).is_ok());
        assert!(w.check_rank(3).is_ok());
        assert!(matches!(
            w.check_rank(4),
            Err(MprError::InvalidRank { rank: 4, size: 4 })
        ));
    }
}
