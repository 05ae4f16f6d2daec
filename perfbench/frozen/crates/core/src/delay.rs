//! The §IV-E exit-delay heuristic.
//!
//! Interrupts are unnecessary if MPICH is already checking for receives
//! inside `MPI_Reduce`, so the paper experimented with delaying the exit
//! from `MPI_Reduce` briefly when children are still outstanding, hoping
//! late children catch up before the call returns. Too short and nothing is
//! saved; too long and the call re-introduces the blocking the whole design
//! removes. The paper's "simple scheme" scales the delay with the number of
//! processes; we keep that, plus the obvious ablation points.

use abr_des::SimDuration;

/// How long the synchronous component lingers before delegating outstanding
/// children to asynchronous processing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelayPolicy {
    /// Exit immediately (pure application bypass; every late child costs a
    /// signal).
    #[default]
    None,
    /// Delay a fixed number of microseconds regardless of scale.
    Fixed {
        /// The delay.
        us: f64,
    },
    /// The paper's simple scheme: delay proportional to the number of
    /// processes in the reduction.
    PerProcess {
        /// Microseconds per participating process.
        us_per_process: f64,
    },
    /// A depth-aware refinement the paper sketches but leaves open: scale
    /// with the binomial-tree depth instead of the raw process count.
    PerTreeLevel {
        /// Microseconds per tree level (`ceil(log2 size)` levels).
        us_per_level: f64,
    },
}

impl DelayPolicy {
    /// The delay budget for a reduction over `size` processes.
    pub fn budget(&self, size: u32) -> SimDuration {
        match *self {
            DelayPolicy::None => SimDuration::ZERO,
            DelayPolicy::Fixed { us } => SimDuration::from_us_f64(us),
            DelayPolicy::PerProcess { us_per_process } => {
                SimDuration::from_us_f64(us_per_process * size as f64)
            }
            DelayPolicy::PerTreeLevel { us_per_level } => {
                SimDuration::from_us_f64(us_per_level * crate::tree_depth(size) as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        assert_eq!(DelayPolicy::None.budget(32), SimDuration::ZERO);
        assert_eq!(DelayPolicy::default().budget(8), SimDuration::ZERO);
    }

    #[test]
    fn fixed_ignores_size() {
        let p = DelayPolicy::Fixed { us: 7.5 };
        assert_eq!(p.budget(2), p.budget(1024));
        assert_eq!(p.budget(2), SimDuration::from_us_f64(7.5));
    }

    #[test]
    fn per_process_scales_linearly() {
        let p = DelayPolicy::PerProcess {
            us_per_process: 0.5,
        };
        assert_eq!(p.budget(32), SimDuration::from_us(16));
        assert_eq!(p.budget(2), SimDuration::from_us(1));
    }

    #[test]
    fn per_level_scales_logarithmically() {
        let p = DelayPolicy::PerTreeLevel { us_per_level: 3.0 };
        assert_eq!(p.budget(32), SimDuration::from_us(15)); // 5 levels
        assert_eq!(p.budget(2), SimDuration::from_us(3)); // 1 level
        assert!(
            p.budget(1024).as_us_f64()
                < DelayPolicy::PerProcess {
                    us_per_process: 3.0
                }
                .budget(1024)
                .as_us_f64()
        );
    }
}
