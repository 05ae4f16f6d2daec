//! Hierarchically derivable, deterministic random-number streams.
//!
//! The microbenchmarks in the paper draw a fresh random skew per node per
//! iteration. To make every simulation run exactly reproducible (and every
//! (experiment, iteration, rank) stream statistically independent), streams
//! are derived from a root seed by hashing a path of labels with SplitMix64,
//! then feeding the result to a [`rand`] `SmallRng`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step — a tiny, well-mixed 64-bit hash used only for seed
/// derivation (never for the variates themselves).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a sequence of labels into a single 64-bit seed.
fn mix_path(root: u64, path: &[u64]) -> u64 {
    let mut state = root ^ 0xA076_1D64_78BD_642F;
    let mut acc = splitmix64(&mut state);
    for &label in path {
        state ^= label.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        acc ^= splitmix64(&mut state).rotate_left(17);
    }
    acc
}

/// A deterministic random stream that can spawn independent child streams.
#[derive(Debug, Clone)]
pub struct StreamRng {
    seed: u64,
    rng: SmallRng,
}

impl StreamRng {
    /// Create the root stream for a simulation from a user-provided seed.
    pub fn root(seed: u64) -> Self {
        StreamRng {
            seed,
            rng: SmallRng::seed_from_u64(mix_path(seed, &[])),
        }
    }

    /// Derive an independent child stream from a path of labels, e.g.
    /// `derive(&[experiment_id, iteration, rank])`. Deriving the same path
    /// from the same root always yields the same stream; different paths
    /// yield statistically independent streams.
    pub fn derive(&self, path: &[u64]) -> StreamRng {
        let child_seed = mix_path(self.seed, path);
        StreamRng {
            seed: child_seed,
            rng: SmallRng::seed_from_u64(child_seed),
        }
    }

    /// A uniform draw in `[0, bound)`; returns 0 when `bound == 0` so that a
    /// "maximum skew of zero" degenerates to no skew without branching at the
    /// call site.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rng.gen_range(0..bound)
        }
    }

    /// A uniform draw in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        self.rng.gen_range(lo..=hi)
    }

    /// A raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Flip a coin with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_path_same_stream() {
        let root = StreamRng::root(42);
        let mut a = root.derive(&[1, 2, 3]);
        let mut b = root.derive(&[1, 2, 3]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_paths_diverge() {
        let root = StreamRng::root(42);
        let mut a = root.derive(&[1, 2, 3]);
        let mut b = root.derive(&[1, 2, 4]);
        let draws_a: Vec<_> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<_> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn different_roots_diverge() {
        let mut a = StreamRng::root(1).derive(&[7]);
        let mut b = StreamRng::root(2).derive(&[7]);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn path_order_matters() {
        let root = StreamRng::root(9);
        let mut a = root.derive(&[1, 2]);
        let mut b = root.derive(&[2, 1]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_zero_bound_is_zero() {
        let mut r = StreamRng::root(5).derive(&[0]);
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = StreamRng::root(5).derive(&[1]);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = StreamRng::root(5).derive(&[2]);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            // expect 10_000 each; allow +-5% which is ~16 sigma
            assert!((9_500..10_500).contains(&c), "non-uniform: {counts:?}");
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = StreamRng::root(5).derive(&[3]);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..1_000 {
            match r.range_inclusive(3, 4) {
                3 => saw_lo = true,
                4 => saw_hi = true,
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = StreamRng::root(11).derive(&[5]);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn derive_from_derived_stream_is_stable() {
        let root = StreamRng::root(1234);
        let child = root.derive(&[10]);
        let mut g1 = child.derive(&[20]);
        let mut g2 = child.derive(&[20]);
        assert_eq!(g1.next_u64(), g2.next_u64());
    }
}
