//! Offline shim for the [`rand`](https://docs.rs/rand) crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of the `rand` 0.8 API it uses: `SmallRng`
//! seeded from a `u64`, plus `Rng::{gen, gen_range, gen_bool}`. The
//! generator is xoshiro256++ with SplitMix64 seed expansion — the same
//! algorithm `rand`'s 64-bit `SmallRng` uses — and integer ranges use
//! rejection sampling, so draws are exactly uniform.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level 64-bit generator interface.
pub trait RngCore {
    /// The next raw 64-bit draw.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (only the `u64` entry point is provided).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types drawable uniformly from a generator via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw in `[0, bound)` by rejection (no modulo bias).
fn below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection zone: the largest multiple of `bound` that fits in u64.
    let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

int_range_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + f64::draw(rng) * (self.end - self.start)
    }
}

/// The user-facing generator interface.
pub trait Rng: RngCore {
    /// Draw a value of type `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draw uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// SplitMix64 — used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Non-cryptographic generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically strong; the same
    /// algorithm `rand` 0.8 uses for `SmallRng` on 64-bit targets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut st);
            }
            // All-zero state would be a fixed point; SplitMix64 cannot
            // produce it from any seed, but be defensive anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(5u64..=9);
            assert!((5..=9).contains(&y));
            let f = r.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(r.gen_bool(1.0));
            assert!(!r.gen_bool(0.0));
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((9_300..10_700).contains(&c), "non-uniform: {counts:?}");
        }
    }
}
