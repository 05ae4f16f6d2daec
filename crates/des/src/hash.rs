//! A fast, deterministic hasher for simulation-internal maps.
//!
//! The std `HashMap` default (SipHash) is DoS-resistant but costs tens of
//! cycles per lookup — measurable on the DES hot path, where a lossy run
//! touches the fault injector's per-pair attempt counters and the
//! reliability layer's per-peer windows on every packet. Simulation keys
//! are small integers controlled by the simulator itself, so collision
//! attacks are not a concern; this module provides the classic
//! multiply-xor ("Fx") hash used by rustc, which is a handful of cycles and
//! — unlike the randomized default — deterministic across processes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher over the written bytes (rustc's FxHasher scheme).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// The golden-ratio multiplier: odd, high bit entropy, the standard Fibonacci
/// hashing constant for 64-bit words.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for src in 0..50u32 {
            for dst in 0..50u32 {
                m.insert((src, dst), (src * 1000 + dst) as u64);
            }
        }
        assert_eq!(m.len(), 2500);
        assert_eq!(m.get(&(7, 13)), Some(&7013));
        assert_eq!(m.get(&(50, 0)), None);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h = |n: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(n);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        // Consecutive keys must not collide in the low bits (the table
        // index) for any realistic table size.
        let mut low: FxHashSet<u64> = FxHashSet::default();
        for n in 0..4096u64 {
            low.insert(h(n) & 0xFFF);
        }
        assert!(low.len() > 2048, "low-bit spread too weak: {}", low.len());
    }
}
