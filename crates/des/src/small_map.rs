//! A map for the simulator's per-rank and per-packet state.
//!
//! Almost every per-rank map on the hot path holds a handful of entries:
//! the live requests of one rank, its collective sequence counters, its
//! pending rendezvous transfers, the schedules it has used. At that size a
//! linear scan over a short inline vector beats hashing: a lookup is a few
//! compares over one array, with no hash and no probe. A few ranks
//! do outgrow that — a flat-tree root hears from `n - 1` peers, a flat
//! broadcast root keeps `n - 1` rendezvous sends pending — so past
//! [`SPILL_LEN`] entries the map moves everything into an [`FxHashMap`]
//! and stays there until it empties, keeping lookups O(1) expected at any
//! size.
//!
//! The map never exposes its iteration order, so the representation in
//! use cannot leak into simulation results.

use crate::hash::FxHashMap;
use std::hash::Hash;

/// Entry count past which a [`SmallMap`] spills to a hash map. No per-rank
/// map reaches it on the perfbench workloads; flat-tree roots do.
pub const SPILL_LEN: usize = 32;

/// A map that scans an inline vector up to [`SPILL_LEN`] entries and
/// hashes past that. See the module docs.
///
/// ```
/// use abr_des::SmallMap;
///
/// let mut m: SmallMap<u64, &str> = SmallMap::new();
/// m.insert(7, "seven");
/// *m.entry(8).or_insert("eight") = "ocho";
/// assert_eq!(m.get(&8), Some(&"ocho"));
/// assert_eq!(m.remove(&7), Some("seven"));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SmallMap<K, V> {
    /// The entries while the map is small, in no particular order.
    inline: Vec<(K, V)>,
    /// The entries once the map has spilled. At most one of `inline` and
    /// `spill` is non-empty; a non-empty `spill` means spilled.
    spill: FxHashMap<K, V>,
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap {
            inline: Vec::new(),
            spill: FxHashMap::default(),
        }
    }
}

impl<K: Eq + Hash, V> SmallMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inline.len() + self.spill.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.spill.is_empty() {
            self.inline.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        } else {
            self.spill.get(key)
        }
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.spill.is_empty() {
            self.inline
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        } else {
            self.spill.get_mut(key)
        }
    }

    /// Store `value` under `key`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(slot) = self.get_mut(&key) {
            return Some(std::mem::replace(slot, value));
        }
        self.insert_new(key, value);
        None
    }

    /// Remove and return the value stored under `key`.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.spill.is_empty() {
            return self.spill.remove(key);
        }
        let i = self.inline.iter().position(|(k, _)| k == key)?;
        Some(self.inline.swap_remove(i).1)
    }

    /// The slot for `key`, for in-place insert-or-update.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }

    /// Insert a key known to be absent, spilling when the inline vector is
    /// full.
    fn insert_new(&mut self, key: K, value: V) -> &mut V {
        if self.spill.is_empty() && self.inline.len() < SPILL_LEN {
            self.inline.push((key, value));
            let last = self.inline.len() - 1;
            return &mut self.inline[last].1;
        }
        if !self.inline.is_empty() {
            self.spill.extend(std::mem::take(&mut self.inline));
        }
        self.spill.entry(key).or_insert(value)
    }
}

/// A slot in a [`SmallMap`], from [`SmallMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut SmallMap<K, V>,
    key: K,
}

impl<'a, K: Eq + Hash, V> Entry<'a, K, V> {
    /// The stored value, inserting `default` first if the key is absent.
    #[inline]
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// The stored value, inserting `make()` first if the key is absent.
    #[inline]
    pub fn or_insert_with<F: FnOnce() -> V>(self, make: F) -> &'a mut V {
        let Entry { map, key } = self;
        if !map.spill.is_empty() {
            return map.spill.entry(key).or_insert_with(make);
        }
        match map.inline.iter().position(|(k, _)| *k == key) {
            Some(i) => &mut map.inline[i].1,
            None => map.insert_new(key, make()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_limit_and_returns_when_empty() {
        let mut m: SmallMap<u32, u32> = SmallMap::new();
        for k in 0..SPILL_LEN as u32 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert!(m.spill.is_empty(), "a full inline map has not spilled");
        m.insert(SPILL_LEN as u32, 0);
        assert!(m.inline.is_empty() && m.spill.len() == SPILL_LEN + 1);
        for k in 0..SPILL_LEN as u32 {
            assert_eq!(m.get(&k), Some(&(k * 10)));
        }
        for k in 0..=SPILL_LEN as u32 {
            assert!(m.remove(&k).is_some());
        }
        assert!(m.is_empty());
        m.insert(1, 1);
        assert_eq!(m.inline.len(), 1, "an emptied map scans again");
    }

    #[test]
    fn entry_updates_in_place() {
        let mut m: SmallMap<(u32, u32), u64> = SmallMap::new();
        for round in 0..3u64 {
            for k in 0..40u32 {
                *m.entry((k, k + 1)).or_insert(0) += 1;
            }
            assert_eq!(m.len(), 40);
            assert_eq!(m.get(&(7, 8)), Some(&(round + 1)));
        }
        assert_eq!(m.get(&(8, 7)), None);
    }
}
