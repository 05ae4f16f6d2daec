//! Basic MPI-level types: ranks, tag selectors, datatypes and errors.

use std::fmt;

/// A process rank within a communicator. Equal to the GM [`abr_gm::NodeId`]
/// in this single-communicator-per-world stack.
pub type Rank = u32;

/// Tag selector for receives: a specific tag or the `MPI_ANY_TAG` wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagSel {
    /// Match any tag.
    Any,
    /// Match exactly this tag.
    Is(i32),
}

impl TagSel {
    /// Does this selector accept `tag`?
    #[inline]
    pub fn accepts(self, tag: i32) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Is(t) => t == tag,
        }
    }
}

/// Collective-kind codes embedded in per-instance collective tags.
pub mod coll_code {
    /// Reduction traffic.
    pub const REDUCE: u8 = 0;
    /// Broadcast traffic.
    pub const BCAST: u8 = 1;
    /// Gather traffic.
    pub const GATHER: u8 = 2;
    /// Scatter traffic.
    pub const SCATTER: u8 = 3;
    /// Rabenseifner allreduce exchanges.
    pub const RS: u8 = 4;
    /// Dissemination-barrier tokens (round in the sub-field).
    pub const BARRIER: u8 = 5;
}

/// Most positive tag of the reserved collective-tag space (tags at or below
/// this are collective-internal).
pub const COLL_TAG_BASE: i32 = -1024;

/// Per-instance collective tag: every collective instance gets its own tag
/// so *concurrent* collectives (the split-phase extensions, or MPI-3-style
/// nonblocking use) can never cross-match even when a process forwards
/// instance k+1 before instance k — the same device libNBC uses. `sub`
/// carries the barrier round (0 elsewhere).
pub fn coll_tag(code: u8, coll_seq: u64, sub: u8) -> i32 {
    debug_assert!(code < 8 && sub < 16);
    // 128 tags per instance; wraps after ~16M live instances, far beyond
    // any overlap window.
    let seq = (coll_seq % 16_000_000) as i32;
    COLL_TAG_BASE - (seq * 128 + code as i32 * 16 + sub as i32)
}

/// Recover the collective-kind code from a tag, if it is collective.
pub fn coll_tag_code(tag: i32) -> Option<u8> {
    if tag <= COLL_TAG_BASE {
        Some((((COLL_TAG_BASE - tag) % 128) / 16) as u8)
    } else {
        None
    }
}

/// Element datatypes supported by the reduction operators. The paper's
/// benchmarks use double-word (f64) elements exclusively; the others exist
/// because a credible MPI layer reduces more than doubles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// 64-bit IEEE float (`MPI_DOUBLE`) — what the paper measures.
    F64,
    /// 64-bit signed integer (`MPI_LONG_LONG`).
    I64,
    /// 32-bit signed integer (`MPI_INT`).
    I32,
    /// Unsigned byte (`MPI_BYTE`).
    U8,
}

impl Datatype {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            Datatype::F64 | Datatype::I64 => 8,
            Datatype::I32 => 4,
            Datatype::U8 => 1,
        }
    }

    /// True for integer types (bitwise/logical ops are only defined here).
    #[inline]
    pub const fn is_integer(self) -> bool {
        !matches!(self, Datatype::F64)
    }

    /// Number of elements a byte buffer of length `bytes` holds.
    ///
    /// # Panics
    /// Panics if `bytes` is not a multiple of the element size.
    pub fn count(self, bytes: usize) -> usize {
        assert!(
            bytes.is_multiple_of(self.size()),
            "buffer of {bytes} bytes is not a whole number of {self:?} elements"
        );
        bytes / self.size()
    }
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MprError {
    /// A received message was longer than the posted buffer
    /// (`MPI_ERR_TRUNCATE`).
    Truncation {
        /// Bytes the sender sent.
        received: usize,
        /// Bytes the receiver allowed.
        capacity: usize,
    },
    /// A rank outside the communicator was named.
    InvalidRank {
        /// The offending rank.
        rank: Rank,
        /// Communicator size.
        size: u32,
    },
    /// A reduction operator was applied to a datatype it is not defined for
    /// (e.g. bitwise AND over doubles).
    InvalidOpForType {
        /// Human-readable operator name.
        op: &'static str,
        /// The datatype.
        dtype: Datatype,
    },
    /// Send and receive buffer shapes disagree inside a collective.
    ShapeMismatch {
        /// Expected byte length.
        expected: usize,
        /// Actual byte length.
        actual: usize,
    },
}

impl fmt::Display for MprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MprError::Truncation { received, capacity } => write!(
                f,
                "message truncated: {received} bytes arrived for a {capacity}-byte buffer"
            ),
            MprError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} outside communicator of size {size}")
            }
            MprError::InvalidOpForType { op, dtype } => {
                write!(f, "operator {op} is undefined for {dtype:?}")
            }
            MprError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer shape mismatch: expected {expected} bytes, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for MprError {}

/// Pack a slice of `f64` into little-endian bytes (the stack's wire order).
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack little-endian bytes into `f64`s.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(bytes.len().is_multiple_of(8), "not a whole number of f64s");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Pack a slice of `i32` into little-endian bytes.
pub fn i32s_to_bytes(values: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack little-endian bytes into `i32`s.
///
/// # Panics
/// Panics if the length is not a multiple of 4.
pub fn bytes_to_i32s(bytes: &[u8]) -> Vec<i32> {
    assert!(bytes.len().is_multiple_of(4), "not a whole number of i32s");
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagsel_matching() {
        assert!(TagSel::Any.accepts(5));
        assert!(TagSel::Any.accepts(-3));
        assert!(TagSel::Is(7).accepts(7));
        assert!(!TagSel::Is(7).accepts(8));
    }

    #[test]
    fn datatype_sizes() {
        assert_eq!(Datatype::F64.size(), 8);
        assert_eq!(Datatype::I64.size(), 8);
        assert_eq!(Datatype::I32.size(), 4);
        assert_eq!(Datatype::U8.size(), 1);
    }

    #[test]
    fn datatype_count() {
        assert_eq!(Datatype::F64.count(32), 4);
        assert_eq!(Datatype::U8.count(0), 0);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn datatype_count_rejects_ragged() {
        Datatype::I32.count(6);
    }

    #[test]
    fn integer_classification() {
        assert!(!Datatype::F64.is_integer());
        assert!(Datatype::I64.is_integer());
        assert!(Datatype::I32.is_integer());
        assert!(Datatype::U8.is_integer());
    }

    #[test]
    fn f64_roundtrip() {
        let vals = [1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&vals)), vals);
    }

    #[test]
    fn i32_roundtrip() {
        let vals = [0, -1, i32::MAX, i32::MIN, 42];
        assert_eq!(bytes_to_i32s(&i32s_to_bytes(&vals)), vals);
    }

    #[test]
    fn coll_tags_roundtrip_and_never_collide() {
        use super::coll_code::*;
        let mut seen = std::collections::HashSet::new();
        for seq in [0u64, 1, 2, 77, 9999] {
            for code in [REDUCE, BCAST, GATHER, SCATTER, RS] {
                let t = coll_tag(code, seq, 0);
                assert!(t <= COLL_TAG_BASE, "collective tags stay reserved");
                assert_eq!(coll_tag_code(t), Some(code));
                assert!(seen.insert(t), "tag collision at code={code} seq={seq}");
            }
            for round in 0..8u8 {
                let t = coll_tag(BARRIER, seq, round);
                assert_eq!(coll_tag_code(t), Some(BARRIER));
                assert!(seen.insert(t), "barrier tag collision");
            }
        }
        // Application tags are untouched.
        assert_eq!(coll_tag_code(0), None);
        assert_eq!(coll_tag_code(42), None);
        assert_eq!(coll_tag_code(-1023), None);
    }

    #[test]
    fn errors_display() {
        let e = MprError::Truncation {
            received: 100,
            capacity: 10,
        };
        assert!(format!("{e}").contains("truncated"));
        let e = MprError::InvalidOpForType {
            op: "band",
            dtype: Datatype::F64,
        };
        assert!(format!("{e}").contains("band"));
    }
}
