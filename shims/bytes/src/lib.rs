//! Offline shim for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the tiny slice of the `bytes` API it actually uses: an
//! immutable, cheaply clonable byte buffer. `Bytes` here is an
//! `Option<Arc<[u8]>>`; clones are reference-count bumps, exactly the
//! property the protocol engines rely on when fanning a payload out to
//! several children. Every constructor maps an empty buffer to `None`, so
//! the zero-byte payloads of control packets and barrier rounds never
//! allocate.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for an empty buffer, otherwise a non-empty shared slice.
    data: Option<Arc<[u8]>>,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes { data: None }
    }

    /// Copy `slice` into a new buffer.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes {
            data: (!slice.is_empty()).then(|| Arc::from(slice)),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_none()
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A new `Bytes` covering `range` of this buffer (copies; the real
    /// crate shares, but no caller here is on a hot path with `slice`).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes::copy_from_slice(&self.as_slice()[range])
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        self.data.as_deref().unwrap_or(&[])
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: (!v.is_empty()).then(|| v.into()),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes {
            data: (!b.is_empty()).then(|| b.into()),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        &self[..] == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(Arc::strong_count(a.data.as_ref().unwrap()), 2);
    }

    #[test]
    fn deref_and_eq() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[1..], &[2, 3][..]);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert!(Bytes::new().is_empty());
    }
}
