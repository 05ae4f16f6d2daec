//! Every constructor of an empty `Bytes` returns a buffer that allocates
//! nothing and is indistinguishable from `Bytes::new()`: equal, with the
//! same hash and the same `Debug` text.
//!
//! A counting global allocator tallies allocations made by this thread;
//! the counter is thread-local so the test harness's own threads cannot
//! disturb it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during thread teardown don't panic.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A named way to build a `Bytes`.
type Case = (&'static str, Box<dyn FnOnce() -> Bytes>);

fn hash_of(b: &Bytes) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

#[test]
fn empty_buffers_from_every_constructor_do_not_allocate() {
    let full = Bytes::from(vec![1u8, 2, 3, 4]);
    // Build the inputs first, so only the conversion itself is counted.
    let empty_vec: Vec<u8> = Vec::new();
    let empty_static: &'static [u8] = &[];
    let empty_iter = std::iter::empty::<u8>();
    let cases: Vec<Case> = vec![
        ("new", Box::new(Bytes::new)),
        ("default", Box::new(Bytes::default)),
        (
            "copy_from_slice(&[])",
            Box::new(|| Bytes::copy_from_slice(&[])),
        ),
        ("From<Vec<u8>>", Box::new(move || Bytes::from(empty_vec))),
        (
            "From<&'static [u8]>",
            Box::new(move || Bytes::from(empty_static)),
        ),
        ("from_iter", Box::new(move || empty_iter.collect::<Bytes>())),
        ("slice(2..2)", Box::new(move || full.slice(2..2))),
    ];
    let reference = Bytes::new();
    for (name, make) in cases {
        let (b, n) = allocations(make);
        assert_eq!(n, 0, "{name} allocated {n} time(s)");
        assert_eq!(b.len(), 0, "{name} is not empty");
        assert!(b.is_empty(), "{name} does not report empty");
        assert_eq!(b, reference, "{name} differs from Bytes::new()");
        assert_eq!(
            hash_of(&b),
            hash_of(&reference),
            "{name} hashes differently"
        );
        assert_eq!(format!("{b:?}"), "b\"\"", "{name} prints differently");
        let (clone, n) = allocations(|| b.clone());
        assert_eq!(n, 0, "cloning {name} allocated");
        assert_eq!(clone, b);
    }
}

#[test]
fn non_empty_clones_share_storage() {
    let a = Bytes::from(vec![7u8; 64]);
    let (b, n) = allocations(|| a.clone());
    assert_eq!(n, 0, "a clone must bump a count, not copy");
    assert_eq!(a.as_ptr(), b.as_ptr(), "a clone must share the buffer");
    assert_eq!(a, b);
    assert_eq!(hash_of(&a), hash_of(&b));
}

#[test]
fn equality_hash_and_debug_follow_the_bytes() {
    let a = Bytes::from(vec![b'h', b'i', 0]);
    let b = Bytes::copy_from_slice(b"hi\0");
    let c: Bytes = b"hi\0".iter().copied().collect();
    for other in [&b, &c] {
        assert_eq!(&a, other);
        assert_eq!(hash_of(&a), hash_of(other));
    }
    assert_eq!(format!("{a:?}"), "b\"hi\\x00\"");
    assert_ne!(a, Bytes::new());
    assert_eq!(a.slice(0..2), Bytes::from(&b"hi"[..]));
}
