//! Zero-copy byte blobs with content-addressed identity.
//!
//! The paper's §3.6 cost claim is *modeled* by the deterministic
//! [`IoCostModel`](crate::IoCostModel) ticks; the reproduction itself
//! should not *also* pay a real memcpy for every simulated copy. A
//! [`Blob`] is an immutable, reference-counted byte buffer: cloning it
//! is a refcount bump, and its 64-bit FNV-1a content hash is computed
//! lazily, once, and shared by every clone. File nodes, OMS byte
//! values and the hybrid staging path all hold `Blob`s, so a design
//! datum that the *model* copies four times exists exactly once on the
//! host heap.
//!
//! Two per-thread counters ([`Blob::materializations`],
//! [`Blob::materialized_bytes`]) count every construction or
//! extraction that physically duplicates payload bytes. They are the
//! allocator-free proxy the zero-copy regression tests use to assert
//! that a pipeline run performs no hidden deep copies. The counters
//! are thread-local so concurrently running tests and benchmarks never
//! pollute each other's before/after deltas.

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

thread_local! {
    static MATERIALIZATIONS: Cell<u64> = const { Cell::new(0) };
    static MATERIALIZED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_materialization(len: usize) {
    MATERIALIZATIONS.with(|c| c.set(c.get() + 1));
    MATERIALIZED_BYTES.with(|c| c.set(c.get() + len as u64));
}

#[derive(Debug)]
struct Inner {
    bytes: Vec<u8>,
    hash: OnceLock<u64>,
}

/// An immutable, cheaply clonable byte buffer with a lazy content hash.
///
/// # Examples
///
/// ```
/// use cad_vfs::Blob;
///
/// let a = Blob::from(b"design data".to_vec());
/// let b = a.clone(); // refcount bump, no copy
/// assert!(Blob::ptr_eq(&a, &b));
/// assert_eq!(a.content_hash(), Blob::from(&b"design data"[..]).content_hash());
/// assert_eq!(&a[..], b"design data");
/// ```
#[derive(Clone)]
pub struct Blob {
    inner: Arc<Inner>,
}

impl Blob {
    /// An empty blob.
    pub fn new() -> Blob {
        Blob::from(Vec::new())
    }

    /// The payload length in bytes.
    pub fn len(&self) -> usize {
        self.inner.bytes.len()
    }

    /// Returns `true` when the blob holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.bytes.is_empty()
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.bytes
    }

    /// The 64-bit FNV-1a content hash, computed on first use and
    /// cached; every clone shares the cached value.
    pub fn content_hash(&self) -> u64 {
        *self.inner.hash.get_or_init(|| fnv1a(&self.inner.bytes))
    }

    /// `true` if both blobs share the same backing buffer (clones of
    /// one another). Content-equal blobs from separate constructions
    /// compare equal with `==` but not with `ptr_eq`.
    pub fn ptr_eq(a: &Blob, b: &Blob) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// Copies the payload into a fresh `Vec`. Counts as a
    /// materialization.
    pub fn to_vec(&self) -> Vec<u8> {
        count_materialization(self.len());
        self.inner.bytes.clone()
    }

    /// A clone with its own freshly allocated backing buffer — the
    /// deep copy the pre-blob code performed at every staging leg.
    /// Counts as a materialization; the benchmark's legacy mode uses it
    /// to reproduce the old cost honestly.
    pub fn deep_clone(&self) -> Blob {
        count_materialization(self.len());
        Blob {
            inner: Arc::new(Inner {
                bytes: self.inner.bytes.clone(),
                hash: OnceLock::new(),
            }),
        }
    }

    /// Appends `bytes` to the payload. The buffer grows in place when
    /// this handle is its only owner; a buffer shared with clones is
    /// copied first (copy-on-write, counted as a materialization), so
    /// the clones keep their bytes. The cached hash is reset.
    pub(crate) fn append(&mut self, bytes: &[u8]) {
        if let Some(inner) = Arc::get_mut(&mut self.inner) {
            inner.bytes.extend_from_slice(bytes);
            inner.hash = OnceLock::new();
            return;
        }
        count_materialization(self.len());
        let mut grown = Vec::with_capacity(self.len() + bytes.len());
        grown.extend_from_slice(self.as_slice());
        grown.extend_from_slice(bytes);
        *self = Blob::from(grown);
    }

    /// This thread's count of payload deep copies so far (monotonic;
    /// snapshot before/after a scenario and subtract).
    pub fn materializations() -> u64 {
        MATERIALIZATIONS.with(Cell::get)
    }

    /// This thread's count of payload bytes deep-copied so far.
    pub fn materialized_bytes() -> u64 {
        MATERIALIZED_BYTES.with(Cell::get)
    }
}

/// FNV-1a 64-bit, in-tree so no hashing dependency is needed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Default for Blob {
    fn default() -> Self {
        Blob::new()
    }
}

impl Deref for Blob {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Blob {
    /// Takes ownership of the vector — a move, not a copy.
    fn from(bytes: Vec<u8>) -> Blob {
        Blob {
            inner: Arc::new(Inner {
                bytes,
                hash: OnceLock::new(),
            }),
        }
    }
}

impl From<String> for Blob {
    fn from(text: String) -> Blob {
        Blob::from(text.into_bytes())
    }
}

impl From<&[u8]> for Blob {
    /// Copies the slice into a fresh buffer; counts as a
    /// materialization.
    fn from(bytes: &[u8]) -> Blob {
        count_materialization(bytes.len());
        Blob::from(bytes.to_owned())
    }
}

impl<const N: usize> From<&[u8; N]> for Blob {
    fn from(bytes: &[u8; N]) -> Blob {
        Blob::from(&bytes[..])
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Blob({} bytes, fnv={:016x})",
            self.len(),
            self.content_hash()
        )
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        Blob::ptr_eq(self, other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for Blob {}

impl std::hash::Hash for Blob {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl PartialEq<[u8]> for Blob {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Blob {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Blob {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Blob> for Vec<u8> {
    fn eq(&self, other: &Blob) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Blob {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Blob {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_backing_buffer() {
        let a = Blob::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(Blob::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn from_vec_is_a_move_not_a_copy() {
        let before = Blob::materializations();
        let _b = Blob::from(vec![0u8; 4096]);
        assert_eq!(Blob::materializations(), before);
    }

    #[test]
    fn from_slice_and_to_vec_count_materializations() {
        let before = (Blob::materializations(), Blob::materialized_bytes());
        let b = Blob::from(&[1u8, 2, 3, 4][..]);
        let _v = b.to_vec();
        assert_eq!(Blob::materializations() - before.0, 2);
        assert_eq!(Blob::materialized_bytes() - before.1, 8);
    }

    #[test]
    fn hash_is_lazy_cached_and_content_addressed() {
        let a = Blob::from(b"same bytes".to_vec());
        let b = Blob::from(b"same bytes".to_vec());
        let c = Blob::from(b"other bytes".to_vec());
        assert!(!Blob::ptr_eq(&a, &b));
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        // The clone sees the already-computed hash of the original.
        let d = a.clone();
        assert_eq!(d.content_hash(), a.content_hash());
    }

    #[test]
    fn deep_clone_detaches_the_buffer() {
        let a = Blob::from(vec![9u8; 16]);
        let b = a.deep_clone();
        assert!(!Blob::ptr_eq(&a, &b));
        assert_eq!(a, b);
    }

    #[test]
    fn equality_against_plain_byte_types() {
        let b = Blob::from(b"xyz".to_vec());
        assert_eq!(b, b"xyz");
        assert_eq!(b, b"xyz".to_vec());
        assert_eq!(b, &b"xyz"[..]);
        assert!(b != b"xy");
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
