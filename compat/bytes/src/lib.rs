//! Offline shim for `bytes` 1.x: just [`Bytes`], an immutable byte
//! buffer that is cheap to clone, in two forms.
//!
//! - A **static** view ([`Bytes::from_static`], and the empty buffer of
//!   [`Bytes::new`]) borrows data that lives for the whole process:
//!   cloning it copies a pointer, dropping it does nothing, and its
//!   slices are sub-slices of the same static data. Constant bodies, the
//!   empty body of every GET and the filler behind every sized response
//!   take this form, so the workers of a fleet share no reference count
//!   through them.
//! - A **shared** view owns a reference-counted allocation. Clones share
//!   the allocation, which is what the proxy relies on when the same
//!   request body flows through several addons.
//!
//! [`Bytes::slice`] produces zero-copy sub-views of either form.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, cheaply clonable contiguous byte buffer: a static
/// slice, or a view `[start, end)` into a shared allocation.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared { data: Arc<[u8]>, start: usize, end: usize },
}

impl Bytes {
    /// The empty buffer: a static view, so it allocates nothing.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// A view of static data, with no allocation and no reference count.
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes(Repr::Static(data))
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let len = data.len();
        Bytes(Repr::Shared { data: Arc::from(data), start: 0, end: len })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Returns a view of `range` within this buffer over the same data:
    /// the same static bytes, or the same shared allocation (no copy).
    /// Panics when the range is out of bounds, matching slice-indexing
    /// semantics.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice start {begin} > end {end}");
        assert!(end <= len, "slice end {end} out of bounds (len {len})");
        Bytes(match &self.0 {
            Repr::Static(data) => Repr::Static(&data[begin..end]),
            Repr::Shared { data, start, .. } => {
                Repr::Shared { data: data.clone(), start: start + begin, end: start + end }
            }
        })
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(data) => data,
            Repr::Shared { data, start, end } => &data[*start..*end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
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

// Equality, ordering and hashing are content-based (the view, not the
// backing allocation), matching the derived impls of the pre-slicing
// representation.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes(Repr::Shared { data: Arc::from(v.into_boxed_slice()), start: 0, end: len })
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_eq!(&a[..], &[1u8, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from("hello".to_string());
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn slices_share_storage() {
        let a = Bytes::from(&b"hello world"[..]);
        let b = a.slice(6..);
        assert_eq!(b, "world");
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_ptr(), a[6..].as_ptr());
        let c = b.slice(1..3);
        assert_eq!(c, "or");
        assert_eq!(a.slice(..), a);
        assert!(a.slice(3..3).is_empty());
    }

    #[test]
    fn static_views_clones_and_slices_point_into_the_static_data() {
        static DATA: &[u8] = b"static body";
        let a = Bytes::from_static(DATA);
        assert_eq!(a, "static body");
        assert_eq!(a.as_ptr(), DATA.as_ptr());
        assert_eq!(a.clone().as_ptr(), DATA.as_ptr());
        let body = a.slice(7..);
        assert_eq!(body, "body");
        assert_eq!(body.as_ptr(), DATA[7..].as_ptr());
        assert_eq!(body.slice(1..3).as_ptr(), DATA[8..].as_ptr());
        assert_eq!(a, Bytes::copy_from_slice(DATA));
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(&b"abc"[..]).slice(..4);
    }

    #[test]
    fn debug_escapes() {
        let a = Bytes::from(&b"a\"\x01"[..]);
        assert_eq!(format!("{a:?}"), "b\"a\\\"\\x01\"");
    }
}
