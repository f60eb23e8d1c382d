//! Shared, immutable message payloads.
//!
//! The invocation hot path used to deep-clone `Vec<u8>` payloads at
//! every hop: once per retransmission, once per dedup-cache entry and
//! replay, once per replica in a fan-out. [`Payload`] replaces those
//! clones with a reference-counted slice of one immutable buffer:
//! cloning shares, [`Payload::slice`] reslices without copying, and the
//! only ways to touch bytes are [`Payload::new`] (materialise a fresh
//! buffer from an owned `Vec<u8>`) and `From<&[u8]>` (deep-copy borrowed
//! bytes).
//!
//! Both materialisation paths are metered on the observe bus —
//! `kernel.payload.allocs` for fresh buffers, `kernel.payload.copies`
//! for deep copies — so benchmarks can *assert* the hot path performs
//! zero payload copies rather than merely hope so.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use rmodp_observe::bus;

/// Counter name for fresh payload buffers (marshalling an owned vec).
pub const PAYLOAD_ALLOCS: &str = "kernel.payload.allocs";

/// Counter name for deep copies of borrowed bytes. The hot path must
/// keep this at zero; the `BENCH_mechanisms.json` suite asserts it.
pub const PAYLOAD_COPIES: &str = "kernel.payload.copies";

/// An immutable, cheaply shareable byte payload.
///
/// `Clone` shares the backing buffer (an `Arc` bump, no bytes move);
/// [`Payload::slice`] produces sub-views of the same buffer. Derefs to
/// `[u8]`, so read sites need no changes.
#[derive(Clone)]
pub struct Payload {
    /// The backing buffer; `None` only for [`Payload::empty`], which
    /// therefore allocates nothing.
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// An empty payload (no allocation).
    pub fn empty() -> Self {
        Payload {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Materialises a payload from an owned buffer. This is the normal
    /// way bytes enter the system (marshalling); it is metered as an
    /// allocation, not a copy.
    pub fn new(bytes: Vec<u8>) -> Self {
        bus::counter_add(PAYLOAD_ALLOCS, 1);
        let end = bytes.len();
        Payload {
            data: Some(Arc::from(bytes)),
            start: 0,
            end,
        }
    }

    /// A zero-copy sub-view `[start, end)` of this payload's bytes.
    ///
    /// # Panics
    ///
    /// If the range is out of bounds or inverted.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        Payload {
            data: self.data.clone(),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// The payload's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether two payloads share one backing buffer (diagnostic).
    pub fn shares_buffer_with(&self, other: &Payload) -> bool {
        match (&self.data, &other.data) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::new(bytes)
    }
}

/// Deep-copies borrowed bytes into a fresh payload. Metered as a copy —
/// the invocation hot path must never take this route.
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        bus::counter_add(PAYLOAD_COPIES, 1);
        let end = bytes.len();
        Payload {
            data: Some(Arc::from(bytes)),
            start: 0,
            end,
        }
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Payload::from(&bytes[..])
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_bytes() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_bytes() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_bytes() == *other as &[u8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_slice_does_not_copy() {
        bus::reset();
        let p = Payload::new(b"hello world".to_vec());
        let q = p.clone();
        let h = p.slice(0, 5);
        assert!(p.shares_buffer_with(&q));
        assert!(p.shares_buffer_with(&h));
        assert_eq!(&h[..], b"hello");
        assert_eq!(bus::counter(PAYLOAD_ALLOCS), 1);
        assert_eq!(bus::counter(PAYLOAD_COPIES), 0);
    }

    #[test]
    fn empty_payload_has_no_buffer() {
        let e = Payload::empty();
        assert!(e.is_empty());
        assert_eq!(e.as_bytes(), b"");
        assert_eq!(e.slice(0, 0), e);
        assert!(!e.shares_buffer_with(&e.clone()), "nothing to share");
    }

    #[test]
    fn a_borrowed_copy_is_metered_as_a_copy() {
        bus::reset();
        let p = Payload::from(b"abc");
        assert_eq!(p, b"abc".to_vec());
        assert_eq!(bus::counter(PAYLOAD_COPIES), 1);
    }

    #[test]
    fn equality_against_vecs_and_arrays() {
        bus::reset();
        let p = Payload::new(b"ping".to_vec());
        assert_eq!(p, b"ping".to_vec());
        assert_eq!(p, b"ping");
        assert!(p == *b"ping".as_slice());
        assert_eq!(b"ping".to_vec(), p);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_bounds_are_checked() {
        let p = Payload::new(vec![1, 2, 3]);
        let _ = p.slice(2, 5);
    }
}
