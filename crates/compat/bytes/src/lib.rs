//! A minimal, offline subset of the `bytes` crate: the [`Buf`] /
//! [`BufMut`] traits over `&[u8]` / `Vec<u8>`, covering exactly the
//! little-endian accessors the workspace's codecs use.
//!
//! Every method with a body is `#[inline]`, as in upstream `bytes`. Without
//! LTO, which neither the workspace nor `benchmark/` turns on, rustc
//! inlines a non-generic function of another crate only when it is so
//! marked or a call-free leaf; `copy_to_slice` and `put_slice` are neither.
//! Unmarked, each `put_u8` or `get_u32_le` in a codec is an out-of-line
//! call chain that costs more than the bytes it moves.
//! This crate sits outside the workspace, so clippy never lints it;
//! `tests/source_rules.rs` keeps the attribute on every method instead.

/// Sequential reader over a byte source. Implemented for `&[u8]`, where
/// reads advance the slice itself (as in the real crate).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);
    /// Copies `dst.len()` bytes out and advances.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Whether any bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `i64`.
    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Sequential writer into a growable byte sink. Implemented for
/// `Vec<u8>`.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut};

    #[test]
    fn round_trip_all_accessors() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(7);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(42);
        out.put_i64_le(-42);
        out.put_f64_le(1.5);
        out.put_slice(b"xy");

        let mut r: &[u8] = &out;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_i64_le(), -42);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.remaining(), 2);
        r.advance(1);
        assert_eq!(r, b"y");
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn overread_panics() {
        let mut r: &[u8] = &[1, 2];
        let _ = r.get_u32_le();
    }
}
