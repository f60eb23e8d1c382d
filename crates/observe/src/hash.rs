//! FNV-1a, 64-bit: the workspace's one non-cryptographic hash.
//!
//! Stable across platforms and runs, so everything keyed or checked by
//! it is deterministic: head-sampling decisions ([`crate::bus`]), trader
//! shard placement, WAL and snapshot frame checksums, and the export and
//! state checksums the benchmark baselines pin. It lives here because
//! this crate sits below every one of those users; `rmodp_kernel::hash`
//! re-exports it under the name the rest of the workspace imports.

/// The FNV-1a 64-bit offset basis: the hash of no bytes, and the seed of
/// every running fold.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a hash. Folding a message piece by
/// piece gives the hash of the concatenation.
#[inline]
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET_BASIS, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_folds_in_pieces() {
        assert_eq!(fnv1a(b""), FNV_OFFSET_BASIS);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Folding piece by piece hashes the concatenation.
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
