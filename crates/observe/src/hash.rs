//! The workspace's two non-cryptographic hashes: FNV-1a, 64-bit, and a
//! word-at-a-time checksum.
//!
//! Both are stable across platforms and runs, so everything keyed or
//! checked by them is deterministic. FNV-1a keys head-sampling decisions
//! ([`crate::bus`]) and trader shard placement, checks the frames of media
//! written before [`word_checksum`] existed, and is the export and state
//! checksum the benchmark baselines pin. [`word_checksum`] checks every
//! WAL and snapshot frame written now: it reads eight bytes a step where
//! FNV-1a reads one. They live here because this crate sits below every
//! one of those users; `rmodp_kernel::hash` re-exports them under the
//! name the rest of the workspace imports.

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

/// The word-wise checksum's multiplier: 2⁶⁴ divided by the golden ratio,
/// odd, so multiplying by it is a bijection of `u64`.
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word-wise checksum's state before the length is folded in.
const WORD_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// One step of [`word_checksum`]: xor, multiply by an odd constant,
/// rotate. Each of the three is a bijection, so for a fixed word the step
/// is a bijection of the state, and for a fixed state one of the word.
#[inline(always)]
fn word_step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(WORD_MUL).rotate_left(29)
}

/// A 64-bit checksum that reads `bytes` eight at a time: the length, then
/// each little-endian `u64` word, then the tail bytes zero-padded to one
/// more word, each folded in by one step (xor, multiply by an odd
/// constant, rotate), and a final
/// xor-shift / multiply / xor-shift, itself a bijection.
///
/// Because every step is a bijection of the running state for the input
/// it folds, damage confined to one word, or to the tail, always changes
/// the sum: the state differs right after the damaged word and no later
/// step can bring it back. Its dependency chain holds one multiply per
/// eight bytes where FNV-1a's holds one per byte, which makes it over six
/// times faster on a 1 MB buffer (EXPERIMENTS.md §E13).
#[inline]
pub fn word_checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut sum = word_step(WORD_SEED, bytes.len() as u64);
    for word in &mut words {
        sum = word_step(sum, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0; 8];
        last[..tail.len()].copy_from_slice(tail);
        sum = word_step(sum, u64::from_le_bytes(last));
    }
    sum ^= sum >> 32;
    sum = sum.wrapping_mul(WORD_MUL);
    sum ^ (sum >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_the_published_vectors_and_folds_in_pieces() {
        assert_eq!(fnv1a(b""), FNV_OFFSET_BASIS);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Folding piece by piece hashes the concatenation.
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    /// Frames on a medium are checked against these: a change to any of
    /// them makes every frame written before it unreadable.
    #[test]
    fn the_word_checksum_is_pinned() {
        assert_eq!(word_checksum(b""), 0x5b6a_3ba0_d025_01bc);
        assert_eq!(word_checksum(b"rm-odp!"), 0x857e_1b2e_8e68_47dc);
        assert_eq!(word_checksum(b"rm-odp!!"), 0x6632_b665_90eb_a9f3);
        assert_eq!(word_checksum(b"open distributed!"), 0xee07_0717_65da_421d);
        // A tail is not the same as its zero-padded word.
        assert_ne!(word_checksum(b"rm-odp!"), word_checksum(b"rm-odp!\0"));
    }

    proptest! {
        #[test]
        fn damage_inside_one_word_or_the_tail_changes_the_word_checksum(
            bytes in proptest::collection::vec(any::<u8>(), 1..64),
            word in any::<usize>(),
            mask in any::<u64>(),
        ) {
            // The damaged word: one of the whole words, or the tail.
            let start = word % bytes.len().div_ceil(8) * 8;
            let end = (start + 8).min(bytes.len());
            // Only the mask's bytes that fall inside the word, and at
            // least one bit of them.
            let width = end - start;
            let mask = match mask & (u64::MAX >> (64 - 8 * width)) {
                0 => 1,
                m => m,
            };
            let mut damaged = bytes.clone();
            for (i, b) in damaged[start..end].iter_mut().enumerate() {
                *b ^= mask.to_le_bytes()[i];
            }
            prop_assert_ne!(word_checksum(&damaged), word_checksum(&bytes));
        }
    }
}
