//! Seeded randomness handles.
//!
//! Every stochastic decision in the workspace draws from a [`KernelRng`]
//! seeded from the run's seed, or from [`mix`] where a decision must not
//! depend on anyone else's draws. The wrapper derefs to the underlying [`StdRng`], so existing `Rng` call
//! sites keep their exact draw order — and therefore their bit-identical
//! streams — across the kernel refactor.

use std::ops::{Deref, DerefMut};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a seed and a salt into a well-distributed 64-bit value
/// (splitmix64 finalizer). Unlike a [`KernelRng`] stream, the result
/// depends only on the two inputs — never on how many draws anyone else
/// has made — so per-entity decisions derived this way are invariant
/// under any re-partitioning of the entities across shards.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic RNG handle owned by the kernel.
#[derive(Debug, Clone)]
pub struct KernelRng(StdRng);

impl KernelRng {
    /// A stream seeded directly from `seed`.
    pub fn seeded(seed: u64) -> Self {
        KernelRng(StdRng::seed_from_u64(seed))
    }
}

impl Deref for KernelRng {
    type Target = StdRng;

    fn deref(&self) -> &StdRng {
        &self.0
    }
}

impl DerefMut for KernelRng {
    fn deref_mut(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_matches_raw_stdrng() {
        let mut a = KernelRng::seeded(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn mix_is_pure_and_spreads_inputs() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        // Consecutive salts land far apart (avalanche), so using dense
        // entity ids as salts still gives well-spread draws.
        let a = mix(7, 100);
        let b = mix(7, 101);
        assert!((a ^ b).count_ones() > 16, "poor avalanche: {a:x} vs {b:x}");
    }
}
