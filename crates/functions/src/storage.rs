//! The storage function (§8.3): the one seam behind which everything
//! that outlives a capsule is kept — deactivated cluster checkpoints,
//! coordinated checkpoints, the durable guard's operation log.
//!
//! [`PersistentStore`] is the storage function's interface. It has two
//! implementations and no adapter between them: [`StorageFunction`]
//! here, which keeps the bytes in memory (gone with the process), and
//! `rmodp_store::StoreEngine`, which write-ahead-logs every mutation so
//! a crash loses nothing committed.

use std::collections::BTreeMap;

/// The storage function's interface: named byte strings.
///
/// Keys are opaque strings — by convention slash-separated paths, but
/// no implementation parses them, so any key one accepts the other
/// accepts too. Implementations differ only in durability.
pub trait PersistentStore {
    /// Stores (or overwrites) bytes under a key.
    fn persist(&mut self, key: &str, bytes: Vec<u8>);

    /// Reads the bytes stored under a key.
    fn fetch(&self, key: &str) -> Option<Vec<u8>>;

    /// Removes a key; returns whether it existed.
    fn remove(&mut self, key: &str) -> bool;

    /// Every stored key, sorted.
    fn stored_keys(&self) -> Vec<String>;

    /// Runs `f` so that a crash keeps either all of its mutations or
    /// none of them. A store that keeps nothing across a crash has
    /// nothing to add, so the provided form just runs `f`; a durable
    /// store commits the mutations as one batch. Whether a read inside
    /// `f` already sees `f`'s own mutations is the implementation's
    /// choice: read first, or touch keys `f` does not read.
    fn atomically<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R
    where
        Self: Sized,
    {
        f(self)
    }
}

/// The volatile storage function: an in-memory key → bytes map.
///
/// It is what [`PersistentStore`] means with durability taken away — the
/// reference the seam test runs beside the durable engine, and the
/// default store of a deployment that has no medium to write to.
#[derive(Debug, Default)]
pub struct StorageFunction {
    entries: BTreeMap<String, Vec<u8>>,
}

impl PersistentStore for StorageFunction {
    fn persist(&mut self, key: &str, bytes: Vec<u8>) {
        self.entries.insert(key.to_owned(), bytes);
    }

    fn fetch(&self, key: &str) -> Option<Vec<u8>> {
        self.entries.get(key).cloned()
    }

    fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    fn stored_keys(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_overwrites_and_remove_forgets() {
        let mut s = StorageFunction::default();
        s.persist("a/b", vec![1]);
        s.persist("a/b", vec![2]);
        assert_eq!(s.fetch("a/b"), Some(vec![2]));
        assert!(s.remove("a/b"));
        assert!(!s.remove("a/b"));
        assert_eq!(s.fetch("a/b"), None);
        assert!(s.stored_keys().is_empty());
    }

    #[test]
    fn keys_are_sorted_and_never_parsed() {
        let mut s = StorageFunction::default();
        for key in ["b", "persistent/", "a//x", ""] {
            s.persist(key, key.as_bytes().to_vec());
        }
        assert_eq!(s.stored_keys(), vec!["", "a//x", "b", "persistent/"]);
        assert_eq!(s.fetch("persistent/"), Some(b"persistent/".to_vec()));
    }

    #[test]
    fn atomically_runs_the_closure_and_hands_back_its_result() {
        let mut s = StorageFunction::default();
        s.persist("old", vec![0]);
        let removed = s.atomically(|s| {
            s.persist("new", vec![1]);
            s.remove("old")
        });
        assert!(removed);
        assert_eq!(s.stored_keys(), vec!["new"]);
    }
}
