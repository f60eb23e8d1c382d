//! rmodp-store: the durable object store behind the persistence
//! transparency.
//!
//! RM-ODP's persistence transparency (§5.3) masks deactivation and
//! reactivation of objects; its failure transparency (§9) masks crashes
//! by checkpointing and recovery. Both bottom out in *some* place where
//! state outlives a capsule. This crate is that place: a deterministic,
//! seed-stable storage engine built from
//!
//! - the **write-ahead log** of [`rmodp_transactions::log`]: redo/undo
//!   records in checksummed frames,
//! - **periodic snapshots** ([`snapshot`]) and **log compaction**
//!   (snapshot-then-reset, crash-ordered),
//! - **recovery on restart** ([`engine`]): longest-valid-prefix scan,
//!   transaction classification, idempotent redo,
//! - its explicit **crash model** ([`StableMedia`]): only synced bytes
//!   survive.
//!
//! The [`PersistentStore`] trait — the storage function's interface,
//! defined in [`rmodp_functions::storage`] and re-exported here — is the
//! seam the transparencies plug into. It has two implementations and no
//! adapter: the in-memory
//! [`StorageFunction`](rmodp_functions::storage::StorageFunction)
//! (nothing durable), and
//! [`StoreEngine`] with full write-ahead durability — so a capsule kill
//! followed by restart replays the log and loses no committed update.
//!
//! The log, its frames and the crash model are not this crate's own:
//! they are [`rmodp_transactions::log`], shared with the resource
//! manager. The media types and the [`wal`] codec are re-exported under
//! the paths they have always had here.
//!
//! [`oo7`] builds the OO7-class object-database workload (information
//! viewpoint: typed assemblies, composite and atomic parts, documents)
//! that `rmodp-bench` drives against the engine.

pub mod engine;
pub mod oo7;
pub mod snapshot;
pub mod wal;

pub use engine::{RecoveryReport, StoreConfig, StoreEngine, StoreError, StoreStats};
pub use oo7::{state_checksum, Oo7Config, Oo7Schemas, Oo7Workload};

pub use rmodp_functions::storage::PersistentStore;
pub use rmodp_transactions::log::{FileMedia, MemMedia, StableMedia};

use rmodp_core::value::Value;

impl<M: StableMedia> PersistentStore for StoreEngine<M> {
    /// Durable: one write-ahead-logged, synced batch per call (or a
    /// staged write if a batch is already open — durable at its commit).
    fn persist(&mut self, key: &str, bytes: Vec<u8>) {
        self.atomically(|s| s.put(key, Value::Blob(bytes)).expect("a batch is open"));
    }

    fn fetch(&self, key: &str) -> Option<Vec<u8>> {
        match self.get(key) {
            Some(Value::Blob(bytes)) => Some(bytes),
            _ => None,
        }
    }

    fn remove(&mut self, key: &str) -> bool {
        let existed = self.state().contains_key(key);
        if existed {
            self.atomically(|s| s.delete(key).expect("a batch is open"));
        }
        existed
    }

    fn stored_keys(&self) -> Vec<String> {
        self.state().keys().cloned().collect()
    }

    /// One batch: the commit frame that makes `f`'s first mutation
    /// durable makes its last one durable too. Joins a batch that is
    /// already open. Reads inside `f` see the committed state only.
    fn atomically<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.has_open_batch() {
            return f(self);
        }
        self.begin().expect("no batch is open");
        let out = f(self);
        self.commit().expect("the batch opened above is still open");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_functions::storage::StorageFunction;

    /// Everything observable through the seam, so the two
    /// implementations can be compared answer for answer.
    type Answers = (Vec<Option<Vec<u8>>>, Vec<String>, Vec<bool>);

    fn exercise(store: &mut dyn PersistentStore) -> Answers {
        store.persist("persistent/acct", vec![1, 2, 3]);
        store.persist("persistent/acct", vec![4]);
        store.persist("guard/a/op/0", vec![9]);
        assert_eq!(store.fetch("persistent/acct"), Some(vec![4]));
        assert_eq!(store.fetch("missing"), None);
        assert_eq!(
            store.stored_keys(),
            vec!["guard/a/op/0".to_owned(), "persistent/acct".to_owned()]
        );
        assert!(store.remove("guard/a/op/0"));
        assert!(!store.remove("guard/a/op/0"));
        // Keys are opaque: `persistent/` is what `deactivate_to_storage`
        // writes for an empty label, and nothing parses a segment.
        let odd = ["persistent/", "a//b", "/", "", "trailing/"];
        for (i, key) in odd.iter().enumerate() {
            store.persist(key, vec![i as u8]);
        }
        let fetched = odd.iter().map(|key| store.fetch(key)).collect();
        let keys = store.stored_keys();
        let removed = odd
            .iter()
            .chain(&odd[..2])
            .map(|key| store.remove(key))
            .collect();
        (fetched, keys, removed)
    }

    #[test]
    fn both_implementations_answer_alike() {
        let in_memory = exercise(&mut StorageFunction::default());
        let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        let durable = exercise(&mut engine);
        assert_eq!(in_memory, durable);
        assert_eq!(in_memory.0[0], Some(vec![0]), "`persistent/` is storable");
        assert_eq!(in_memory.1.len(), 6);
        // And the engine's copy survives a crash.
        let mut media = engine.into_media();
        media.crash();
        let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        assert_eq!(engine.fetch("persistent/acct"), Some(vec![4]));
        assert_eq!(engine.fetch("guard/a/op/0"), None);
        assert_eq!(engine.stored_keys(), vec!["persistent/acct".to_owned()]);
    }

    #[test]
    fn atomically_is_one_commit_and_joins_an_open_batch() {
        let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        engine.persist("old", vec![0]);
        let commits = engine.stats().commits;
        let removed = engine.atomically(|s| {
            s.persist("new", vec![1]);
            s.remove("old")
        });
        assert!(removed);
        assert_eq!(engine.stats().commits, commits + 1);
        assert_eq!(engine.stored_keys(), vec!["new".to_owned()]);

        engine.begin().unwrap();
        engine.atomically(|s| s.persist("joined", vec![2]));
        assert!(engine.has_open_batch(), "the outer batch decides");
        assert_eq!(engine.fetch("joined"), None);
        engine.commit().unwrap();
        assert_eq!(engine.fetch("joined"), Some(vec![2]));
    }
}
