//! `store-oo7`: the durable store under an OO7 design library (the
//! lineage surveyed in Darmont, *Object Database Benchmarks*).
//!
//! The library is loaded once, in set-up. A pass clones the loaded media,
//! reopens it (recovery), commits update batches with auto-compaction on,
//! traverses, queries, then crashes the media and reopens it: the
//! recovered state must be the committed one. Only the store works here.

use rmodp::store::{
    state_checksum, MemMedia, Oo7Config, Oo7Workload, StableMedia, StoreConfig, StoreEngine,
};
use rmodp_kernel::rng::mix;

use super::{set_bus, PassOutcome, Pin, Size, TraceView, Workload};
use crate::spans::span;

/// Update lanes: batch `b` touches the composites with `id % STRIDE == b`.
const STRIDE: u32 = 16;

/// [`MemMedia`] that counts what the engine asks of it. The counters are
/// plain additions on calls that copy whole frames, and every pass (timed
/// or traced) runs on this wrapper, so the timed code is the same code.
#[derive(Debug, Clone, Default)]
pub struct CountingMedia {
    inner: MemMedia,
    pub wal_bytes_appended: u64,
    pub syncs: u64,
    pub snapshot_bytes_written: u64,
}

impl StableMedia for CountingMedia {
    fn wal_append(&mut self, bytes: &[u8]) {
        self.wal_bytes_appended += bytes.len() as u64;
        self.inner.wal_append(bytes);
    }

    fn wal_bytes(&self) -> &[u8] {
        self.inner.wal_bytes()
    }

    fn wal_reset(&mut self, bytes: &[u8]) {
        self.inner.wal_reset(bytes);
    }

    fn snapshot_write(&mut self, bytes: &[u8]) {
        self.snapshot_bytes_written += bytes.len() as u64;
        self.inner.snapshot_write(bytes);
    }

    fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.inner.snapshot_bytes()
    }

    fn sync(&mut self) {
        self.syncs += 1;
        self.inner.sync();
    }

    fn crash(&mut self) {
        self.inner.crash();
    }
}

/// The OO7 library on the durable store.
pub struct StoreOo7 {
    library: Oo7Workload,
    /// The media as the load left it: what every pass starts from.
    loaded: CountingMedia,
    store_config: StoreConfig,
    batches: u64,
    /// Composite ids the exact-match queries ask for.
    queries: Vec<u32>,
}

impl StoreOo7 {
    fn open(&self, media: CountingMedia) -> StoreEngine<CountingMedia> {
        StoreEngine::open(media, self.store_config).expect("media holds a valid snapshot")
    }
}

impl Workload for StoreOo7 {
    type State = CountingMedia;

    const NAME: &'static str = "store-oo7";

    fn new(seed: u64, size: Size) -> Self {
        let (shape, batches, queries, compact_wal_bytes) = match size {
            // ~6.3k objects: 40 assemblies, 125 composites of 48 atomic
            // parts, 125 documents. A quarter of the issue's library, so
            // that reopen + 4 batches + reopen fits one short pass; the
            // compaction threshold is scaled with it (512 KiB for 2 MiB)
            // so a pass still compacts.
            Size::Full => (
                Oo7Config {
                    assembly_levels: 4,
                    assembly_fanout: 3,
                    composites: 125,
                    atomics_per_composite: 48,
                    connections_per_atomic: 3,
                    composites_per_base: 3,
                    doc_chars: 500,
                    load_batch: 1_000,
                    date_range: 400,
                },
                4,
                50,
                512 << 10,
            ),
            Size::Quick => (Oo7Config::small(), 2, 10, 64 << 10),
        };
        set_bus(false, None);
        let store_config = StoreConfig { compact_wal_bytes };
        let mut library = Oo7Workload::new(shape, seed);
        let mut engine =
            StoreEngine::open(CountingMedia::default(), store_config).expect("empty media opens");
        library.load(&mut engine).expect("load commits");
        let queries = (0..queries)
            .map(|q| (mix(seed, q) % u64::from(shape.composites)) as u32)
            .collect();
        Self {
            library,
            loaded: engine.into_media(),
            store_config,
            batches,
            queries,
        }
    }

    fn build(&self) -> CountingMedia {
        let mut media = self.loaded.clone();
        media.wal_bytes_appended = 0;
        media.syncs = 0;
        media.snapshot_bytes_written = 0;
        media
    }

    fn pass(&self, media: CountingMedia) -> PassOutcome {
        set_bus(false, None);
        let mut engine = {
            let _recover = span("store.recover");
            self.open(media)
        };
        let commits_before = engine.stats().commits;
        let mut puts = 0u64;
        {
            let _update = span("store.update");
            for batch in 0..self.batches {
                puts += self
                    .library
                    .update_batch(&mut engine, batch, STRIDE)
                    .expect("batch commits");
            }
        }
        let traversal = {
            let _traverse = span("store.traverse_dense");
            self.library.traverse_dense(&engine)
        };
        let mut query_checksum = 0u64;
        {
            let _queries = span("store.query_exact");
            for &id in &self.queries {
                query_checksum ^= self.library.query_exact(&engine, id);
            }
        }
        let committed = state_checksum(&engine);
        let stats = engine.stats();
        let commits = stats.commits - commits_before;

        let mut media = engine.into_media();
        media.crash();
        let wal_bytes = media.wal_bytes_appended;
        let syncs = media.syncs;
        let snapshot_bytes = media.snapshot_bytes_written;
        let recovered = {
            let _recover = span("store.recover");
            state_checksum(&self.open(media))
        };

        let mut problems = Vec::new();
        if recovered != committed {
            problems.push(format!(
                "state after crash and reopen ({recovered:016x}) is not the committed one ({committed:016x})"
            ));
        }
        super::check_bus_silent(&mut problems);
        PassOutcome {
            ops: puts,
            attempted: puts,
            failed: 0,
            pinned: vec![
                ("puts", Pin::Count(puts)),
                ("commits", Pin::Count(commits)),
                ("compactions", Pin::Count(stats.compactions)),
                ("visited", Pin::Count(traversal.visited)),
                ("traverse_checksum", Pin::Sum(traversal.checksum)),
                ("query_checksum", Pin::Sum(query_checksum)),
                ("state_checksum", Pin::Sum(committed)),
            ],
            counts: vec![
                ("store.compactions", stats.compactions as f64),
                (
                    "store.media.wal_bytes_per_put",
                    wal_bytes as f64 / puts as f64,
                ),
                (
                    "store.media.syncs_per_commit",
                    syncs as f64 / commits as f64,
                ),
                ("store.media.snapshot_bytes_per_pass", snapshot_bytes as f64),
            ],
            problems,
        }
    }

    /// Every object the crashed-and-recovered store holds must still
    /// conform to its information schema, and none may be missing.
    fn verify(&self, _outcome: &PassOutcome) -> Vec<String> {
        let mut engine = self.open(self.build());
        for batch in 0..self.batches {
            self.library
                .update_batch(&mut engine, batch, STRIDE)
                .expect("batch commits");
        }
        let mut media = engine.into_media();
        media.crash();
        let recovered = self.open(media);
        let checked = self.library.validate_all(&recovered);
        let expected = self.library.config().total_objects();
        if checked == expected {
            Vec::new()
        } else {
            vec![format!(
                "{checked} objects validate after recovery, the library has {expected}"
            )]
        }
    }

    fn layer_metrics(&self, view: &TraceView<'_>) -> Vec<(&'static str, f64)> {
        let ms = |name: &str| view.mean_s(name).map_or(0.0, |s| s * 1e3);
        // Compaction happens inside `commit` when the log passes the
        // threshold; to time it alone, one is forced on a reopened clone.
        let mut clock = crate::clock::Clock::new();
        let mut engine = self.open(self.build());
        let ((), compact) = clock.measure(|| {
            let _compact = span("store.compact");
            engine.compact();
        });
        vec![
            ("store.recover_ms", ms("store.recover")),
            (
                "store.commit_us_per_put",
                ms("store.update") * 1e3 / view.outcome.ops as f64,
            ),
            ("store.traverse_dense_ms", ms("store.traverse_dense")),
            (
                "store.query_exact_us",
                ms("store.query_exact") * 1e3 / self.queries.len() as f64,
            ),
            ("store.compact_ms", compact.norm_s() * 1e3),
        ]
    }
}
