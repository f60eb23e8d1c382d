//! An OO7-class object-database workload over the store engine.
//!
//! OO7 (Carey, DeWitt & Naughton) is the classic object-database
//! benchmark: a design library of **composite parts**, each a graph of
//! **atomic parts** with a **document**, hung off a tree of
//! **assemblies**. This module rebuilds that shape in the information
//! viewpoint — every object is a typed state validated against a
//! [`StaticSchema`] — and persists it through [`StoreEngine`] batches,
//! so the benchmark exercises exactly the write-ahead path the
//! persistence transparency uses.
//!
//! Everything is a pure function of `(config, seed)`: attribute values
//! come from a splitmix mix of the seed and the object id, never from a
//! stateful RNG, so loads, traversal checksums and query answers are
//! byte-stable across runs and platforms.
//!
//! The workload pieces mirror the OO7 operations the bench drives:
//!
//! - **T1** dense traversal — full assembly→composite→atomic-graph DFS;
//! - **T6** sparse traversal — assemblies down to each composite's root
//!   atomic only;
//! - **update batches** — bump `x`/`y` of selected composites' atomics,
//!   one store batch each (the workload a crash interrupts);
//! - **queries** — exact composite lookup and a `build_date` range scan
//!   over a B-tree index built at load.

use std::collections::BTreeMap;

use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::dtype::DataType;
use rmodp_core::value::Value;
use rmodp_information::schema::StaticSchema;
use rmodp_observe::hash::{fnv1a, FNV_OFFSET_BASIS};

use crate::engine::{StoreEngine, StoreError};
use crate::StableMedia;

/// Deterministic 64-bit mixer (splitmix64 finaliser).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shape of the generated design library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oo7Config {
    /// Depth of the assembly tree (root counts as level 1).
    pub assembly_levels: u32,
    /// Children per complex assembly.
    pub assembly_fanout: u32,
    /// Composite parts in the library.
    pub composites: u32,
    /// Atomic parts per composite.
    pub atomics_per_composite: u32,
    /// Outgoing connections per atomic part (≥ 1; the first closes the
    /// ring that keeps the graph connected).
    pub connections_per_atomic: u32,
    /// Composites referenced by each base assembly.
    pub composites_per_base: u32,
    /// Characters of text per document.
    pub doc_chars: u32,
    /// Objects per load batch (commit granularity).
    pub load_batch: u32,
    /// Spread of `build_date` values.
    pub date_range: u32,
}

impl Oo7Config {
    /// CI-smoke scale: ~1.2k objects, seconds to run.
    pub fn small() -> Self {
        Self {
            assembly_levels: 3,
            assembly_fanout: 3,
            composites: 50,
            atomics_per_composite: 20,
            connections_per_atomic: 3,
            composites_per_base: 3,
            doc_chars: 200,
            load_batch: 200,
            date_range: 40,
        }
    }

    /// Full scale: ~1M typed information objects.
    pub fn full() -> Self {
        Self {
            assembly_levels: 7,
            assembly_fanout: 3,
            composites: 12_000,
            atomics_per_composite: 81,
            connections_per_atomic: 3,
            composites_per_base: 3,
            doc_chars: 500,
            load_batch: 10_000,
            date_range: 400,
        }
    }

    /// Number of assemblies in the tree.
    pub fn assemblies(&self) -> u64 {
        let f = u64::from(self.assembly_fanout);
        let mut total = 0u64;
        let mut width = 1u64;
        for _ in 0..self.assembly_levels {
            total += width;
            width *= f;
        }
        total
    }

    /// Total objects the load creates (assemblies + composites + atomics
    /// + documents).
    pub fn total_objects(&self) -> u64 {
        self.assemblies()
            + u64::from(self.composites)
            + u64::from(self.composites) * u64::from(self.atomics_per_composite)
            + u64::from(self.composites)
    }
}

/// The information-viewpoint schemas every OO7 object conforms to.
#[derive(Debug, Clone)]
pub struct Oo7Schemas {
    /// An atomic part: position, build date, outgoing connections.
    pub atomic: StaticSchema,
    /// A composite part: its document, build date, atomic count.
    pub composite: StaticSchema,
    /// An assembly: level, sub-assemblies or referenced composites.
    pub assembly: StaticSchema,
    /// A design document.
    pub document: StaticSchema,
}

impl Default for Oo7Schemas {
    /// Builds the four schemas.
    fn default() -> Self {
        let atomic = StaticSchema::new(
            "oo7.atomic",
            DataType::record([
                ("id", DataType::Int),
                ("x", DataType::Int),
                ("y", DataType::Int),
                ("build_date", DataType::Int),
                ("conn", DataType::Seq(Box::new(DataType::Int))),
            ]),
            Value::record([
                ("id", Value::Int(0)),
                ("x", Value::Int(0)),
                ("y", Value::Int(0)),
                ("build_date", Value::Int(0)),
                ("conn", Value::Seq(vec![])),
            ]),
        )
        .expect("atomic schema is well-formed");
        let composite = StaticSchema::new(
            "oo7.composite",
            DataType::record([
                ("id", DataType::Int),
                ("build_date", DataType::Int),
                ("doc", DataType::Int),
                ("atomics", DataType::Int),
            ]),
            Value::record([
                ("id", Value::Int(0)),
                ("build_date", Value::Int(0)),
                ("doc", Value::Int(0)),
                ("atomics", Value::Int(0)),
            ]),
        )
        .expect("composite schema is well-formed");
        let assembly = StaticSchema::new(
            "oo7.assembly",
            DataType::record([
                ("id", DataType::Int),
                ("level", DataType::Int),
                ("children", DataType::Seq(Box::new(DataType::Int))),
                ("composites", DataType::Seq(Box::new(DataType::Int))),
            ]),
            Value::record([
                ("id", Value::Int(0)),
                ("level", Value::Int(1)),
                ("children", Value::Seq(vec![])),
                ("composites", Value::Seq(vec![])),
            ]),
        )
        .expect("assembly schema is well-formed");
        let document = StaticSchema::new(
            "oo7.document",
            DataType::record([
                ("id", DataType::Int),
                ("title", DataType::Text),
                ("text", DataType::Text),
            ]),
            Value::record([
                ("id", Value::Int(0)),
                ("title", Value::text("")),
                ("text", Value::text("")),
            ]),
        )
        .expect("document schema is well-formed");
        Self {
            atomic,
            composite,
            assembly,
            document,
        }
    }
}

/// What the load pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Objects written.
    pub objects: u64,
    /// Store batches committed.
    pub batches: u64,
}

/// Outcome of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalReport {
    /// Objects visited.
    pub visited: u64,
    /// Order-sensitive checksum over the visited attributes.
    pub checksum: u64,
}

/// The generated workload: shape, seed, schemas and the `build_date`
/// index the range query uses.
#[derive(Debug)]
pub struct Oo7Workload {
    config: Oo7Config,
    seed: u64,
    schemas: Oo7Schemas,
    /// `build_date` → composite ids carrying it (filled by `load`).
    date_index: BTreeMap<i64, Vec<u32>>,
}

impl Oo7Workload {
    /// A workload for `(config, seed)`.
    pub fn new(config: Oo7Config, seed: u64) -> Self {
        Self {
            config,
            seed,
            schemas: Oo7Schemas::default(),
            date_index: BTreeMap::new(),
        }
    }

    /// The shape.
    pub fn config(&self) -> &Oo7Config {
        &self.config
    }

    /// The schemas.
    pub fn schemas(&self) -> &Oo7Schemas {
        &self.schemas
    }

    fn atomic_key(composite: u32, local: u32) -> String {
        format!("oo7/atomic/{composite}/{local}")
    }

    fn composite_key(id: u32) -> String {
        format!("oo7/composite/{id}")
    }

    fn assembly_key(id: u64) -> String {
        format!("oo7/assembly/{id}")
    }

    fn document_key(id: u32) -> String {
        format!("oo7/doc/{id}")
    }

    fn composite_build_date(&self, id: u32) -> i64 {
        1000 + (mix(self.seed, 0x00c0_0000 + u64::from(id)) % u64::from(self.config.date_range))
            as i64
    }

    fn atomic_state(&self, composite: u32, local: u32) -> Value {
        let n = self.config.atomics_per_composite;
        let h = mix(
            self.seed,
            0x00a0_0000 + u64::from(composite) * u64::from(n) + u64::from(local),
        );
        let mut conn = vec![Value::Int(i64::from((local + 1) % n))];
        for c in 1..self.config.connections_per_atomic {
            conn.push(Value::Int((mix(h, u64::from(c)) % u64::from(n)) as i64));
        }
        Value::record([
            ("id", Value::Int(i64::from(local))),
            ("x", Value::Int((h % 100_000) as i64)),
            ("y", Value::Int(((h >> 32) % 100_000) as i64)),
            (
                "build_date",
                Value::Int(self.composite_build_date(composite)),
            ),
            ("conn", Value::Seq(conn)),
        ])
    }

    fn composite_state(&self, id: u32) -> Value {
        Value::record([
            ("id", Value::Int(i64::from(id))),
            ("build_date", Value::Int(self.composite_build_date(id))),
            ("doc", Value::Int(i64::from(id))),
            (
                "atomics",
                Value::Int(i64::from(self.config.atomics_per_composite)),
            ),
        ])
    }

    fn document_state(&self, id: u32) -> Value {
        let seedling = format!("Design notes for composite part {id}. ");
        let mut text = String::with_capacity(self.config.doc_chars as usize + seedling.len());
        while text.len() < self.config.doc_chars as usize {
            text.push_str(&seedling);
        }
        text.truncate(self.config.doc_chars as usize);
        Value::record([
            ("id", Value::Int(i64::from(id))),
            ("title", Value::text(format!("Composite part {id}"))),
            ("text", Value::text(text)),
        ])
    }

    /// Children of assembly `id` in the heap-ordered tree.
    fn assembly_children(&self, id: u64) -> Vec<u64> {
        let f = u64::from(self.assembly_fanout());
        let total = self.config.assemblies();
        (0..f)
            .map(|j| id * f + 1 + j)
            .filter(|&c| c < total)
            .collect()
    }

    fn assembly_fanout(&self) -> u32 {
        self.config.assembly_fanout
    }

    fn assembly_level(&self, id: u64) -> u32 {
        let f = u64::from(self.assembly_fanout());
        let mut level = 1;
        let mut first = 0u64;
        let mut width = 1u64;
        while id >= first + width {
            first += width;
            width *= f;
            level += 1;
        }
        level
    }

    /// Composites referenced by base assembly `id` (leaf of the tree).
    fn base_composites(&self, id: u64) -> Vec<u32> {
        let k = u64::from(self.config.composites_per_base);
        let m = u64::from(self.config.composites);
        (0..k).map(|j| ((id * k + j) % m) as u32).collect()
    }

    fn assembly_state(&self, id: u64) -> Value {
        let children = self.assembly_children(id);
        let composites = if children.is_empty() {
            self.base_composites(id)
        } else {
            Vec::new()
        };
        Value::record([
            ("id", Value::Int(id as i64)),
            ("level", Value::Int(i64::from(self.assembly_level(id)))),
            (
                "children",
                Value::Seq(children.iter().map(|&c| Value::Int(c as i64)).collect()),
            ),
            (
                "composites",
                Value::Seq(
                    composites
                        .iter()
                        .map(|&c| Value::Int(i64::from(c)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Loads the whole library into the engine in `load_batch`-sized
    /// committed batches, validating every state against its schema and
    /// building the `build_date` index.
    ///
    /// # Errors
    ///
    /// Store misuse (propagated) — schema violations panic, as they mean
    /// the generator itself is broken.
    pub fn load<M: StableMedia>(
        &mut self,
        engine: &mut StoreEngine<M>,
    ) -> Result<LoadReport, StoreError> {
        let mut report = LoadReport::default();
        let mut in_batch = 0u32;
        let write = |engine: &mut StoreEngine<M>,
                     report: &mut LoadReport,
                     in_batch: &mut u32,
                     key: String,
                     state: Value|
         -> Result<(), StoreError> {
            if *in_batch == 0 {
                engine.begin()?;
            }
            engine.put(&key, state)?;
            *in_batch += 1;
            report.objects += 1;
            if *in_batch >= self.config.load_batch {
                engine.commit()?;
                report.batches += 1;
                *in_batch = 0;
            }
            Ok(())
        };

        for id in 0..self.config.assemblies() {
            let state = self.assembly_state(id);
            self.schemas
                .assembly
                .check(&state)
                .expect("generated assembly conforms");
            write(
                engine,
                &mut report,
                &mut in_batch,
                Self::assembly_key(id),
                state,
            )?;
        }
        for id in 0..self.config.composites {
            let state = self.composite_state(id);
            self.schemas
                .composite
                .check(&state)
                .expect("generated composite conforms");
            self.date_index
                .entry(self.composite_build_date(id))
                .or_default()
                .push(id);
            write(
                engine,
                &mut report,
                &mut in_batch,
                Self::composite_key(id),
                state,
            )?;
            let doc = self.document_state(id);
            self.schemas
                .document
                .check(&doc)
                .expect("generated document conforms");
            write(
                engine,
                &mut report,
                &mut in_batch,
                Self::document_key(id),
                doc,
            )?;
            for local in 0..self.config.atomics_per_composite {
                let atomic = self.atomic_state(id, local);
                self.schemas
                    .atomic
                    .check(&atomic)
                    .expect("generated atomic conforms");
                write(
                    engine,
                    &mut report,
                    &mut in_batch,
                    Self::atomic_key(id, local),
                    atomic,
                )?;
            }
        }
        if in_batch > 0 {
            engine.commit()?;
            report.batches += 1;
        }
        Ok(report)
    }

    /// T1: dense traversal — DFS of the assembly tree, then the *full*
    /// atomic graph of every referenced composite (each atomic visited
    /// once, ring + cross connections followed).
    pub fn traverse_dense<M: StableMedia>(&self, engine: &StoreEngine<M>) -> TraversalReport {
        let mut report = TraversalReport::default();
        let mut checksum = FNV_OFFSET_BASIS;
        let mut stack = vec![0u64];
        while let Some(id) = stack.pop() {
            report.visited += 1;
            let children = self.assembly_children(id);
            if children.is_empty() {
                for composite in self.base_composites(id) {
                    report.visited += 1;
                    let n = self.config.atomics_per_composite;
                    let mut seen = vec![false; n as usize];
                    let mut atomic_stack = vec![0u32];
                    while let Some(local) = atomic_stack.pop() {
                        if std::mem::replace(&mut seen[local as usize], true) {
                            continue;
                        }
                        report.visited += 1;
                        let state = engine
                            .get(&Self::atomic_key(composite, local))
                            .expect("loaded atomic exists");
                        let x = state.field("x").and_then(Value::as_int).expect("typed");
                        checksum = fnv1a(&(checksum ^ x as u64).to_le_bytes());
                        for conn in state.field("conn").and_then(Value::as_seq).expect("typed") {
                            let next = conn.as_int().expect("typed") as u32;
                            if !seen[next as usize] {
                                atomic_stack.push(next);
                            }
                        }
                    }
                }
            } else {
                // Reverse so the DFS visits children left-to-right.
                stack.extend(children.into_iter().rev());
            }
        }
        report.checksum = checksum;
        report
    }

    /// T6: sparse traversal — the assembly tree down to each referenced
    /// composite's *root* atomic only.
    pub fn traverse_sparse<M: StableMedia>(&self, engine: &StoreEngine<M>) -> TraversalReport {
        let mut report = TraversalReport::default();
        let mut checksum = FNV_OFFSET_BASIS;
        let mut stack = vec![0u64];
        while let Some(id) = stack.pop() {
            report.visited += 1;
            let children = self.assembly_children(id);
            if children.is_empty() {
                for composite in self.base_composites(id) {
                    report.visited += 1;
                    let state = engine
                        .get(&Self::atomic_key(composite, 0))
                        .expect("loaded atomic exists");
                    let x = state.field("x").and_then(Value::as_int).expect("typed");
                    checksum = fnv1a(&(checksum ^ x as u64).to_le_bytes());
                }
            } else {
                stack.extend(children.into_iter().rev());
            }
        }
        report.checksum = checksum;
        report
    }

    /// One update batch: for every composite with `id % stride ==
    /// batch_no % stride`, increment `x` and `y` of all its atomic
    /// parts. One store batch — all-or-nothing under a crash.
    ///
    /// # Errors
    ///
    /// Store misuse (propagated).
    pub fn update_batch<M: StableMedia>(
        &self,
        engine: &mut StoreEngine<M>,
        batch_no: u64,
        stride: u32,
    ) -> Result<u64, StoreError> {
        let lane = (batch_no % u64::from(stride)) as u32;
        engine.begin()?;
        let mut updated = 0u64;
        for composite in (0..self.config.composites).filter(|c| c % stride == lane) {
            for local in 0..self.config.atomics_per_composite {
                let key = Self::atomic_key(composite, local);
                let mut state = engine.get(&key).expect("loaded atomic exists");
                for coord in ["x", "y"] {
                    if let Some(Value::Int(v)) = state.field_mut(coord) {
                        *v += 1;
                    }
                }
                self.schemas
                    .atomic
                    .check(&state)
                    .expect("updated atomic conforms");
                engine.put(&key, state)?;
                updated += 1;
            }
        }
        engine.commit()?;
        Ok(updated)
    }

    /// Exact-match query: the composite and its document, schema-checked.
    /// Returns a checksum of the pair.
    pub fn query_exact<M: StableMedia>(&self, engine: &StoreEngine<M>, id: u32) -> u64 {
        let composite = engine
            .get(&Self::composite_key(id))
            .expect("loaded composite exists");
        self.schemas
            .composite
            .check(&composite)
            .expect("stored composite conforms");
        let doc = engine
            .get(&Self::document_key(id))
            .expect("loaded document exists");
        self.schemas
            .document
            .check(&doc)
            .expect("stored doc conforms");
        let date = composite
            .field("build_date")
            .and_then(Value::as_int)
            .expect("typed");
        let title_len = doc
            .field("title")
            .and_then(Value::as_text)
            .expect("typed")
            .len();
        fnv1a(&(date as u64 ^ ((title_len as u64) << 32)).to_le_bytes())
    }

    /// Range query over the `build_date` index: composites built within
    /// `[lo, hi]`, verified against the stored state. Returns `(matches,
    /// checksum)`.
    pub fn query_range<M: StableMedia>(
        &self,
        engine: &StoreEngine<M>,
        lo: i64,
        hi: i64,
    ) -> (u64, u64) {
        let mut matches = 0u64;
        let mut checksum = FNV_OFFSET_BASIS;
        for (&date, ids) in self.date_index.range(lo..=hi) {
            for &id in ids {
                let stored = engine
                    .get(&Self::composite_key(id))
                    .and_then(|c| c.field("build_date").and_then(Value::as_int))
                    .expect("loaded composite has a date");
                assert_eq!(stored, date, "index and store agree");
                matches += 1;
                checksum = fnv1a(&(checksum ^ (id as u64) ^ (date as u64)).to_le_bytes());
            }
        }
        (matches, checksum)
    }

    /// Validates every stored OO7 object against its schema; returns the
    /// number checked. A wrong count or a panic means recovery returned
    /// a state the information viewpoint rejects.
    pub fn validate_all<M: StableMedia>(&self, engine: &StoreEngine<M>) -> u64 {
        let mut checked = 0u64;
        for (key, bytes) in engine.state() {
            let schema = if key.starts_with("oo7/atomic/") {
                &self.schemas.atomic
            } else if key.starts_with("oo7/composite/") {
                &self.schemas.composite
            } else if key.starts_with("oo7/assembly/") {
                &self.schemas.assembly
            } else if key.starts_with("oo7/doc/") {
                &self.schemas.document
            } else {
                continue;
            };
            let state = BinarySyntax
                .decode(bytes)
                .unwrap_or_else(|e| panic!("{key} does not decode: {e}"));
            schema
                .check(&state)
                .unwrap_or_else(|e| panic!("{key} violates its schema: {e}"));
            checked += 1;
        }
        checked
    }
}

/// An order-sensitive checksum of the engine's whole committed state —
/// the equality the crash-recovery assertions compare. Each value is
/// hashed as its canonical binary encoding, which is what the keyspace
/// holds.
pub fn state_checksum<M: StableMedia>(engine: &StoreEngine<M>) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    for (key, encoded) in engine.state() {
        h = fnv1a(&h.to_le_bytes()) ^ fnv1a(key.as_bytes()) ^ fnv1a(encoded);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StoreConfig;
    use crate::MemMedia;

    fn loaded() -> (Oo7Workload, StoreEngine<MemMedia>) {
        let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        let mut wl = Oo7Workload::new(Oo7Config::small(), 7);
        let report = wl.load(&mut engine).unwrap();
        assert_eq!(report.objects, wl.config().total_objects());
        (wl, engine)
    }

    #[test]
    fn load_is_deterministic() {
        let (wl_a, engine_a) = loaded();
        let (wl_b, engine_b) = loaded();
        assert_eq!(state_checksum(&engine_a), state_checksum(&engine_b));
        assert_eq!(
            wl_a.traverse_dense(&engine_a).checksum,
            wl_b.traverse_dense(&engine_b).checksum
        );
    }

    #[test]
    fn dense_traversal_visits_every_atomic_once() {
        let (wl, engine) = loaded();
        let t1 = wl.traverse_dense(&engine);
        let cfg = wl.config();
        let leaves = u64::from(cfg.assembly_fanout).pow(cfg.assembly_levels - 1);
        let expected = cfg.assemblies()
            + leaves
                * u64::from(cfg.composites_per_base)
                * (1 + u64::from(cfg.atomics_per_composite));
        assert_eq!(t1.visited, expected);
        let t6 = wl.traverse_sparse(&engine);
        assert!(t6.visited < t1.visited);
    }

    #[test]
    fn updates_change_the_dense_checksum_only() {
        let (wl, mut engine) = loaded();
        let before = wl.traverse_dense(&engine).checksum;
        let range_before = wl.query_range(&engine, 1000, 1040);
        let updated = wl.update_batch(&mut engine, 0, 10).unwrap();
        assert!(updated > 0);
        assert_ne!(wl.traverse_dense(&engine).checksum, before);
        assert_eq!(wl.query_range(&engine, 1000, 1040), range_before);
    }

    #[test]
    fn updates_survive_crash_and_recovery() {
        let (wl, mut engine) = loaded();
        wl.update_batch(&mut engine, 0, 10).unwrap();
        let committed = state_checksum(&engine);
        let mut media = engine.into_media();
        media.crash();
        let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        assert_eq!(state_checksum(&engine), committed);
        assert_eq!(wl.validate_all(&engine), wl.config().total_objects());
    }

    /// The checksum as it was computed when the keyspace held values:
    /// each one encoded afresh. Hashing the stored bytes must give it.
    fn encoding_checksum<M: StableMedia>(engine: &StoreEngine<M>) -> u64 {
        let mut encoded = Vec::new();
        let mut h = FNV_OFFSET_BASIS;
        for key in engine.state().keys() {
            let value = engine.get(key).expect("a stored key");
            encoded.clear();
            BinarySyntax.encode_into(&value, &mut encoded);
            h = fnv1a(&h.to_le_bytes()) ^ fnv1a(key.as_bytes()) ^ fnv1a(&encoded);
        }
        h
    }

    #[test]
    fn the_checksum_of_the_bytes_is_the_checksum_of_the_values() {
        // Compacting at 64 KiB, so that the reopen reads a snapshot.
        let config = StoreConfig {
            compact_wal_bytes: 64 << 10,
        };
        let mut engine = StoreEngine::open(MemMedia::new(), config).unwrap();
        let mut wl = Oo7Workload::new(Oo7Config::small(), 7);
        wl.load(&mut engine).unwrap();
        assert_eq!(state_checksum(&engine), encoding_checksum(&engine));
        for batch in 0..4 {
            wl.update_batch(&mut engine, batch, 16).unwrap();
        }
        let committed = state_checksum(&engine);
        assert_eq!(committed, encoding_checksum(&engine));
        let mut media = engine.into_media();
        media.crash();
        let engine = StoreEngine::open(media, config).unwrap();
        assert!(engine.recovery_report().snapshot_loaded);
        assert_eq!(state_checksum(&engine), committed);
        assert_eq!(encoding_checksum(&engine), committed);
    }

    #[test]
    fn queries_are_consistent_with_the_store() {
        let (wl, engine) = loaded();
        let (matches, _) = wl.query_range(&engine, i64::MIN, i64::MAX);
        assert_eq!(matches, u64::from(wl.config().composites));
        let a = wl.query_exact(&engine, 1);
        assert_eq!(a, wl.query_exact(&engine, 1));
    }
}
