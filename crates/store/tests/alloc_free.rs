//! What an OO7 atomic part costs the allocator on the paths every update
//! batch and every recovery takes, counted by an allocator of this test
//! binary's own: a passing schema check allocates nothing; decoding,
//! building or cloning the part — and reading it from the store —
//! allocates its two vectors, the record's and the connection list's,
//! and nothing per field name; and opening a snapshot allocates each
//! entry's key and bytes and builds no value at all.

use std::collections::BTreeMap;

use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::value::Value;
use rmodp_observe::bus;
use rmodp_store::{MemMedia, Oo7Schemas, StoreConfig, StoreEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised, so touching it from inside the allocator cannot
    // re-enter it. Per thread: the harness runs tests side by side.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator still runs while a thread's locals
        // are being torn down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations the calling thread made in it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn atomic() -> Value {
    Value::record([
        ("build_date", Value::Int(1_234)),
        (
            "conn",
            Value::seq([Value::Int(3), Value::Int(17), Value::Int(40)]),
        ),
        ("id", Value::Int(9)),
        ("x", Value::Int(-5)),
        ("y", Value::Int(12)),
    ])
}

#[test]
fn a_passing_check_of_an_atomic_part_allocates_nothing() {
    let schemas = Oo7Schemas::default();
    let part = atomic();
    let (checked, allocs) = counted(|| schemas.atomic.check(&part));
    assert!(checked.is_ok());
    assert_eq!(allocs, 0, "five names, three items, no path");

    // Failing, the check renders where: that text is what it allocates.
    let mut bad = part;
    bad.set_field("conn", Value::seq([Value::Int(3), Value::Null]));
    let err = schemas.atomic.check(&bad).unwrap_err();
    assert_eq!(
        err.to_string(),
        "schema type error: at conn.[1]: expected int, got null"
    );
}

#[test]
fn an_atomic_part_allocates_its_vectors_and_no_name() {
    let (part, built) = counted(atomic);
    assert_eq!(built, 2);
    let bytes = BinarySyntax.encode(&part);
    let (decoded, decode_allocs) = counted(|| BinarySyntax.decode(&bytes).unwrap());
    assert_eq!(decoded, part);
    assert_eq!(decode_allocs, 2);
    let (copy, clone_allocs) = counted(|| part.clone());
    assert_eq!(copy, part);
    assert_eq!(clone_allocs, 2);
    let (mut grown, _) = counted(|| Value::record([("id", Value::Int(1))]));
    // Room for the second field is the one allocation.
    let (_, insert_allocs) = counted(|| grown.set_field("x", Value::Int(2)));
    assert_eq!(insert_allocs, 1);
    let (_, replace_allocs) = counted(|| grown.set_field("x", Value::Int(3)));
    assert_eq!(replace_allocs, 0);
}

/// A medium whose snapshot holds `n` OO7 atomic keys, each with `value`,
/// and whose log is empty.
fn snapshot_of(n: usize, value: &Value) -> MemMedia {
    let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    engine.begin().unwrap();
    for i in 0..n {
        engine
            .put(&format!("oo7/atomic/{}/{}", i / 48, i % 48), value.clone())
            .unwrap();
    }
    engine.commit().unwrap();
    engine.compact();
    engine.into_media()
}

#[test]
fn opening_a_snapshot_allocates_each_entrys_key_and_bytes() {
    const ENTRIES: usize = 1_000;
    // The bus off: its registry is not the store's to count.
    bus::set_enabled(false);
    let open = |media| StoreEngine::open(media, StoreConfig::default()).unwrap();
    let ints = snapshot_of(ENTRIES, &Value::Int(7));
    let (ints, int_allocs) = counted(|| open(ints));
    let parts = snapshot_of(ENTRIES, &atomic());
    let (engine, open_allocs) = counted(|| open(parts));
    bus::set_enabled(true);
    assert_eq!((engine.len(), ints.len()), (ENTRIES, ENTRIES));
    // The keyspace built from owned keys and bytes, pushed into one
    // vector and bulk-built into the map, as recovery builds it.
    let (copy, reference) = counted(|| {
        let mut entries = Vec::new();
        for (key, bytes) in engine.state() {
            entries.push((key.as_str().to_owned(), Box::<[u8]>::from(&**bytes)));
        }
        BTreeMap::from_iter(entries)
    });
    assert_eq!(&copy, engine.state());
    assert_eq!(open_allocs, reference, "nothing but the keyspace itself");
    // Which is a key and its bytes per entry, and the map's nodes.
    let per_entry = 2 * ENTRIES as u64;
    assert!((per_entry..per_entry + ENTRIES as u64 / 4).contains(&reference));
    // A part's bytes are one allocation, as an int's are: its two
    // vectors are not built.
    assert_eq!(open_allocs, int_allocs);
}

#[test]
fn reading_an_atomic_part_from_the_store_allocates_its_vectors() {
    let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    engine.begin().unwrap();
    engine.put("part", atomic()).unwrap();
    engine.commit().unwrap();
    let (read, allocs) = counted(|| engine.get("part"));
    assert_eq!(read, Some(atomic()));
    assert_eq!(allocs, 2);
}
