//! What an OO7 atomic part costs the allocator on the paths every update
//! batch and every recovery takes, counted by an allocator of this test
//! binary's own: a passing schema check allocates nothing, and decoding,
//! building or cloning the part allocates its two vectors — the record's
//! and the connection list's — and nothing per field name.

use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::value::Value;
use rmodp_store::Oo7Schemas;
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
