//! A counting global allocator.
//!
//! Counting is gated by one static ([`SCOPES`]): while no [`counting`]
//! scope is open the hot path is a relaxed load and a branch, so the
//! untraced end-to-end runs pay nothing measurable. Counts are kept per
//! thread, which makes them exact for the single-threaded passes this
//! harness times (and keeps parallel unit tests from polluting each
//! other).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of open [`counting`] scopes, process-wide. A statistic gate,
/// not a publication of other data, hence `Relaxed`.
static SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised `Cell`s need no lazy initialisation and no
    // destructor, so touching them from inside the allocator cannot
    // re-enter it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// What one [`counting`] scope saw on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// The allocator installed by `main.rs`: `System` plus the counters.
pub struct Counting;

#[inline]
fn note(size: usize) {
    if SCOPES.load(Ordering::Relaxed) != 0 {
        // `try_with` because the allocator is still called while a
        // thread's locals are being torn down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting switched on and returns what the calling
/// thread allocated meanwhile.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    SCOPES.fetch_add(1, Ordering::Relaxed);
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let result = f();
    let counts = AllocCounts {
        allocs: ALLOCS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
    };
    SCOPES.fetch_sub(1, Ordering::Relaxed);
    (result, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_a_scope() {
        let (_, counts) = counting(|| {
            let v: Vec<u64> = Vec::with_capacity(100);
            std::hint::black_box(v);
        });
        assert_eq!(counts.allocs, 1);
        assert_eq!(counts.bytes, 800);
        // Outside a scope of this thread nothing is attributed to it.
        let before = ALLOCS.with(Cell::get);
        if SCOPES.load(Ordering::Relaxed) == 0 {
            std::hint::black_box(vec![1u8; 64]);
            assert_eq!(ALLOCS.with(Cell::get), before);
        }
    }
}
