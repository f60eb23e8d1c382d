//! What the bus allocates per recorded event, counted by an allocator
//! of this test binary's own: nothing on a full ring, nothing when
//! disabled, exactly the event's text when collection is unbounded, and
//! nothing for a deferred detail, whose text is written only when read.

use rmodp_observe::bus::{self, CollectConfig};
use rmodp_observe::{event, EventKind, Facts, Layer, SpanId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;

thread_local! {
    // Const-initialised `Cell`s need no lazy initialisation and no
    // destructor, so touching them from inside the allocator cannot
    // re-enter it. Per thread: the harness runs tests side by side.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(fresh allocations, in-place growths)` of the calling thread in `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        REALLOCS.with(Cell::get) - before.1,
    )
}

const RING: usize = 64;
const ROUNDS: u64 = 1_000;
const EVENTS_PER_ROUND: u64 = 2;

/// What one instrumented step does: an event on its own span under the
/// caller's context, an event on the context span, a counter, a gauge and
/// a histogram sample in one of four buckets.
fn round(i: u64, span: SpanId) {
    event(Layer::Engineering, EventKind::CallStart)
        .span(span)
        .parent_from_context()
        .channel(7)
        .detail_fmt(format_args!("op=Deposit round={i}"))
        .emit();
    event(Layer::Engineering, EventKind::ChannelHop)
        .in_context()
        .node(1)
        .detail_fmt(format_args!("out:stub#{i}"))
        .emit();
    bus::counter_add("engineering.calls", 1);
    bus::gauge_set("engineering.queue_depth", (i % 7) as i64);
    bus::observe("engineering.call_us", 40 + i % 4);
}

/// A call's `CallEnd` detail, rendered when read.
fn render_call_end(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let ([op, end], [round, _]) = (facts.texts, facts.words);
    write!(f, "op={op} round={round} -> {end}")
}

/// [`round`] with its two events' details deferred, as the call path
/// attaches them.
fn deferred_round(i: u64, span: SpanId) {
    event(Layer::Engineering, EventKind::CallEnd)
        .span(span)
        .channel(7)
        .detail_deferred(
            || Facts {
                words: [i, 0],
                texts: ["Withdraw", "NotToday"],
                ..Facts::default()
            },
            render_call_end,
        )
        .emit();
    event(Layer::Netsim, EventKind::Send)
        .in_context()
        .node(1)
        .detail_deferred(
            || Facts {
                words: [i, 40],
                ..Facts::default()
            },
            |facts, f| write!(f, "-> 0:{} ({} bytes)", facts.words[0], facts.words[1]),
        )
        .emit();
}

/// Starts a bus with the given ring, a context pushed, and enough rounds
/// behind it that the ring is full of buffers at least as long as any
/// later text, every metric name is known and every bucket seen.
fn warmed_up(ring_capacity: Option<usize>) -> SpanId {
    bus::set_collect(CollectConfig {
        ring_capacity,
        sample_denom: None,
    });
    bus::reset();
    bus::set_enabled(true);
    bus::push_context(bus::new_span());
    let span = bus::new_span();
    for i in 0..RING as u64 {
        round(10 * ROUNDS + i, span);
    }
    span
}

#[test]
fn a_full_ring_records_without_allocating() {
    let span = warmed_up(Some(RING));
    let counts = counted(|| (0..ROUNDS).for_each(|i| round(i, span)));
    assert_eq!(counts, (0, 0));
    assert_eq!(bus::event_count(), RING);
    assert_eq!(
        bus::drop_stats().ring_evicted,
        EVENTS_PER_ROUND * (RING as u64 + ROUNDS) - RING as u64
    );
    let last = bus::snapshot_events().pop().expect("a full ring");
    assert_eq!(last.detail, format!("out:stub#{}", ROUNDS - 1));
    assert_eq!(bus::counter("engineering.calls"), RING as u64 + ROUNDS);
}

#[test]
fn a_full_ring_of_deferred_events_records_without_allocating() {
    let span = warmed_up(Some(RING));
    let counts = counted(|| (0..ROUNDS).for_each(|i| deferred_round(i, span)));
    assert_eq!(counts, (0, 0));
    assert_eq!(bus::event_count(), RING);
    let last = bus::snapshot_events().pop().expect("a full ring");
    assert_eq!(last.detail, format!("-> 0:{} (40 bytes)", ROUNDS - 1));
}

#[test]
fn unbounded_deferred_events_allocate_no_text() {
    let span = warmed_up(None);
    let counts = counted(|| (0..ROUNDS).for_each(|i| deferred_round(i, span)));
    assert_eq!(counts.0, 0);
    // What is left is the event queue doubling in place.
    assert!(counts.1 <= 10, "{} growths", counts.1);
    let first = &bus::snapshot_events()[2 * RING];
    assert_eq!(first.detail, "op=Withdraw round=0 -> NotToday");
}

#[test]
fn a_fresh_span_per_round_only_grows_the_span_table_in_place() {
    warmed_up(Some(RING));
    let counts = counted(|| (0..ROUNDS).for_each(|i| round(i, bus::new_span())));
    assert_eq!(counts.0, 0, "no tree node per span");
    // The dense table doubles: log2(ROUNDS) growths at most.
    assert!(counts.1 <= 10, "{} growths", counts.1);
}

#[test]
fn a_disabled_bus_allocates_nothing() {
    let span = warmed_up(Some(RING));
    bus::set_enabled(false);
    let counts = counted(|| (0..ROUNDS).for_each(|i| round(i, span)));
    assert_eq!(counts, (0, 0));
    assert_eq!(bus::drop_stats().ring_evicted, RING as u64);
}

#[test]
fn unbounded_collection_allocates_exactly_one_text_per_event() {
    let span = warmed_up(None);
    let counts = counted(|| (0..ROUNDS).for_each(|i| round(i, span)));
    assert_eq!(counts.0, EVENTS_PER_ROUND * ROUNDS);
    // What is left is the event queue doubling in place.
    assert!(counts.1 <= 10, "{} growths", counts.1);
    assert_eq!(
        bus::event_count() as u64,
        EVENTS_PER_ROUND * (RING as u64 + ROUNDS)
    );
}
