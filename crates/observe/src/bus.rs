//! The thread-local event bus.
//!
//! Every crate in the workspace emits onto one per-thread bus through
//! free functions, so no plumbing of handles through constructors is
//! needed and there are no dependency cycles. The simulation is
//! single-threaded, which makes "per thread" mean "per simulation" in
//! practice (and keeps parallel test binaries isolated from each other).
//!
//! Determinism: sequence numbers and span ids are dense counters, time
//! comes from the simulator's virtual clock, and nothing reads the wall
//! clock — so the same seed produces a byte-identical event stream.
//! [`reset`] is called by `Sim::new`, giving each simulation a fresh
//! stream.
//!
//! # Bounded collection
//!
//! By default the bus buffers every event — right for tests and small
//! scenarios, wrong for million-invocation runs. [`set_collect`]
//! installs a [`CollectConfig`] with two independent bounds:
//!
//! - **Head-based sampling** (`sample_denom = Some(d)`): each event is
//!   attributed to the *root* of its span's parent chain (the causality
//!   id — one invocation, one migration, one message tree), and only
//!   roots whose hash lands in the 1-in-`d` admitted class are buffered.
//!   The decision is a pure function of the root id, so a kept
//!   invocation keeps **all** its spans and the same seed keeps the same
//!   invocations. Events with no span at all are always kept.
//! - **Ring buffer** (`ring_capacity = Some(n)`): at most `n` events are
//!   buffered; the oldest is evicted as new ones arrive.
//!
//! Both modes count what they discard, once, in [`DropStats`], which
//! [`counter`] and [`snapshot_metrics`] also show as `observe.drop.sampled`
//! / `observe.drop.ring`, so truncation is never silent. Sequence numbers
//! are allocated *before* the sampling decision: a sampled trace is
//! exactly the full trace filtered to the admitted roots, gaps and all.
//! The config survives [`reset`] (like the enabled flag); the drop
//! counters, sampling state, and peak trackers do not.
//!
//! An emit is one flag read when disabled, else one borrow of the bus
//! that decides keep/drop first and settles the text last: format
//! arguments are formatted once, into the buffer of the event the ring
//! evicts; deferred [`Facts`] are copied into the entry and rendered only
//! when [`snapshot_events`] or [`take_events`] reads it, so text the ring
//! throws away is never written. On a full ring an event, a counter, a
//! gauge and a sample in a seen bucket allocate nothing.

use crate::event::{Deferred, Event, EventBuilder, Facts, Pending, Render, SpanId};
use crate::hash::fnv1a;
use crate::metrics::Registry;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

/// Bounds on event collection. Default (`None`/`None`) buffers
/// everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectConfig {
    /// Keep at most this many events, evicting the oldest.
    pub ring_capacity: Option<usize>,
    /// Keep roughly 1 in `d` causal trees (head-based, keyed on the root
    /// span id). `Some(1)` keeps everything; `Some(0)` is treated as 1.
    pub sample_denom: Option<u64>,
}

/// What bounded collection has discarded since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Events rejected by head-based sampling.
    pub sampled_out: u64,
    /// Events evicted by the ring buffer.
    pub ring_evicted: u64,
}

impl DropStats {
    /// The registry counters the two fields are read as.
    fn counters(&self) -> [(&'static str, u64); 2] {
        let sampled = ("observe.drop.sampled", self.sampled_out);
        [sampled, ("observe.drop.ring", self.ring_evicted)]
    }
}

/// A span-to-span map. Ids the bus allocated index a dense vector (0 =
/// none); any other id (`.span(u64::MAX)` is legal) and a link to span 0
/// stay in an ordered map, so no caller-chosen id sizes anything.
#[derive(Debug, Default)]
struct SpanTable {
    dense: Vec<SpanId>,
    foreign: BTreeMap<SpanId, SpanId>,
}

impl SpanTable {
    fn get(&self, span: SpanId) -> Option<SpanId> {
        let dense = usize::try_from(span).ok().and_then(|i| self.dense.get(i));
        let dense = dense.copied().filter(|&to| to != 0);
        dense.or_else(|| self.foreign.get(&span).copied())
    }

    /// Links `span` to `to`; `allocated` is the bus's `next_span`.
    fn set(&mut self, span: SpanId, to: SpanId, allocated: SpanId) {
        if span >= allocated || to == 0 {
            self.foreign.insert(span, to);
        } else {
            let i = span as usize;
            self.dense.resize(self.dense.len().max(i + 1), 0);
            self.dense[i] = to;
        }
    }
}

#[derive(Debug, Default)]
struct BusState {
    collect: CollectConfig,
    now_us: u64,
    next_seq: u64,
    next_span: SpanId,
    context: Vec<SpanId>,
    events: VecDeque<Entry>,
    metrics: Registry,
    drops: DropStats,
    /// First-declared parent of each span (learned from every event,
    /// sampled-out ones included, so late events of a rejected tree
    /// still resolve to the same root).
    parent_of: SpanTable,
    /// Memoised root of each span's parent chain (sampling only).
    root_of: SpanTable,
    cur_bytes: usize,
    peak_bytes: usize,
    peak_events: usize,
}

impl BusState {
    fn fresh() -> Self {
        Self {
            // Span 0 is reserved as "no span" in renderings.
            next_span: 1,
            ..Self::default()
        }
    }

    /// Resolves (and memoises) the root of a span's parent chain: the
    /// first memoised root, parentless span or (defensively) cycle met.
    fn root(&mut self, span: SpanId) -> SpanId {
        let mut chain = Vec::new();
        let mut cur = span;
        let root = loop {
            if let Some(root) = self.root_of.get(cur) {
                break root;
            }
            chain.push(cur);
            match self.parent_of.get(cur) {
                Some(parent) if !chain.contains(&parent) => cur = parent,
                _ => break cur,
            }
        };
        for s in chain {
            self.root_of.set(s, root, self.next_span);
        }
        root
    }
}

thread_local! {
    static BUS: RefCell<BusState> = RefCell::new(BusState::fresh());
    /// Whether the bus records. Kept outside [`BusState`] so the disabled
    /// path of every emit, counter and histogram call is one flag read:
    /// no `RefCell` borrow, no lazy-initialisation check.
    static ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Facts and their renderer as one `Display` value.
struct Rendered<'f, 'a>(&'f Facts<'a>, Render);

impl fmt::Display for Rendered<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.1)(self.0, f)
    }
}

/// Formats `args` into `text` (empty), or, when `text` has no buffer to
/// reuse, into a string `fmt::format` sizes.
fn format_into(mut text: String, args: fmt::Arguments<'_>) -> String {
    if text.capacity() == 0 {
        return fmt::format(args);
    }
    text.write_fmt(args).expect("a Display impl failed");
    text
}

/// One buffered event. With a deferred detail, `event.detail` is empty:
/// a spare buffer the next eager text can reuse.
#[derive(Debug, Clone)]
struct Entry {
    event: Event,
    deferred: Option<Deferred>,
}

impl Entry {
    /// The event as a reader sees it, its deferred detail rendered.
    fn into_event(self) -> Event {
        let mut event = self.event;
        if let Some(d) = self.deferred {
            let args = format_args!("{}", Rendered(&d.facts(), d.render));
            event.detail = format_into(std::mem::take(&mut event.detail), args);
        }
        event
    }
}

/// The approximate buffered size of one event: the entry itself, inline
/// facts included, plus its formatted detail (a deferred one has none
/// until read). The unit of [`peak_trace_bytes`].
fn approx_event_bytes(e: &Entry) -> usize {
    std::mem::size_of::<Entry>() + e.event.detail.len()
}

/// Whether head-based sampling at 1-in-`denom` admits the causal tree
/// rooted at `root`: FNV-1a over the root span id, modulo `denom`. Pure:
/// `pure_filters` below predicts exactly which invocations a sampled run
/// kept.
fn sample_admits(root: SpanId, denom: u64) -> bool {
    fnv1a(&root.to_le_bytes()).is_multiple_of(denom.max(1))
}

/// Clears the bus: events, metrics, counters, clock, drop counters,
/// sampling state, peak trackers. Called by `Sim::new` so each
/// simulation starts a fresh deterministic stream. The enabled/disabled
/// setting and the [`CollectConfig`] survive the reset, so a benchmark
/// that turned recording off (or sampling on) keeps that setting across
/// simulation rebuilds.
pub fn reset() {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        let collect = s.collect;
        *s = BusState::fresh();
        s.collect = collect;
    });
}

/// Enables or disables recording. Disabled recording costs one
/// thread-local flag read per event, counter or histogram call: nothing
/// is formatted and nothing is allocated (see
/// [`EventBuilder::detail_fmt`]). Span allocation still works (ids keep
/// advancing) so code paths do not branch on the setting.
pub fn set_enabled(enabled: bool) {
    ENABLED.with(|e| e.set(enabled));
}

/// Whether the bus is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Installs collection bounds (see the module docs). Takes effect for
/// subsequent events; already-buffered events stay. Survives [`reset`].
pub fn set_collect(config: CollectConfig) {
    BUS.with(|b| b.borrow_mut().collect = config);
}

/// What bounded collection has discarded since the last [`reset`].
pub fn drop_stats() -> DropStats {
    BUS.with(|b| b.borrow().drops)
}

/// High-water mark of buffered events since the last [`reset`].
pub fn peak_trace_events() -> usize {
    BUS.with(|b| b.borrow().peak_events)
}

/// High-water mark of approximate buffered bytes since the last
/// [`reset`] (see `approx_event_bytes`).
pub fn peak_trace_bytes() -> usize {
    BUS.with(|b| b.borrow().peak_bytes)
}

/// Advances the bus's virtual clock (microseconds). Called by the
/// simulator as it processes the event queue.
pub fn set_time_us(t_us: u64) {
    BUS.with(|b| b.borrow_mut().now_us = t_us);
}

/// The bus's current virtual time in microseconds.
pub fn now_us() -> u64 {
    BUS.with(|b| b.borrow().now_us)
}

/// Pushes a span onto the causal context stack: spans allocated while it
/// is on top get it as their parent. The simulator pushes a message's
/// span around its handler so replies are causally linked; the engine
/// pushes an invocation's span around the whole call.
pub fn push_context(span: SpanId) {
    BUS.with(|b| b.borrow_mut().context.push(span));
}

/// Pops the causal context stack (no-op if empty).
pub fn pop_context() {
    BUS.with(|b| {
        b.borrow_mut().context.pop();
    });
}

/// The span on top of the causal context stack, if any.
pub fn current_context() -> Option<SpanId> {
    BUS.with(|b| b.borrow().context.last().copied())
}

/// Allocates a fresh causal span id.
pub fn new_span() -> SpanId {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        let id = s.next_span;
        s.next_span += 1;
        id
    })
}

/// Records an event built by [`EventBuilder`] (which has already checked
/// that the bus is recording); returns its sequence number, or `None`
/// if sampling discarded it.
// Inlined into each `emit`, so the builder is not copied into an argument
// and each site's detail form is known there: a loop of one call's
// sixteen deferred events ran ~600 → ~500 ns (EXPERIMENTS §E18).
#[inline]
pub(crate) fn record(builder: EventBuilder<'_>) -> Option<u64> {
    BUS.with(|b| {
        let s = &mut *b.borrow_mut();
        let ctx = |wanted: bool| s.context.last().copied().filter(|_| wanted);
        let mut event = builder.event;
        event.span = event.span.or_else(|| ctx(builder.span_from_context));
        event.parent = event.parent.or_else(|| ctx(builder.parent_from_context));
        // Learn the span's parent link before any keep/drop decision, so
        // every later event of this tree resolves to the same root.
        if let (Some(span), Some(parent)) = (event.span, event.parent) {
            if s.parent_of.get(span).is_none() {
                s.parent_of.set(span, parent, s.next_span);
            }
        }
        // Sequence numbers are allocated unconditionally: a sampled
        // trace is the full trace filtered, gaps and all.
        let seq = s.next_seq;
        s.next_seq += 1;
        (event.seq, event.t_us) = (seq, s.now_us);
        if let Some(denom) = s.collect.sample_denom {
            if let Some(key) = event.span.or(event.parent) {
                let root = s.root(key);
                if !sample_admits(root, denom) {
                    s.drops.sampled_out += 1;
                    return None;
                }
            }
        }
        // Make room first: a kept event's text is written into the buffer
        // the evicted one leaves behind, so a full ring allocates nothing.
        let cap = s.collect.ring_capacity.map_or(usize::MAX, |cap| cap.max(1));
        let mut text = String::new();
        while s.events.len() >= cap {
            let old = s.events.pop_front().expect("len >= cap >= 1");
            s.cur_bytes -= approx_event_bytes(&old);
            s.drops.ring_evicted += 1;
            text = old.event.detail;
        }
        text.clear();
        let mut deferred = None;
        match builder.pending {
            Some(Pending::Fmt(args)) => event.detail = format_into(text, args),
            Some(Pending::Deferred(kept)) => (deferred, event.detail) = (Some(kept), text),
            Some(Pending::Long(facts, render)) => {
                let args = format_args!("{}", Rendered(&facts, render));
                event.detail = format_into(text, args);
            }
            None if event.detail.is_empty() => event.detail = text,
            None => {}
        }
        let entry = Entry { event, deferred };
        s.cur_bytes += approx_event_bytes(&entry);
        s.events.push_back(entry);
        s.peak_events = s.peak_events.max(s.events.len());
        s.peak_bytes = s.peak_bytes.max(s.cur_bytes);
        Some(seq)
    })
}

/// Number of events buffered right now.
pub fn event_count() -> usize {
    BUS.with(|b| b.borrow().events.len())
}

/// A copy of every buffered event, in emission order, deferred details
/// rendered.
pub fn snapshot_events() -> Vec<Event> {
    let entries: Vec<Entry> = BUS.with(|b| b.borrow().events.iter().cloned().collect());
    entries.into_iter().map(Entry::into_event).collect()
}

/// Removes and returns every buffered event, deferred details rendered.
pub fn take_events() -> Vec<Event> {
    let entries = BUS.with(|b| {
        let mut s = b.borrow_mut();
        s.cur_bytes = 0;
        std::mem::take(&mut s.events)
    });
    entries.into_iter().map(Entry::into_event).collect()
}

/// Adds to a counter in the bus's metrics registry.
pub fn counter_add(name: &str, v: u64) {
    if is_enabled() {
        BUS.with(|b| b.borrow_mut().metrics.counter_add(name, v));
    }
}

/// Sets a gauge in the bus's metrics registry.
pub fn gauge_set(name: &str, v: i64) {
    if is_enabled() {
        BUS.with(|b| b.borrow_mut().metrics.gauge_set(name, v));
    }
}

/// Records a histogram sample (typically sim-time microseconds).
pub fn observe(name: &str, v: u64) {
    if is_enabled() {
        BUS.with(|b| b.borrow_mut().metrics.observe(name, v));
    }
}

/// A copy of the metrics registry, [`DropStats`]' two counters included.
pub fn snapshot_metrics() -> Registry {
    BUS.with(|b| {
        let s = b.borrow();
        let mut metrics = s.metrics.clone();
        for (name, n) in s.drops.counters().into_iter().filter(|c| c.1 > 0) {
            metrics.counter_add(name, n);
        }
        metrics
    })
}

/// Reads one counter (0 if absent), as [`snapshot_metrics`] would show it.
pub fn counter(name: &str) -> u64 {
    BUS.with(|b| {
        let s = b.borrow();
        let dropped = s.drops.counters().into_iter().find(|c| c.0 == name);
        s.metrics.counter(name) + dropped.map_or(0, |c| c.1)
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventBuilder, EventKind, Layer, INLINE};

    /// Restores default collection after a test that bounds it.
    fn unbounded() {
        set_collect(CollectConfig::default());
        reset();
    }

    #[test]
    fn bus_records_in_order_with_dense_seq() {
        unbounded();
        set_time_us(5);
        let s1 = new_span();
        EventBuilder::new(Layer::Netsim, EventKind::Send)
            .span(s1)
            .node(0)
            .detail("a")
            .emit();
        set_time_us(9);
        EventBuilder::new(Layer::Netsim, EventKind::Deliver)
            .span(s1)
            .node(1)
            .emit();
        let evs = snapshot_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].t_us, 5);
        assert_eq!(evs[1].t_us, 9);
        assert_eq!(evs[0].span, Some(s1));
    }

    #[test]
    fn disabled_bus_drops_events_and_metrics() {
        unbounded();
        set_enabled(false);
        assert!(!is_enabled());
        EventBuilder::new(Layer::Application, EventKind::Note).emit();
        counter_add("c", 1);
        observe("h", 1);
        assert_eq!(event_count(), 0);
        assert_eq!(counter("c"), 0);
        set_enabled(true);
        EventBuilder::new(Layer::Application, EventKind::Note).emit();
        assert_eq!(event_count(), 1);
    }

    /// A `Display` argument that counts how often it is formatted.
    struct Counted<'a>(&'a Cell<u32>, SpanId);

    impl std::fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.set(self.0.get() + 1);
            write!(f, "root {}", self.1)
        }
    }

    #[test]
    fn detail_is_formatted_once_for_a_kept_event_and_never_for_a_dropped_one() {
        unbounded();
        let runs = Cell::new(0u32);
        let emit = |root: SpanId| {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .span(root)
                .detail_fmt(format_args!("{}", Counted(&runs, root)))
                .emit()
        };
        set_enabled(false);
        assert_eq!(emit(new_span()), None);
        assert_eq!(runs.get(), 0, "a disabled bus formats nothing");
        set_enabled(true);
        assert_eq!(emit(new_span()), Some(0));
        assert_eq!(runs.get(), 1);
        assert_eq!(snapshot_events()[0].detail, "root 2");

        // Under 1/N sampling the keep/drop decision comes first: only
        // the kept events are formatted.
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(4),
        });
        reset();
        runs.set(0);
        let kept = (0..32).filter(|_| emit(new_span()).is_some()).count();
        assert!(kept > 0 && kept < 32, "kept {kept} of 32");
        assert_eq!(runs.get() as usize, kept);
        assert_eq!(drop_stats().sampled_out as usize, 32 - kept);

        // A full ring formats each event once, into a recycled buffer.
        set_collect(CollectConfig {
            ring_capacity: Some(2),
            sample_denom: None,
        });
        reset();
        runs.set(0);
        for _ in 0..8 {
            emit(new_span());
        }
        assert_eq!(runs.get(), 8);
        assert_eq!(snapshot_events()[1].detail, "root 8");
        unbounded();
    }

    thread_local! {
        /// How often [`render_counted`] has run on this thread.
        static RENDERS: Cell<u32> = const { Cell::new(0) };
    }

    /// A renderer that counts its runs; [`eager`] writes the same text.
    fn render_counted(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        RENDERS.with(|r| r.set(r.get() + 1));
        let ([op, end], [n, len]) = (facts.texts, facts.words);
        write!(f, "{}op={op} #{n} -> {end} ({len} bytes)", facts.name)
    }

    fn renders() -> u32 {
        RENDERS.with(Cell::get)
    }

    /// Names to draw from: empty, short, multi-byte.
    const NAMES: [&str; 6] = ["", "Deposit", "Überweisung", "NotToday", "GetBalance", "x"];

    /// The names of event `i`: two of [`NAMES`], or exactly [`INLINE`]
    /// bytes, or too long to keep inline (`i % 8 == 7`).
    fn names(i: u64) -> [&'static str; 2] {
        let long: &'static str = "AnOperationNameTooLongToKeepInline";
        match i % 8 {
            6 => [&long[..INLINE], ""],
            7 => [long, "OK"],
            _ => [NAMES[i as usize % 6], NAMES[(i as usize + 1) % 6]],
        }
    }

    /// The static name of event `i`: none, or a prefix.
    fn label(i: u64) -> &'static str {
        ["", "in:"][i as usize % 2]
    }

    fn deferred(i: u64) -> Option<u64> {
        EventBuilder::new(Layer::Engineering, EventKind::CallEnd)
            .span(i + 1)
            .detail_deferred(
                || Facts {
                    words: [i, 3 * i],
                    name: label(i),
                    texts: names(i),
                },
                render_counted,
            )
            .emit()
    }

    fn eager(i: u64) -> Option<u64> {
        let ([op, end], name) = (names(i), label(i));
        EventBuilder::new(Layer::Engineering, EventKind::CallEnd)
            .span(i + 1)
            .detail_fmt(format_args!(
                "{name}op={op} #{i} -> {end} ({} bytes)",
                3 * i
            ))
            .emit()
    }

    /// Records 40 events, each on its own root span, under `collect`.
    fn record_40(collect: CollectConfig, emit: fn(u64) -> Option<u64>) {
        set_collect(collect);
        reset();
        (0..40).for_each(|i| {
            emit(i);
        });
    }

    #[test]
    fn deferred_text_reads_as_the_eager_text_after_eviction_snapshots_and_take() {
        unbounded();
        record_40(CollectConfig::default(), eager);
        let full = snapshot_events();
        assert!(full.iter().any(|e| e.detail.contains('Ü')));
        let ring = CollectConfig {
            ring_capacity: Some(9),
            sample_denom: None,
        };
        record_40(ring, eager);
        assert_eq!(snapshot_events(), full[31..]);

        RENDERS.with(|r| r.set(0));
        record_40(ring, deferred);
        // Only names too long to keep inline are rendered when recorded:
        // events 7, 15, 23, 31 and 39 (`i % 8 == 7`).
        assert_eq!(renders(), 5);
        assert_eq!(drop_stats().ring_evicted, 31);
        assert_eq!(snapshot_events(), full[31..]);
        assert_eq!(
            snapshot_events(),
            full[31..],
            "a second read renders the same"
        );
        // Each read renders the 7 deferred details the ring holds.
        assert_eq!(renders(), 5 + 2 * 7);
        assert_eq!(take_events(), full[31..]);
        assert_eq!(renders(), 5 + 3 * 7);

        record_40(CollectConfig::default(), deferred);
        assert_eq!(take_events(), full);
        unbounded();
    }

    #[test]
    fn a_deferred_detail_is_rendered_only_for_a_kept_event_when_read() {
        unbounded();
        let built = Cell::new(0u32);
        let emit = |i: u64| {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .span(new_span())
                .detail_deferred(
                    || {
                        built.set(built.get() + 1);
                        Facts {
                            words: [i, 0],
                            texts: ["op", "OK"],
                            ..Facts::default()
                        }
                    },
                    render_counted,
                )
                .emit()
        };
        RENDERS.with(|r| r.set(0));
        set_enabled(false);
        assert_eq!(emit(0), None);
        assert_eq!(built.get(), 0, "a disabled bus builds no facts");
        set_enabled(true);

        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(4),
        });
        reset();
        let kept = (0..32).filter(|&i| emit(i).is_some()).count();
        assert!(kept > 0 && kept < 32, "kept {kept} of 32");
        assert_eq!(built.get(), 32, "facts are built before sampling decides");
        assert_eq!(renders(), 0, "nothing is rendered when recorded");
        assert_eq!(snapshot_events().len(), kept);
        assert_eq!(
            renders() as usize,
            kept,
            "a dropped event is never rendered"
        );
        unbounded();
    }

    #[test]
    fn reset_restarts_spans_and_seq() {
        unbounded();
        let a = new_span();
        reset();
        let b = new_span();
        assert_eq!(a, b);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: Some(3),
            sample_denom: None,
        });
        for i in 0..10 {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .detail_fmt(format_args!("e{i}"))
                .emit();
        }
        let evs = snapshot_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].detail, "e7");
        assert_eq!(evs[2].detail, "e9");
        assert_eq!(drop_stats().ring_evicted, 7);
        assert_eq!(counter("observe.drop.ring"), 7);
        assert!(peak_trace_events() <= 4);
        unbounded();
    }

    #[test]
    fn sampling_keeps_whole_trees_and_counts_drops() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(4),
        });
        let mut kept_roots = Vec::new();
        for _ in 0..64 {
            let root = new_span();
            EventBuilder::new(Layer::Engineering, EventKind::CallStart)
                .span(root)
                .emit();
            let child = new_span();
            EventBuilder::new(Layer::Netsim, EventKind::Send)
                .span(child)
                .parent(root)
                .emit();
            if sample_admits(root, 4) {
                kept_roots.push(root);
            }
        }
        let evs = snapshot_events();
        // Every buffered event belongs to an admitted tree, and admitted
        // trees are complete (both events present).
        assert_eq!(evs.len(), kept_roots.len() * 2);
        assert!(!kept_roots.is_empty());
        assert!(drop_stats().sampled_out > 0);
        assert_eq!(
            drop_stats().sampled_out + evs.len() as u64,
            128,
            "every event is either kept or counted"
        );
        assert_eq!(counter("observe.drop.sampled"), drop_stats().sampled_out);
        unbounded();
    }

    #[test]
    fn a_span_the_bus_did_not_allocate_never_sizes_the_span_tables() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(2),
        });
        let (a, b) = (new_span(), new_span());
        // (span, parent): ids far beyond any the bus handed out, a span
        // that is its own parent, a second parent for it (the first
        // wins), a parent above its span, a two-span cycle, links to 0.
        let links = [
            (u64::MAX, a),
            (u64::MAX - 1, u64::MAX),
            (a, a),
            (a, b),
            (b, 1 << 40),
            (1 << 40, b),
            (b + 1, 0),
            (0, u64::MAX),
        ];
        for (span, parent) in links {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .span(span)
                .parent(parent)
                .emit();
        }
        assert_eq!(
            event_count() as u64 + drop_stats().sampled_out,
            links.len() as u64
        );
        BUS.with(|bus| {
            let s = bus.borrow();
            for table in [&s.parent_of, &s.root_of] {
                assert!(table.dense.len() as u64 <= s.next_span, "{table:?}");
                assert!(table.foreign.len() <= links.len());
            }
            assert_eq!(s.parent_of.get(u64::MAX), Some(a));
            assert_eq!(s.parent_of.get(a), Some(a), "the first parent wins");
            assert_eq!(s.parent_of.get(b + 1), Some(0));
            assert_eq!(s.parent_of.dense, [u64::MAX, a, 1 << 40]);
            assert_eq!(s.root_of.get(u64::MAX - 1), Some(a));
        });
        unbounded();
    }

    #[test]
    fn sampled_trace_is_filtered_full_trace() {
        // Run the same emission twice: once unbounded, once sampled.
        // The sampled stream must equal the full stream filtered to
        // admitted roots — same seqs, same times, same payloads.
        let emit_all = || {
            for i in 0..32u64 {
                set_time_us(i * 10);
                let root = new_span();
                EventBuilder::new(Layer::Engineering, EventKind::CallStart)
                    .span(root)
                    .detail_fmt(format_args!("call{i}"))
                    .emit();
                let msg = new_span();
                EventBuilder::new(Layer::Netsim, EventKind::Send)
                    .span(msg)
                    .parent(root)
                    .emit();
            }
        };
        unbounded();
        emit_all();
        let full = snapshot_events();
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(4),
        });
        reset();
        emit_all();
        let sampled = snapshot_events();
        unbounded();

        let parent_of: std::collections::BTreeMap<u64, u64> = full
            .iter()
            .filter_map(|e| Some((e.span?, e.parent?)))
            .collect();
        let root_of = |mut s: u64| {
            while let Some(&p) = parent_of.get(&s) {
                s = p;
            }
            s
        };
        let expected: Vec<_> = full
            .iter()
            .filter(|e| e.span.is_none_or(|s| sample_admits(root_of(s), 4)))
            .cloned()
            .collect();
        assert_eq!(sampled, expected);
        assert!(sampled.len() < full.len());
    }

    #[test]
    fn reset_clears_drop_stats_and_peaks_but_keeps_config() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: Some(1),
            sample_denom: Some(2),
        });
        let emit_eight = || {
            for _ in 0..8 {
                let s = new_span();
                EventBuilder::new(Layer::Application, EventKind::Note)
                    .span(s)
                    .emit();
            }
        };
        emit_eight();
        assert_ne!(drop_stats(), DropStats::default());
        reset();
        assert_eq!(drop_stats(), DropStats::default());
        assert_eq!(peak_trace_events(), 0);
        assert_eq!(peak_trace_bytes(), 0);
        emit_eight();
        assert_ne!(
            drop_stats(),
            DropStats::default(),
            "config survives reset like the enabled flag"
        );
        unbounded();
    }

    #[test]
    fn peak_bytes_tracks_high_water_not_current() {
        unbounded();
        for i in 0..10 {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .detail_fmt(format_args!("event number {i}"))
                .emit();
        }
        let peak = peak_trace_bytes();
        assert!(peak > 0);
        let taken = take_events();
        assert_eq!(taken.len(), 10);
        assert_eq!(event_count(), 0);
        assert_eq!(peak_trace_bytes(), peak, "peak survives take_events");
    }
}

/// Bounded collection is a pure filter of the unbounded stream: whatever
/// a run emits, a ring of capacity `c` holds exactly the last `c` events
/// of the same run collected unbounded, and 1-in-`d` sampling holds
/// exactly the events whose root it admits. Texts run from 0 to 200 bytes
/// so a recycled buffer is both longer and shorter than what it takes, and
/// a deferred detail is kept inline or rendered at once.
#[cfg(test)]
mod pure_filters {
    use crate::bus::{self, sample_admits, CollectConfig};
    use crate::export::to_jsonl;
    use crate::{event, Event, EventKind, Facts, Layer, SpanId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt;

    /// Text to cut details from: 400 bytes, varied enough that a stale byte
    /// left in a recycled buffer shows.
    fn text() -> String {
        (0..400u32)
            .map(|i| char::from(b'a' + (i * i % 26) as u8))
            .collect()
    }

    /// One step of a script: `(kind, a, b, len)`, read by [`run`].
    type Op = (u8, u64, u64, usize);

    /// Plays a script on a fresh bus under `collect`; returns what it holds.
    ///
    /// Kinds 0–3 move the clock, allocate a span, push one on the context
    /// stack and pop it; every other kind emits an event whose span and
    /// parent are each absent or drawn (by `a`, `b`) from the spans so far —
    /// four of which the bus never allocated — so cycles, self-parents and
    /// parents above their spans all occur.
    fn run(script: &[Op], collect: CollectConfig) -> Vec<Event> {
        bus::set_collect(collect);
        bus::reset();
        bus::set_enabled(true);
        let mut spans: Vec<SpanId> = vec![u64::MAX, 1 << 40, 0, 7];
        let text = text();
        let mut now = 0;
        for &(kind, a, b, len) in script {
            let pick = |x: u64| {
                let i = (x % (spans.len() as u64 + 1)) as usize;
                spans.get(i).copied()
            };
            match kind {
                0 => {
                    now += a % 1_000;
                    bus::set_time_us(now);
                }
                1 => spans.push(bus::new_span()),
                2 => bus::push_context(pick(a).unwrap_or(1)),
                3 => bus::pop_context(),
                _ => {
                    let mut e = event(Layer::Engineering, EventKind::Note).node(a % 3);
                    if let Some(span) = pick(a) {
                        e = e.span(span);
                    }
                    if let Some(parent) = pick(b) {
                        e = e.parent(parent);
                    }
                    if kind & 1 == 1 {
                        e = e.in_context();
                    }
                    if kind & 2 == 2 {
                        e = e.parent_from_context();
                    }
                    let from = (b % 200) as usize;
                    let detail = &text[from..from + len];
                    let (head, tail) = detail.split_at(len / 2);
                    let facts = || Facts {
                        texts: [head, tail],
                        ..Facts::default()
                    };
                    match a % 4 {
                        0 => e.emit(),
                        1 => e.detail(detail).emit(),
                        2 => e.detail_fmt(format_args!("{detail}")).emit(),
                        _ => e.detail_deferred(facts, render_parts).emit(),
                    };
                }
            }
        }
        bus::snapshot_events()
    }

    /// A deferred detail: its two names, joined (one is too long to keep
    /// inline whenever they total more than 22 bytes).
    fn render_parts(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [head, tail] = facts.texts;
        write!(f, "{head}{tail}")
    }

    /// The keep/drop decision as the bus made it on ordered maps: the
    /// first-declared parent of each span, roots memoised when first asked.
    #[derive(Default)]
    struct Sampler {
        parent_of: BTreeMap<SpanId, SpanId>,
        root_of: BTreeMap<SpanId, SpanId>,
    }

    impl Sampler {
        fn admits(&mut self, e: &Event, denom: u64) -> bool {
            if let (Some(span), Some(parent)) = (e.span, e.parent) {
                self.parent_of.entry(span).or_insert(parent);
            }
            e.span
                .or(e.parent)
                .is_none_or(|key| sample_admits(self.root(key), denom))
        }

        fn root(&mut self, span: SpanId) -> SpanId {
            if let Some(&r) = self.root_of.get(&span) {
                return r;
            }
            let mut chain = vec![span];
            let mut cur = span;
            while let Some(&p) = self.parent_of.get(&cur) {
                if let Some(&r) = self.root_of.get(&p) {
                    cur = r;
                    break;
                }
                if chain.contains(&p) {
                    break;
                }
                chain.push(p);
                cur = p;
            }
            for s in chain {
                self.root_of.insert(s, cur);
            }
            cur
        }
    }

    fn last(events: &[Event], n: usize) -> &[Event] {
        &events[events.len().saturating_sub(n)..]
    }

    proptest! {
        #[test]
        fn ring_and_sampling_are_pure_filters_of_the_unbounded_stream(
            script in proptest::collection::vec((0u8..12, any::<u64>(), any::<u64>(), 0usize..=200), 0..160),
            cap in 1usize..64,
            denom in 1u64..6,
        ) {
            let full = run(&script, CollectConfig::default());
            prop_assert_eq!(bus::drop_stats(), bus::DropStats::default());

            let ring = run(&script, CollectConfig { ring_capacity: Some(cap), sample_denom: None });
            prop_assert_eq!(&ring[..], last(&full, cap));
            prop_assert_eq!(to_jsonl(&ring), to_jsonl(last(&full, cap)));
            prop_assert_eq!(bus::drop_stats().ring_evicted as usize, full.len() - ring.len());
            prop_assert_eq!(bus::counter("observe.drop.ring") as usize, full.len() - ring.len());

            let mut sampler = Sampler::default();
            let admitted: Vec<Event> =
                full.iter().filter(|e| sampler.admits(e, denom)).cloned().collect();
            let sampled = run(&script, CollectConfig { ring_capacity: None, sample_denom: Some(denom) });
            prop_assert_eq!(&sampled, &admitted);
            prop_assert_eq!(to_jsonl(&sampled), to_jsonl(&admitted));
            prop_assert_eq!(bus::drop_stats().sampled_out as usize, full.len() - admitted.len());

            let both = run(&script, CollectConfig { ring_capacity: Some(cap), sample_denom: Some(denom) });
            prop_assert_eq!(&both[..], last(&admitted, cap));
            bus::set_collect(CollectConfig::default());
        }
    }
}
