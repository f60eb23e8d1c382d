//! # rmodp-observe — causal tracing and metrics across all five viewpoints
//!
//! The RM-ODP tutorial's central claim is that one system can be
//! described from five viewpoints at once. This crate makes that claim
//! *inspectable at runtime*: every layer of the workspace — the network
//! simulator, the engineering viewpoint's channels and nuclei, the
//! transparency functions, the trader, the transaction service — emits
//! structured events onto one [`bus`], tagged with a causal span, the
//! virtual simulation time, and its node/capsule/channel coordinates.
//!
//! Three things come out of that single stream:
//!
//! * **Traces** — a deterministic JSONL dump ([`export::to_jsonl`],
//!   written by [`json`](mod@json), the workspace's one JSON writer), a
//!   per-node / per-channel [`export::summary_table`], and a causal
//!   [`export::timeline`] in which an invocation's marshalling, channel
//!   hops, retries, and the migration it raced against all nest under
//!   their causal parents.
//! * **Metrics** — a [`metrics::Registry`] of hierarchical counters,
//!   gauges, and sim-time histograms with p50/p95/p99 summaries.
//! * **An oracle** — [`oracle::verify_causality`] checks that the trace
//!   itself is causally sound (every `Deliver` has a preceding `Send`,
//!   the span graph is acyclic, sim time never runs backwards), turning
//!   observability into a correctness check run by the property tests.
//!
//! Determinism is a design constraint, not an afterthought: sequence and
//! span ids are dense counters, time is the simulator's virtual clock,
//! and the exporters use fixed field order — so the same seed yields a
//! byte-identical JSONL trace.
//!
//! The bus is thread-local (the simulation is single-threaded), so
//! emitting requires no handle plumbing and parallel test binaries stay
//! isolated. `Sim::new` resets it; see [`bus::reset`].

pub mod bus;
pub mod event;
pub mod export;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod oracle;

pub use event::{Event, EventBuilder, EventKind, Facts, Layer, Render, SpanId};

/// Shorthand: starts building an event.
#[inline]
pub fn event<'a>(layer: Layer, kind: EventKind) -> EventBuilder<'a> {
    EventBuilder::new(layer, kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_trace_and_export() {
        bus::reset();
        let call = bus::new_span();
        event(Layer::Engineering, EventKind::CallStart)
            .span(call)
            .node(0)
            .detail("op=Add")
            .emit();
        let msg = bus::new_span();
        bus::set_time_us(0);
        event(Layer::Netsim, EventKind::Send)
            .span(msg)
            .parent(call)
            .node(0)
            .emit();
        bus::set_time_us(1500);
        event(Layer::Netsim, EventKind::Deliver)
            .span(msg)
            .parent(call)
            .node(1)
            .emit();
        bus::observe("netsim.delivery_us", 1500);
        event(Layer::Engineering, EventKind::CallEnd)
            .span(call)
            .node(0)
            .emit();
        bus::counter_add("engineering.calls", 1);

        let events = bus::snapshot_events();
        assert_eq!(events.len(), 4);
        assert!(oracle::verify_causality(&events).is_empty());

        let jsonl = export::to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains(r#""kind":"call_start""#));

        let summary = export::summary_table(&events, usize::MAX);
        assert!(summary.contains("events: 4"));

        let tl = export::timeline(&events, usize::MAX);
        assert!(tl.contains("send"));

        let m = bus::snapshot_metrics();
        assert_eq!(m.counter("engineering.calls"), 1);
        assert_eq!(m.histogram("netsim.delivery_us").unwrap().count(), 1);
    }
}
