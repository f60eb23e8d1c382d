//! # rmodp-profile — critical-path analysis over the observability stream
//!
//! The tutorial makes monitoring a first-class function of the
//! infrastructure; PR 2's event bus records *what happened*, and this
//! crate answers *where the time went*. [`analyze`] walks the span graph
//! of every completed invocation in a trace and attributes its
//! end-to-end virtual-time latency to named segments:
//!
//! | segment          | meaning                                             |
//! |------------------|-----------------------------------------------------|
//! | `marshal`        | client-side stack traversal before the first send   |
//! | `link.request`   | request frame in flight                             |
//! | `queue.wait`     | parked in the server's admission queue              |
//! | `server.service` | server-side dispatch and execution                  |
//! | `link.reply`     | reply frame in flight                               |
//! | `reply.path`     | reply delivered but not yet collected by the caller |
//! | `retry.wait`     | client waiting out a loss: timeout and backoff      |
//!
//! The attribution is **exact by construction**: segments partition the
//! interval from `CallStart` to `CallEnd`, with boundaries at the
//! trace's own milestone events, so their sum always equals the observed
//! latency — the property tests assert it for every invocation in every
//! scenario. Outputs are deterministic (same trace, same bytes):
//! [`folded_stacks`] renders flamegraph-compatible folded lines and
//! [`attribution_table`] a per-operation breakdown.

use rmodp_observe::event::{Event, EventKind, Layer, SpanId};
use std::collections::{BTreeMap, BTreeSet};

/// The fixed segment vocabulary, in display order.
pub const SEGMENTS: [&str; 7] = [
    "marshal",
    "link.request",
    "queue.wait",
    "server.service",
    "link.reply",
    "reply.path",
    "retry.wait",
];

/// Where one invocation's virtual time went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationProfile {
    /// The invocation's call span.
    pub span: SpanId,
    /// Operation name, parsed from the `CallStart` detail.
    pub op: String,
    /// Channel the call travelled on, if recorded.
    pub channel: Option<u64>,
    /// `CallStart` virtual time, µs.
    pub start_us: u64,
    /// `CallEnd` virtual time, µs.
    pub end_us: u64,
    /// Outcome, parsed from the `CallEnd` detail (termination name or
    /// `error: …`).
    pub outcome: String,
    /// Microseconds attributed to each segment, keyed by [`SEGMENTS`]
    /// order; zero-valued segments are included so rows align.
    pub segments: Vec<(&'static str, u64)>,
}

impl InvocationProfile {
    /// End-to-end virtual-time latency, µs.
    fn total_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Sum of attributed segments — equals `total_us` by construction.
    pub fn segment_sum(&self) -> u64 {
        self.segments.iter().map(|&(_, v)| v).sum()
    }

    /// Microseconds attributed to one segment (0 if unknown name).
    pub fn segment(&self, name: &str) -> u64 {
        self.segments
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Parses `op=NAME …` details.
fn parse_op(detail: &str) -> String {
    detail
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("op="))
        .unwrap_or("?")
        .to_owned()
}

/// Parses the outcome from `op=NAME -> OUTCOME` details.
fn parse_outcome(detail: &str) -> String {
    match detail.split_once("-> ") {
        Some((_, rest)) => rest.to_owned(),
        None => String::new(),
    }
}

/// Profiles every completed invocation (a span with both `CallStart` and
/// `CallEnd`) in the trace, in start order. Invocations still in flight
/// at the end of the trace are skipped — they have no end to attribute
/// to. On a sampled trace this simply profiles the invocations the
/// sampler kept; head-based sampling keeps whole trees, so each kept
/// profile is identical to its unsampled counterpart.
pub fn analyze(events: &[Event]) -> Vec<InvocationProfile> {
    // Span → first-declared parent, and span → events (by index).
    let mut parent_of: BTreeMap<SpanId, SpanId> = BTreeMap::new();
    let mut events_of: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(span) = e.span {
            events_of.entry(span).or_default().push(i);
            if let Some(parent) = e.parent {
                parent_of.entry(span).or_insert(parent);
            }
        }
    }
    // Message spans: allocated by the network at send time, so their
    // first event is a netsim Send or Drop.
    let is_message_span = |span: SpanId| -> bool {
        events_of.get(&span).is_some_and(|idxs| {
            idxs.first().is_some_and(|&i| {
                events[i].layer == Layer::Netsim
                    && matches!(events[i].kind, EventKind::Send | EventKind::Drop)
            })
        })
    };
    // Children of each span, for request/reply discovery.
    let mut children_of: BTreeMap<SpanId, Vec<SpanId>> = BTreeMap::new();
    for (&span, &parent) in &parent_of {
        children_of.entry(parent).or_default().push(span);
    }

    let mut profiles = Vec::new();
    for (&call_span, idxs) in &events_of {
        let start = idxs
            .iter()
            .map(|&i| &events[i])
            .find(|e| e.kind == EventKind::CallStart);
        let end = idxs
            .iter()
            .map(|&i| &events[i])
            .find(|e| e.kind == EventKind::CallEnd);
        let (Some(start), Some(end)) = (start, end) else {
            continue;
        };

        // Request messages: message spans parented directly on the call;
        // replies: message spans parented on a request message. (A
        // nested call's spans parent on the nested call span, so they
        // never leak into this invocation's attribution.)
        let request_spans: BTreeSet<SpanId> = children_of
            .get(&call_span)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&s| is_message_span(s))
            .collect();
        let reply_spans: BTreeSet<SpanId> = request_spans
            .iter()
            .filter_map(|s| children_of.get(s))
            .flatten()
            .copied()
            .filter(|&s| is_message_span(s))
            .collect();

        // Member events in emission order, bounded by the call's own
        // lifetime (a late duplicate reply lands after CallEnd and must
        // not perturb the attribution).
        let mut member: Vec<&Event> = Vec::new();
        for &s in std::iter::once(&call_span)
            .chain(request_spans.iter())
            .chain(reply_spans.iter())
        {
            member.extend(
                events_of[&s]
                    .iter()
                    .map(|&i| &events[i])
                    .filter(|e| e.seq >= start.seq && e.seq <= end.seq),
            );
        }
        member.sort_by_key(|e| e.seq);

        // Label state machine: each milestone closes the running segment
        // at its own timestamp and opens the next. Segments therefore
        // partition [start, end] exactly.
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut label: &'static str = "marshal";
        let mut since = start.t_us;
        for e in &member {
            let next: Option<&'static str> = match e.kind {
                EventKind::Send if e.span.is_some_and(|s| request_spans.contains(&s)) => {
                    Some("link.request")
                }
                EventKind::Send if e.span.is_some_and(|s| reply_spans.contains(&s)) => {
                    Some("link.reply")
                }
                EventKind::Drop => Some("retry.wait"),
                EventKind::Deliver if e.span.is_some_and(|s| request_spans.contains(&s)) => {
                    Some("server.service")
                }
                EventKind::Deliver if e.span.is_some_and(|s| reply_spans.contains(&s)) => {
                    Some("reply.path")
                }
                EventKind::AdmissionEnqueue => Some("queue.wait"),
                EventKind::AdmissionDispatch => Some("server.service"),
                EventKind::Retry => Some("retry.wait"),
                _ => None,
            };
            if let Some(next) = next {
                *totals.entry(label).or_insert(0) += e.t_us.saturating_sub(since);
                since = e.t_us;
                label = next;
            }
        }
        *totals.entry(label).or_insert(0) += end.t_us.saturating_sub(since);

        profiles.push(InvocationProfile {
            span: call_span,
            op: parse_op(&start.detail),
            channel: start.channel,
            start_us: start.t_us,
            end_us: end.t_us,
            outcome: parse_outcome(&end.detail),
            segments: SEGMENTS
                .iter()
                .map(|&s| (s, totals.get(s).copied().unwrap_or(0)))
                .collect(),
        });
    }
    profiles.sort_by_key(|p| (p.start_us, p.span));
    profiles
}

/// Renders profiles as flamegraph-compatible folded stacks: one line per
/// `(operation, segment)` with the µs total as the sample count, ops
/// sorted, segments in [`SEGMENTS`] order, zero rows omitted.
/// Deterministic: the same profiles always render to the same bytes.
pub fn folded_stacks(profiles: &[InvocationProfile]) -> String {
    let mut totals: BTreeMap<&str, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for p in profiles {
        let per_op = totals.entry(p.op.as_str()).or_default();
        for &(seg, us) in &p.segments {
            *per_op.entry(seg).or_insert(0) += us;
        }
    }
    let mut out = String::new();
    for (op, per_op) in &totals {
        for seg in SEGMENTS {
            if let Some(&us) = per_op.get(seg) {
                if us > 0 {
                    out.push_str(&format!("invoke.{op};{seg} {us}\n"));
                }
            }
        }
    }
    out
}

/// Renders a per-operation attribution table: calls, mean latency, and
/// the µs total per segment. Deterministic byte-for-byte.
pub fn attribution_table(profiles: &[InvocationProfile]) -> String {
    struct Row {
        calls: u64,
        total: u64,
        segs: BTreeMap<&'static str, u64>,
    }
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for p in profiles {
        let row = rows.entry(p.op.as_str()).or_insert(Row {
            calls: 0,
            total: 0,
            segs: BTreeMap::new(),
        });
        row.calls += 1;
        row.total += p.total_us();
        for &(seg, us) in &p.segments {
            *row.segs.entry(seg).or_insert(0) += us;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:<18} {:>6} {:>10}", "op", "calls", "total_us"));
    for seg in SEGMENTS {
        out.push_str(&format!(" {seg:>14}"));
    }
    out.push('\n');
    for (op, row) in &rows {
        out.push_str(&format!("{:<18} {:>6} {:>10}", op, row.calls, row.total));
        for seg in SEGMENTS {
            out.push_str(&format!(" {:>14}", row.segs.get(seg).copied().unwrap_or(0)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_observe::event::{Event, EventKind, Layer};

    fn ev(
        seq: u64,
        t_us: u64,
        layer: Layer,
        kind: EventKind,
        span: Option<u64>,
        parent: Option<u64>,
        detail: &str,
    ) -> Event {
        Event {
            seq,
            t_us,
            layer,
            kind,
            span,
            parent,
            node: None,
            port: None,
            channel: Some(1),
            capsule: None,
            detail: detail.into(),
        }
    }

    /// A hand-built trace of one queued invocation, mirroring the real
    /// emission order: marshal 0µs, link 500µs each way, 300µs queued,
    /// service 0µs (dispatch and reply send coincide).
    fn queued_call() -> Vec<Event> {
        use EventKind::*;
        use Layer::*;
        vec![
            ev(0, 0, Engineering, CallStart, Some(1), None, "op=Add"),
            ev(1, 0, Engineering, Marshal, Some(1), None, "Text -> Binary"),
            ev(2, 0, Netsim, Send, Some(2), Some(1), "-> n0:0"),
            ev(3, 500, Netsim, Deliver, Some(2), None, "<- n1:1"),
            ev(4, 500, Engineering, AdmissionEnqueue, Some(2), None, ""),
            ev(5, 800, Engineering, AdmissionDispatch, Some(2), None, ""),
            ev(6, 800, Netsim, Send, Some(3), Some(2), "-> n1:1"),
            ev(7, 1300, Netsim, Deliver, Some(3), None, "<- n0:0"),
            ev(8, 1300, Engineering, CallEnd, Some(1), None, "op=Add -> OK"),
        ]
    }

    #[test]
    fn queued_call_attributes_each_segment() {
        let profiles = analyze(&queued_call());
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.op, "Add");
        assert_eq!(p.outcome, "OK");
        assert_eq!(p.total_us(), 1300);
        assert_eq!(p.segment_sum(), p.total_us());
        assert_eq!(p.segment("marshal"), 0);
        assert_eq!(p.segment("link.request"), 500);
        assert_eq!(p.segment("queue.wait"), 300);
        assert_eq!(p.segment("server.service"), 0);
        assert_eq!(p.segment("link.reply"), 500);
        assert_eq!(p.segment("reply.path"), 0);
    }

    #[test]
    fn dropped_request_counts_as_retry_wait() {
        use EventKind::*;
        use Layer::*;
        let evs = vec![
            ev(0, 0, Engineering, CallStart, Some(1), None, "op=Get"),
            ev(1, 0, Netsim, Send, Some(2), Some(1), ""),
            ev(2, 0, Netsim, Drop, Some(2), None, "random loss"),
            ev(
                3,
                2000,
                Engineering,
                Retry,
                Some(1),
                None,
                "op=Get attempt=1",
            ),
            ev(4, 2000, Netsim, Send, Some(3), Some(1), ""),
            ev(5, 2500, Netsim, Deliver, Some(3), None, ""),
            ev(6, 2500, Netsim, Send, Some(4), Some(3), ""),
            ev(7, 3000, Netsim, Deliver, Some(4), None, ""),
            ev(8, 3000, Engineering, CallEnd, Some(1), None, "op=Get -> OK"),
        ];
        let p = &analyze(&evs)[0];
        assert_eq!(p.total_us(), 3000);
        assert_eq!(p.segment_sum(), 3000);
        assert_eq!(p.segment("retry.wait"), 2000);
        assert_eq!(p.segment("link.request"), 500);
        assert_eq!(p.segment("link.reply"), 500);
    }

    #[test]
    fn late_reply_after_call_end_is_ignored() {
        use EventKind::*;
        use Layer::*;
        let mut evs = queued_call();
        // A duplicate reply delivered long after the call closed.
        evs.push(ev(9, 9000, Netsim, Send, Some(4), Some(2), "dup"));
        evs.push(ev(10, 9500, Netsim, Deliver, Some(4), None, "dup"));
        let p = &analyze(&evs)[0];
        assert_eq!(p.total_us(), 1300);
        assert_eq!(p.segment_sum(), 1300);
    }

    #[test]
    fn in_flight_call_is_skipped() {
        use EventKind::*;
        use Layer::*;
        let evs = vec![ev(0, 0, Engineering, CallStart, Some(1), None, "op=Add")];
        assert!(analyze(&evs).is_empty());
    }

    #[test]
    fn folded_stacks_and_table_are_deterministic_and_nonzero_only() {
        let profiles = analyze(&queued_call());
        let folded = folded_stacks(&profiles);
        assert_eq!(folded, folded_stacks(&profiles));
        assert!(folded.contains("invoke.Add;link.request 500"));
        assert!(folded.contains("invoke.Add;queue.wait 300"));
        assert!(!folded.contains("server.service"), "zero rows omitted");
        let table = attribution_table(&profiles);
        assert!(table.contains("Add"));
        assert!(table.contains("1300"));
    }

    #[test]
    fn nested_call_spans_do_not_leak_into_parent() {
        use EventKind::*;
        use Layer::*;
        // Outer call 1 encloses inner call 5 (parented on 1); the inner
        // call's message span 6 must not flip the outer's labels.
        let evs = vec![
            ev(0, 0, Engineering, CallStart, Some(1), None, "op=Outer"),
            ev(1, 0, Engineering, CallStart, Some(5), Some(1), "op=Inner"),
            ev(2, 0, Netsim, Send, Some(6), Some(5), ""),
            ev(3, 400, Netsim, Deliver, Some(6), None, ""),
            ev(4, 400, Netsim, Send, Some(7), Some(6), ""),
            ev(5, 700, Netsim, Deliver, Some(7), None, ""),
            ev(
                6,
                700,
                Engineering,
                CallEnd,
                Some(5),
                None,
                "op=Inner -> OK",
            ),
            ev(
                7,
                700,
                Engineering,
                CallEnd,
                Some(1),
                None,
                "op=Outer -> OK",
            ),
        ];
        let profiles = analyze(&evs);
        assert_eq!(profiles.len(), 2);
        let outer = profiles.iter().find(|p| p.op == "Outer").unwrap();
        let inner = profiles.iter().find(|p| p.op == "Inner").unwrap();
        // The outer call saw no message milestones of its own: all its
        // time stays in the opening segment.
        assert_eq!(outer.segment("marshal"), 700);
        assert_eq!(outer.segment_sum(), 700);
        assert_eq!(inner.segment("link.request"), 400);
        assert_eq!(inner.segment("link.reply"), 300);
    }
}
