//! The observability layer as a correctness oracle.
//!
//! A trace is not just for reading: it encodes invariants the stack must
//! uphold. [`verify_causality`] checks them and is run by the property
//! tests over every scenario's trace.
//!
//! Every oracle in the workspace has the one shape [`Verdict`] names: a
//! function of the events and counters it is handed (never of the bus,
//! so it judges a merged shard stream or a replayed one unchanged) that
//! returns a report which says whether it is clean and renders only as
//! JSON (DESIGN.md, "One verdict shape").

use crate::event::{Event, EventKind};
use crate::json::ToJson;
use crate::json_into;
use std::collections::{BTreeMap, BTreeSet};

/// An oracle's report: whether the invariants it checks held, and the
/// evidence as JSON.
pub trait Verdict: ToJson {
    /// Whether every invariant held.
    fn clean(&self) -> bool;

    /// Panics unless the report is clean, with `what` and the report's
    /// JSON as the message.
    #[track_caller]
    fn assert_clean(&self, what: &str) {
        assert!(self.clean(), "{what}: {}", self.to_json());
    }
}

/// Violations found by [`verify_causality`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalityViolation {
    /// A `Deliver` event whose span has no earlier `Send` event.
    DeliverWithoutSend {
        /// Sequence number of the offending deliver.
        seq: u64,
    },
    /// A `Deliver` that happened at an earlier sim time than its `Send`.
    DeliverBeforeSend {
        /// Sequence number of the offending deliver.
        seq: u64,
    },
    /// The span parent graph contains a cycle through this span.
    SpanCycle {
        /// A span on the cycle.
        span: u64,
    },
    /// Events are not in strictly increasing `seq` order, or sim time
    /// moves backwards between consecutive events.
    DisorderedStream {
        /// Sequence number where order breaks.
        seq: u64,
    },
}

/// One JSON object per violation: its kind, and the event or span where
/// the trace breaks.
impl ToJson for CausalityViolation {
    fn write_json(&self, out: &mut String) {
        match *self {
            CausalityViolation::DeliverWithoutSend { seq } => {
                json_into!(out, {"violation": "deliver_without_send", "seq": seq})
            }
            CausalityViolation::DeliverBeforeSend { seq } => {
                json_into!(out, {"violation": "deliver_before_send", "seq": seq})
            }
            CausalityViolation::SpanCycle { span } => {
                json_into!(out, {"violation": "span_cycle", "span": span})
            }
            CausalityViolation::DisorderedStream { seq } => {
                json_into!(out, {"violation": "disordered_stream", "seq": seq})
            }
        }
    }
}

/// The causality verdict is the list of violations: clean when empty.
impl Verdict for Vec<CausalityViolation> {
    fn clean(&self) -> bool {
        self.is_empty()
    }
}

/// Checks the core causal invariants of a trace:
///
/// 1. the stream is ordered — `seq` strictly increases and `t_us` never
///    decreases;
/// 2. every `Deliver` has a causally-preceding `Send` in the same span,
///    at an equal or earlier sim time;
/// 3. the span parent graph is acyclic.
///
/// Returns every violation found (empty = trace is causally sound).
pub fn verify_causality(events: &[Event]) -> Vec<CausalityViolation> {
    let mut violations = Vec::new();

    // 1. Stream order.
    for pair in events.windows(2) {
        if pair[1].seq <= pair[0].seq || pair[1].t_us < pair[0].t_us {
            violations.push(CausalityViolation::DisorderedStream { seq: pair[1].seq });
        }
    }

    // 2. Every Deliver has a prior Send in its span.
    let mut send_time_by_span: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::Send => {
                if let Some(span) = e.span {
                    send_time_by_span.entry(span).or_insert(e.t_us);
                }
            }
            EventKind::Deliver => match e.span.and_then(|s| send_time_by_span.get(&s)) {
                None => violations.push(CausalityViolation::DeliverWithoutSend { seq: e.seq }),
                Some(&sent_at) if e.t_us < sent_at => {
                    violations.push(CausalityViolation::DeliverBeforeSend { seq: e.seq })
                }
                Some(_) => {}
            },
            _ => {}
        }
    }

    // 3. Acyclic span parent graph.
    let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if let (Some(span), Some(parent)) = (e.span, e.parent) {
            parent_of.entry(span).or_insert(parent);
        }
    }
    let mut cleared: BTreeSet<u64> = BTreeSet::new();
    for &start in parent_of.keys() {
        if cleared.contains(&start) {
            continue;
        }
        let mut path: BTreeSet<u64> = BTreeSet::new();
        let mut cur = start;
        loop {
            if !path.insert(cur) {
                violations.push(CausalityViolation::SpanCycle { span: cur });
                break;
            }
            match parent_of.get(&cur) {
                Some(&p) if !cleared.contains(&p) => cur = p,
                _ => break,
            }
        }
        cleared.extend(path);
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, Layer};

    fn ev(seq: u64, t_us: u64, kind: EventKind, span: Option<u64>, parent: Option<u64>) -> Event {
        Event {
            seq,
            t_us,
            layer: Layer::Netsim,
            kind,
            span,
            parent,
            node: None,
            port: None,
            channel: None,
            capsule: None,
            detail: String::new(),
        }
    }

    #[test]
    fn sound_trace_passes() {
        let evs = vec![
            ev(0, 0, EventKind::Send, Some(1), None),
            ev(1, 5, EventKind::Deliver, Some(1), None),
            ev(2, 5, EventKind::Send, Some(2), Some(1)),
            ev(3, 9, EventKind::Deliver, Some(2), Some(1)),
        ];
        assert!(verify_causality(&evs).is_empty());
    }

    #[test]
    fn orphan_deliver_is_flagged() {
        let evs = vec![ev(0, 3, EventKind::Deliver, Some(7), None)];
        assert_eq!(
            verify_causality(&evs),
            vec![CausalityViolation::DeliverWithoutSend { seq: 0 }]
        );
    }

    #[test]
    fn time_travel_is_flagged() {
        let evs = vec![
            ev(0, 9, EventKind::Send, Some(1), None),
            ev(1, 4, EventKind::Deliver, Some(1), None),
        ];
        let v = verify_causality(&evs);
        assert!(v.contains(&CausalityViolation::DisorderedStream { seq: 1 }));
        assert!(v.contains(&CausalityViolation::DeliverBeforeSend { seq: 1 }));
    }

    #[test]
    fn span_cycle_is_flagged() {
        let evs = vec![
            ev(0, 0, EventKind::Note, Some(1), Some(2)),
            ev(1, 0, EventKind::Note, Some(2), Some(1)),
        ];
        let v = verify_causality(&evs);
        assert!(matches!(v[0], CausalityViolation::SpanCycle { .. }));
    }

    #[test]
    fn each_violation_renders_its_kind_and_place() {
        let table = [
            (
                CausalityViolation::DeliverWithoutSend { seq: 3 },
                r#"{"violation":"deliver_without_send","seq":3}"#,
            ),
            (
                CausalityViolation::DeliverBeforeSend { seq: 4 },
                r#"{"violation":"deliver_before_send","seq":4}"#,
            ),
            (
                CausalityViolation::SpanCycle { span: 9 },
                r#"{"violation":"span_cycle","span":9}"#,
            ),
            (
                CausalityViolation::DisorderedStream { seq: 12 },
                r#"{"violation":"disordered_stream","seq":12}"#,
            ),
        ];
        for (violation, want) in table {
            assert_eq!(violation.to_json(), want);
        }
        assert!(Vec::<CausalityViolation>::new().clean());
        assert_eq!(Vec::<CausalityViolation>::new().to_json(), "[]");
    }

    #[test]
    #[should_panic(expected = r#"orphan trace: [{"violation":"deliver_without_send","seq":0}]"#)]
    fn assert_clean_names_the_violation_as_json() {
        let evs = vec![ev(0, 3, EventKind::Deliver, Some(7), None)];
        verify_causality(&evs).assert_clean("orphan trace");
    }
}
