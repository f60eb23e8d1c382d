//! Recovery oracles: judging whether the system actually recovered.
//!
//! [`verify_recovery`] reads the event stream it is handed — the same
//! stream every layer already emits into — and computes, per fault of
//! the plan it is handed (whose windows the run played exactly):
//!
//! - **MTTR**: virtual time from fault injection to the first reply
//!   delivered to the client afterwards (the client-visible moment
//!   service resumed);
//! - **availability**: the goodput ratio during the fault window —
//!   replies delivered to the client over requests it sent while the
//!   fault held.
//!
//! Safety invariants (no lost committed transactions, no duplicate
//! side-effects) are judged by the callers that know the application
//! semantics; this module supplies the counter-based half (the dedup
//! and breaker counters of the [`Registry`] it is handed, whose
//! invariant `duplicate_dispatches == 0` is the at-most-once execution
//! guarantee).

use rmodp_engineering::nucleus::DRIVER_PORT;
use rmodp_netsim::time::SimTime;
use rmodp_observe::json::{Fixed, ToJson};
use rmodp_observe::metrics::Registry;
use rmodp_observe::oracle::Verdict;
use rmodp_observe::{json_into, Event, EventKind, Layer};

use crate::plan::FaultPlan;

/// Per-fault recovery verdict.
#[derive(Debug, Clone)]
pub struct FaultRecovery {
    /// Fault type label.
    pub label: String,
    /// Fault parameters.
    pub detail: String,
    /// Injection time (virtual microseconds).
    pub injected_us: u64,
    /// Clear time (virtual microseconds).
    pub cleared_us: u64,
    /// Whether the client saw any reply after injection.
    pub recovered: bool,
    /// Time from injection to first post-injection client delivery; if
    /// service never resumed, time from injection to the end of the
    /// observed trace.
    pub mttr_us: u64,
    /// Client requests sent during the fault window.
    pub sent_in_window: u64,
    /// Replies delivered to the client during the fault window.
    pub delivered_in_window: u64,
    /// `delivered_in_window / sent_in_window`, capped at 1.0 (and 1.0
    /// when nothing was sent): the goodput ratio while the fault held.
    pub availability: f64,
}

/// The full recovery verdict for a chaos run: per-fault recoveries plus
/// the hardened-path counters whose values are the safety half of the
/// chaos invariants.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-fault verdicts, in injection order.
    pub faults: Vec<FaultRecovery>,
    /// Duplicate requests suppressed by the server dedup cache.
    pub dedup_hits: u64,
    /// Requests dispatched to a behaviour more than once. The
    /// at-most-once invariant: this must be zero.
    pub duplicate_dispatches: u64,
    /// Circuit-breaker state transitions observed.
    pub breaker_transitions: u64,
    /// Mean MTTR across recovered faults (microseconds; 0 when none).
    pub mean_mttr_us: u64,
}

/// Judges client-visible recovery from `events` against the faults of
/// `plan`, played from epoch `t0`, and reads the hardened-path counters
/// from `metrics`.
///
/// The measurement basis: netsim emits `Send` events located at the
/// source address and `Deliver` events located at the destination, so
/// the client's outbound requests are `Send` at `(client_node,
/// DRIVER_PORT)` and the replies it actually received are `Deliver` at
/// the same coordinates (`client_node` is the client's netsim node
/// index, as recorded in event metadata).
pub fn verify_recovery(
    events: &[Event],
    metrics: &Registry,
    client_node: u64,
    plan: &FaultPlan,
    t0: SimTime,
) -> RecoveryReport {
    let trace_end = events.iter().map(|e| e.t_us).max().unwrap_or(0);
    let client_times = |kind: EventKind| -> Vec<u64> {
        events
            .iter()
            .filter(|e| {
                e.layer == Layer::Netsim
                    && e.kind == kind
                    && e.node == Some(client_node)
                    && e.port == Some(DRIVER_PORT as u64)
            })
            .map(|e| e.t_us)
            .collect()
    };
    let send_times = client_times(EventKind::Send);
    let deliver_times = client_times(EventKind::Deliver);
    let verdicts: Vec<FaultRecovery> = plan
        .in_time_order()
        .into_iter()
        .map(|f| {
            let injected = (t0 + f.at).as_micros();
            let cleared = injected + f.fault.window().as_micros();
            // Request/reply payloads are opaque at this layer, so
            // availability is the window's goodput ratio: replies
            // delivered during the window over requests sent during
            // it. A healthy window has roughly one delivery per
            // send; a dead server yields sends with no deliveries.
            let sent_in_window = send_times
                .iter()
                .filter(|&&t| t >= injected && t < cleared)
                .count() as u64;
            let delivered_in_window = deliver_times
                .iter()
                .filter(|&&t| t >= injected && t < cleared)
                .count() as u64;
            let first_recovery = deliver_times.iter().find(|&&d| d >= injected).copied();
            let (recovered, mttr_us) = match first_recovery {
                Some(d) => (true, d - injected),
                None => (false, trace_end.saturating_sub(injected)),
            };
            let availability = if sent_in_window == 0 {
                1.0
            } else {
                (delivered_in_window as f64 / sent_in_window as f64).min(1.0)
            };
            FaultRecovery {
                label: f.fault.label().to_string(),
                detail: f.fault.to_string(),
                injected_us: injected,
                cleared_us: cleared,
                recovered,
                mttr_us,
                sent_in_window,
                delivered_in_window,
                availability,
            }
        })
        .collect();
    let recovered: Vec<&FaultRecovery> = verdicts.iter().filter(|v| v.recovered).collect();
    let mean_mttr_us = if recovered.is_empty() {
        0
    } else {
        recovered.iter().map(|v| v.mttr_us).sum::<u64>() / recovered.len() as u64
    };
    RecoveryReport {
        faults: verdicts,
        dedup_hits: metrics.counter("engineering.dedup.hits"),
        duplicate_dispatches: metrics.counter("engineering.dedup.duplicate_dispatches"),
        breaker_transitions: metrics.counter("engineering.breaker.transitions"),
        mean_mttr_us,
    }
}

/// Clean when every fault recovered and no duplicate side-effects were
/// observed.
impl Verdict for RecoveryReport {
    fn clean(&self) -> bool {
        self.duplicate_dispatches == 0 && self.faults.iter().all(|f| f.recovered)
    }
}

/// Deterministic JSON with a fixed field order.
impl ToJson for RecoveryReport {
    fn write_json(&self, out: &mut String) {
        json_into!(out, {
            "faults": [for f in &self.faults => {
                "fault": f.label,
                "detail": f.detail,
                "injected_us": f.injected_us,
                "cleared_us": f.cleared_us,
                "recovered": f.recovered,
                "mttr_us": f.mttr_us,
                "sent_in_window": f.sent_in_window,
                "delivered_in_window": f.delivered_in_window,
                "availability": Fixed::<3>(f.availability),
            }],
            "dedup_hits": self.dedup_hits,
            "duplicate_dispatches": self.duplicate_dispatches,
            "breaker_transitions": self.breaker_transitions,
            "mean_mttr_us": self.mean_mttr_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use rmodp_netsim::sim::NodeIdx;
    use rmodp_netsim::time::SimDuration;

    fn ev(kind: EventKind, t_us: u64, node: u64, port: u64) -> Event {
        Event {
            seq: 0,
            t_us,
            layer: Layer::Netsim,
            kind,
            span: None,
            parent: None,
            node: Some(node),
            port: Some(port),
            channel: None,
            capsule: None,
            detail: String::new(),
        }
    }

    /// One crash held from 1 000 to 1 500 us of a run that starts at 0.
    fn crash() -> FaultPlan {
        FaultPlan::new().with(
            SimDuration::from_micros(1_000),
            FaultKind::CrashRestart {
                node: NodeIdx(0),
                down_for: SimDuration::from_micros(500),
            },
        )
    }

    /// The per-fault verdicts for client node 2 and [`crash`].
    fn analyse(events: &[Event]) -> Vec<FaultRecovery> {
        verify_recovery(events, &Registry::default(), 2, &crash(), SimTime::ZERO).faults
    }

    #[test]
    fn mttr_is_first_delivery_after_injection() {
        let events = vec![
            ev(EventKind::Send, 900, 2, 1),
            ev(EventKind::Deliver, 950, 2, 1),
            ev(EventKind::Send, 1_100, 2, 1),
            ev(EventKind::Deliver, 1_700, 2, 1),
        ];
        let out = analyse(&events);
        assert_eq!(out.len(), 1);
        assert!(out[0].recovered);
        assert_eq!(out[0].mttr_us, 700);
        assert_eq!(out[0].sent_in_window, 1);
        // The only deliveries fall outside the window: availability 0.
        assert_eq!(out[0].delivered_in_window, 0);
        assert!(out[0].availability.abs() < 1e-9);
    }

    #[test]
    fn unanswered_sends_lower_availability() {
        let events = vec![
            ev(EventKind::Send, 1_100, 2, 1),
            ev(EventKind::Send, 1_200, 2, 1),
            ev(EventKind::Deliver, 1_150, 2, 1),
        ];
        let out = analyse(&events);
        assert_eq!(out[0].sent_in_window, 2);
        assert_eq!(out[0].delivered_in_window, 1);
        assert!((out[0].availability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_delivery_means_not_recovered() {
        let events = vec![ev(EventKind::Send, 1_100, 2, 1)];
        let out = analyse(&events);
        assert!(!out[0].recovered);
        assert_eq!(out[0].mttr_us, 100);
    }

    #[test]
    fn counters_come_from_the_registry_handed_in() {
        let mut metrics = Registry::default();
        metrics.counter_add("engineering.dedup.hits", 3);
        metrics.counter_add("engineering.dedup.duplicate_dispatches", 1);
        let events = vec![ev(EventKind::Deliver, 1_100, 2, 1)];
        let report = verify_recovery(&events, &metrics, 2, &crash(), SimTime::ZERO);
        assert_eq!(report.dedup_hits, 3);
        assert!(report.faults[0].recovered);
        assert!(!report.clean(), "a duplicate dispatch is unclean");
    }

    #[test]
    fn other_nodes_do_not_count() {
        let events = vec![
            ev(EventKind::Send, 1_100, 7, 1),
            ev(EventKind::Deliver, 1_200, 7, 1),
        ];
        let out = analyse(&events);
        assert_eq!(out[0].sent_in_window, 0);
        assert!((out[0].availability - 1.0).abs() < 1e-9);
    }
}
