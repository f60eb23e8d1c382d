//! Per-simulator counters for experiment harnesses.
//!
//! The record of *what happened* is the observe bus: the simulator emits
//! every Send/Deliver/Drop/TimerFired/Note as a structured,
//! causally-spanned event there (`rmodp_observe::bus::snapshot_events`),
//! alongside the cross-layer events of everything above it. [`Metrics`]
//! are plain per-`Sim` totals that stay readable with the bus off.

use std::fmt;

/// Cumulative counters maintained by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to a process.
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub dropped_loss: u64,
    /// Messages dropped because the nodes were partitioned.
    pub dropped_partition: u64,
    /// Messages dropped because an endpoint was crashed.
    pub dropped_crash: u64,
    /// Messages dropped because no process was attached at the destination.
    pub dropped_unroutable: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
}

impl Metrics {
    /// All drops combined.
    fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_partition + self.dropped_crash + self.dropped_unroutable
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} (loss={} partition={} crash={} unroutable={}) timers={} bytes={}",
            self.sent,
            self.delivered,
            self.dropped(),
            self.dropped_loss,
            self.dropped_partition,
            self.dropped_crash,
            self.dropped_unroutable,
            self.timers_fired,
            self.bytes_delivered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_sums_all_reasons() {
        let m = Metrics {
            dropped_loss: 1,
            dropped_partition: 2,
            dropped_crash: 3,
            dropped_unroutable: 4,
            ..Metrics::default()
        };
        assert_eq!(m.dropped(), 10);
    }

    #[test]
    fn display_is_informative() {
        let s = Metrics {
            sent: 3,
            dropped_loss: 1,
            ..Metrics::default()
        }
        .to_string();
        assert!(s.contains("sent=3"));
        assert!(s.contains("dropped=1 (loss=1"));
    }
}
