//! SLO evaluation: turns raw [`RunStats`] plus the scenario's
//! [`QosRequirement`] contract into a verdict report.
//!
//! Clause mapping, one per contract field that is actually set:
//!
//! * `max_latency` — checked against the **p95** of completed-request
//!   latency (a tail bound; the mean hides overload);
//! * `min_throughput` — checked against achieved completions per second
//!   of virtual time over the load window;
//! * `min_availability` — checked against `completed / offered`, so both
//!   admission rejections and losses count against availability;
//! * `reliable_delivery` — demands zero lost (unanswered) requests.
//!
//! The report is a [`Verdict`] whose one rendering is JSON, fully
//! deterministic: integer microseconds, fixed-precision floats, fields
//! in a fixed order.
//!
//! [`QosRequirement`]: rmodp_core::contract::QosRequirement

use rmodp_observe::json::{Fixed, ToJson};
use rmodp_observe::json_into;
use rmodp_observe::oracle::Verdict;

use crate::driver::RunStats;
use crate::scenario::Scenario;

/// One evaluated contract clause.
#[derive(Debug, Clone, PartialEq)]
pub struct SloClause {
    /// Clause name (`latency_p95_us`, `throughput_per_sec`, …).
    pub name: String,
    /// The bound the contract demands, rendered.
    pub bound: String,
    /// What the run achieved, rendered.
    pub achieved: String,
    /// Whether the clause held.
    pub pass: bool,
}

/// The verdict report for one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Load model description.
    pub load: String,
    /// Configured load window, virtual µs.
    pub duration_us: u64,
    /// Virtual time from first arrival to last processed event, µs.
    pub elapsed_us: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected (admission/replay refusals).
    pub rejected: u64,
    /// Client-side errors.
    pub errors: u64,
    /// Requests never answered.
    pub lost: u64,
    /// Server-side admission shed count for the run.
    pub admission_shed: u64,
    /// Offered rate over the load window, requests per virtual second.
    pub offered_per_sec: f64,
    /// Achieved completion rate over the load window.
    pub achieved_per_sec: f64,
    /// Latency samples in the histogram (post-warmup completions).
    pub latency_samples: u64,
    /// Latency quantiles and extremes, µs.
    pub p50_us: u64,
    /// 95th percentile latency, µs.
    pub p95_us: u64,
    /// 99th percentile latency, µs.
    pub p99_us: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Maximum latency, µs.
    pub max_us: u64,
    /// The evaluated contract clauses, in a fixed order.
    pub clauses: Vec<SloClause>,
    /// Overall verdict: all clauses passed.
    pub pass: bool,
}

/// Evaluates a finished run against its scenario's contract.
pub fn evaluate(scenario: &Scenario, stats: &RunStats) -> SloReport {
    let duration_us = scenario.duration.as_micros();
    let elapsed_us = stats.finished.since(stats.started).as_micros();
    let window_secs = duration_us as f64 / 1e6;
    let offered_per_sec = if window_secs > 0.0 {
        stats.offered as f64 / window_secs
    } else {
        0.0
    };
    let achieved_per_sec = if window_secs > 0.0 {
        stats.completed as f64 / window_secs
    } else {
        0.0
    };
    let (p50, p95, p99) = stats.latency.quantiles();

    let contract = &scenario.contract;
    let mut clauses = Vec::new();
    if let Some(max) = contract.max_latency {
        let bound_us = max.as_micros() as u64;
        clauses.push(SloClause {
            name: "latency_p95_us".into(),
            bound: format!("<= {bound_us}"),
            achieved: p95.to_string(),
            pass: p95 <= bound_us,
        });
    }
    if let Some(min) = contract.min_throughput {
        clauses.push(SloClause {
            name: "throughput_per_sec".into(),
            bound: format!(">= {}", Fixed::<3>(min)),
            achieved: Fixed::<3>(achieved_per_sec).to_string(),
            pass: achieved_per_sec >= min,
        });
    }
    if let Some(min) = contract.min_availability {
        let availability = if stats.offered == 0 {
            1.0
        } else {
            stats.completed as f64 / stats.offered as f64
        };
        clauses.push(SloClause {
            name: "availability".into(),
            bound: format!(">= {}", Fixed::<3>(min)),
            achieved: Fixed::<3>(availability).to_string(),
            pass: availability >= min,
        });
    }
    if contract.reliable_delivery {
        clauses.push(SloClause {
            name: "reliable_delivery".into(),
            bound: "lost == 0".into(),
            achieved: stats.lost.to_string(),
            pass: stats.lost == 0,
        });
    }
    let pass = clauses.iter().all(|c| c.pass);

    SloReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        load: scenario.load.describe(),
        duration_us,
        elapsed_us,
        offered: stats.offered,
        completed: stats.completed,
        rejected: stats.rejected,
        errors: stats.errors,
        lost: stats.lost,
        admission_shed: stats.admission_shed,
        offered_per_sec,
        achieved_per_sec,
        latency_samples: stats.latency.count() as u64,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
        mean_us: stats.latency.mean(),
        max_us: stats.latency.max(),
        clauses,
        pass,
    }
}

/// Clean when every contract clause held.
impl Verdict for SloReport {
    fn clean(&self) -> bool {
        self.pass
    }
}

/// Deterministic JSON: fixed field order, integer microseconds,
/// 3-decimal floats. Same run, same bytes.
impl ToJson for SloReport {
    fn write_json(&self, out: &mut String) {
        json_into!(out, {
            "scenario": self.scenario,
            "seed": self.seed,
            "load": self.load,
            "duration_us": self.duration_us,
            "elapsed_us": self.elapsed_us,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "lost": self.lost,
            "admission_shed": self.admission_shed,
            "offered_per_sec": Fixed::<3>(self.offered_per_sec),
            "achieved_per_sec": Fixed::<3>(self.achieved_per_sec),
            "latency_samples": self.latency_samples,
            "latency_us": {
                "p50": self.p50_us,
                "p95": self.p95_us,
                "p99": self.p99_us,
                "mean": Fixed::<3>(self.mean_us),
                "max": self.max_us,
            },
            "clauses": [for c in &self.clauses => {
                "name": c.name,
                "bound": c.bound,
                "achieved": c.achieved,
                "pass": c.pass,
            }],
            "pass": self.pass,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LoadModel;
    use rmodp_core::contract::QosRequirement;
    use rmodp_netsim::time::{SimDuration, SimTime};
    use std::time::Duration;

    fn stats(completed: u64, offered: u64, lats: &[u64]) -> RunStats {
        let mut s = RunStats {
            offered,
            completed,
            started: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_secs(1),
            ..RunStats::default()
        };
        for &l in lats {
            s.latency.observe(l);
        }
        s
    }

    fn scenario_with(contract: QosRequirement) -> Scenario {
        Scenario::new(
            "t",
            1,
            LoadModel::Closed {
                population: 1,
                think_time: SimDuration::ZERO,
            },
        )
        .with_contract(contract)
    }

    #[test]
    fn clauses_follow_contract_fields() {
        let sc = scenario_with(
            QosRequirement::none()
                .with_max_latency(Duration::from_millis(5))
                .with_min_throughput(50.0)
                .with_min_availability(0.99)
                .reliable(),
        );
        let report = evaluate(&sc, &stats(100, 100, &[1000, 2000, 3000]));
        assert_eq!(report.clauses.len(), 4);
        report.assert_clean("every clause holds");
        assert_eq!(report.achieved_per_sec, 100.0);
    }

    #[test]
    fn tail_latency_violation_fails() {
        let sc = scenario_with(QosRequirement::none().with_max_latency(Duration::from_millis(1)));
        let report = evaluate(&sc, &stats(3, 3, &[500, 800, 9000]));
        assert!(!report.pass);
        assert_eq!(report.clauses[0].name, "latency_p95_us");
        assert!(!report.clauses[0].pass);
    }

    #[test]
    fn availability_counts_rejections() {
        let sc = scenario_with(QosRequirement::none().with_min_availability(0.95));
        let mut s = stats(90, 100, &[100]);
        s.rejected = 10;
        let report = evaluate(&sc, &s);
        assert!(!report.pass, "90/100 < 0.95 must fail");
    }

    #[test]
    fn empty_contract_passes_vacuously() {
        let sc = scenario_with(QosRequirement::none());
        let report = evaluate(&sc, &stats(1, 1, &[10]));
        assert!(report.clauses.is_empty());
        assert!(report.pass);
        assert!(report.to_json().contains(r#""clauses":[]"#));
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let sc = scenario_with(QosRequirement::none().with_min_throughput(1.0));
        let s = stats(10, 10, &[100, 200]);
        let a = evaluate(&sc, &s).to_json();
        let b = evaluate(&sc, &s).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains(r#""latency_us":{"p50":"#));
        assert!(a.contains(r#""pass":true"#));
    }
}
