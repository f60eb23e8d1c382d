//! The standard workload scenario suite behind `BENCH_workload.json`.
//!
//! [`run_suite`] runs every scenario and returns the full
//! `BENCH_workload.json` document (schema `rmodp-bench-workload/1`,
//! documented in `EXPERIMENTS.md`). Everything runs on virtual time with
//! fixed seeds, so the returned string is byte-identical across runs —
//! the golden test in `tests/golden.rs` compares it with the committed
//! `tests/baselines/BENCH_workload.json`.

use std::time::Duration;

use rmodp_core::codec::SyntaxId;
use rmodp_core::contract::QosRequirement;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::nucleus::AdmissionConfig;
use rmodp_netsim::time::SimDuration;
use rmodp_observe::{bus, json, oracle};
use rmodp_workload::prelude::*;

use crate::{add_one, counter_rig, open};

/// One suite entry: an optional admission configuration for the server
/// node, and the scenario to drive.
struct Case {
    admission: Option<AdmissionConfig>,
    scenario: Scenario,
}

fn add_mix() -> OperationMix {
    OperationMix::new().with("Add", add_one(), 1)
}

fn suite(seed: u64) -> Vec<Case> {
    vec![
        // Uncontended open loop: the baseline the contract should pass.
        Case {
            admission: None,
            scenario: Scenario::new(
                "steady_open_poisson",
                seed + 1,
                LoadModel::Open {
                    arrivals: ArrivalProcess::Poisson {
                        rate_per_sec: 300.0,
                    },
                },
            )
            .lasting(SimDuration::from_secs(2))
            .with_warmup(SimDuration::from_millis(200))
            .with_mix(add_mix())
            .with_contract(
                QosRequirement::none()
                    .with_max_latency(Duration::from_millis(20))
                    .with_min_availability(0.999)
                    .reliable(),
            ),
        },
        // Offered load is twice the service capacity (1 per ms): the
        // bounded queue must overflow and the Reject policy must shed.
        Case {
            admission: Some(AdmissionConfig::reject(8, SimDuration::from_millis(1))),
            scenario: Scenario::new(
                "overload_reject",
                seed + 2,
                LoadModel::Open {
                    arrivals: ArrivalProcess::Poisson {
                        rate_per_sec: 2_000.0,
                    },
                },
            )
            .lasting(SimDuration::from_secs(1))
            .with_mix(add_mix())
            .with_contract(
                QosRequirement::none()
                    .with_max_latency(Duration::from_millis(50))
                    .with_min_availability(0.9),
            ),
        },
        // Bursts above capacity with quiet valleys: ShedOldest evicts
        // the stale backlog during each burst.
        Case {
            admission: Some(AdmissionConfig::shed_oldest(
                16,
                SimDuration::from_micros(800),
            )),
            scenario: Scenario::new(
                "bursty_shed_oldest",
                seed + 3,
                LoadModel::Open {
                    arrivals: ArrivalProcess::BurstyOnOff {
                        on_rate_per_sec: 3_000.0,
                        off_rate_per_sec: 50.0,
                        mean_on: SimDuration::from_millis(50),
                        mean_off: SimDuration::from_millis(150),
                    },
                },
            )
            .lasting(SimDuration::from_secs(2))
            .with_mix(add_mix())
            .with_contract(QosRequirement::none().with_min_availability(0.5)),
        },
        // Closed loop: throughput self-limits, so even a tight latency
        // bound holds while the population is modest.
        Case {
            admission: None,
            scenario: Scenario::new(
                "closed_population",
                seed + 4,
                LoadModel::Closed {
                    population: 12,
                    think_time: SimDuration::from_millis(2),
                },
            )
            .lasting(SimDuration::from_secs(1))
            .with_mix(add_mix())
            .with_contract(
                QosRequirement::none()
                    .with_max_latency(Duration::from_millis(10))
                    .reliable(),
            ),
        },
    ]
}

fn run_case(case: &Case) -> (SloReport, usize) {
    // A fresh rig per case: Engine::new resets the observe bus, so each
    // scenario gets its own event stream and metrics.
    let mut rig = counter_rig(case.scenario.seed, SyntaxId::Text);
    if let Some(admission) = case.admission {
        rig.engine
            .nucleus_mut(rig.server)
            .expect("server node exists")
            .set_admission(admission);
    }
    let channel = open(&mut rig, ChannelConfig::default());
    let (_stats, report) = run_scenario(&mut rig.engine, channel, &case.scenario);
    let violations = oracle::verify_causality(&bus::snapshot_events()).len();
    (report, violations)
}

/// Runs the whole suite at the given base seed and returns the
/// `BENCH_workload.json` document. Each scenario runs at a fixed offset
/// from the base (`seed + 1` .. `seed + 4`).
///
/// # Panics
///
/// If any scenario violates causality, or no scenario trips admission
/// control (the suite must exercise shedding).
pub fn run_suite(seed: u64) -> String {
    let mut entries = Vec::new();
    let mut tripped_admission = false;
    for case in suite(seed) {
        let (report, violations) = run_case(&case);
        assert_eq!(
            violations, 0,
            "scenario {} violated causality",
            report.scenario
        );
        if report.admission_shed > 0 {
            tripped_admission = true;
        }
        entries.push((violations, report));
    }
    assert!(
        tripped_admission,
        "the suite must contain at least one scenario that trips admission control"
    );

    json!({
        "schema": "rmodp-bench-workload/1",
        "scenarios": [for (violations, report) in &entries => {
            "causality_violations": violations,
            "report": report,
        }],
    }) + "\n"
}
