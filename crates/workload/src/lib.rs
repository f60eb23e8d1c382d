//! # rmodp-workload — deterministic load generation and SLO evaluation
//!
//! RM-ODP's environment contracts (§5.3) state QoS obligations — "ideally
//! … in high-level quality-of-service terms" — but the rest of the
//! workspace only *carries* those contracts. This crate closes the loop:
//! it applies load to a deployed system, drives the engineering nucleus's
//! admission control into its contract-relevant regimes, and judges the
//! outcome against the contract.
//!
//! The pieces, bottom-up:
//!
//! - [`arrival`] — seeded arrival processes (constant-rate, Poisson,
//!   bursty on/off) as infinite deterministic streams of virtual-time
//!   offsets;
//! - [`scenario`] — the workload description: load model (open or closed
//!   loop), operation mix, duration/warmup, and the [`QosRequirement`]
//!   contract to judge against;
//! - [`driver`] — executes a scenario against an [`Engine`] channel on
//!   simulated time, keeping many requests in flight;
//! - [`slo`] — evaluates the run against the contract into a
//!   deterministic verdict report, rendered as JSON.
//!
//! Everything runs on `rmodp-netsim` virtual time with seeded RNG: the
//! same scenario and seed on the same deployment yields a byte-identical
//! SLO report.
//!
//! [`QosRequirement`]: rmodp_core::contract::QosRequirement
//! [`Engine`]: rmodp_engineering::engine::Engine
//!
//! # Example
//!
//! ```
//! use rmodp_workload::prelude::*;
//! use rmodp_core::codec::SyntaxId;
//! use rmodp_core::contract::QosRequirement;
//! use rmodp_core::value::Value;
//! use rmodp_engineering::prelude::*;
//! use rmodp_netsim::time::SimDuration;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new(7);
//! engine.behaviours_mut().register("counter", CounterBehaviour::default);
//! let server = engine.add_node(SyntaxId::Binary);
//! let client = engine.add_node(SyntaxId::Text);
//! let capsule = engine.add_capsule(server)?;
//! let cluster = engine.add_cluster(server, capsule)?;
//! let (_obj, refs) = engine.create_object(
//!     server, capsule, cluster, "counter", "counter",
//!     CounterBehaviour::initial_state(), 1,
//! )?;
//! let channel = engine.open_channel(client, refs[0].interface, ChannelConfig::default())?;
//!
//! let scenario = Scenario::new(
//!     "smoke", 7,
//!     LoadModel::Open { arrivals: ArrivalProcess::Poisson { rate_per_sec: 200.0 } },
//! )
//! .lasting(SimDuration::from_millis(500))
//! .with_mix(OperationMix::new().with("Add", Value::record([("k", Value::Int(1))]), 1))
//! .with_contract(QosRequirement::none().with_max_latency(Duration::from_millis(50)));
//!
//! let (stats, report) = run_scenario(&mut engine, channel, &scenario);
//! assert_eq!(stats.lost, 0);
//! report.assert_clean("the smoke scenario's contract");
//! # Ok(())
//! # }
//! ```

pub mod arrival;
pub mod driver;
pub mod population;
pub mod scenario;
pub mod slo;

use rmodp_core::id::ChannelId;
use rmodp_engineering::engine::Engine;

/// Runs a scenario over an open channel and evaluates the SLO verdict.
pub fn run_scenario(
    engine: &mut Engine,
    channel: ChannelId,
    scenario: &scenario::Scenario,
) -> (driver::RunStats, slo::SloReport) {
    let stats = driver::execute(engine, channel, scenario);
    let report = slo::evaluate(scenario, &stats);
    (stats, report)
}

/// Commonly used items.
pub mod prelude {
    pub use crate::arrival::{ArrivalProcess, ArrivalStream};
    pub use crate::driver::{execute, RunStats};
    pub use crate::run_scenario;
    pub use crate::scenario::{LoadModel, OpMixEntry, OperationMix, Scenario};
    pub use crate::slo::{evaluate, SloClause, SloReport};
    pub use rmodp_observe::json::ToJson;
    pub use rmodp_observe::oracle::Verdict;
}
