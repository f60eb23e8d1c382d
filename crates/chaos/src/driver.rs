//! Running workloads under fault plans.
//!
//! [`run_scenario_under_faults`] is the top-level chaos harness: it
//! compiles a [`FaultPlan`] onto the engine's current virtual time, runs
//! a `rmodp-workload` scenario with the injector registered as an actor
//! ahead of the load generator on the same kernel, and judges the result
//! with [`verify_recovery`] over the run's event stream and metrics.
//! Same engine seed, scenario, and plan → byte-identical traces and
//! reports.

use rmodp_core::id::{ChannelId, NodeId};
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_observe::bus;
use rmodp_workload::driver::{execute_with, RunStats};
use rmodp_workload::scenario::Scenario;
use rmodp_workload::slo::{self, SloReport};

use crate::inject::{AppliedFault, FaultInjector};
use crate::oracle::{verify_recovery, RecoveryReport};
use crate::plan::FaultPlan;

/// Everything a chaos run produces.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Raw workload statistics.
    pub stats: RunStats,
    /// SLO verdict against the scenario's contract.
    pub report: SloReport,
    /// The faults as they actually played out.
    pub faults: Vec<AppliedFault>,
    /// Recovery verdicts and hardened-path counters.
    pub recovery: RecoveryReport,
}

/// Runs a scenario over `channel` while injecting `plan`, then evaluates
/// both the SLO contract and the recovery oracles.
///
/// `client` is the engineering node the channel was opened from; the
/// oracle needs its sim-node index to locate the client's sends and
/// deliveries in the event stream.
///
/// # Errors
///
/// Unknown `client` node.
pub fn run_scenario_under_faults(
    engine: &mut Engine,
    client: NodeId,
    channel: ChannelId,
    scenario: &Scenario,
    plan: FaultPlan,
) -> Result<ChaosOutcome, EngError> {
    let client_idx = engine.sim_node(client)?;
    let mut injector = FaultInjector::new(plan, engine.sim().now());
    let stats = execute_with(engine, channel, scenario, &mut [&mut injector]);
    let report = slo::evaluate(scenario, &stats);
    let faults = injector.into_applied();
    let recovery = verify_recovery(
        &bus::snapshot_events(),
        &bus::snapshot_metrics(),
        client_idx.0 as u64,
        &faults,
    );
    Ok(ChaosOutcome {
        stats,
        report,
        faults,
        recovery,
    })
}
