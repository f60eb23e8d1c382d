//! Running workloads under fault plans.
//!
//! [`run_scenario_under_faults`] is the top-level chaos harness: it
//! schedules a [`FaultPlan`] into the engine's simulator at its current
//! virtual time, runs a `rmodp-workload` scenario on the same queue, and
//! judges the result with [`verify_recovery`] over the run's event
//! stream and metrics. Same engine seed, scenario, and plan →
//! byte-identical traces and reports.

use rmodp_core::id::{ChannelId, NodeId};
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_observe::bus;
use rmodp_workload::driver::{execute, RunStats};
use rmodp_workload::scenario::Scenario;
use rmodp_workload::slo::{self, SloReport};

use crate::oracle::{verify_recovery, RecoveryReport};
use crate::plan::FaultPlan;

/// Everything a chaos run produces.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Raw workload statistics.
    pub stats: RunStats,
    /// SLO verdict against the scenario's contract.
    pub report: SloReport,
    /// Recovery verdicts, one per fault, and hardened-path counters.
    pub recovery: RecoveryReport,
}

/// Runs a scenario over `channel` while the simulator plays `plan`, then
/// evaluates both the SLO contract and the recovery oracles.
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
    let t0 = engine.sim().now();
    plan.schedule_on(engine.sim_mut());
    let stats = execute(engine, channel, scenario);
    let report = slo::evaluate(scenario, &stats);
    let recovery = verify_recovery(
        &bus::snapshot_events(),
        &bus::snapshot_metrics(),
        client_idx.0 as u64,
        &plan,
        t0,
    );
    Ok(ChaosOutcome {
        stats,
        report,
        recovery,
    })
}
