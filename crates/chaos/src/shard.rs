//! Fault injection for sharded runs: a [`FaultPlan`] compiled into an
//! epoch timeline.
//!
//! Under the sharded kernel, faults cannot be injected by a simulator
//! process (a fault mutates the *topology*, and under sharding every
//! shard holds its own copy of the topology that must change in
//! lock-step). Instead, [`compile`] turns a plan into a sorted timeline
//! of [`ShardAction`]s for [`ShardedKernel::run_with`], which pauses the
//! epoch protocol at each fault instant and applies the actions to
//! **every** shard before any event at or after that instant is
//! processed. That barrier is what keeps fault timing exact — and
//! therefore shard-count invariant: a message sent before the instant
//! still dies at its crashed destination, and one sent after dies at the
//! source, exactly as in a single-shard run.
//!
//! Only *topology-level* faults are expressible as shard actions; plans
//! that use loss bursts, latency spikes, or capsule kills are rejected at
//! compile time rather than silently dropped (loss would also reintroduce
//! per-shard RNG draws, breaking invariance).
//!
//! [`ShardedKernel::run_with`]: rmodp_kernel::ShardedKernel::run_with

use rmodp_netsim::sim::ShardAction;
use rmodp_netsim::time::SimTime;

use crate::plan::{FaultPlan, Phase};

/// Compiles a plan onto absolute virtual time (the plan epoch is the run
/// origin, `t = 0`): `(instant, actions)` strictly ascending by instant,
/// all actions sharing an instant grouped in plan insertion order.
///
/// # Errors
///
/// A description of the first fault whose kind cannot be expressed as a
/// topology-level shard action.
pub fn compile(plan: &FaultPlan) -> Result<Vec<(SimTime, Vec<ShardAction>)>, String> {
    for (i, event) in plan.events.iter().enumerate() {
        if event.fault.topology_action(Phase::Apply).is_none() {
            return Err(format!(
                "event #{i}: {} faults are not supported under sharded \
                 execution (only crash/restart and partition/heal act on \
                 the replicated topology)",
                event.fault.label()
            ));
        }
    }
    let mut timeline: Vec<(SimTime, Vec<ShardAction>)> = Vec::new();
    for step in plan.steps(SimTime::ZERO) {
        let action = plan.events[step.index].fault.topology_action(step.phase);
        let action = action.expect("every fault was checked above");
        match timeline.last_mut() {
            Some((t, group)) if *t == step.at => group.push(action),
            _ => timeline.push((step.at, vec![action])),
        }
    }
    Ok(timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use rmodp_netsim::sim::NodeIdx;
    use rmodp_netsim::time::SimDuration;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn plans_compile_to_an_ordered_timeline() {
        let plan = FaultPlan::new()
            .with(
                us(500),
                FaultKind::Partition {
                    a: NodeIdx(0),
                    b: NodeIdx(2),
                    heal_after: us(300),
                },
            )
            .with(
                us(100),
                FaultKind::CrashRestart {
                    node: NodeIdx(4),
                    down_for: us(400),
                },
            );
        // Crash, then partition + restart, then heal. The restart
        // (100 + 400) and the partition (500) share an instant and fire
        // together; the stable sort preserves plan insertion order within
        // an instant, and the partition event was inserted first.
        assert_eq!(
            compile(&plan).expect("compilable plan"),
            vec![
                (
                    SimTime::ZERO + us(100),
                    vec![ShardAction::Crash(NodeIdx(4))]
                ),
                (
                    SimTime::ZERO + us(500),
                    vec![
                        ShardAction::Partition(NodeIdx(0), NodeIdx(2)),
                        ShardAction::Restart(NodeIdx(4)),
                    ]
                ),
                (
                    SimTime::ZERO + us(800),
                    vec![ShardAction::Heal(NodeIdx(0), NodeIdx(2))]
                ),
            ]
        );
    }

    #[test]
    fn unsupported_fault_kinds_are_rejected() {
        let plan = FaultPlan::new().with(
            us(100),
            FaultKind::LossBurst {
                a: NodeIdx(0),
                b: NodeIdx(1),
                loss: 0.5,
                window: us(200),
            },
        );
        let err = compile(&plan).unwrap_err();
        assert!(err.contains("loss_burst"), "{err}");
    }
}
