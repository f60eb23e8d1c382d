//! Compiling a [`FaultPlan`] onto virtual time and applying it.
//!
//! The [`FaultInjector`] walks a plan's apply/clear steps, sorted by
//! time and anchored at an epoch. It is a kernel [`Actor`]: registered on
//! the same [`Kernel`] as a load generator (ahead of it, so equal-time
//! ties resolve fault-first), its actions land at exact virtual instants
//! regardless of the load pattern. [`FaultInjector::apply_until`] and
//! [`FaultInjector::finish`] drive a private single-actor kernel for
//! callers that schedule faults without a workload.
//!
//! [`FaultPlan`]: crate::plan::FaultPlan

use std::collections::BTreeMap;

use rmodp_engineering::engine::Engine;
use rmodp_engineering::structure::ClusterCheckpoint;
use rmodp_kernel::{Actor, Kernel, ShardWorld};
use rmodp_netsim::sim::NodeIdx;
use rmodp_netsim::time::SimTime;
use rmodp_netsim::topology::LinkConfig;
use rmodp_observe::{bus, event, EventKind, Layer};

use crate::plan::{FaultKind, FaultPlan, Phase, Step};

/// The record of one fault as it actually played out.
#[derive(Debug, Clone)]
pub struct AppliedFault {
    /// Index in the originating plan.
    pub index: usize,
    /// Fault type label (e.g. `crash_restart`).
    pub label: &'static str,
    /// Human-readable parameters.
    pub detail: String,
    /// Virtual time at which the fault was applied.
    pub injected_at: SimTime,
    /// Virtual time at which it was cleared, if it has been.
    pub cleared_at: Option<SimTime>,
}

/// Applies a compiled fault schedule to an [`Engine`], interleaved with
/// simulation progress.
pub struct FaultInjector {
    plan: FaultPlan,
    /// The plan's steps, sorted by time (plan order breaks ties).
    steps: Vec<Step>,
    next: usize,
    /// Saved link configs for faults that perturb links, keyed by fault
    /// index: `(a→b, b→a)`.
    saved_links: BTreeMap<usize, (LinkConfig, LinkConfig)>,
    /// Checkpoints held while a killed capsule's cluster is down.
    checkpoints: BTreeMap<usize, ClusterCheckpoint>,
    /// What actually happened, in application order.
    applied: Vec<AppliedFault>,
}

impl FaultInjector {
    /// Compiles a plan against epoch `t0`: each fault applies at
    /// `t0 + at` and clears at `t0 + at + window`.
    pub fn new(plan: FaultPlan, t0: SimTime) -> Self {
        Self {
            steps: plan.steps(t0),
            plan,
            next: 0,
            saved_links: BTreeMap::new(),
            checkpoints: BTreeMap::new(),
            applied: Vec::new(),
        }
    }

    /// The faults applied so far, with their injection/clear times.
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Consumes the injector, returning the applied-fault log.
    pub fn into_applied(self) -> Vec<AppliedFault> {
        self.applied
    }

    /// Advances the simulation to `target`, performing every fault
    /// action that falls due on the way. The simulator never runs past a
    /// pending action, so faults take effect at exact virtual instants.
    pub fn apply_until(&mut self, engine: &mut Engine, target: SimTime) {
        let mut kernel = Kernel::new();
        kernel.register(self);
        kernel.advance_to(engine, target);
    }

    /// Performs all remaining actions, advancing the clock between them,
    /// then drains the simulator to quiescence.
    pub fn finish(&mut self, engine: &mut Engine) {
        let mut kernel = Kernel::new();
        kernel.register(self);
        kernel.finish(engine);
    }

    fn perform(&mut self, engine: &mut Engine, step: Step) {
        let fault = self.plan.events[step.index].fault.clone();
        // Topology faults go through the action the sharded run applies.
        match (fault.topology_action(step.phase), step.phase) {
            (Some(action), _) => engine.sim_mut().apply_action(&action),
            (None, Phase::Apply) => self.apply_fault(engine, step.index, &fault),
            (None, Phase::Clear) => self.clear_fault(engine, step.index, &fault),
        }
        match step.phase {
            Phase::Apply => {
                let now = engine.sim().now();
                bus::counter_add("chaos.faults_injected", 1);
                event(Layer::Application, EventKind::FaultInject)
                    .detail_fmt(format_args!("{fault}"))
                    .emit();
                self.applied.push(AppliedFault {
                    index: step.index,
                    label: fault.label(),
                    detail: fault.to_string(),
                    injected_at: now,
                    cleared_at: None,
                });
            }
            Phase::Clear => {
                let now = engine.sim().now();
                bus::counter_add("chaos.faults_cleared", 1);
                event(Layer::Application, EventKind::FaultClear)
                    .detail_fmt(format_args!("{fault}"))
                    .emit();
                if let Some(rec) = self.applied.iter_mut().find(|r| r.index == step.index) {
                    rec.cleared_at = Some(now);
                }
            }
        }
    }

    fn stash_links(&mut self, engine: &Engine, index: usize, a: NodeIdx, b: NodeIdx) {
        let topo = engine.sim().topology();
        self.saved_links
            .insert(index, (topo.link(a, b), topo.link(b, a)));
    }

    fn restore_links(&mut self, engine: &mut Engine, index: usize, a: NodeIdx, b: NodeIdx) {
        if let Some((ab, ba)) = self.saved_links.remove(&index) {
            let topo = engine.sim_mut().topology_mut();
            topo.set_link(a, b, ab);
            topo.set_link(b, a, ba);
        }
    }

    fn apply_fault(&mut self, engine: &mut Engine, index: usize, fault: &FaultKind) {
        match *fault {
            FaultKind::CrashRestart { .. } | FaultKind::Partition { .. } => {
                unreachable!("topology faults are shard actions")
            }
            FaultKind::LossBurst { a, b, loss, .. } => {
                self.stash_links(engine, index, a, b);
                let (ab, ba) = self.saved_links[&index];
                let topo = engine.sim_mut().topology_mut();
                topo.set_link(a, b, LinkConfig { loss, ..ab });
                topo.set_link(b, a, LinkConfig { loss, ..ba });
            }
            FaultKind::OneWayLoss { from, to, loss, .. } => {
                // Only the from→to direction is perturbed; the stash
                // still records both so the clear path is shared.
                self.stash_links(engine, index, from, to);
                let (ft, _) = self.saved_links[&index];
                engine
                    .sim_mut()
                    .topology_mut()
                    .set_link(from, to, LinkConfig { loss, ..ft });
            }
            FaultKind::LatencySpike { a, b, extra, .. } => {
                self.stash_links(engine, index, a, b);
                let (ab, ba) = self.saved_links[&index];
                let topo = engine.sim_mut().topology_mut();
                topo.set_link(
                    a,
                    b,
                    LinkConfig {
                        latency: ab.latency + extra,
                        ..ab
                    },
                );
                topo.set_link(
                    b,
                    a,
                    LinkConfig {
                        latency: ba.latency + extra,
                        ..ba
                    },
                );
            }
            FaultKind::CapsuleKill {
                node,
                capsule,
                cluster,
                ..
            } => {
                // Failure to deactivate (already gone) leaves nothing to
                // reactivate; the clear phase tolerates the missing
                // checkpoint.
                if let Ok(cp) = engine.deactivate_cluster(node, capsule, cluster) {
                    self.checkpoints.insert(index, cp);
                }
            }
        }
    }

    fn clear_fault(&mut self, engine: &mut Engine, index: usize, fault: &FaultKind) {
        match *fault {
            FaultKind::CrashRestart { .. } | FaultKind::Partition { .. } => {
                unreachable!("topology faults are shard actions")
            }
            FaultKind::LossBurst { a, b, .. } | FaultKind::LatencySpike { a, b, .. } => {
                self.restore_links(engine, index, a, b);
            }
            FaultKind::OneWayLoss { from, to, .. } => {
                self.restore_links(engine, index, from, to);
            }
            FaultKind::CapsuleKill { node, capsule, .. } => {
                if let Some(cp) = self.checkpoints.remove(&index) {
                    engine
                        .reactivate_cluster(node, capsule, &cp)
                        .expect("reactivation of a checkpoint taken from this engine");
                }
            }
        }
    }
}

/// One kernel tick performs one step; equal-time steps fire as
/// consecutive ticks at the same instant, preserving plan order.
impl Actor<Engine> for FaultInjector {
    fn next_due(&self, _world: &Engine) -> Option<SimTime> {
        self.steps.get(self.next).map(|step| step.at)
    }

    fn tick(&mut self, world: &mut Engine, _at: SimTime) {
        let step = self.steps[self.next];
        self.next += 1;
        self.perform(world, step);
    }

    fn name(&self) -> &'static str {
        "fault_injector"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::codec::SyntaxId;
    use rmodp_netsim::time::SimDuration;

    #[test]
    fn crash_restart_round_trips_topology_state() {
        let mut engine = Engine::new(11);
        let a = engine.add_node(SyntaxId::Binary);
        let _b = engine.add_node(SyntaxId::Binary);
        let na = engine.sim_node(a).unwrap();
        let plan = FaultPlan::new().with(
            SimDuration::from_millis(10),
            FaultKind::CrashRestart {
                node: na,
                down_for: SimDuration::from_millis(5),
            },
        );
        let mut inj = FaultInjector::new(plan, engine.sim().now());
        inj.apply_until(&mut engine, SimTime::from_micros(12_000));
        assert!(engine.sim().topology().is_crashed(na));
        inj.finish(&mut engine);
        assert!(!engine.sim().topology().is_crashed(na));
        let log = inj.into_applied();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].label, "crash_restart");
        assert_eq!(log[0].injected_at, SimTime::from_micros(10_000));
        assert_eq!(log[0].cleared_at, Some(SimTime::from_micros(15_000)));
    }

    #[test]
    fn loss_burst_restores_saved_link() {
        let mut engine = Engine::new(12);
        let a = engine.add_node(SyntaxId::Binary);
        let b = engine.add_node(SyntaxId::Binary);
        let (na, nb) = (engine.sim_node(a).unwrap(), engine.sim_node(b).unwrap());
        let before = engine.sim().topology().link(na, nb);
        let plan = FaultPlan::new().with(
            SimDuration::from_millis(1),
            FaultKind::LossBurst {
                a: na,
                b: nb,
                loss: 0.9,
                window: SimDuration::from_millis(2),
            },
        );
        let mut inj = FaultInjector::new(plan, engine.sim().now());
        inj.apply_until(&mut engine, SimTime::from_micros(1_500));
        assert!((engine.sim().topology().link(na, nb).loss - 0.9).abs() < 1e-9);
        inj.finish(&mut engine);
        assert_eq!(engine.sim().topology().link(na, nb), before);
    }
}
