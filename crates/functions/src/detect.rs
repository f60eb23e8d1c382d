//! Heartbeat-based failure detection on virtual time.
//!
//! A group view is only useful if something notices that a member has
//! stopped answering. The [`FailureDetector`] probes each watched
//! interface from a monitor node over an ordinary engineering channel
//! with a short one-shot timeout; every probe therefore consumes a
//! deterministic amount of *virtual* time whether it is answered or
//! not, so detection latency — and everything downstream of it, like
//! failover MTTR — is exactly reproducible for a given seed.
//!
//! A member missing two consecutive probes becomes **suspected** (a
//! `suspect` event, counted on `detector.suspects`); a suspected member
//! that answers again is **restored** (`restore`, `detector.restores`).
//! Suspicion is the trigger for a quorum election
//! ([`ReplicatedService::fail_over`]); it is deliberately only a
//! *hint* — safety never depends on the detector being right, only
//! liveness does, because a wrongly suspected leader is fenced by the
//! epoch machinery rather than trusted to be dead.
//!
//! [`ReplicatedService::fail_over`]: ../../rmodp_transparency/replication/struct.ReplicatedService.html#method.fail_over

use std::collections::BTreeMap;

use rmodp_core::id::{InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp_engineering::engine::Engine;
use rmodp_netsim::time::SimDuration;
use rmodp_observe::{bus, event, EventKind, Layer};

/// Virtual-time gap between probe rounds ([`FailureDetector::run_round`]
/// idles the simulation up to one period from the round's start).
const PERIOD: SimDuration = SimDuration::from_millis(20);

/// How long a single probe waits for an answer.
const TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Consecutive misses before a member is suspected.
const SUSPECT_AFTER: u32 = 2;

/// What a probe round observed about one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// The member crossed the miss threshold and is now suspected.
    Suspected(InterfaceId),
    /// A suspected member answered and is trusted again.
    Restored(InterfaceId),
}

#[derive(Debug)]
struct MemberHealth {
    channel: Option<rmodp_core::id::ChannelId>,
    misses: u32,
    suspected: bool,
}

/// A heartbeat failure detector probing watched interfaces from one
/// monitor node. See the module docs for semantics.
#[derive(Debug)]
pub struct FailureDetector {
    monitor: NodeId,
    members: BTreeMap<InterfaceId, MemberHealth>,
}

impl FailureDetector {
    /// Creates a detector probing from `monitor`.
    pub fn new(monitor: NodeId) -> Self {
        Self {
            monitor,
            members: BTreeMap::new(),
        }
    }

    /// Starts watching an interface (idempotent).
    pub fn watch(&mut self, member: InterfaceId) {
        self.members.entry(member).or_insert(MemberHealth {
            channel: None,
            misses: 0,
            suspected: false,
        });
    }

    /// Whether a member is currently suspected.
    pub fn is_suspected(&self, member: InterfaceId) -> bool {
        self.members
            .get(&member)
            .map(|h| h.suspected)
            .unwrap_or(false)
    }

    /// Probes every watched member once, in id order, then idles the
    /// simulation to one detector period past the round's start (so
    /// repeated rounds tick deterministically even when every member
    /// answers fast). Returns the suspicion transitions of this round.
    pub fn run_round(&mut self, engine: &mut Engine) -> Vec<Detection> {
        let round_start = engine.now();
        let mut transitions = Vec::new();
        let ids: Vec<InterfaceId> = self.members.keys().copied().collect();
        for member in ids {
            let answered = self.probe(engine, member);
            let health = self.members.get_mut(&member).expect("watched");
            if answered {
                health.misses = 0;
                if health.suspected {
                    health.suspected = false;
                    bus::counter_add("detector.restores", 1);
                    event(Layer::Functions, EventKind::Restore)
                        .in_context()
                        .detail_fmt(format_args!("member={}", member.raw()))
                        .emit();
                    transitions.push(Detection::Restored(member));
                }
            } else {
                health.misses += 1;
                if !health.suspected && health.misses >= SUSPECT_AFTER {
                    health.suspected = true;
                    bus::counter_add("detector.suspects", 1);
                    event(Layer::Functions, EventKind::Suspect)
                        .in_context()
                        .detail_fmt(format_args!(
                            "member={} misses={}",
                            member.raw(),
                            health.misses
                        ))
                        .emit();
                    transitions.push(Detection::Suspected(member));
                }
            }
        }
        let next = round_start + PERIOD;
        if engine.now() < next {
            engine.sim_mut().run_until(next);
        }
        transitions
    }

    /// One probe: any termination (even an application `Error`) counts
    /// as liveness; only transport-level failure counts as a miss.
    fn probe(&mut self, engine: &mut Engine, member: InterfaceId) -> bool {
        let health = self.members.get_mut(&member).expect("watched");
        if health.channel.is_none() {
            let config = ChannelConfig {
                retry: Some(
                    RetryPolicy::one_shot()
                        .with_timeout(TIMEOUT)
                        .with_deadline(TIMEOUT),
                ),
                ..ChannelConfig::default()
            };
            health.channel = engine.open_channel(self.monitor, member, config).ok();
        }
        let Some(channel) = health.channel else {
            return false;
        };
        bus::counter_add("detector.probes", 1);
        let answered = engine
            .call(channel, "Ping", &Value::record::<&str, _>([]))
            .is_ok();
        event(Layer::Functions, EventKind::Heartbeat)
            .in_context()
            .detail_fmt(format_args!(
                "member={} {}",
                member.raw(),
                if answered { "ack" } else { "miss" }
            ))
            .emit();
        answered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::codec::SyntaxId;
    use rmodp_engineering::behaviour::CounterBehaviour;

    fn world() -> (Engine, NodeId, InterfaceId) {
        let mut engine = Engine::new(7);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let server = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(server).unwrap();
        let cluster = engine.add_cluster(server, capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                server,
                capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        (engine, server, refs[0].interface)
    }

    #[test]
    fn suspects_after_threshold_and_restores_on_answer() {
        let (mut engine, server, interface) = world();
        let mut detector = FailureDetector::new(engine.add_node(SyntaxId::Binary));
        detector.watch(interface);
        assert!(detector.run_round(&mut engine).is_empty());
        assert!(!detector.is_suspected(interface));

        let idx = engine.sim_node(server).unwrap();
        engine.sim_mut().topology_mut().crash(idx);
        // First miss: below the threshold of 2.
        assert!(detector.run_round(&mut engine).is_empty());
        // Second miss: suspected.
        assert_eq!(
            detector.run_round(&mut engine),
            vec![Detection::Suspected(interface)]
        );
        assert!(detector.is_suspected(interface));
        // Stays suspected without re-announcing.
        assert!(detector.run_round(&mut engine).is_empty());

        engine.sim_mut().topology_mut().restart(idx);
        assert_eq!(
            detector.run_round(&mut engine),
            vec![Detection::Restored(interface)]
        );
        assert!(!detector.is_suspected(interface));
        assert!(bus::counter("detector.probes") >= 5);
        assert_eq!(bus::counter("detector.suspects"), 1);
        assert_eq!(bus::counter("detector.restores"), 1);
    }

    #[test]
    fn rounds_consume_deterministic_virtual_time() {
        let (mut engine, _server, interface) = world();
        let monitor = engine.add_node(SyntaxId::Binary);
        let mut detector = FailureDetector::new(monitor);
        detector.watch(interface);
        let t0 = engine.now();
        detector.run_round(&mut engine);
        let after_one = engine.now();
        // A healthy round still advances exactly one period.
        assert_eq!(after_one, t0 + PERIOD);
        detector.run_round(&mut engine);
        assert_eq!(engine.now(), after_one + PERIOD);
    }
}
