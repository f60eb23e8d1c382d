//! Fault plans: seeded, typed schedules of infrastructure failures.
//!
//! A [`FaultPlan`] is data, not behaviour: a list of `(offset, fault)`
//! pairs expressed on virtual time relative to an epoch chosen at
//! injection time. Plans can be written by hand with [`FaultPlan::with`]
//! or drawn from a seeded RNG with [`FaultPlan::generate`]; either way
//! the plan is a plain value that renders deterministically, so two runs
//! from the same seed produce byte-identical fault traces.
//!
//! [`FaultPlan::timeline`] is the one compiler of a plan: every run, on
//! one queue ([`FaultPlan::schedule_on`]) or on N shards
//! (`ShardedKernel::run_with`), plays the actions it returns.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmodp_netsim::sim::{NodeIdx, ShardAction, Sim};
use rmodp_netsim::time::{SimDuration, SimTime};
use rmodp_netsim::topology::{LinkConfig, Topology};

/// A typed fault on the netsim topology: a node, a pair's connectivity,
/// or the characteristics of a link, for a window.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Crash a node, dropping everything in flight to or from it, then
    /// restart it after `down_for`.
    CrashRestart {
        /// The node to crash.
        node: NodeIdx,
        /// How long the node stays down.
        down_for: SimDuration,
    },
    /// Partition two nodes (both directions), healing after `heal_after`.
    Partition {
        /// One side of the cut.
        a: NodeIdx,
        /// The other side of the cut.
        b: NodeIdx,
        /// How long the partition lasts.
        heal_after: SimDuration,
    },
    /// Raise the loss probability on the `a`↔`b` links to `loss` for a
    /// window, then restore the previous link characteristics.
    LossBurst {
        /// One endpoint.
        a: NodeIdx,
        /// The other endpoint.
        b: NodeIdx,
        /// Loss probability in `[0, 1]` during the burst.
        loss: f64,
        /// Burst duration.
        window: SimDuration,
    },
    /// Raise the loss probability on the directed `from`→`to` link only
    /// for a window. With `from` the server and `to` the client this
    /// drops replies while requests keep arriving — every retransmission
    /// then reaches the server as a genuine duplicate, which is the
    /// sharpest probe of the request-dedup cache.
    OneWayLoss {
        /// Source of the lossy direction.
        from: NodeIdx,
        /// Destination of the lossy direction.
        to: NodeIdx,
        /// Loss probability in `[0, 1]` during the burst.
        loss: f64,
        /// Burst duration.
        window: SimDuration,
    },
    /// Add `extra` one-way latency on the `a`↔`b` links for a window.
    LatencySpike {
        /// One endpoint.
        a: NodeIdx,
        /// The other endpoint.
        b: NodeIdx,
        /// Additional latency during the spike.
        extra: SimDuration,
        /// Spike duration.
        window: SimDuration,
    },
}

/// Which half of a fault a [`Step`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Apply,
    Clear,
}

/// One step of a plan laid out on virtual time: at absolute time `at`,
/// apply or clear fault `index` of the plan.
#[derive(Debug, Clone, Copy)]
struct Step {
    at: SimTime,
    index: usize,
    phase: Phase,
}

impl FaultKind {
    /// The directed links a link fault perturbs; none for the others.
    fn links(&self) -> Vec<(NodeIdx, NodeIdx)> {
        match *self {
            FaultKind::LossBurst { a, b, .. } | FaultKind::LatencySpike { a, b, .. } => {
                vec![(a, b), (b, a)]
            }
            FaultKind::OneWayLoss { from, to, .. } => vec![(from, to)],
            FaultKind::CrashRestart { .. } | FaultKind::Partition { .. } => Vec::new(),
        }
    }

    /// Short machine-friendly label for the fault type.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CrashRestart { .. } => "crash_restart",
            FaultKind::Partition { .. } => "partition",
            FaultKind::LossBurst { .. } => "loss_burst",
            FaultKind::OneWayLoss { .. } => "one_way_loss",
            FaultKind::LatencySpike { .. } => "latency_spike",
        }
    }

    /// The duration of the fault window (time until the clearing action).
    pub fn window(&self) -> SimDuration {
        match self {
            FaultKind::CrashRestart { down_for, .. } => *down_for,
            FaultKind::Partition { heal_after, .. } => *heal_after,
            FaultKind::LossBurst { window, .. } => *window,
            FaultKind::OneWayLoss { window, .. } => *window,
            FaultKind::LatencySpike { window, .. } => *window,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::CrashRestart { node, down_for } => {
                write!(f, "crash {node} for {}us", down_for.as_micros())
            }
            FaultKind::Partition { a, b, heal_after } => {
                write!(f, "partition {a}<->{b} for {}us", heal_after.as_micros())
            }
            FaultKind::LossBurst { a, b, loss, window } => write!(
                f,
                "loss burst {a}<->{b} p={loss:.2} for {}us",
                window.as_micros()
            ),
            FaultKind::OneWayLoss {
                from,
                to,
                loss,
                window,
            } => write!(
                f,
                "one-way loss {from}->{to} p={loss:.2} for {}us",
                window.as_micros()
            ),
            FaultKind::LatencySpike {
                a,
                b,
                extra,
                window,
            } => write!(
                f,
                "latency spike {a}<->{b} +{}us for {}us",
                extra.as_micros(),
                window.as_micros()
            ),
        }
    }
}

/// A fault scheduled at an offset from the plan's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Offset from the plan epoch at which the fault is injected.
    pub at: SimDuration,
    /// The fault to inject.
    pub fault: FaultKind,
}

/// An ordered schedule of faults. Events are kept in insertion order;
/// its consumers walk them stable-sorted by time, so ties resolve in
/// insertion order and the plan stays deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

/// Parameters for drawing a random [`FaultPlan`] from a seed.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Server-side nodes eligible for crashes and partitions.
    pub servers: Vec<NodeIdx>,
    /// The client node (the other endpoint of partitions and link
    /// faults — faults that cannot be observed are not interesting).
    pub client: NodeIdx,
    /// Length of the experiment; fault injection times are drawn from
    /// the middle of this interval so every window can close before the
    /// run ends.
    pub duration: SimDuration,
    /// Number of crash+restart faults to draw.
    pub crashes: usize,
    /// Number of partition+heal faults to draw.
    pub partitions: usize,
    /// Number of loss bursts to draw.
    pub loss_bursts: usize,
    /// Number of latency spikes to draw.
    pub latency_spikes: usize,
    /// Mean fault window; actual windows are drawn uniformly from
    /// `[mean/2, 3*mean/2]`.
    pub mean_downtime: SimDuration,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedules a fault at an offset from the plan epoch.
    pub fn with(mut self, at: SimDuration, fault: FaultKind) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// Lays the plan out against epoch `t0`: each fault applies at
    /// `t0 + at` and clears at `t0 + at + window`. Steps come sorted by
    /// instant; within an instant they keep plan order (a fault's apply
    /// before its clear).
    fn steps(&self, t0: SimTime) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.events.len() * 2);
        for (index, ev) in self.events.iter().enumerate() {
            let start = t0 + ev.at;
            let halves = [
                (start, Phase::Apply),
                (start + ev.fault.window(), Phase::Clear),
            ];
            steps.extend(halves.map(|(at, phase)| Step { at, index, phase }));
        }
        steps.sort_by_key(|step| step.at);
        steps
    }

    /// Compiles the plan against epoch `t0` into the timeline every run
    /// plays: `(instant, actions)` strictly ascending by instant, the
    /// actions of an instant in plan order. Each fault applies at
    /// `t0 + at` and clears `window` later.
    ///
    /// Crash/restart and partition/heal are actions of their own. A link
    /// fault sets each directed link it covers to an absolute value,
    /// computed at that instant from the link in `topology` and every
    /// link fault then active: latency is the base plus the sum of the
    /// active spikes, loss the highest active burst (the base loss when
    /// none is). Overlapping faults thus never restore a stale value, and
    /// a fault alone sets and restores only its own field.
    pub fn timeline(&self, t0: SimTime, topology: &Topology) -> Vec<(SimTime, Vec<ShardAction>)> {
        let mut timeline: Vec<(SimTime, Vec<ShardAction>)> = Vec::new();
        for step in self.steps(t0) {
            if timeline.last().is_none_or(|(at, _)| *at != step.at) {
                timeline.push((step.at, Vec::new()));
            }
            let fault = &self.events[step.index].fault;
            let actions = match (fault, step.phase) {
                (FaultKind::CrashRestart { node, .. }, Phase::Apply) => {
                    vec![ShardAction::Crash(*node)]
                }
                (FaultKind::CrashRestart { node, .. }, Phase::Clear) => {
                    vec![ShardAction::Restart(*node)]
                }
                (FaultKind::Partition { a, b, .. }, Phase::Apply) => {
                    vec![ShardAction::Partition(*a, *b)]
                }
                (FaultKind::Partition { a, b, .. }, Phase::Clear) => {
                    vec![ShardAction::Heal(*a, *b)]
                }
                _ => fault
                    .links()
                    .into_iter()
                    .map(|(from, to)| {
                        ShardAction::SetLink(
                            from,
                            to,
                            self.link_at(t0, step.at, topology, (from, to)),
                        )
                    })
                    .collect(),
            };
            let group = &mut timeline.last_mut().expect("pushed above").1;
            for action in actions {
                // Two faults moving one link at one instant set it once.
                if !group.contains(&action) {
                    group.push(action);
                }
            }
        }
        timeline
    }

    /// The directed link `link` at instant `at`: its value in `topology`
    /// under every link fault active then (see [`Self::timeline`]).
    fn link_at(
        &self,
        t0: SimTime,
        at: SimTime,
        topology: &Topology,
        link: (NodeIdx, NodeIdx),
    ) -> LinkConfig {
        let base = topology.link(link.0, link.1);
        let mut value = base;
        let mut burst: Option<f64> = None;
        for event in &self.events {
            let start = t0 + event.at;
            let active = start <= at && at < start + event.fault.window();
            if !active || !event.fault.links().contains(&link) {
                continue;
            }
            match event.fault {
                FaultKind::LossBurst { loss, .. } | FaultKind::OneWayLoss { loss, .. } => {
                    burst = Some(burst.map_or(loss, |highest| highest.max(loss)));
                }
                FaultKind::LatencySpike { extra, .. } => value.latency = value.latency + extra,
                FaultKind::CrashRestart { .. } | FaultKind::Partition { .. } => {}
            }
        }
        value.loss = burst.unwrap_or(base.loss);
        value
    }

    /// Compiles the plan against the simulator's current instant and puts
    /// every action into its queue ([`Sim::schedule_action`]): whatever
    /// advances the clock from here plays the plan. Schedule it before
    /// the load, so an action precedes that load's events at its instant.
    pub fn schedule_on(&self, sim: &mut Sim) {
        for (at, actions) in self.timeline(sim.now(), sim.topology()) {
            for action in actions {
                sim.schedule_action(at, action);
            }
        }
    }

    /// The faults in injection order: by offset, ties in plan order.
    pub fn in_time_order(&self) -> Vec<&FaultEvent> {
        let mut sorted: Vec<&FaultEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| e.at);
        sorted
    }

    /// Checks the plan's static invariants: every fault window is
    /// non-zero (a zero-length fault would inject and clear at the same
    /// virtual instant, ordering-dependently), loss probabilities lie in
    /// `[0, 1]`, and two-endpoint faults name two *distinct* nodes (a
    /// self-partition is always a plan bug, never a scenario).
    ///
    /// # Errors
    ///
    /// The first violation found, as a human-readable description
    /// naming the offending event.
    fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            let what = |msg: &str| {
                format!(
                    "event #{i} (+{}us, {}): {msg}",
                    e.at.as_micros(),
                    e.fault.label()
                )
            };
            if e.fault.window().as_micros() == 0 {
                return Err(what("zero-length fault window"));
            }
            match &e.fault {
                FaultKind::Partition { a, b, .. } | FaultKind::LatencySpike { a, b, .. } => {
                    if a == b {
                        return Err(what("both endpoints are the same node"));
                    }
                }
                FaultKind::LossBurst { a, b, loss, .. } => {
                    if a == b {
                        return Err(what("both endpoints are the same node"));
                    }
                    if !(0.0..=1.0).contains(loss) {
                        return Err(what("loss probability outside [0, 1]"));
                    }
                }
                FaultKind::OneWayLoss { from, to, loss, .. } => {
                    if from == to {
                        return Err(what("both endpoints are the same node"));
                    }
                    if !(0.0..=1.0).contains(loss) {
                        return Err(what("loss probability outside [0, 1]"));
                    }
                }
                FaultKind::CrashRestart { .. } => {}
            }
        }
        Ok(())
    }

    /// Draws a plan from a seed. The RNG is dedicated to the plan (it is
    /// not the simulator's RNG), and draws happen in a fixed order —
    /// crashes, then partitions, then loss bursts, then latency spikes —
    /// so the same seed and profile always yield the same plan. The
    /// drawn plan is `validate`d before being
    /// returned, so a profile that would produce degenerate faults
    /// (e.g. the client listed among the servers, making a
    /// self-partition possible) fails loudly instead of silently
    /// injecting a no-op.
    ///
    /// # Panics
    ///
    /// When the profile produces an invalid plan.
    pub fn generate(seed: u64, profile: &ChaosProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_57ed_c4a0_5eed);
        let mut plan = FaultPlan::new();
        let span = profile.duration.as_micros();
        // Inject within [10%, 85%] of the run so windows can open and
        // close while load is still being offered.
        let lo = span / 10;
        let hi = span * 85 / 100;
        let draw_at = |rng: &mut StdRng| SimDuration::from_micros(rng.gen_range(lo..=hi.max(lo)));
        let draw_window = |rng: &mut StdRng| {
            let mean = profile.mean_downtime.as_micros().max(2);
            SimDuration::from_micros(rng.gen_range(mean / 2..=mean * 3 / 2))
        };
        let pick_server = |rng: &mut StdRng| {
            profile.servers[rng.gen_range(0..profile.servers.len() as u64) as usize]
        };
        for _ in 0..profile.crashes {
            let at = draw_at(&mut rng);
            let node = pick_server(&mut rng);
            let down_for = draw_window(&mut rng);
            plan.events.push(FaultEvent {
                at,
                fault: FaultKind::CrashRestart { node, down_for },
            });
        }
        for _ in 0..profile.partitions {
            let at = draw_at(&mut rng);
            let b = pick_server(&mut rng);
            let heal_after = draw_window(&mut rng);
            plan.events.push(FaultEvent {
                at,
                fault: FaultKind::Partition {
                    a: profile.client,
                    b,
                    heal_after,
                },
            });
        }
        for _ in 0..profile.loss_bursts {
            let at = draw_at(&mut rng);
            let b = pick_server(&mut rng);
            let loss = 0.3 + 0.6 * rng.gen::<f64>();
            let window = draw_window(&mut rng);
            plan.events.push(FaultEvent {
                at,
                fault: FaultKind::LossBurst {
                    a: profile.client,
                    b,
                    loss,
                    window,
                },
            });
        }
        for _ in 0..profile.latency_spikes {
            let at = draw_at(&mut rng);
            let b = pick_server(&mut rng);
            let extra = SimDuration::from_micros(rng.gen_range(1_000u64..=20_000));
            let window = draw_window(&mut rng);
            plan.events.push(FaultEvent {
                at,
                fault: FaultKind::LatencySpike {
                    a: profile.client,
                    b,
                    extra,
                    window,
                },
            });
        }
        plan.validate()
            .unwrap_or_else(|why| panic!("generated plan is invalid: {why}"));
        plan
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Deterministic multi-line description of the plan, one fault per
    /// line in schedule order.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for e in self.in_time_order() {
            out.push_str(&format!("+{}us {}\n", e.at.as_micros(), e.fault));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ChaosProfile {
        ChaosProfile {
            servers: vec![NodeIdx(0), NodeIdx(1)],
            client: NodeIdx(2),
            duration: SimDuration::from_secs(2),
            crashes: 2,
            partitions: 1,
            loss_bursts: 1,
            latency_spikes: 1,
            mean_downtime: SimDuration::from_millis(80),
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(42, &profile());
        let b = FaultPlan::generate(42, &profile());
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, &profile());
        let b = FaultPlan::generate(2, &profile());
        assert_ne!(a.describe(), b.describe());
    }

    #[test]
    fn generate_draws_requested_counts() {
        let p = FaultPlan::generate(7, &profile());
        assert_eq!(p.len(), 5);
        let crashes = p
            .events
            .iter()
            .filter(|e| matches!(e.fault, FaultKind::CrashRestart { .. }))
            .count();
        assert_eq!(crashes, 2);
    }

    #[test]
    fn validate_rejects_degenerate_plans() {
        // Self-partition.
        let p = FaultPlan::new().with(
            SimDuration::from_millis(1),
            FaultKind::Partition {
                a: NodeIdx(3),
                b: NodeIdx(3),
                heal_after: SimDuration::from_millis(5),
            },
        );
        let err = p.validate().unwrap_err();
        assert!(err.contains("same node"), "{err}");
        assert!(err.contains("partition"), "{err}");

        // Loss probability out of range.
        let p = FaultPlan::new().with(
            SimDuration::from_millis(1),
            FaultKind::OneWayLoss {
                from: NodeIdx(0),
                to: NodeIdx(1),
                loss: 1.5,
                window: SimDuration::from_millis(5),
            },
        );
        assert!(p.validate().unwrap_err().contains("[0, 1]"));

        // Zero-length window.
        let p = FaultPlan::new().with(
            SimDuration::from_millis(1),
            FaultKind::CrashRestart {
                node: NodeIdx(0),
                down_for: SimDuration::from_micros(0),
            },
        );
        assert!(p.validate().unwrap_err().contains("zero-length"));

        // A generated plan always validates.
        assert!(FaultPlan::generate(9, &profile()).validate().is_ok());
    }

    #[test]
    fn the_timeline_is_anchored_sorted_and_keeps_plan_order_within_an_instant() {
        let ms = SimDuration::from_millis;
        let (n0, n1) = (NodeIdx(0), NodeIdx(1));
        let plan = FaultPlan::new()
            .with(
                ms(5),
                FaultKind::LossBurst {
                    a: n0,
                    b: n1,
                    loss: 0.5,
                    window: ms(10),
                },
            )
            .with(
                ms(1),
                FaultKind::CrashRestart {
                    node: n1,
                    down_for: ms(4),
                },
            )
            .with(
                ms(20),
                FaultKind::Partition {
                    a: n0,
                    b: n1,
                    heal_after: ms(3),
                },
            );
        let base = LinkConfig::with_latency(SimDuration::from_micros(800));
        let lossy = base.loss(0.5);
        let t0 = SimTime::ZERO + ms(100);
        let at = |offset: u64| t0 + ms(offset);
        // The restart (1 + 4) and the burst (5) share an instant: the
        // burst was inserted first, so it goes first. A lone burst sets
        // only the loss, both ways, and restores the base.
        assert_eq!(
            plan.timeline(t0, &Topology::full_mesh(base)),
            vec![
                (at(1), vec![ShardAction::Crash(n1)]),
                (
                    at(5),
                    vec![
                        ShardAction::SetLink(n0, n1, lossy),
                        ShardAction::SetLink(n1, n0, lossy),
                        ShardAction::Restart(n1),
                    ]
                ),
                (
                    at(15),
                    vec![
                        ShardAction::SetLink(n0, n1, base),
                        ShardAction::SetLink(n1, n0, base),
                    ]
                ),
                (at(20), vec![ShardAction::Partition(n0, n1)]),
                (at(23), vec![ShardAction::Heal(n0, n1)]),
            ]
        );
    }

    #[test]
    fn overlapping_link_faults_never_restore_a_stale_link() {
        use rmodp_observe::{bus, EventKind};

        let ms = SimDuration::from_millis;
        let mut sim = Sim::new(3);
        let (a, b) = (sim.add_node(), sim.add_node());
        let base = sim.topology().link(a, b);
        let plan = FaultPlan::new()
            .with(
                ms(1),
                FaultKind::LossBurst {
                    a,
                    b,
                    loss: 0.9,
                    window: ms(10),
                },
            )
            .with(
                ms(5),
                FaultKind::LatencySpike {
                    a,
                    b,
                    extra: ms(7),
                    window: ms(10),
                },
            );
        plan.schedule_on(&mut sim);
        let spiked = LinkConfig {
            latency: base.latency + ms(7),
            ..base
        };
        for (until, expect) in [
            (3, base.loss(0.9)),
            (6, spiked.loss(0.9)),
            (12, spiked),
            (16, base),
        ] {
            sim.run_until(SimTime::ZERO + ms(until));
            assert_eq!(sim.topology().link(a, b), expect, "at {until} ms");
            assert_eq!(sim.topology().link(b, a), expect, "at {until} ms");
        }
        // One fault event per applied action, at its instant.
        let fault_times: Vec<u64> = bus::snapshot_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultInject | EventKind::FaultClear))
            .map(|e| e.t_us)
            .collect();
        assert_eq!(
            fault_times,
            [1_000, 1_000, 5_000, 5_000, 11_000, 11_000, 15_000, 15_000]
        );
    }

    #[test]
    fn builder_preserves_order_and_describes() {
        let plan = FaultPlan::new()
            .with(
                SimDuration::from_millis(5),
                FaultKind::Partition {
                    a: NodeIdx(0),
                    b: NodeIdx(1),
                    heal_after: SimDuration::from_millis(10),
                },
            )
            .with(
                SimDuration::from_millis(1),
                FaultKind::CrashRestart {
                    node: NodeIdx(1),
                    down_for: SimDuration::from_millis(3),
                },
            );
        let d = plan.describe();
        assert!(d.starts_with("+1000us crash n1"), "{d}");
        assert!(d.contains("partition n0<->n1"), "{d}");
    }
}
