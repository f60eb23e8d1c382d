//! The load driver: executes a [`Scenario`] against a live engineering
//! deployment and collects raw run statistics.
//!
//! The driver sits where a population of client capsules would: it feeds
//! invocations into a channel with [`Engine::call_send`] (many in
//! flight at once — this is what actually exercises the nucleus's
//! admission queue) and harvests correlated replies with
//! [`Engine::take_reply`], timestamped at delivery.
//!
//! Latency accounting differs by loop model, deliberately:
//!
//! * **open loop** — measured from the *scheduled* arrival, so server
//!   queueing and admission delay count against the SLO even when the
//!   driver itself fell behind;
//! * **closed loop** — measured from the actual send, since a client
//!   cannot send before its previous reply; `think_time` is a minimum
//!   pause, as in any closed-loop generator.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmodp_core::id::ChannelId;
use rmodp_engineering::engine::{CallError, Engine};
use rmodp_kernel::{Actor, Kernel};
use rmodp_netsim::time::{SimDuration, SimTime};
use rmodp_observe::bus;
use rmodp_observe::metrics::Histogram;

use crate::scenario::{LoadModel, Scenario};

/// Seed salt so the operation-mix draws are independent of the arrival
/// stream's draws for the same scenario seed.
const MIX_SEED_SALT: u64 = 0x517c_c1b7_2722_0a95;

/// Raw statistics from one scenario run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Requests issued (open loop: all scheduled arrivals that were sent).
    pub offered: u64,
    /// Requests answered with an `Ok` reply (any application termination).
    pub completed: u64,
    /// Requests refused with a `Rejected` reply (admission or replay).
    pub rejected: u64,
    /// Client-side failures: send errors, `NotHere`, undecodable replies.
    pub errors: u64,
    /// Requests never answered by the end of the run.
    pub lost: u64,
    /// Latency samples (µs) for completed requests scheduled after the
    /// warmup edge.
    pub latency: Histogram,
    /// Virtual time the run started.
    pub started: SimTime,
    /// Virtual time the last event of the run was processed.
    pub finished: SimTime,
    /// Completions per operation name.
    pub completed_per_op: BTreeMap<String, u64>,
    /// How many requests the *server side* refused or evicted during the
    /// run (`engineering.admission.shed` delta).
    pub admission_shed: u64,
}

/// One request in flight.
struct InFlight {
    scheduled: SimTime,
    op: String,
    /// Closed loop: which client sent it.
    client: Option<usize>,
}

/// Executes a scenario over an already-open channel and returns the raw
/// statistics. The channel's client node is the population's home; the
/// target interface is whatever the channel was opened to. Actions
/// already in the simulator's queue (a fault plan's timeline) play at
/// their instants as the run advances the clock.
pub fn execute(engine: &mut Engine, channel: ChannelId, scenario: &Scenario) -> RunStats {
    assert!(
        !scenario.mix.is_empty(),
        "scenario {:?} has an empty operation mix",
        scenario.name
    );
    let shed_before = bus::counter("engineering.admission.shed");
    let mut stats = RunStats {
        started: engine.sim().now(),
        ..RunStats::default()
    };
    match scenario.load.clone() {
        LoadModel::Open { arrivals } => open_loop(engine, channel, scenario, arrivals, &mut stats),
        LoadModel::Closed {
            population,
            think_time,
        } => closed_loop(
            engine, channel, scenario, population, think_time, &mut stats,
        ),
    }
    stats.finished = engine.sim().now();
    stats.admission_shed = bus::counter("engineering.admission.shed") - shed_before;
    stats
}

/// The mutable driver state shared by the send and drain paths of both
/// loop models.
struct Driver<'a> {
    channel: ChannelId,
    scenario: &'a Scenario,
    warm_edge: SimTime,
    rng: StdRng,
    inflight: BTreeMap<u64, InFlight>,
    stats: &'a mut RunStats,
}

impl<'a> Driver<'a> {
    fn new(
        scenario: &'a Scenario,
        channel: ChannelId,
        t0: SimTime,
        stats: &'a mut RunStats,
    ) -> Self {
        Self {
            channel,
            scenario,
            warm_edge: t0 + scenario.warmup,
            rng: StdRng::seed_from_u64(scenario.seed ^ MIX_SEED_SALT),
            inflight: BTreeMap::new(),
            stats,
        }
    }

    fn send_one(&mut self, engine: &mut Engine, scheduled: SimTime, client: Option<usize>) {
        let entry = self.scenario.mix.sample(&mut self.rng);
        self.stats.offered += 1;
        bus::counter_add("workload.offered", 1);
        match engine.call_send(self.channel, &entry.op, &entry.args) {
            Ok(id) => {
                self.inflight.insert(
                    id,
                    InFlight {
                        scheduled,
                        op: entry.op.clone(),
                        client,
                    },
                );
            }
            Err(_) => {
                self.stats.errors += 1;
                bus::counter_add("workload.errors", 1);
            }
        }
    }

    /// Harvests every reply that has arrived; returns the clients freed
    /// by a reply, with the reply's arrival time.
    fn drain(&mut self, engine: &mut Engine) -> Vec<(usize, SimTime)> {
        let ids: Vec<u64> = self.inflight.keys().copied().collect();
        let mut freed = Vec::new();
        for id in ids {
            let Some((arrived, outcome)) = engine.take_reply(id) else {
                continue;
            };
            let fl = self.inflight.remove(&id).expect("tracked above");
            match outcome {
                Ok(_termination) => {
                    self.stats.completed += 1;
                    bus::counter_add("workload.completed", 1);
                    *self.stats.completed_per_op.entry(fl.op).or_insert(0) += 1;
                    if fl.scheduled >= self.warm_edge {
                        let lat = arrived.since(fl.scheduled).as_micros();
                        self.stats.latency.observe(lat);
                        bus::observe("workload.latency_us", lat);
                    }
                }
                Err(CallError::Rejected { .. }) => {
                    self.stats.rejected += 1;
                    bus::counter_add("workload.rejected", 1);
                }
                Err(_) => {
                    self.stats.errors += 1;
                    bus::counter_add("workload.errors", 1);
                }
            }
            if let Some(c) = fl.client {
                freed.push((c, arrived));
            }
        }
        freed
    }

    /// Ends the run: whatever is still in flight is counted lost, and the
    /// engine is told nobody will collect it, so the request leaves no
    /// state behind.
    fn give_up_on_the_rest(&mut self, engine: &mut Engine) {
        self.stats.lost = self.inflight.len() as u64;
        for &id in self.inflight.keys() {
            engine.abandon_call(id);
        }
    }
}

/// The open-loop load generator as a kernel actor: one due instant per
/// scheduled arrival; each tick harvests replies and sends one request.
struct OpenLoopActor<'a> {
    driver: Driver<'a>,
    arrivals: Vec<SimTime>,
    next: usize,
}

impl Actor<Engine> for OpenLoopActor<'_> {
    fn next_due(&self, _world: &Engine) -> Option<SimTime> {
        self.arrivals.get(self.next).copied()
    }

    fn tick(&mut self, world: &mut Engine, at: SimTime) {
        self.next += 1;
        self.driver.drain(world);
        self.driver.send_one(world, at, None);
    }

    fn name(&self) -> &'static str {
        "open_loop"
    }
}

fn open_loop(
    engine: &mut Engine,
    channel: ChannelId,
    scenario: &Scenario,
    arrivals: crate::arrival::ArrivalProcess,
    stats: &mut RunStats,
) {
    let t0 = engine.sim().now();
    let arrivals: Vec<SimTime> = arrivals
        .stream(scenario.seed)
        .take_while(|&o| o < scenario.duration)
        .map(|o| t0 + o)
        .collect();
    let mut actor = OpenLoopActor {
        driver: Driver::new(scenario, channel, t0, stats),
        arrivals,
        next: 0,
    };
    Kernel::new().register(&mut actor).run(engine);
    engine.run_until_idle();
    actor.driver.drain(engine);
    actor.driver.give_up_on_the_rest(engine);
}

/// The closed-loop population as a kernel actor: a client becomes due
/// `think_time` after its previous reply; each tick harvests replies and
/// sends for every due client. While all clients are blocked on
/// in-flight requests the actor reports [`Actor::pending`], letting the
/// kernel single-step the simulation and poll for completions.
struct ClosedLoopActor<'a> {
    driver: Driver<'a>,
    /// Each client's next send target; `None` while a request is
    /// outstanding.
    due: Vec<Option<SimTime>>,
    end: SimTime,
    think_time: SimDuration,
}

impl ClosedLoopActor<'_> {
    /// Harvests arrived replies and schedules the freed clients' next
    /// sends.
    fn harvest(&mut self, world: &mut Engine) {
        for (c, arrived) in self.driver.drain(world) {
            self.due[c] = Some(arrived + self.think_time);
        }
    }
}

impl Actor<Engine> for ClosedLoopActor<'_> {
    fn next_due(&self, _world: &Engine) -> Option<SimTime> {
        self.due
            .iter()
            .flatten()
            .copied()
            .filter(|&d| d < self.end)
            .min()
    }

    fn tick(&mut self, world: &mut Engine, _at: SimTime) {
        self.harvest(world);
        let now = world.now();
        for c in 0..self.due.len() {
            if let Some(d) = self.due[c] {
                if d <= now && d < self.end {
                    self.due[c] = None;
                    self.driver.send_one(world, now, Some(c));
                }
            }
        }
    }

    fn pending(&self, _world: &Engine) -> bool {
        !self.driver.inflight.is_empty()
    }

    fn poll(&mut self, world: &mut Engine) {
        self.harvest(world);
    }

    fn name(&self) -> &'static str {
        "closed_loop"
    }
}

fn closed_loop(
    engine: &mut Engine,
    channel: ChannelId,
    scenario: &Scenario,
    population: usize,
    think_time: SimDuration,
    stats: &mut RunStats,
) {
    assert!(population > 0, "closed loop needs at least one client");
    let t0 = engine.sim().now();
    let mut actor = ClosedLoopActor {
        driver: Driver::new(scenario, channel, t0, stats),
        due: vec![Some(t0); population],
        end: t0 + scenario.duration,
        think_time,
    };
    // No trailing `run_until_idle`: a closed run ends when every client
    // is past `end` and the in-flight tail has drained, and `finished`
    // must record that instant, not a later idle point.
    Kernel::new().register(&mut actor).run(engine);
    actor.driver.give_up_on_the_rest(engine);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::scenario::OperationMix;
    use rmodp_core::codec::SyntaxId;
    use rmodp_core::value::Value;
    use rmodp_engineering::behaviour::CounterBehaviour;
    use rmodp_engineering::channel::ChannelConfig;
    use rmodp_engineering::nucleus::{AdmissionConfig, AdmissionPolicy};
    use rmodp_netsim::time::SimDuration;

    fn counter_setup(seed: u64) -> (Engine, rmodp_core::id::NodeId, ChannelId) {
        let mut engine = Engine::new(seed);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let server = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Text);
        let capsule = engine.add_capsule(server).unwrap();
        let cluster = engine.add_cluster(server, capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                server,
                capsule,
                cluster,
                "counter",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        let channel = engine
            .open_channel(client, refs[0].interface, ChannelConfig::default())
            .unwrap();
        (engine, server, channel)
    }

    fn add_mix() -> OperationMix {
        OperationMix::new().with("Add", Value::record([("k", Value::Int(1))]), 1)
    }

    #[test]
    fn open_loop_completes_all_under_light_load() {
        let (mut engine, _server, channel) = counter_setup(1);
        let scenario = Scenario::new(
            "light",
            5,
            LoadModel::Open {
                arrivals: ArrivalProcess::Constant { rate_per_sec: 50.0 },
            },
        )
        .lasting(SimDuration::from_secs(1))
        .with_mix(add_mix());
        let stats = execute(&mut engine, channel, &scenario);
        assert_eq!(stats.offered, 49);
        assert_eq!(stats.completed, 49);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.latency.count(), 49);
        assert!(stats.latency.min() > 0, "network latency is nonzero");
    }

    #[test]
    fn closed_loop_paces_on_think_time() {
        let (mut engine, _server, channel) = counter_setup(2);
        let scenario = Scenario::new(
            "closed",
            5,
            LoadModel::Closed {
                population: 4,
                think_time: SimDuration::from_millis(10),
            },
        )
        .lasting(SimDuration::from_secs(1))
        .with_mix(add_mix());
        let stats = execute(&mut engine, channel, &scenario);
        // 4 clients, ~1 round trip (~1ms) + 10ms think per request over
        // 1s: roughly 4 * 1s/11ms ≈ 360, certainly bounded.
        assert!(stats.offered > 100, "offered {}", stats.offered);
        assert!(stats.offered < 500, "offered {}", stats.offered);
        assert_eq!(stats.completed, stats.offered);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn overload_trips_reject_admission() {
        let (mut engine, server, channel) = counter_setup(3);
        // Serve one request per 2ms with room for 4 — but offer one per
        // 1ms: the queue must overflow and reject.
        engine
            .nucleus_mut(server)
            .unwrap()
            .set_admission(AdmissionConfig::reject(4, SimDuration::from_millis(2)));
        let scenario = Scenario::new(
            "overload",
            9,
            LoadModel::Open {
                arrivals: ArrivalProcess::Constant {
                    rate_per_sec: 1000.0,
                },
            },
        )
        .lasting(SimDuration::from_millis(200))
        .with_mix(add_mix());
        let stats = execute(&mut engine, channel, &scenario);
        assert!(stats.rejected > 0, "admission never tripped: {stats:?}");
        assert_eq!(stats.rejected, stats.admission_shed);
        assert_eq!(stats.offered, stats.completed + stats.rejected);
        assert_eq!(stats.lost, 0);
        let ns = engine.nucleus(server).unwrap().stats;
        assert_eq!(ns.shed, stats.rejected);
        assert!(ns.peak_queue_depth >= 4);
        // Queueing delay shows up in the completed requests' latency.
        assert!(stats.latency.max() >= 2_000);
    }

    #[test]
    fn requests_counted_lost_leave_nothing_behind() {
        use rmodp_engineering::nucleus::{DriverProcess, DRIVER_PORT};
        use rmodp_netsim::sim::{Addr, NodeIdx};

        // (request ids still waited for, replies kept) over both nodes'
        // drivers.
        fn driver_leftovers(engine: &Engine) -> (usize, usize) {
            (0..2).fold((0, 0), |(waiting, kept), node| {
                let driver = engine
                    .sim()
                    .inspect::<DriverProcess>(Addr::new(NodeIdx(node), DRIVER_PORT))
                    .expect("every node has a driver");
                (waiting + driver.awaiting(), kept + driver.mailbox.len())
            })
        }

        for load in [
            LoadModel::Open {
                arrivals: ArrivalProcess::Constant { rate_per_sec: 50.0 },
            },
            LoadModel::Closed {
                population: 4,
                think_time: SimDuration::from_millis(10),
            },
        ] {
            let (mut engine, server, channel) = counter_setup(6);
            let scenario = Scenario::new("down", 5, load)
                .lasting(SimDuration::from_secs(1))
                .with_mix(add_mix());
            // The server is down for the whole run: nothing is answered.
            let node = engine.sim_node(server).unwrap();
            engine.sim_mut().topology_mut().crash(node);
            let stats = execute(&mut engine, channel, &scenario);
            assert!(
                stats.offered > 0 && stats.lost == stats.offered,
                "{stats:?}"
            );
            assert_eq!(engine.calls_in_flight(), 0, "engine pending table");
            assert_eq!(driver_leftovers(&engine), (0, 0));

            // Restarted, the same channel serves a second run in full.
            engine.sim_mut().topology_mut().restart(node);
            let stats = execute(&mut engine, channel, &scenario);
            assert!(
                stats.completed > 0 && stats.completed == stats.offered,
                "{stats:?}"
            );
            assert_eq!(engine.calls_in_flight(), 0);
            assert_eq!(driver_leftovers(&engine), (0, 0));
        }
    }

    #[test]
    fn shed_oldest_evicts_and_delay_never_rejects() {
        for (config, expect_reject) in [
            (
                AdmissionConfig::shed_oldest(4, SimDuration::from_millis(2)),
                true,
            ),
            (
                AdmissionConfig {
                    policy: AdmissionPolicy::Delay,
                    capacity: usize::MAX,
                    service_time: SimDuration::from_millis(2),
                },
                false,
            ),
        ] {
            let (mut engine, server, channel) = counter_setup(4);
            engine.nucleus_mut(server).unwrap().set_admission(config);
            let scenario = Scenario::new(
                "policy",
                9,
                LoadModel::Open {
                    arrivals: ArrivalProcess::Constant {
                        rate_per_sec: 1000.0,
                    },
                },
            )
            .lasting(SimDuration::from_millis(100))
            .with_mix(add_mix());
            let stats = execute(&mut engine, channel, &scenario);
            assert_eq!(stats.lost, 0, "{config:?}");
            if expect_reject {
                assert!(stats.rejected > 0, "{config:?}: {stats:?}");
            } else {
                assert_eq!(stats.rejected, 0, "{config:?}: {stats:?}");
                assert_eq!(stats.completed, stats.offered);
                // Pure delay: everything completes but the backlog shows
                // up as latency far beyond a round trip.
                assert!(stats.latency.max() > 10_000, "{stats:?}");
            }
        }
    }
}
