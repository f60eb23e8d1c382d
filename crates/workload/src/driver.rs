//! The load driver: executes a [`Scenario`] against a live engineering
//! deployment and collects raw run statistics.
//!
//! The driver sits where a population of client capsules would: it feeds
//! invocations into a channel with [`Engine::call_send`] (many in
//! flight at once — this is what actually exercises the nucleus's
//! admission queue) and harvests correlated replies with
//! [`Engine::take_reply`], timestamped at delivery.
//!
//! Each loop model is a plain loop over the simulator's own event queue,
//! the one schedule: it runs the simulator to its next send instant
//! (`run_until`) or, while it waits on replies, one event at a time
//! (`step`). A fault plan scheduled on that queue lands at its instants
//! however the loop advances the clock; no scheduler sits on top.
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

/// The open-loop generator: each scheduled arrival, read from the
/// stream as the run reaches it, advances the simulator to its instant,
/// harvests what has arrived and sends one request. Then the tail drains
/// to quiescence.
fn open_loop(
    engine: &mut Engine,
    channel: ChannelId,
    scenario: &Scenario,
    arrivals: crate::arrival::ArrivalProcess,
    stats: &mut RunStats,
) {
    let t0 = engine.sim().now();
    let mut driver = Driver::new(scenario, channel, t0, stats);
    for offset in arrivals
        .stream(scenario.seed)
        .take_while(|&o| o < scenario.duration)
    {
        let at = t0 + offset;
        engine.sim_mut().run_until(at);
        driver.drain(engine);
        driver.send_one(engine, at, None);
    }
    engine.run_until_idle();
    driver.drain(engine);
    driver.give_up_on_the_rest(engine);
}

/// The closed-loop population: a client is due `think_time` after its
/// previous reply. While some client is due before `end`, the simulator
/// runs to the earliest such instant, replies are harvested and every
/// due client sends, in index order. Otherwise, while requests are in
/// flight, the simulator takes one step at a time and replies are
/// harvested after each.
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
    let end = t0 + scenario.duration;
    let mut driver = Driver::new(scenario, channel, t0, stats);
    // Each client's next send target; `None` while a request is
    // outstanding.
    let mut due = vec![Some(t0); population];
    // No trailing `run_until_idle`: a closed run ends when every client
    // is past `end` and the in-flight tail has drained, and `finished`
    // must record that instant, not a later idle point.
    loop {
        let next = due.iter().flatten().copied().filter(|&d| d < end).min();
        match next {
            Some(at) => {
                engine.sim_mut().run_until(at);
            }
            None if !driver.inflight.is_empty() && engine.sim_mut().step() => {}
            None => break,
        }
        for (c, arrived) in driver.drain(engine) {
            due[c] = Some(arrived + think_time);
        }
        if next.is_some() {
            let now = engine.now();
            for (c, d) in due.iter_mut().enumerate() {
                if d.is_some_and(|d| d <= now && d < end) {
                    *d = None;
                    driver.send_one(engine, now, Some(c));
                }
            }
        }
    }
    driver.give_up_on_the_rest(engine);
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
    fn each_loop_ends_where_its_model_says_around_queued_actions() {
        use rmodp_netsim::sim::ShardAction;

        let open = LoadModel::Open {
            arrivals: ArrivalProcess::Constant { rate_per_sec: 50.0 },
        };
        let closed = LoadModel::Closed {
            population: 4,
            think_time: SimDuration::from_millis(10),
        };
        // The tenth arrival's instant, read from the stream `execute` reads.
        let tenth = ArrivalProcess::Constant { rate_per_sec: 50.0 }
            .stream(5)
            .nth(9)
            .unwrap();
        let late = SimDuration::from_secs(5);
        let tick = SimDuration::from_micros(1);
        // (load, actions at offsets from the run's start, requests lost,
        // whether the last action is still queued when the run ends).
        let table = [
            // A closed run ends when its in-flight tail drains, before an
            // action well past `end`.
            (closed, vec![(late, false)], 0, true),
            // An open run ends idle, after the same action.
            (open.clone(), vec![(late, false)], 0, false),
            // An arrival at a crash's instant sees the crash first: its
            // send is dropped, though the node is back before the request
            // could have reached it.
            (open, vec![(tenth, false), (tenth + tick, true)], 1, false),
        ];
        for (load, actions, lost, still_queued) in table {
            let (mut engine, server, channel) = counter_setup(7);
            let node = engine.sim_node(server).unwrap();
            let t0 = engine.now();
            for &(offset, restart) in &actions {
                let action = if restart {
                    ShardAction::Restart(node)
                } else {
                    ShardAction::Crash(node)
                };
                engine.sim_mut().schedule_action(t0 + offset, action);
            }
            let last = t0 + actions.last().unwrap().0;
            let scenario = Scenario::new("ends", 5, load.clone())
                .lasting(SimDuration::from_secs(1))
                .with_mix(add_mix());
            let stats = execute(&mut engine, channel, &scenario);
            assert_eq!(stats.lost, lost, "{load:?}: {stats:?}");
            assert_eq!(stats.completed + lost, stats.offered, "{load:?}");
            if still_queued {
                assert!(stats.finished < last, "{load:?}: {stats:?}");
                assert!(!engine.sim().topology().is_crashed(node), "{load:?}");
                assert!(engine.run_until_idle() > 0, "{load:?}");
                assert_eq!(engine.now(), last, "{load:?}");
            } else {
                assert!(stats.finished >= last, "{load:?}: {stats:?}");
                assert_eq!(engine.run_until_idle(), 0, "{load:?}: ended idle");
            }
            // Every action has played by now; the last one decides.
            let restarted = actions.last().unwrap().1;
            assert_eq!(engine.sim().topology().is_crashed(node), !restarted);
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
