//! Actors scheduled on one kernel.
//!
//! RM-ODP's engineering viewpoint gives each node a *nucleus* that owns
//! scheduling and communication. A driver that needs the clock beside
//! the network simulator (the workload loops) is an [`Actor`] registered
//! on one [`Kernel`], which interleaves its due instants with
//! simulation progress in a single totally ordered schedule. A fault
//! plan is no actor: its actions are entries of the world's own queue.
//!
//! Determinism rules:
//! * due actors fire in time order; equal times fire in registration
//!   order (stable, like the queue's FIFO tie-break);
//! * the world's clock never moves backward;
//! * when no actor is due but one still has work in flight, the kernel
//!   steps the world one event at a time, polling actors between steps.
//!
//! Profiling: every tick is accounted to its actor through the observe
//! bus — `kernel.actor.<name>.ticks` counts firings and
//! `kernel.actor.<name>.tick_advance_us` records how much virtual time
//! each tick consumed (an engine-driving tick that blocks on a call
//! consumes the call's latency). The kernel also samples
//! `kernel.queue_depth` (the world's event queue) and `kernel.due_lag_us`
//! (how far behind its requested instant an actor fired) on every
//! advance. Metric names are precomputed at [`Kernel::register`], so the
//! hot loop formats nothing.

use crate::time::SimTime;
use rmodp_observe::bus;

/// The substrate the kernel drives: anything with a virtual clock and an
/// event queue (the network simulator, or an engine wrapping one).
pub trait World {
    /// The current virtual time.
    fn now(&self) -> SimTime;

    /// Processes every queued event due at or before `at`, then idles
    /// the clock to `at` (never backward).
    fn advance_to(&mut self, at: SimTime);

    /// Drains the event queue to quiescence.
    fn run_until_idle(&mut self);

    /// Processes exactly one queued event; `false` if none remained.
    fn step(&mut self) -> bool;

    /// How many events are queued right now (0 if the world does not
    /// expose its queue). Sampled into the `kernel.queue_depth` gauge on
    /// every kernel advance.
    fn queue_len(&self) -> usize {
        0
    }
}

/// Assignment of a world's nodes to shards: node `i` belongs to shard
/// `owner[i]`. The map is built once, before any event runs, and never
/// changes mid-run — conservative synchronization (see
/// [`crate::shard`]) depends on the ownership relation being static.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    shards: usize,
    owner: Vec<usize>,
}

impl PartitionMap {
    /// Builds a map from an explicit owner-per-node table.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or any owner is out of range.
    pub fn new(shards: usize, owner: Vec<usize>) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(
            owner.iter().all(|&s| s < shards),
            "owner out of range for {shards} shard(s)"
        );
        Self { shards, owner }
    }

    /// Round-robin assignment: node `i` goes to shard `i % shards`.
    pub fn round_robin(nodes: usize, shards: usize) -> Self {
        Self::new(shards, (0..nodes).map(|i| i % shards).collect())
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The number of mapped nodes.
    pub fn nodes(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning `node`. Nodes beyond the mapped range (e.g. an
    /// external injector pseudo-node) fold onto shard 0 so every address
    /// has a deterministic owner.
    pub fn owner(&self, node: usize) -> usize {
        self.owner.get(node).copied().unwrap_or(0)
    }

    /// Whether two nodes live on the same shard (their messages need no
    /// cross-shard exchange).
    pub fn co_located(&self, a: usize, b: usize) -> bool {
        self.owner(a) == self.owner(b)
    }
}

/// A participant scheduled on the kernel.
pub trait Actor<W: World + ?Sized> {
    /// The next instant this actor wants control, if any. The kernel
    /// advances the world to that instant and calls [`Actor::tick`].
    fn next_due(&self, world: &W) -> Option<SimTime>;

    /// Performs the work due at `at`. The world's clock has already been
    /// advanced to `at` (or later, if it was already past).
    fn tick(&mut self, world: &mut W, at: SimTime);

    /// Whether the actor is waiting on in-flight work that only world
    /// progress can complete. While any actor is pending and none is
    /// due, the kernel single-steps the world and polls between steps.
    fn pending(&self, _world: &W) -> bool {
        false
    }

    /// Called after each single step taken on the actor's behalf (see
    /// [`Actor::pending`]); typically drains completions.
    fn poll(&mut self, _world: &mut W) {}

    /// A stable name for per-actor accounting
    /// (`kernel.actor.<name>.ticks` etc.). Actors sharing a name share
    /// the metric.
    fn name(&self) -> &'static str {
        "actor"
    }
}

/// A registered actor plus its precomputed metric names.
struct Slot<'a, W: World + ?Sized> {
    actor: &'a mut dyn Actor<W>,
    ticks_metric: String,
    advance_metric: String,
}

/// The one deterministic scheduler: interleaves registered actors' due
/// instants with world progress.
pub struct Kernel<'a, W: World> {
    actors: Vec<Slot<'a, W>>,
}

impl<W: World> Default for Kernel<'_, W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, W: World> Kernel<'a, W> {
    /// A kernel with no actors.
    pub fn new() -> Self {
        Kernel { actors: Vec::new() }
    }

    /// Registers an actor. Registration order breaks equal-time ties, so
    /// register higher-priority actors first. Per-actor metric names are
    /// formatted once here, not per tick.
    pub fn register(&mut self, actor: &'a mut dyn Actor<W>) -> &mut Self {
        let name = actor.name();
        self.actors.push(Slot {
            actor,
            ticks_metric: format!("kernel.actor.{name}.ticks"),
            advance_metric: format!("kernel.actor.{name}.tick_advance_us"),
        });
        self
    }

    /// The earliest due instant across actors (ties resolve to the
    /// earliest-registered actor), optionally bounded by `limit`.
    fn earliest_due(&self, world: &W, limit: Option<SimTime>) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, slot) in self.actors.iter().enumerate() {
            if let Some(t) = slot.actor.next_due(world) {
                if limit.is_some_and(|l| t > l) {
                    continue;
                }
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        best
    }

    /// Advances the world to the due instant, samples the kernel gauges,
    /// fires the actor, and accounts the virtual time its tick consumed.
    fn fire(&mut self, world: &mut W, t: SimTime, i: usize) {
        let lag = world.now().as_micros().saturating_sub(t.as_micros());
        world.advance_to(t);
        bus::gauge_set("kernel.queue_depth", world.queue_len() as i64);
        bus::gauge_set("kernel.due_lag_us", lag as i64);
        let before = world.now().as_micros();
        let slot = &mut self.actors[i];
        slot.actor.tick(world, t);
        bus::counter_add(&slot.ticks_metric, 1);
        bus::observe(
            &slot.advance_metric,
            world.now().as_micros().saturating_sub(before),
        );
    }

    /// Advances the world to `target`, firing every actor due on the
    /// way, each at its exact instant. The world never runs past a
    /// pending due.
    pub fn advance_to(&mut self, world: &mut W, target: SimTime) {
        while let Some((t, i)) = self.earliest_due(world, Some(target)) {
            self.fire(world, t, i);
        }
        world.advance_to(target);
    }

    /// Runs the schedule to completion: fires all dues in time order;
    /// when none remain but an actor still has work in flight, steps the
    /// world one event at a time, polling actors between steps. Returns
    /// when no actor is due or pending (the world's own queue may still
    /// hold events — drain with [`World::run_until_idle`] if the run
    /// should end quiescent).
    pub fn run(&mut self, world: &mut W) {
        loop {
            if let Some((t, i)) = self.earliest_due(world, None) {
                self.fire(world, t, i);
                continue;
            }
            if self.actors.iter().any(|s| s.actor.pending(world)) {
                if !world.step() {
                    break;
                }
                for slot in self.actors.iter_mut() {
                    slot.actor.poll(world);
                }
            } else {
                break;
            }
        }
    }

    /// Fires every remaining due, then drains the world to quiescence.
    pub fn finish(&mut self, world: &mut W) {
        while let Some((t, i)) = self.earliest_due(world, None) {
            self.fire(world, t, i);
        }
        world.run_until_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::SimDuration;

    /// A minimal world: an event queue of `u32` markers; stepping
    /// records the marker.
    struct ToyWorld {
        queue: EventQueue<u32>,
        fired: Vec<(SimTime, u32)>,
    }

    impl ToyWorld {
        fn new() -> Self {
            ToyWorld {
                queue: EventQueue::new(),
                fired: Vec::new(),
            }
        }
    }

    impl World for ToyWorld {
        fn now(&self) -> SimTime {
            self.queue.now()
        }

        fn advance_to(&mut self, at: SimTime) {
            while self.queue.peek_time().is_some_and(|t| t <= at) {
                self.step();
            }
            self.queue.advance_to(at);
        }

        fn run_until_idle(&mut self) {
            while self.step() {}
        }

        fn step(&mut self) -> bool {
            match self.queue.pop() {
                Some((t, m)) => {
                    self.fired.push((t, m));
                    true
                }
                None => false,
            }
        }

        fn queue_len(&self) -> usize {
            self.queue.len()
        }
    }

    /// Ticks at fixed instants, recording `(instant, tag)`.
    struct Metronome {
        tag: u32,
        beats: Vec<SimTime>,
        next: usize,
        log: Vec<(SimTime, u32)>,
    }

    impl Metronome {
        fn at(tag: u32, beats: &[u64]) -> Self {
            Metronome {
                tag,
                beats: beats.iter().map(|&b| SimTime::from_micros(b)).collect(),
                next: 0,
                log: Vec::new(),
            }
        }
    }

    impl Actor<ToyWorld> for Metronome {
        fn next_due(&self, _world: &ToyWorld) -> Option<SimTime> {
            self.beats.get(self.next).copied()
        }

        fn tick(&mut self, world: &mut ToyWorld, at: SimTime) {
            self.next += 1;
            self.log.push((world.now(), self.tag));
            let _ = at;
        }

        fn name(&self) -> &'static str {
            "metronome"
        }
    }

    #[test]
    fn dues_fire_in_time_order_with_registration_ties() {
        let mut world = ToyWorld::new();
        let mut a = Metronome::at(1, &[10, 30]);
        let mut b = Metronome::at(2, &[10, 20]);
        let mut kernel = Kernel::new();
        kernel.register(&mut a).register(&mut b);
        kernel.run(&mut world);
        let mut merged: Vec<(SimTime, u32)> = a.log;
        merged.extend(b.log);
        merged.sort_by_key(|&(t, _)| t);
        // t=10 tie fires a (registered first) before b; then 20, 30.
        assert_eq!(
            merged,
            vec![
                (SimTime::from_micros(10), 1),
                (SimTime::from_micros(10), 2),
                (SimTime::from_micros(20), 2),
                (SimTime::from_micros(30), 1),
            ]
        );
    }

    #[test]
    fn advance_to_stops_at_target_and_fires_only_earlier_dues() {
        let mut world = ToyWorld::new();
        world.queue.schedule(SimTime::from_micros(5), 50);
        world.queue.schedule(SimTime::from_micros(50), 51);
        let mut a = Metronome::at(1, &[10, 40]);
        {
            let mut kernel = Kernel::new();
            kernel.register(&mut a);
            kernel.advance_to(&mut world, SimTime::from_micros(20));
        }
        assert_eq!(a.log, vec![(SimTime::from_micros(10), 1)]);
        assert_eq!(world.now(), SimTime::from_micros(20));
        // The world event at t=5 ran; the one at t=50 did not.
        assert_eq!(world.fired, vec![(SimTime::from_micros(5), 50)]);
        let mut kernel = Kernel::new();
        kernel.register(&mut a);
        kernel.advance_to(
            &mut world,
            SimTime::from_micros(20) + SimDuration::from_micros(30),
        );
        assert_eq!(a.log.len(), 2);
        assert_eq!(world.fired.len(), 2);
    }

    /// Pends until the world's queue drains, polling a counter.
    struct Waiter {
        polls: usize,
        outstanding: usize,
    }

    impl Actor<ToyWorld> for Waiter {
        fn next_due(&self, _world: &ToyWorld) -> Option<SimTime> {
            None
        }

        fn tick(&mut self, _world: &mut ToyWorld, _at: SimTime) {}

        fn pending(&self, _world: &ToyWorld) -> bool {
            self.outstanding > 0
        }

        fn poll(&mut self, world: &mut ToyWorld) {
            self.polls += 1;
            self.outstanding = world.queue.len();
        }
    }

    #[test]
    fn kernel_accounts_ticks_and_samples_gauges() {
        bus::reset();
        let mut world = ToyWorld::new();
        world.queue.schedule(SimTime::from_micros(5), 99);
        let mut a = Metronome::at(1, &[10, 30]);
        let mut kernel = Kernel::new();
        kernel.register(&mut a);
        kernel.run(&mut world);
        let m = bus::snapshot_metrics();
        assert_eq!(m.counter("kernel.actor.metronome.ticks"), 2);
        assert_eq!(
            m.histogram("kernel.actor.metronome.tick_advance_us")
                .map(|h| h.count()),
            Some(2),
            "each tick's virtual-time advance is recorded"
        );
        assert_eq!(m.gauge("kernel.queue_depth"), Some(0));
        assert_eq!(m.gauge("kernel.due_lag_us"), Some(0));
        bus::reset();
    }

    #[test]
    fn pending_actor_drives_single_steps_until_satisfied() {
        let mut world = ToyWorld::new();
        for i in 0..3 {
            world.queue.schedule(SimTime::from_micros(i * 10), i as u32);
        }
        let mut w = Waiter {
            polls: 0,
            outstanding: 3,
        };
        let mut kernel = Kernel::new();
        kernel.register(&mut w);
        kernel.run(&mut world);
        assert_eq!(world.fired.len(), 3);
        assert_eq!(w.polls, 3);
        assert_eq!(w.outstanding, 0);
    }
}
