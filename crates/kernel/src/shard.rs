//! Sharded execution: partitioned event queues under conservative
//! lookahead, merged deterministically.
//!
//! The single [`crate::queue::EventQueue`] was the last serial advance
//! site in the workspace. This module splits a world into N *shards*,
//! each owning a disjoint partition of nodes (see
//! [`crate::actor::PartitionMap`]) with its own queue, clock, and RNG
//! stream, and synchronizes them with the classic conservative
//! (Chandy–Misra–Bryant style) argument:
//!
//! * every cross-shard interaction travels over a link whose one-way
//!   latency is at least `lookahead` (> 0);
//! * per epoch, let `m` be the global minimum next-event time; every
//!   shard may safely process all events strictly before the horizon
//!   `h = m + lookahead`, because a message *sent* during the epoch is
//!   sent at some `t ≥ m` and thus *arrives* at `t + latency ≥ h`;
//! * at the epoch barrier, cross-shard messages are exchanged in the
//!   canonical `(SimTime, src_shard, src_seq)` merge order, so the
//!   target queue's tie-break sequence assignment — and therefore the
//!   whole run — is independent of thread scheduling.
//!
//! The same epoch loop runs serially or on real threads
//! ([`std::thread::scope`]); both paths perform the identical sequence
//! of `run_before` / `take_outbox` / `deposit` operations, so a
//! threaded run is bit-identical to a serial one by construction.

use std::sync::mpsc;

use crate::time::{SimDuration, SimTime};

/// A message crossing from one shard to another, carried through the
/// epoch barrier. `src_seq` is the sending shard's deterministic
/// submission counter for the message, so the canonical merge order
/// `(at, src_shard, src_seq)` is a total order.
#[derive(Debug, Clone)]
pub struct CrossShardEvent<M> {
    /// Arrival instant at the destination shard (≥ the epoch horizon,
    /// by the lookahead guarantee).
    pub at: SimTime,
    /// The shard that sent it.
    pub src_shard: usize,
    /// The sending shard's submission counter for this message.
    pub src_seq: u64,
    /// The shard that owns the destination node.
    pub dst_shard: usize,
    /// The message itself.
    pub msg: M,
}

/// One shard of a partitioned world: a disjoint set of nodes with their
/// own event queue and clock, able to run independently up to a horizon
/// and to exchange messages with other shards at epoch barriers.
pub trait ShardWorld: Send {
    /// The cross-shard message type.
    type Msg: Send;
    /// A topology/fault action applied at an epoch barrier (all shards
    /// receive every action, keeping their world views identical).
    type Action: Clone + Send;

    /// This shard's index.
    fn shard_id(&self) -> usize;

    /// This shard's clock (the time of its last processed event).
    fn now(&self) -> SimTime;

    /// The time of this shard's next queued event, if any.
    fn next_event_time(&self) -> Option<SimTime>;

    /// Processes every queued event strictly before `horizon`,
    /// including events the processing itself schedules below the
    /// horizon. Returns the number of events processed. Must not
    /// process anything at or after `horizon`.
    fn run_before(&mut self, horizon: SimTime) -> u64;

    /// Takes the cross-shard messages emitted since the last take, in
    /// deterministic send order.
    fn take_outbox(&mut self) -> Vec<CrossShardEvent<Self::Msg>>;

    /// Accepts a message routed to this shard; it must be scheduled at
    /// exactly `event.at`, which the kernel guarantees is not in this
    /// shard's past.
    fn deposit(&mut self, event: CrossShardEvent<Self::Msg>);

    /// Applies a barrier action (crash, partition, heal, …) to this
    /// shard's copy of the shared world view.
    fn apply_action(&mut self, action: &Self::Action);
}

/// A pacing hook fired at exact virtual instants between epochs —
/// the seam fault injectors use to act at precise times against the
/// merged global clock.
///
/// The kernel caps each epoch's horizon at [`EpochHook::next_instant`],
/// and once every event before that instant has been processed it calls
/// [`EpochHook::fire`], broadcasting the returned actions to all shards
/// before any event at or after the instant runs. `fire` must consume
/// the instant (the next `next_instant` must be strictly later, or
/// `None`), otherwise the run cannot make progress.
pub trait EpochHook<A> {
    /// The next instant this hook wants control at, if any.
    fn next_instant(&self) -> Option<SimTime>;

    /// Performs the work due at `at`; the returned actions are applied
    /// to every shard before time passes `at`.
    fn fire(&mut self, at: SimTime) -> Vec<A>;
}

/// A hook that never fires (the default).
pub struct NoHook;

impl<A> EpochHook<A> for NoHook {
    fn next_instant(&self) -> Option<SimTime> {
        None
    }

    fn fire(&mut self, _at: SimTime) -> Vec<A> {
        Vec::new()
    }
}

/// Counters describing one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Synchronization epochs executed.
    pub epochs: u64,
    /// Events processed across all shards.
    pub events: u64,
    /// Messages exchanged across shard boundaries.
    pub cross_shard_messages: u64,
    /// Epoch-hook firings.
    pub hook_firings: u64,
}

/// What one epoch should do, derived from the global queue state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochPlan {
    /// Nothing queued anywhere and no hook instant: the run is over.
    Idle,
    /// Fire the hook at this instant before processing anything else.
    Fire(SimTime),
    /// Advance every shard strictly below this horizon.
    Run(SimTime),
}

fn plan_epoch(
    next_times: &[Option<SimTime>],
    hook_next: Option<SimTime>,
    lookahead: SimDuration,
) -> EpochPlan {
    let min_next = next_times.iter().flatten().min().copied();
    match (min_next, hook_next) {
        (None, None) => EpochPlan::Idle,
        (None, Some(f)) => EpochPlan::Fire(f),
        (Some(m), hook) => {
            if let Some(f) = hook {
                if f <= m {
                    // Everything before `f` is already processed (the
                    // global minimum is at or after it): act now, before
                    // any event at `f` or later runs.
                    return EpochPlan::Fire(f);
                }
            }
            let mut horizon = m + lookahead;
            if let Some(f) = hook {
                horizon = horizon.min(f);
            }
            EpochPlan::Run(horizon)
        }
    }
}

/// Sorts an epoch's cross-shard messages into the canonical merge order.
fn canonical_sort<M>(outbox: &mut [CrossShardEvent<M>]) {
    outbox.sort_by_key(|e| (e.at, e.src_shard, e.src_seq));
}

/// Commands sent to a shard worker thread, one round at a time.
enum Cmd<M, A> {
    RunBefore(SimTime),
    Deposit(Vec<CrossShardEvent<M>>),
    Apply(Vec<A>),
}

/// A worker's answer to one command.
struct Reply<M> {
    shard: usize,
    next_time: Option<SimTime>,
    outbox: Vec<CrossShardEvent<M>>,
    events: u64,
}

/// The sharded scheduler: owns N [`ShardWorld`]s and drives them epoch
/// by epoch until every queue is empty and the hook is exhausted.
///
/// Construction checks `lookahead > 0`: with zero lookahead the safe
/// horizon equals the minimum next-event time and no epoch could make
/// progress.
pub struct ShardedKernel<W: ShardWorld> {
    shards: Vec<W>,
    lookahead: SimDuration,
    threaded: bool,
}

impl<W: ShardWorld> ShardedKernel<W> {
    /// Creates a kernel over pre-partitioned shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, a shard's `shard_id` does not match
    /// its index, or `lookahead` is zero.
    pub fn new(shards: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative synchronization needs positive lookahead"
        );
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.shard_id(), i, "shard id must equal its index");
        }
        let threaded = shards.len() > 1;
        Self {
            shards,
            lookahead,
            threaded,
        }
    }

    /// Chooses between the serial epoch loop and one OS thread per shard
    /// (the default for more than one shard). Both paths perform the
    /// identical operation sequence, so results do not depend on this.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The shards, for post-run inspection.
    pub fn shards(&self) -> &[W] {
        &self.shards
    }

    /// The shards, mutably (e.g. to seed initial events).
    pub fn shards_mut(&mut self) -> &mut [W] {
        &mut self.shards
    }

    /// Consumes the kernel, returning its shards.
    pub fn into_shards(self) -> Vec<W> {
        self.shards
    }

    /// Runs to global quiescence with no epoch hook.
    pub fn run(&mut self) -> SyncStats {
        self.run_with_hook(&mut NoHook)
    }

    /// Runs to global quiescence, pacing the given hook against the
    /// merged global clock.
    pub fn run_with_hook(&mut self, hook: &mut dyn EpochHook<W::Action>) -> SyncStats {
        if self.threaded && self.shards.len() > 1 {
            self.run_threaded(hook)
        } else {
            self.run_serial(hook)
        }
    }

    fn run_serial(&mut self, hook: &mut dyn EpochHook<W::Action>) -> SyncStats {
        let mut stats = SyncStats::default();
        loop {
            let next_times: Vec<Option<SimTime>> =
                self.shards.iter().map(|s| s.next_event_time()).collect();
            match plan_epoch(&next_times, hook.next_instant(), self.lookahead) {
                EpochPlan::Idle => break,
                EpochPlan::Fire(at) => {
                    let actions = hook.fire(at);
                    stats.hook_firings += 1;
                    assert!(
                        hook.next_instant().is_none_or(|n| n > at),
                        "epoch hook did not consume its instant"
                    );
                    for action in &actions {
                        for shard in &mut self.shards {
                            shard.apply_action(action);
                        }
                    }
                }
                EpochPlan::Run(horizon) => {
                    stats.epochs += 1;
                    let mut outbox = Vec::new();
                    for shard in &mut self.shards {
                        stats.events += shard.run_before(horizon);
                        outbox.append(&mut shard.take_outbox());
                    }
                    canonical_sort(&mut outbox);
                    stats.cross_shard_messages += outbox.len() as u64;
                    for event in outbox {
                        debug_assert!(
                            event.at >= horizon,
                            "cross-shard message at {} violates the lookahead \
                             horizon {horizon}",
                            event.at
                        );
                        self.shards[event.dst_shard].deposit(event);
                    }
                }
            }
        }
        stats
    }

    /// The threaded epoch loop: one persistent worker per shard, two
    /// command rounds per epoch (advance, then deposit). The main thread
    /// makes every ordering decision; workers only execute, so the
    /// operation sequence is identical to [`Self::run_serial`].
    fn run_threaded(&mut self, hook: &mut dyn EpochHook<W::Action>) -> SyncStats {
        let mut stats = SyncStats::default();
        let lookahead = self.lookahead;
        let n = self.shards.len();
        std::thread::scope(|scope| {
            let (reply_tx, reply_rx) = mpsc::channel::<Reply<W::Msg>>();
            let mut cmd_txs = Vec::with_capacity(n);
            for shard in self.shards.iter_mut() {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<W::Msg, W::Action>>();
                let reply_tx = reply_tx.clone();
                cmd_txs.push(cmd_tx);
                // The observe bus is thread-local: a worker records only
                // if the thread driving the kernel does.
                let recording = rmodp_observe::bus::is_enabled();
                scope.spawn(move || {
                    rmodp_observe::bus::set_enabled(recording);
                    while let Ok(cmd) = cmd_rx.recv() {
                        let mut reply = Reply {
                            shard: shard.shard_id(),
                            next_time: None,
                            outbox: Vec::new(),
                            events: 0,
                        };
                        match cmd {
                            Cmd::RunBefore(horizon) => {
                                reply.events = shard.run_before(horizon);
                                reply.outbox = shard.take_outbox();
                            }
                            Cmd::Deposit(events) => {
                                for event in events {
                                    shard.deposit(event);
                                }
                            }
                            Cmd::Apply(actions) => {
                                for action in &actions {
                                    shard.apply_action(action);
                                }
                            }
                        }
                        reply.next_time = shard.next_event_time();
                        if reply_tx.send(reply).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(reply_tx);

            // One round: broadcast a command per shard, await all replies.
            let round = |cmds: Vec<Cmd<W::Msg, W::Action>>| -> Vec<Reply<W::Msg>> {
                for (tx, cmd) in cmd_txs.iter().zip(cmds) {
                    tx.send(cmd).expect("shard worker alive");
                }
                let mut replies: Vec<Option<Reply<W::Msg>>> = (0..n).map(|_| None).collect();
                for _ in 0..n {
                    let reply = reply_rx.recv().expect("shard worker alive");
                    let shard = reply.shard;
                    replies[shard] = Some(reply);
                }
                replies
                    .into_iter()
                    .map(|r| r.expect("every shard replied"))
                    .collect()
            };

            let mut next_times: Vec<Option<SimTime>> =
                round((0..n).map(|_| Cmd::Deposit(Vec::new())).collect())
                    .into_iter()
                    .map(|r| r.next_time)
                    .collect();

            loop {
                match plan_epoch(&next_times, hook.next_instant(), lookahead) {
                    EpochPlan::Idle => break,
                    EpochPlan::Fire(at) => {
                        let actions = hook.fire(at);
                        stats.hook_firings += 1;
                        assert!(
                            hook.next_instant().is_none_or(|n| n > at),
                            "epoch hook did not consume its instant"
                        );
                        let replies = round((0..n).map(|_| Cmd::Apply(actions.clone())).collect());
                        for reply in replies {
                            next_times[reply.shard] = reply.next_time;
                        }
                    }
                    EpochPlan::Run(horizon) => {
                        stats.epochs += 1;
                        let replies = round((0..n).map(|_| Cmd::RunBefore(horizon)).collect());
                        let mut outbox = Vec::new();
                        for mut reply in replies {
                            stats.events += reply.events;
                            next_times[reply.shard] = reply.next_time;
                            outbox.append(&mut reply.outbox);
                        }
                        canonical_sort(&mut outbox);
                        stats.cross_shard_messages += outbox.len() as u64;
                        let mut per_shard: Vec<Vec<CrossShardEvent<W::Msg>>> =
                            (0..n).map(|_| Vec::new()).collect();
                        for event in outbox {
                            debug_assert!(
                                event.at >= horizon,
                                "cross-shard message at {} violates the lookahead \
                                 horizon {horizon}",
                                event.at
                            );
                            per_shard[event.dst_shard].push(event);
                        }
                        let replies = round(per_shard.into_iter().map(Cmd::Deposit).collect());
                        for reply in replies {
                            next_times[reply.shard] = reply.next_time;
                        }
                    }
                }
            }
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOP: SimDuration = SimDuration::from_micros(100);

    /// A toy shard: tokens hop between shards with latency `HOP`,
    /// decrementing a time-to-live; every processed hop is logged.
    struct TokenShard {
        id: usize,
        shards: usize,
        queue: crate::queue::EventQueue<u32>,
        outbox: Vec<CrossShardEvent<u32>>,
        sent: u64,
        log: Vec<(SimTime, u32)>,
        halted: bool,
        /// Whether the observe bus was recording on the thread that last
        /// advanced this shard.
        bus_recording: Option<bool>,
    }

    impl TokenShard {
        fn new(id: usize, shards: usize) -> Self {
            Self {
                id,
                shards,
                queue: crate::queue::EventQueue::with_seq_stride(id as u64, shards as u64),
                outbox: Vec::new(),
                sent: 0,
                log: Vec::new(),
                halted: false,
                bus_recording: None,
            }
        }
    }

    impl ShardWorld for TokenShard {
        type Msg = u32;
        type Action = ();

        fn shard_id(&self) -> usize {
            self.id
        }

        fn now(&self) -> SimTime {
            self.queue.now()
        }

        fn next_event_time(&self) -> Option<SimTime> {
            self.queue.peek_time()
        }

        fn run_before(&mut self, horizon: SimTime) -> u64 {
            self.bus_recording = Some(rmodp_observe::bus::is_enabled());
            let mut events = 0;
            while self.queue.peek_time().is_some_and(|t| t < horizon) {
                let (at, ttl) = self.queue.pop().expect("peeked");
                events += 1;
                self.log.push((at, ttl));
                if ttl == 0 || self.halted {
                    continue;
                }
                // Forward the token to the next shard (or locally for a
                // single shard — still via the queue, so shard counts
                // only change *where* work runs, not what happens).
                let dst = (self.id + 1) % self.shards;
                let arrive = at + HOP;
                if dst == self.id {
                    self.queue.schedule(arrive, ttl - 1);
                } else {
                    let src_seq = self.sent;
                    self.sent += 1;
                    self.outbox.push(CrossShardEvent {
                        at: arrive,
                        src_shard: self.id,
                        src_seq,
                        dst_shard: dst,
                        msg: ttl - 1,
                    });
                }
            }
            events
        }

        fn take_outbox(&mut self) -> Vec<CrossShardEvent<u32>> {
            std::mem::take(&mut self.outbox)
        }

        fn deposit(&mut self, event: CrossShardEvent<u32>) {
            assert!(event.at >= self.queue.now(), "deposit in the past");
            self.queue.schedule(event.at, event.msg);
        }

        fn apply_action(&mut self, _action: &()) {
            self.halted = true;
        }
    }

    fn run_tokens(
        shards: usize,
        threaded: bool,
        ttl: u32,
        tokens: u32,
    ) -> Vec<Vec<(SimTime, u32)>> {
        let mut worlds: Vec<TokenShard> = (0..shards).map(|i| TokenShard::new(i, shards)).collect();
        for t in 0..tokens {
            // All tokens start on shard 0 at distinct instants.
            worlds[0]
                .queue
                .schedule(SimTime::from_micros(u64::from(t) + 1), ttl);
        }
        let mut kernel = ShardedKernel::new(worlds, HOP);
        kernel.set_threaded(threaded);
        let stats = kernel.run();
        assert!(stats.events > 0);
        kernel.into_shards().into_iter().map(|s| s.log).collect()
    }

    #[test]
    fn threaded_workers_follow_the_callers_bus_setting() {
        for recording in [false, true] {
            rmodp_observe::bus::set_enabled(recording);
            let mut worlds: Vec<TokenShard> = (0..2).map(|i| TokenShard::new(i, 2)).collect();
            worlds[0].queue.schedule(SimTime::from_micros(1), 3);
            let mut kernel = ShardedKernel::new(worlds, HOP);
            kernel.set_threaded(true);
            kernel.run();
            for shard in kernel.into_shards() {
                assert_eq!(shard.bus_recording, Some(recording), "shard {}", shard.id);
            }
        }
    }

    #[test]
    fn serial_and_threaded_runs_are_identical() {
        for shards in [2, 4] {
            let serial = run_tokens(shards, false, 13, 5);
            let threaded = run_tokens(shards, true, 13, 5);
            assert_eq!(serial, threaded, "{shards} shards");
        }
    }

    #[test]
    fn every_shard_log_is_time_ordered() {
        for log in run_tokens(4, true, 20, 7) {
            let times: Vec<SimTime> = log.iter().map(|e| e.0).collect();
            let mut sorted = times.clone();
            sorted.sort();
            assert_eq!(times, sorted, "conservative horizon was violated");
        }
    }

    #[test]
    fn total_hops_are_shard_count_invariant() {
        let total = |logs: Vec<Vec<(SimTime, u32)>>| -> usize { logs.iter().map(Vec::len).sum() };
        let one = total(run_tokens(1, false, 9, 3));
        let two = total(run_tokens(2, true, 9, 3));
        let four = total(run_tokens(4, true, 9, 3));
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    #[test]
    fn merge_order_is_canonical_for_simultaneous_arrivals() {
        // Shards 1 and 2 each send a token that arrives at shard 0 at
        // the same instant; the canonical order deposits shard 1's
        // message first, so it gets the earlier tie-break seq.
        struct Probe {
            id: usize,
            queue: crate::queue::EventQueue<u32>,
            outbox: Vec<CrossShardEvent<u32>>,
            deposits: Vec<(SimTime, usize, u64)>,
        }
        impl ShardWorld for Probe {
            type Msg = u32;
            type Action = ();
            fn shard_id(&self) -> usize {
                self.id
            }
            fn now(&self) -> SimTime {
                self.queue.now()
            }
            fn next_event_time(&self) -> Option<SimTime> {
                self.queue.peek_time()
            }
            fn run_before(&mut self, horizon: SimTime) -> u64 {
                let mut events = 0;
                while self.queue.peek_time().is_some_and(|t| t < horizon) {
                    let (at, _) = self.queue.pop().expect("peeked");
                    events += 1;
                    if self.id != 0 {
                        self.outbox.push(CrossShardEvent {
                            at: at + HOP,
                            src_shard: self.id,
                            src_seq: 0,
                            dst_shard: 0,
                            msg: 0,
                        });
                    }
                }
                events
            }
            fn take_outbox(&mut self) -> Vec<CrossShardEvent<u32>> {
                std::mem::take(&mut self.outbox)
            }
            fn deposit(&mut self, event: CrossShardEvent<u32>) {
                self.deposits
                    .push((event.at, event.src_shard, event.src_seq));
                self.queue.schedule(event.at, event.msg);
            }
            fn apply_action(&mut self, _action: &()) {}
        }
        let mk = |id: usize| Probe {
            id,
            queue: crate::queue::EventQueue::with_seq_stride(id as u64, 3),
            outbox: Vec::new(),
            deposits: Vec::new(),
        };
        let mut shards = vec![mk(0), mk(1), mk(2)];
        // Seed shard 2 *before* shard 1, at the same instant: canonical
        // order must still put shard 1 first.
        shards[2].queue.schedule(SimTime::from_micros(1), 0);
        shards[1].queue.schedule(SimTime::from_micros(1), 0);
        let mut kernel = ShardedKernel::new(shards, HOP);
        kernel.set_threaded(false);
        kernel.run();
        assert_eq!(
            kernel.shards()[0].deposits,
            vec![
                (SimTime::from_micros(101), 1, 0),
                (SimTime::from_micros(101), 2, 0),
            ]
        );
    }

    #[test]
    fn hook_fires_at_exact_instants_and_halts_tokens() {
        struct At {
            at: Option<SimTime>,
        }
        impl EpochHook<()> for At {
            fn next_instant(&self) -> Option<SimTime> {
                self.at
            }
            fn fire(&mut self, at: SimTime) -> Vec<()> {
                assert_eq!(Some(at), self.at.take());
                vec![()]
            }
        }
        let run = |threaded: bool| -> Vec<Vec<(SimTime, u32)>> {
            let mut worlds: Vec<TokenShard> = (0..2).map(|i| TokenShard::new(i, 2)).collect();
            worlds[0].queue.schedule(SimTime::from_micros(1), 50);
            let mut kernel = ShardedKernel::new(worlds, HOP);
            kernel.set_threaded(threaded);
            let mut hook = At {
                at: Some(SimTime::from_micros(450)),
            };
            let stats = kernel.run_with_hook(&mut hook);
            assert_eq!(stats.hook_firings, 1);
            kernel.into_shards().into_iter().map(|s| s.log).collect()
        };
        let serial = run(false);
        let threaded = run(true);
        assert_eq!(serial, threaded);
        // Hops land at 1, 101, 201, 301, 401; the hop sent at 401 is in
        // flight when the halt fires at 450, still arrives at 501 (and
        // is logged), but stops propagating there.
        let hops: usize = serial.iter().map(Vec::len).sum();
        assert_eq!(hops, 6, "five hops before the halt plus one in flight");
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let shards = vec![TokenShard::new(0, 1)];
        let _ = ShardedKernel::new(shards, SimDuration::ZERO);
    }
}
