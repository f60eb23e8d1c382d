//! Sharded execution: partitioned event queues under conservative
//! lookahead, merged deterministically.
//!
//! The single [`crate::queue::EventQueue`] was the last serial advance
//! site in the workspace. This module splits a world into N *shards*,
//! each owning a disjoint partition of nodes (see [`PartitionMap`])
//! with its own queue, clock, and RNG stream, and synchronizes them
//! with the classic conservative (Chandy–Misra–Bryant style) argument:
//!
//! * every cross-shard interaction travels over a link whose one-way
//!   latency is at least `lookahead` (> 0);
//! * per epoch, let `m` be the global minimum next-event time; every
//!   shard may safely process all events strictly before the horizon
//!   `h = m + lookahead`, because a message *sent* during the epoch is
//!   sent at some `t ≥ m` and thus *arrives* at `t + latency ≥ h` —
//!   checked with an `assert!` on every message, in every build;
//! * at the epoch barrier, cross-shard messages are sorted into the
//!   canonical `(SimTime, src_shard, src_seq)` merge order and wait in
//!   the kernel's hands until their destination's *next* round, which
//!   deposits them before it does anything else; until then they count
//!   towards that shard's next-event time, so the sequence of horizons
//!   is the one a deposit at the barrier itself would give, and the
//!   target queue's tie-break sequence assignment — and therefore the
//!   whole run — is independent of thread scheduling.
//!
//! An epoch is one rendezvous: the private `drive` is the only epoch
//! loop (plan, count, sort, lookahead check, routing) and hands every
//! shard one `Round`; the private `serve` is the only code that touches
//! a shard during a run and answers with one `Report`. The serial runner
//! maps `serve` over the shards in place; the threaded runner sends each
//! `Round` to a [`std::thread::scope`] worker that calls the same
//! `serve`. A threaded run is bit-identical to a serial one because both
//! execute the same two functions.

use std::sync::mpsc;

use rmodp_observe::bus;

use crate::time::{SimDuration, SimTime};

/// Assignment of a world's nodes to shards: node `i` belongs to shard
/// `owner[i]`. The map is built once, before any event runs, and never
/// changes mid-run: conservative synchronization depends on the
/// ownership relation being static.
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

/// Counters describing one sharded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Synchronization epochs executed.
    pub epochs: u64,
    /// Events processed across all shards.
    pub events: u64,
    /// Messages exchanged across shard boundaries.
    pub cross_shard_messages: u64,
    /// Timeline instants fired.
    pub hook_firings: u64,
}

/// What one epoch should do, derived from the global queue state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochPlan {
    /// Nothing queued anywhere and no timeline instant: the run is over.
    Idle,
    /// Apply the actions at the head of the timeline before processing
    /// anything else.
    Fire,
    /// Advance every shard strictly below this horizon.
    Run(SimTime),
}

fn plan_epoch(
    next_times: &[Option<SimTime>],
    timeline_next: Option<SimTime>,
    lookahead: SimDuration,
) -> EpochPlan {
    let min_next = next_times.iter().flatten().min().copied();
    match (min_next, timeline_next) {
        (None, None) => EpochPlan::Idle,
        (None, Some(_)) => EpochPlan::Fire,
        (Some(m), instant) => {
            if instant.is_some_and(|f| f <= m) {
                // Everything before `f` is already processed (the global
                // minimum is at or after it): act now, before any event
                // at `f` or later runs.
                return EpochPlan::Fire;
            }
            let mut horizon = m + lookahead;
            if let Some(f) = instant {
                horizon = horizon.min(f);
            }
            EpochPlan::Run(horizon)
        }
    }
}

/// What the kernel hands one shard at a rendezvous.
struct Round<M, A> {
    /// Messages merged at the previous barrier, in canonical order.
    inbox: Vec<CrossShardEvent<M>>,
    /// Timeline actions due now (a fire instant; empty otherwise).
    actions: Vec<A>,
    /// Run strictly below this horizon; `None` at a fire instant.
    horizon: Option<SimTime>,
}

impl<M, A> Default for Round<M, A> {
    fn default() -> Self {
        Self {
            inbox: Vec::new(),
            actions: Vec::new(),
            horizon: None,
        }
    }
}

/// A shard's answer to one [`Round`].
struct Report<M> {
    next_time: Option<SimTime>,
    outbox: Vec<CrossShardEvent<M>>,
    events: u64,
}

/// Performs one round on one shard — the only code that touches a shard
/// during a run, on either runner. The order is the one a shard has
/// always seen: merged messages first, then barrier actions, then the
/// epoch's events. The round's buffers are drained, not dropped, so the
/// serial runner reuses them.
fn serve<W: ShardWorld>(shard: &mut W, round: &mut Round<W::Msg, W::Action>) -> Report<W::Msg> {
    for event in round.inbox.drain(..) {
        shard.deposit(event);
    }
    for action in round.actions.drain(..) {
        shard.apply_action(&action);
    }
    let (events, outbox) = match round.horizon {
        Some(horizon) => (shard.run_before(horizon), shard.take_outbox()),
        None => (0, Vec::new()),
    };
    Report {
        next_time: shard.next_event_time(),
        outbox,
        events,
    }
}

/// The epoch loop, written once: plans each epoch from the shards'
/// next-event times and the timeline, hands every shard its [`Round`]
/// through `rendezvous` (which must push one [`Report`] per shard, in
/// shard order), then counts, sorts and routes what came back.
fn drive<M, A: Clone>(
    mut next_times: Vec<Option<SimTime>>,
    lookahead: SimDuration,
    timeline: &[(SimTime, Vec<A>)],
    mut rendezvous: impl FnMut(&mut [Round<M, A>], &mut Vec<Report<M>>),
) -> SyncStats {
    let mut stats = SyncStats::default();
    let mut timeline = timeline.iter().peekable();
    // Reused every epoch: a run allocates for its rounds only as its
    // largest barrier grows.
    let mut rounds: Vec<Round<M, A>> = next_times.iter().map(|_| Round::default()).collect();
    let mut reports: Vec<Report<M>> = Vec::with_capacity(rounds.len());
    let mut merged: Vec<CrossShardEvent<M>> = Vec::new();
    loop {
        let horizon = match plan_epoch(&next_times, timeline.peek().map(|(at, _)| *at), lookahead) {
            EpochPlan::Idle => break,
            EpochPlan::Fire => {
                let (_, actions) = timeline.next().expect("planned from its head");
                stats.hook_firings += 1;
                for round in &mut rounds {
                    round.actions.extend_from_slice(actions);
                }
                None
            }
            EpochPlan::Run(horizon) => {
                stats.epochs += 1;
                Some(horizon)
            }
        };
        for round in &mut rounds {
            round.horizon = horizon;
        }
        rendezvous(&mut rounds, &mut reports);
        for (next, mut report) in next_times.iter_mut().zip(reports.drain(..)) {
            *next = report.next_time;
            stats.events += report.events;
            merged.append(&mut report.outbox);
        }
        // Only a run round emits; a fire instant leaves nothing to merge.
        let Some(horizon) = horizon else { continue };
        merged.sort_by_key(|e| (e.at, e.src_shard, e.src_seq));
        stats.cross_shard_messages += merged.len() as u64;
        for event in merged.drain(..) {
            assert!(
                event.at >= horizon,
                "cross-shard message at {} violates the lookahead horizon {horizon}",
                event.at
            );
            // The message waits here for its shard's next round; until
            // then the planner must see it as that shard's pending work.
            let next = &mut next_times[event.dst_shard];
            *next = Some(next.map_or(event.at, |t| t.min(event.at)));
            rounds[event.dst_shard].inbox.push(event);
        }
    }
    stats
}

/// The sharded scheduler: owns N [`ShardWorld`]s and drives them epoch
/// by epoch until every queue is empty and the timeline is exhausted.
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
    /// Creates a kernel over pre-partitioned shards; it runs them on the
    /// calling thread until [`Self::set_threaded`] says otherwise.
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
        Self {
            shards,
            lookahead,
            threaded: false,
        }
    }

    /// Asks for one OS thread per shard (used when there is more than
    /// one shard). Both runners execute the same epoch loop and the same
    /// per-shard round, so results do not depend on this.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// The shards, for post-run inspection.
    pub fn shards(&self) -> &[W] {
        &self.shards
    }

    /// Consumes the kernel, returning its shards.
    pub fn into_shards(self) -> Vec<W> {
        self.shards
    }

    /// Runs to global quiescence with an empty timeline.
    pub fn run(&mut self) -> SyncStats {
        self.run_with(&[])
    }

    /// Runs to global quiescence, applying each timeline entry's actions
    /// to every shard at its exact instant of the merged global clock:
    /// the kernel caps an epoch's horizon at the next instant, and once
    /// every event before it has been processed, broadcasts its actions
    /// before any event at or after it runs. A fault plan's timeline
    /// plays here.
    ///
    /// # Panics
    ///
    /// Panics if the timeline's instants are not strictly ascending, or
    /// if a shard emits a message that arrives below the epoch horizon.
    pub fn run_with(&mut self, timeline: &[(SimTime, Vec<W::Action>)]) -> SyncStats {
        assert!(
            timeline.windows(2).all(|w| w[0].0 < w[1].0),
            "timeline instants must be strictly ascending"
        );
        let lookahead = self.lookahead;
        let next_times = self.shards.iter().map(|s| s.next_event_time()).collect();
        if !(self.threaded && self.shards.len() > 1) {
            return drive(next_times, lookahead, timeline, |rounds, reports| {
                reports.extend(
                    self.shards
                        .iter_mut()
                        .zip(rounds)
                        .map(|(shard, round)| serve(shard, round)),
                );
            });
        }
        // One scoped worker per shard, alive for the whole run. The main
        // thread makes every ordering decision; a worker only serves.
        // The observe bus is thread-local: a worker records only if the
        // thread driving the kernel does.
        let recording = bus::is_enabled();
        std::thread::scope(|scope| {
            let mut round_txs = Vec::with_capacity(self.shards.len());
            let mut report_rxs = Vec::with_capacity(self.shards.len());
            for shard in &mut self.shards {
                let (round_tx, round_rx) = mpsc::channel::<Round<W::Msg, W::Action>>();
                let (report_tx, report_rx) = mpsc::channel();
                round_txs.push(round_tx);
                report_rxs.push(report_rx);
                scope.spawn(move || {
                    bus::set_enabled(recording);
                    while let Ok(mut round) = round_rx.recv() {
                        if report_tx.send(serve(shard, &mut round)).is_err() {
                            break;
                        }
                    }
                });
            }
            drive(next_times, lookahead, timeline, |rounds, reports| {
                for (tx, round) in round_txs.iter().zip(rounds) {
                    tx.send(std::mem::take(round)).expect("shard worker alive");
                }
                reports.extend(
                    report_rxs
                        .iter()
                        .map(|rx| rx.recv().expect("shard worker alive")),
                );
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    const HOP: SimDuration = SimDuration::from_micros(100);

    /// A toy shard: tokens hop between shards with latency `hop`,
    /// decrementing a time-to-live; every processed hop is logged. An
    /// action toggles `halted`, and a halted shard logs but forwards
    /// nothing.
    struct TokenShard {
        id: usize,
        shards: usize,
        hop: SimDuration,
        queue: crate::queue::EventQueue<u32>,
        outbox: Vec<CrossShardEvent<u32>>,
        sent: u64,
        log: Vec<(SimTime, u32)>,
        halted: bool,
        /// Whether the observe bus was recording on the thread that last
        /// advanced this shard.
        bus_recording: Option<bool>,
        /// `next_event_time` calls: the kernel reads it once before the
        /// run and once per round served.
        polled: Cell<u64>,
    }

    impl TokenShard {
        fn new(id: usize, shards: usize) -> Self {
            Self {
                id,
                shards,
                hop: HOP,
                queue: crate::queue::EventQueue::with_seq_stride(id as u64, shards as u64),
                outbox: Vec::new(),
                sent: 0,
                log: Vec::new(),
                halted: false,
                bus_recording: None,
                polled: Cell::new(0),
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
            self.polled.set(self.polled.get() + 1);
            self.queue.peek_time()
        }

        fn run_before(&mut self, horizon: SimTime) -> u64 {
            self.bus_recording = Some(bus::is_enabled());
            let mut events = 0;
            while self.queue.peek_time().is_some_and(|t| t < horizon) {
                let (at, ttl) = self.queue.pop().expect("peeked");
                events += 1;
                self.log.push((at, ttl));
                if ttl == 0 || self.halted {
                    continue;
                }
                // Forward the token one to three shards on, by its ttl, so
                // several sources reach one destination at one instant
                // (or locally when that lands here — still via the queue,
                // so shard counts only change *where* work runs, not what
                // happens).
                let dst = (self.id + 1 + ttl as usize % 3) % self.shards;
                let arrive = at + self.hop;
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
            self.halted = !self.halted;
        }
    }

    /// The two-phase serial loop this module used before an epoch became
    /// one rendezvous — run every shard, sort, deposit everything at the
    /// barrier — kept as the reference `drive`/`serve` are compared with.
    fn reference_run<W: ShardWorld>(
        shards: &mut [W],
        lookahead: SimDuration,
        timeline: &[(SimTime, Vec<W::Action>)],
    ) -> SyncStats {
        let mut stats = SyncStats::default();
        loop {
            let next_times: Vec<Option<SimTime>> =
                shards.iter().map(|s| s.next_event_time()).collect();
            let pending = timeline.get(stats.hook_firings as usize);
            match plan_epoch(&next_times, pending.map(|(at, _)| *at), lookahead) {
                EpochPlan::Idle => break,
                EpochPlan::Fire => {
                    stats.hook_firings += 1;
                    for action in &pending.expect("planned from it").1 {
                        for shard in shards.iter_mut() {
                            shard.apply_action(action);
                        }
                    }
                }
                EpochPlan::Run(horizon) => {
                    stats.epochs += 1;
                    let mut outbox = Vec::new();
                    for shard in shards.iter_mut() {
                        stats.events += shard.run_before(horizon);
                        outbox.append(&mut shard.take_outbox());
                    }
                    outbox.sort_by_key(|e| (e.at, e.src_shard, e.src_seq));
                    stats.cross_shard_messages += outbox.len() as u64;
                    for event in outbox {
                        assert!(event.at >= horizon, "below the horizon");
                        shards[event.dst_shard].deposit(event);
                    }
                }
            }
        }
        stats
    }

    type Logs = Vec<Vec<(SimTime, u32)>>;

    /// `tokens` are `(start shard, start instant in µs, ttl)`.
    fn token_worlds(shards: usize, tokens: &[(usize, u64, u32)]) -> Vec<TokenShard> {
        let mut worlds: Vec<TokenShard> = (0..shards).map(|i| TokenShard::new(i, shards)).collect();
        for &(shard, at_us, ttl) in tokens {
            worlds[shard % shards]
                .queue
                .schedule(SimTime::from_micros(at_us), ttl);
        }
        worlds
    }

    fn run_kernel(
        worlds: Vec<TokenShard>,
        threaded: bool,
        timeline: &[(SimTime, Vec<()>)],
    ) -> (Logs, SyncStats) {
        let mut kernel = ShardedKernel::new(worlds, HOP);
        kernel.set_threaded(threaded);
        let stats = kernel.run_with(timeline);
        for shard in kernel.shards() {
            assert_eq!(
                shard.polled.get(),
                1 + stats.epochs + stats.hook_firings,
                "an epoch is one round per shard (threaded: {threaded})"
            );
        }
        let logs = kernel.into_shards().into_iter().map(|s| s.log).collect();
        (logs, stats)
    }

    fn run_tokens(shards: usize, threaded: bool, ttl: u32, tokens: u32) -> Logs {
        // All tokens start on shard 0 at distinct instants.
        let tokens: Vec<(usize, u64, u32)> =
            (0..tokens).map(|t| (0, u64::from(t) + 1, ttl)).collect();
        let (logs, stats) = run_kernel(token_worlds(shards, &tokens), threaded, &[]);
        assert!(stats.events > 0);
        logs
    }

    proptest! {
        /// The one loop against the two-phase reference, on both runners:
        /// every shard's log and every counter agree, with same-instant
        /// arrivals from several sources and timeline instants that fall
        /// on an event time, between events and after quiescence.
        #[test]
        fn one_loop_matches_the_two_phase_reference(
            shards in 1usize..=4,
            tokens in proptest::collection::vec((0usize..4, 1u64..5, 0u32..14), 1..8),
            instants in proptest::collection::vec((0u8..3, 0usize..8, 0u64..1_800), 0..=3),
        ) {
            let mut times: Vec<SimTime> = instants
                .iter()
                .map(|&(kind, pick, us)| match kind {
                    // A token's start: an instant with an event on it.
                    0 => SimTime::from_micros(tokens[pick % tokens.len()].1),
                    1 => SimTime::from_micros(us),
                    // The longest chain ends before 1.5 ms.
                    _ => SimTime::from_micros(1_000_000 + us),
                })
                .collect();
            times.sort();
            times.dedup();
            let timeline: Vec<(SimTime, Vec<()>)> =
                times.into_iter().map(|at| (at, vec![()])).collect();

            let mut worlds = token_worlds(shards, &tokens);
            let expected_stats = reference_run(&mut worlds, HOP, &timeline);
            let expected: Logs = worlds.into_iter().map(|s| s.log).collect();
            prop_assert_eq!(expected_stats.hook_firings, timeline.len() as u64);

            for threaded in [false, true] {
                let (logs, stats) = run_kernel(token_worlds(shards, &tokens), threaded, &timeline);
                prop_assert_eq!(&logs, &expected, "threaded: {}", threaded);
                prop_assert_eq!(stats, expected_stats, "threaded: {}", threaded);
            }
        }
    }

    #[test]
    fn threaded_workers_follow_the_callers_bus_setting() {
        for recording in [false, true] {
            bus::set_enabled(recording);
            let mut kernel = ShardedKernel::new(token_worlds(2, &[(0, 1, 3)]), HOP);
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
        let total = |logs: Logs| -> usize { logs.iter().map(Vec::len).sum() };
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
        let run = |threaded: bool| -> Logs {
            let timeline = [(SimTime::from_micros(450), vec![()])];
            let (logs, stats) = run_kernel(token_worlds(2, &[(0, 1, 50)]), threaded, &timeline);
            assert_eq!(stats.hook_firings, 1);
            logs
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

    /// A shard whose links are faster than the kernel was told: its first
    /// message arrives at 51 µs, below the first horizon (101 µs).
    fn run_with_a_link_shorter_than_the_lookahead(threaded: bool) {
        let mut worlds = token_worlds(2, &[(0, 1, 3)]);
        worlds[0].hop = SimDuration::from_micros(50);
        let mut kernel = ShardedKernel::new(worlds, HOP);
        kernel.set_threaded(threaded);
        kernel.run();
    }

    // Leg 1 of the determinism argument is checked in every build: on the
    // parent these two pass in debug and fail under `cargo test --release`,
    // where its `debug_assert!` compiles out.
    #[test]
    #[should_panic(expected = "violates the lookahead horizon")]
    fn a_message_below_the_horizon_panics_on_the_serial_runner() {
        run_with_a_link_shorter_than_the_lookahead(false);
    }

    #[test]
    #[should_panic(expected = "violates the lookahead horizon")]
    fn a_message_below_the_horizon_panics_on_the_threaded_runner() {
        run_with_a_link_shorter_than_the_lookahead(true);
    }

    #[test]
    fn a_timeline_that_does_not_strictly_ascend_is_rejected() {
        let at = SimTime::from_micros;
        for instants in [[at(300), at(200)], [at(200), at(200)]] {
            let timeline: Vec<(SimTime, Vec<()>)> =
                instants.iter().map(|&t| (t, vec![()])).collect();
            let refused = std::panic::catch_unwind(|| {
                ShardedKernel::new(token_worlds(2, &[(0, 1, 3)]), HOP).run_with(&timeline)
            })
            .expect_err("accepted");
            let text = refused.downcast_ref::<&str>().expect("a literal message");
            assert!(text.contains("strictly ascending"), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let shards = vec![TokenShard::new(0, 1)];
        let _ = ShardedKernel::new(shards, SimDuration::ZERO);
    }
}
