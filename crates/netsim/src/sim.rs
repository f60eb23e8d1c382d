//! The discrete-event simulation engine.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::Rng;
use rmodp_kernel::payload::Payload;
use rmodp_kernel::queue::EventQueue;
use rmodp_kernel::rng::KernelRng;
use rmodp_kernel::shard::{CrossShardEvent, ShardWorld};
use rmodp_kernel::PartitionMap;
use rmodp_observe::{bus, event, EventKind, Facts, Layer};

use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkConfig, Topology};
use crate::trace::Metrics;

/// Index of a node within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A process address: a node plus a port on that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    /// The node hosting the process.
    pub node: NodeIdx,
    /// The port the process listens on.
    pub port: u32,
}

impl Addr {
    /// Creates an address.
    pub const fn new(node: NodeIdx, port: u32) -> Self {
        Self { node, port }
    }

    /// The conventional source address for messages injected from outside
    /// the simulation (drivers, test harnesses).
    pub const EXTERNAL: Addr = Addr::new(NodeIdx(u32::MAX), 0);

    /// The address as one word of event [`Facts`]: node high, port low.
    fn word(self) -> u64 {
        (u64::from(self.node.0) << 32) | u64::from(self.port)
    }

    /// The address [`word`](Self::word) packed.
    fn from_word(word: u64) -> Self {
        Addr::new(NodeIdx((word >> 32) as u32), word as u32)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Addr::EXTERNAL {
            write!(f, "external")
        } else {
            write!(f, "{}:{}", self.node, self.port)
        }
    }
}

/// What a `Send` or `Deliver` event's detail is written from: the peer
/// address and the payload size.
fn message_facts(peer: Addr, payload: &Payload) -> Facts<'static> {
    Facts {
        words: [peer.word(), payload.len() as u64],
        ..Facts::default()
    }
}

/// `Send`'s detail: `-> <dst> (<n> bytes)`.
fn render_send(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let [dst, len] = facts.words;
    write!(f, "-> {} ({len} bytes)", Addr::from_word(dst))
}

/// `Deliver`'s detail: `<- <src> (<n> bytes)`.
fn render_deliver(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let [src, len] = facts.words;
    write!(f, "<- {} ({len} bytes)", Addr::from_word(src))
}

/// A message in flight.
///
/// The payload is a shared [`Payload`]: forwarding, echoing, or fanning
/// a message out shares one immutable buffer instead of deep-cloning
/// bytes per hop.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sender address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Opaque payload (shared bytes).
    pub payload: Payload,
    /// When the sender handed it to the network.
    pub sent_at: SimTime,
}

/// Identifies a timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// A simulated process: reacts to messages and timers.
///
/// Processes run to completion on each event (no blocking); long-running
/// behaviour is expressed by setting timers.
///
/// Processes are `Send` so a [`Sim`] can serve as one shard of a
/// [`ShardedKernel`](rmodp_kernel::ShardedKernel) running on its own
/// thread; a process never runs on two threads at once (each shard owns
/// its processes exclusively), so no further synchronization is needed.
pub trait Process: Send + 'static {
    /// Handles a delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message);

    /// Handles a fired timer; `tag` is the value given to
    /// [`Ctx::set_timer`]. The default implementation ignores timers.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// Object-safe wrapper adding downcasting to [`Process`], so harnesses can
/// inspect process state after a run.
trait AnyProcess: Process {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Process + Any> AnyProcess for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The capabilities available to a process while handling an event.
///
/// Effects (sends, timers, notes) are buffered and applied by the engine
/// after the handler returns, which keeps event handling deterministic.
pub struct Ctx<'a> {
    now: SimTime,
    next_timer: &'a mut u64,
    out: Vec<Command>,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a message from this process. The causal context active
    /// *now* is captured with the command: commands are applied after
    /// the handler returns, by which time a context the handler pushed
    /// (e.g. a queued request's span restored around its dispatch) has
    /// been popped again.
    pub fn send(&mut self, dst: Addr, payload: impl Into<Payload>) {
        self.out.push(Command::Send {
            dst,
            payload: payload.into(),
            context: bus::current_context(),
        });
    }

    /// Schedules a timer to fire after `delay` with the given tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.out.push(Command::SetTimer {
            at: self.now + delay,
            tag,
            id,
        });
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired timer is
    /// a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.out.push(Command::CancelTimer(id));
    }

    /// Records an application-level note in the trace. The text is
    /// built only while the observe bus is recording.
    pub fn note(&mut self, detail: impl FnOnce() -> String) {
        if bus::is_enabled() {
            self.out.push(Command::Note(detail()));
        }
    }
}

#[derive(Debug)]
enum Command {
    Send {
        dst: Addr,
        payload: Payload,
        /// Causal context captured at `Ctx::send` time (see there).
        context: Option<u64>,
    },
    SetTimer {
        at: SimTime,
        tag: u64,
        id: TimerId,
    },
    CancelTimer(TimerId),
    Note(String),
}

#[derive(Debug)]
enum Pending {
    Deliver { msg: Message, span: u64 },
    Timer { addr: Addr, tag: u64, id: TimerId },
    Action(ShardAction),
}

/// A change to the shared network state at one instant: a fault, or the
/// end of one. On one queue it is an entry of the simulator's own
/// schedule ([`Sim::schedule_action`]); in a sharded run every shard
/// applies it at an epoch barrier, so all shards keep the same view of
/// the network. A `SetLink` that only moves latency is a shard action
/// like the others: a fault can only lengthen a link, which keeps the
/// lookahead bound. One with loss or jitter would draw from each shard's
/// own RNG, so sharded runs refuse it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardAction {
    /// Crash a node (messages and timers dropped).
    Crash(NodeIdx),
    /// Restart a crashed node.
    Restart(NodeIdx),
    /// Sever connectivity between two nodes.
    Partition(NodeIdx, NodeIdx),
    /// Restore connectivity between two nodes.
    Heal(NodeIdx, NodeIdx),
    /// Give the directed link `from → to` this configuration.
    SetLink(NodeIdx, NodeIdx, LinkConfig),
}

impl fmt::Display for ShardAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardAction::Crash(node) => write!(f, "crash {node}"),
            ShardAction::Restart(node) => write!(f, "restart {node}"),
            ShardAction::Partition(a, b) => write!(f, "partition {a}<->{b}"),
            ShardAction::Heal(a, b) => write!(f, "heal {a}<->{b}"),
            ShardAction::SetLink(from, to, link) => write!(
                f,
                "set link {from}->{to} latency={}us jitter={}us loss={:.2}",
                link.latency.as_micros(),
                link.jitter.as_micros(),
                link.loss
            ),
        }
    }
}

/// State a [`Sim`] keeps when acting as one shard of a
/// [`ShardedKernel`](rmodp_kernel::ShardedKernel): which shard it is,
/// who owns every node, and the cross-shard messages emitted since the
/// last epoch barrier.
#[derive(Debug)]
struct ShardRouting {
    shard_id: usize,
    map: PartitionMap,
    outbox: Vec<CrossShardEvent<Message>>,
    sent: u64,
}

/// The simulation engine. See the [crate docs](crate) for an example.
///
/// Scheduling is delegated to the kernel's [`EventQueue`]: one totally
/// ordered `(time, seq)` schedule whose clock feeds the observe bus, so
/// this crate no longer carries its own heap or clock.
pub struct Sim {
    queue: EventQueue<Pending>,
    next_timer: u64,
    procs: BTreeMap<Addr, Box<dyn AnyProcess>>,
    topology: Topology,
    rng: KernelRng,
    nodes: u32,
    cancelled: BTreeSet<TimerId>,
    metrics: Metrics,
    shard: Option<ShardRouting>,
    /// The command buffer handlers write into, kept between events so a
    /// delivery allocates none of its own. Empty whenever no handler runs.
    commands: Vec<Command>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.queue.now())
            .field("nodes", &self.nodes)
            .field("procs", &self.procs.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulator with a seeded RNG and a default full-mesh
    /// topology.
    pub fn new(seed: u64) -> Self {
        Self::with_topology(seed, Topology::full_mesh(Default::default()))
    }

    /// Creates a simulator with an explicit topology.
    ///
    /// Also resets the thread's [`rmodp_observe`] bus, so every
    /// simulation starts a fresh, deterministic event stream: the same
    /// seed and workload produce a byte-identical trace.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        bus::reset();
        Self {
            next_timer: 0,
            queue: EventQueue::new(),
            procs: BTreeMap::new(),
            topology,
            rng: KernelRng::seeded(seed),
            nodes: 0,
            cancelled: BTreeSet::new(),
            metrics: Metrics::default(),
            shard: None,
            commands: Vec::new(),
        }
    }

    /// Turns this simulator into shard `shard_id` of a partitioned run:
    /// it keeps the full topology (every shard shares one world view)
    /// and its own queue, RNG stream and clock, but only hosts processes
    /// for nodes the partition map assigns to it. Sends to nodes owned
    /// by other shards are diverted into an outbox drained at epoch
    /// barriers by a [`ShardedKernel`](rmodp_kernel::ShardedKernel).
    ///
    /// The queue's tie-break counter is re-strided so sequence numbers
    /// are globally unique across shards (`seq ≡ shard_id (mod shards)`).
    ///
    /// # Panics
    ///
    /// Panics if `shard_id` is out of range for the map, or if events
    /// are already queued (sharding must be configured before load).
    pub fn enable_shard_routing(&mut self, shard_id: usize, map: PartitionMap) {
        assert!(shard_id < map.shards(), "shard id out of range");
        assert!(
            self.queue.is_empty(),
            "enable shard routing before scheduling events"
        );
        self.queue = EventQueue::with_seq_stride(shard_id as u64, map.shards() as u64);
        self.shard = Some(ShardRouting {
            shard_id,
            map,
            outbox: Vec::new(),
            sent: 0,
        });
    }

    /// Adds a node and returns its index.
    pub fn add_node(&mut self) -> NodeIdx {
        let idx = NodeIdx(self.nodes);
        self.nodes += 1;
        idx
    }

    /// Attaches a process at an address, replacing any previous process
    /// there. Returns `true` if a process was replaced.
    pub fn attach<P: Process>(&mut self, addr: Addr, process: P) -> bool {
        self.procs.insert(addr, Box::new(process)).is_some()
    }

    /// Immutable access to an attached process of a known concrete type.
    pub fn inspect<P: Process>(&self, addr: Addr) -> Option<&P> {
        self.procs.get(&addr)?.as_any().downcast_ref::<P>()
    }

    /// Mutable access to an attached process of a known concrete type.
    pub fn inspect_mut<P: Process>(&mut self, addr: Addr) -> Option<&mut P> {
        self.procs.get_mut(&addr)?.as_any_mut().downcast_mut::<P>()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The topology (for configuring links, partitions and crashes).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The topology, immutably.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Cumulative counters.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Injects a message into the network as if sent by `src` now.
    ///
    /// Drivers typically use [`Addr::EXTERNAL`] as the source.
    pub fn send_from(&mut self, src: Addr, dst: Addr, payload: impl Into<Payload>) {
        self.do_send(src, dst, payload.into());
    }

    /// Schedules a timer for an address from outside the simulation.
    pub fn schedule_timer(&mut self, addr: Addr, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        let at = self.now() + delay;
        self.queue.schedule(at, Pending::Timer { addr, tag, id });
        id
    }

    /// Schedules a network action at `at` in this simulator's own queue,
    /// so whatever advances the clock applies it at its instant, with one
    /// fault event in the trace. Equal instants keep submission order:
    /// scheduled before the load it perturbs, an action precedes every
    /// event that load queues at its instant, as a sharded run's barrier
    /// does.
    pub fn schedule_action(&mut self, at: SimTime, action: ShardAction) {
        self.queue.schedule(at, Pending::Action(action));
    }

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty. Popping advances the kernel clock (and the observe bus's
    /// time) to the event's timestamp; a cancelled timer is dropped
    /// unfired and moves no clock.
    pub fn step(&mut self) -> bool {
        if self.next_due().is_none() {
            return false;
        }
        let (_, pending) = self.queue.pop().expect("an entry is due");
        match pending {
            Pending::Deliver { msg, span } => self.deliver(msg, span),
            Pending::Timer { addr, tag, .. } => self.fire_timer(addr, tag),
            Pending::Action(action) => {
                let kind = match action {
                    ShardAction::Restart(_) | ShardAction::Heal(..) => EventKind::FaultClear,
                    _ => EventKind::FaultInject,
                };
                event(Layer::Netsim, kind)
                    .detail_fmt(format_args!("{action}"))
                    .emit();
                self.apply_action(&action);
            }
        }
        true
    }

    /// Runs until the queue drains.
    ///
    /// # Panics
    ///
    /// Panics after 50 million events — a runaway-loop backstop far above
    /// any legitimate workload in this workspace.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps < 50_000_000, "simulation did not quiesce");
        }
        steps
    }

    /// Runs until virtual time reaches `deadline` (events after it stay
    /// queued); the clock is advanced to the deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut steps = 0u64;
        while let Some(next) = self.next_due() {
            if next > deadline {
                break;
            }
            self.step();
            steps += 1;
        }
        self.queue.advance_to(deadline);
        steps
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        self.run_until(self.now() + d)
    }

    /// Builds a located event: node/port coordinates attached unless the
    /// address is the external injector.
    fn located<'a>(kind: EventKind, addr: Addr) -> rmodp_observe::EventBuilder<'a> {
        let b = event(Layer::Netsim, kind);
        if addr == Addr::EXTERNAL {
            b
        } else {
            b.node(addr.node.0 as u64).port(addr.port as u64)
        }
    }

    fn drop_msg(span: u64, at: Addr, reason: &'static str) {
        Self::located(EventKind::Drop, at)
            .span(span)
            .detail(reason)
            .emit();
        bus::counter_add("netsim.dropped", 1);
    }

    fn do_send(&mut self, src: Addr, dst: Addr, payload: Payload) {
        bus::set_time_us(self.now().as_micros());
        self.metrics.sent += 1;
        // One causal span per message: allocated at the send, carried to
        // the delivery (or drop), parented on whatever activity —
        // an invocation, a delivery being handled — caused the send.
        let span = bus::new_span();
        Self::located(EventKind::Send, src)
            .span(span)
            .parent_from_context()
            .detail_deferred(|| message_facts(dst, &payload), render_send)
            .emit();
        bus::counter_add("netsim.sent", 1);
        if self.topology.is_crashed(dst.node) || self.topology.is_crashed(src.node) {
            self.metrics.dropped_crash += 1;
            Self::drop_msg(span, dst, "endpoint crashed");
            return;
        }
        let cross_node = src.node != dst.node && src != Addr::EXTERNAL;
        if cross_node && !self.topology.connected(src.node, dst.node) {
            self.metrics.dropped_partition += 1;
            Self::drop_msg(span, dst, "partitioned");
            return;
        }
        let latency = if !cross_node {
            self.topology.local_latency()
        } else {
            let link = self.topology.link(src.node, dst.node);
            if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
                self.metrics.dropped_loss += 1;
                Self::drop_msg(span, dst, "random loss");
                return;
            }
            let jitter_us = link.jitter.as_micros();
            let extra = if jitter_us > 0 {
                SimDuration::from_micros(self.rng.gen_range(0..=jitter_us))
            } else {
                SimDuration::ZERO
            };
            link.latency + extra
        };
        let now = self.now();
        let msg = Message {
            src,
            dst,
            payload,
            sent_at: now,
        };
        let arrive = now + latency;
        if let Some(shard) = self.shard.as_mut() {
            let dst_shard = shard.map.owner(dst.node.0 as usize);
            if dst_shard != shard.shard_id {
                // The destination node lives on another shard: divert
                // into the outbox for the epoch barrier's canonical
                // merge. The payload is an `Arc` slice, so crossing the
                // shard (and thread) boundary shares bytes, never
                // copies them.
                let src_seq = shard.sent;
                shard.sent += 1;
                shard.outbox.push(CrossShardEvent {
                    at: arrive,
                    src_shard: shard.shard_id,
                    src_seq,
                    dst_shard,
                    msg,
                });
                return;
            }
        }
        self.queue.schedule(arrive, Pending::Deliver { msg, span });
    }

    fn deliver(&mut self, msg: Message, span: u64) {
        let dst = msg.dst;
        if self.topology.is_crashed(dst.node) {
            self.metrics.dropped_crash += 1;
            Self::drop_msg(span, dst, "destination crashed in flight");
            return;
        }
        if !self.procs.contains_key(&dst) {
            self.metrics.dropped_unroutable += 1;
            Self::drop_msg(span, dst, "no process attached");
            return;
        }
        self.metrics.delivered += 1;
        self.metrics.bytes_delivered += msg.payload.len() as u64;
        Self::located(EventKind::Deliver, dst)
            .span(span)
            .detail_deferred(|| message_facts(msg.src, &msg.payload), render_deliver)
            .emit();
        bus::counter_add("netsim.delivered", 1);
        bus::observe(
            "netsim.delivery_us",
            self.now()
                .as_micros()
                .saturating_sub(msg.sent_at.as_micros()),
        );
        // Handler effects are causally downstream of this delivery.
        bus::push_context(span);
        self.dispatch(dst, |process, ctx| process.on_message(ctx, msg));
        bus::pop_context();
    }

    /// Runs one handler of the process attached at `addr`, in place, and
    /// applies the commands it buffered.
    fn dispatch(&mut self, addr: Addr, handler: impl FnOnce(&mut dyn AnyProcess, &mut Ctx<'_>)) {
        let Some(process) = self.procs.get_mut(&addr) else {
            return;
        };
        let mut ctx = Ctx {
            now: self.queue.now(),
            next_timer: &mut self.next_timer,
            out: std::mem::take(&mut self.commands),
        };
        handler(process.as_mut(), &mut ctx);
        let mut commands = ctx.out;
        self.apply(addr, &mut commands);
        self.commands = commands;
    }

    /// Drops the cancelled timers at the head of the queue; returns when
    /// the next live entry is due.
    fn next_due(&mut self) -> Option<SimTime> {
        if !self.cancelled.is_empty() {
            let cancelled = &mut self.cancelled;
            self.queue
                .drop_while(|p| matches!(p, Pending::Timer { id, .. } if cancelled.remove(id)));
        }
        self.queue.peek_time()
    }

    fn fire_timer(&mut self, addr: Addr, tag: u64) {
        if self.topology.is_crashed(addr.node) {
            // Swallowed in silence: no observe event, no counter. Emitting
            // one here would add lines to every chaos run's event stream
            // (and so change the pinned chaos fixtures).
            return;
        }
        if !self.procs.contains_key(&addr) {
            return;
        }
        self.metrics.timers_fired += 1;
        Self::located(EventKind::TimerFired, addr)
            .detail_fmt(format_args!("tag={tag}"))
            .emit();
        bus::counter_add("netsim.timers_fired", 1);
        self.dispatch(addr, |process, ctx| process.on_timer(ctx, tag));
    }

    /// Applies and drains the commands a handler at `from` buffered.
    fn apply(&mut self, from: Addr, commands: &mut Vec<Command>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send {
                    dst,
                    payload,
                    context,
                } => {
                    // Restore the sender's causal context so the Send
                    // event parents on the activity that provoked it
                    // even when the command is applied context-free
                    // (timer handlers, queued dispatches).
                    let restored = match (context, bus::current_context()) {
                        (Some(span), top) if top != Some(span) => {
                            bus::push_context(span);
                            true
                        }
                        _ => false,
                    };
                    self.do_send(from, dst, payload);
                    if restored {
                        bus::pop_context();
                    }
                }
                Command::SetTimer { at, tag, id } => {
                    self.queue.schedule(
                        at,
                        Pending::Timer {
                            addr: from,
                            tag,
                            id,
                        },
                    );
                }
                Command::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
                Command::Note(detail) => {
                    Self::located(EventKind::Note, from).detail(detail).emit();
                }
            }
        }
    }
}

/// One simulator is one shard of a partitioned run (after
/// [`Sim::enable_shard_routing`]): it advances its own queue up to the
/// conservative horizon and exchanges diverted deliveries at epoch
/// barriers.
impl ShardWorld for Sim {
    type Msg = Message;
    type Action = ShardAction;

    fn shard_id(&self) -> usize {
        self.shard
            .as_ref()
            .expect("enable_shard_routing first")
            .shard_id
    }

    fn now(&self) -> SimTime {
        Sim::now(self)
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn run_before(&mut self, horizon: SimTime) -> u64 {
        let mut events = 0;
        while self.next_due().is_some_and(|t| t < horizon) {
            self.step();
            events += 1;
        }
        events
    }

    fn take_outbox(&mut self) -> Vec<CrossShardEvent<Message>> {
        self.shard
            .as_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.outbox))
    }

    fn deposit(&mut self, event: CrossShardEvent<Message>) {
        debug_assert!(
            event.at >= self.queue.now(),
            "cross-shard deposit in this shard's past"
        );
        // The delivery gets a fresh causal span on this shard's thread;
        // cross-thread span parentage is not stitched (the observe bus
        // is thread-local), which only affects diagnostic traces, never
        // simulation state.
        let span = bus::new_span();
        self.queue.schedule(
            event.at,
            Pending::Deliver {
                msg: event.msg,
                span,
            },
        );
    }

    fn apply_action(&mut self, action: &ShardAction) {
        match *action {
            ShardAction::Crash(node) => self.topology.crash(node),
            ShardAction::Restart(node) => self.topology.restart(node),
            ShardAction::Partition(a, b) => self.topology.partition(a, b),
            ShardAction::Heal(a, b) => self.topology.heal(a, b),
            ShardAction::SetLink(from, to, link) => self.topology.set_link(from, to, link),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records everything it receives; replies when `echo` is set.
    struct Recorder {
        echo: bool,
        received: Vec<Payload>,
        timer_tags: Vec<u64>,
    }

    impl Recorder {
        fn new(echo: bool) -> Self {
            Self {
                echo,
                received: Vec::new(),
                timer_tags: Vec::new(),
            }
        }
    }

    impl Process for Recorder {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            self.received.push(msg.payload.clone());
            if self.echo {
                ctx.send(msg.src, msg.payload);
            }
        }

        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
            self.timer_tags.push(tag);
        }
    }

    fn two_node_sim(link: LinkConfig) -> (Sim, Addr, Addr) {
        let mut sim = Sim::with_topology(1, Topology::full_mesh(link));
        let a = sim.add_node();
        let b = sim.add_node();
        let pa = Addr::new(a, 0);
        let pb = Addr::new(b, 0);
        sim.attach(pa, Recorder::new(true));
        sim.attach(pb, Recorder::new(false));
        (sim, pa, pb)
    }

    #[test]
    fn message_round_trip_with_latency() {
        let (mut sim, pa, pb) = two_node_sim(LinkConfig::with_latency(SimDuration::from_millis(3)));
        sim.send_from(pb, pa, b"ping".to_vec());
        sim.run_until_idle();
        // pb -> pa (3ms) then echo pa -> pb (3ms).
        assert_eq!(sim.now(), SimTime::from_micros(6_000));
        assert_eq!(sim.inspect::<Recorder>(pa).unwrap().received.len(), 1);
        assert_eq!(
            sim.inspect::<Recorder>(pb).unwrap().received,
            vec![b"ping".to_vec()]
        );
        assert_eq!(sim.metrics().delivered, 2);
    }

    #[test]
    fn same_node_delivery_uses_local_latency() {
        let mut sim = Sim::new(1);
        let n = sim.add_node();
        let p0 = Addr::new(n, 0);
        let p1 = Addr::new(n, 1);
        sim.attach(p0, Recorder::new(false));
        sim.attach(p1, Recorder::new(false));
        sim.send_from(p0, p1, vec![1]);
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_micros(1));
        assert_eq!(sim.inspect::<Recorder>(p1).unwrap().received.len(), 1);
    }

    #[test]
    fn loss_drops_messages_deterministically() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.5);
        let (mut sim, pa, pb) = two_node_sim(link);
        // Replace echo with silent sink so each send is independent.
        sim.attach(pa, Recorder::new(false));
        for _ in 0..1000 {
            sim.send_from(pb, pa, vec![0]);
        }
        sim.run_until_idle();
        let delivered = sim.inspect::<Recorder>(pa).unwrap().received.len();
        let dropped = sim.metrics().dropped_loss as usize;
        assert_eq!(delivered + dropped, 1000);
        // With p=0.5 over 1000 trials this is > 12 sigma from the mean.
        assert!((300..=700).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn partitions_block_and_heal_restores() {
        let (mut sim, pa, pb) = two_node_sim(LinkConfig::ideal());
        sim.topology_mut().partition(pa.node, pb.node);
        sim.send_from(pb, pa, vec![1]);
        sim.run_until_idle();
        assert_eq!(sim.metrics().dropped_partition, 1);
        sim.topology_mut().heal(pa.node, pb.node);
        sim.send_from(pb, pa, vec![2]);
        sim.run_until_idle();
        assert_eq!(sim.inspect::<Recorder>(pa).unwrap().received, vec![vec![2]]);
    }

    #[test]
    fn crashed_node_drops_messages_and_timers() {
        let (mut sim, pa, pb) = two_node_sim(LinkConfig::ideal());
        sim.schedule_timer(pa, SimDuration::from_millis(5), 42);
        sim.topology_mut().crash(pa.node);
        sim.send_from(pb, pa, vec![1]);
        sim.run_until_idle();
        assert_eq!(sim.metrics().dropped_crash, 1);
        assert_eq!(sim.inspect::<Recorder>(pa).unwrap().timer_tags.len(), 0);
        // After restart the node receives again.
        sim.topology_mut().restart(pa.node);
        sim.send_from(pb, pa, vec![2]);
        sim.run_until_idle();
        assert_eq!(sim.inspect::<Recorder>(pa).unwrap().received, vec![vec![2]]);
    }

    #[test]
    fn in_flight_messages_to_crashing_node_are_lost() {
        let (mut sim, pa, pb) =
            two_node_sim(LinkConfig::with_latency(SimDuration::from_millis(10)));
        sim.send_from(pb, pa, vec![1]);
        // Crash before delivery time.
        sim.topology_mut().crash(pa.node);
        sim.run_until_idle();
        assert_eq!(sim.metrics().dropped_crash, 1);
        assert_eq!(sim.metrics().delivered, 0);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerProc {
            fired: Vec<u64>,
        }
        impl Process for TimerProc {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(3), 3);
                let id = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.cancel_timer(id);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Sim::new(3);
        let n = sim.add_node();
        let p = Addr::new(n, 0);
        sim.attach(p, TimerProc { fired: vec![] });
        sim.send_from(Addr::EXTERNAL, p, vec![]);
        sim.run_until_idle();
        assert_eq!(sim.inspect::<TimerProc>(p).unwrap().fired, vec![1, 3]);
        assert_eq!(sim.metrics().timers_fired, 2);
    }

    #[test]
    fn unroutable_messages_are_counted() {
        let mut sim = Sim::new(1);
        let n = sim.add_node();
        sim.send_from(Addr::EXTERNAL, Addr::new(n, 9), vec![1]);
        sim.run_until_idle();
        assert_eq!(sim.metrics().dropped_unroutable, 1);
    }

    #[test]
    fn run_until_advances_clock_but_keeps_future_events() {
        let (mut sim, pa, pb) =
            two_node_sim(LinkConfig::with_latency(SimDuration::from_millis(10)));
        sim.send_from(pb, pa, vec![1]);
        sim.run_until(SimTime::from_micros(5_000));
        assert_eq!(sim.now(), SimTime::from_micros(5_000));
        assert_eq!(sim.metrics().delivered, 0);
        sim.run_until_idle();
        // Delivery at pa plus pa's echo delivered back at pb.
        assert_eq!(sim.metrics().delivered, 2);
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> Vec<rmodp_observe::Event> {
            let link = LinkConfig::with_latency(SimDuration::from_millis(1))
                .jitter(SimDuration::from_millis(2))
                .loss(0.2);
            let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
            let a = sim.add_node();
            let b = sim.add_node();
            let (pa, pb) = (Addr::new(a, 0), Addr::new(b, 0));
            sim.attach(pa, Recorder::new(true));
            sim.attach(pb, Recorder::new(false));
            for i in 0..50 {
                sim.send_from(pb, pa, vec![i]);
            }
            sim.run_until_idle();
            bus::take_events()
        }
        assert!(!run(99).is_empty());
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn trace_renders_every_kind_of_entry() {
        struct Chatty;
        impl Process for Chatty {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                ctx.note(|| format!("got {} byte(s)", msg.payload.len()));
                ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.send(msg.src, msg.payload);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                ctx.note(|| format!("timer {tag}"));
            }
        }
        let link = LinkConfig::with_latency(SimDuration::from_millis(2));
        let mut sim = Sim::with_topology(1, Topology::full_mesh(link));
        let (a, b, c) = (sim.add_node(), sim.add_node(), sim.add_node());
        let (pa, pb) = (Addr::new(a, 0), Addr::new(b, 3));
        sim.attach(pa, Chatty);
        sim.attach(pb, Recorder::new(false));
        sim.send_from(pb, pa, vec![1, 2]);
        sim.send_from(Addr::EXTERNAL, Addr::new(c, 0), vec![9]);
        sim.schedule_timer(pb, SimDuration::from_millis(9), 4);
        sim.run_until(SimTime::from_micros(5_000));
        sim.send_from(pa, pb, vec![3]);
        sim.topology_mut().crash(b);
        sim.send_from(pa, pb, vec![4, 4, 4]);
        sim.run_until_idle();
        let rendered: Vec<String> = bus::snapshot_events()
            .iter()
            .map(|e| {
                let at = match (e.node, e.port) {
                    (Some(n), Some(p)) => Addr::new(NodeIdx(n as u32), p as u32),
                    _ => Addr::EXTERNAL,
                };
                format!("t={}us {} {at} {}", e.t_us, e.kind, e.detail)
            })
            .collect();
        assert_eq!(
            rendered,
            [
                "t=0us send n1:3 -> n0:0 (2 bytes)",
                "t=0us send external -> n2:0 (1 bytes)",
                "t=1us drop n2:0 no process attached",
                "t=2000us deliver n0:0 <- n1:3 (2 bytes)",
                "t=2000us note n0:0 got 2 byte(s)",
                "t=2000us send n0:0 -> n1:3 (2 bytes)",
                "t=3000us timer_fired n0:0 tag=7",
                "t=3000us note n0:0 timer 7",
                "t=4000us deliver n1:3 <- n0:0 (2 bytes)",
                "t=5000us send n0:0 -> n1:3 (1 bytes)",
                "t=5000us send n0:0 -> n1:3 (3 bytes)",
                "t=5000us drop n1:3 endpoint crashed",
                "t=7000us drop n1:3 destination crashed in flight",
            ]
        );
        // The timer due at 9 ms on the crashed node was popped and
        // swallowed without an event or a count.
        assert_eq!(sim.now(), SimTime::from_micros(9_000));
        assert_eq!(sim.metrics().timers_fired, 1);
    }

    /// Volleys a counter back and forth `rounds` times, then stops.
    struct PingPong {
        peer: Addr,
        rounds: u64,
        seen: Vec<(SimTime, u64)>,
    }

    impl Process for PingPong {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let n = u64::from_le_bytes(msg.payload.as_ref().try_into().unwrap());
            self.seen.push((ctx.now(), n));
            if n < self.rounds {
                ctx.send(self.peer, (n + 1).to_le_bytes().to_vec());
            }
        }
    }

    /// Builds the same two-node ping-pong world at any shard count and
    /// returns every (time, value) each endpoint observed.
    fn ping_pong_observations(shards: usize, threaded: bool) -> Vec<(SimTime, u64)> {
        use rmodp_kernel::{PartitionMap, ShardedKernel};
        let link = LinkConfig::with_latency(SimDuration::from_millis(2));
        let map = PartitionMap::round_robin(2, shards);
        let mut sims = Vec::new();
        for shard in 0..shards {
            let mut sim = Sim::with_topology(7, Topology::full_mesh(link));
            let a = sim.add_node();
            let b = sim.add_node();
            sim.enable_shard_routing(shard, map.clone());
            let (pa, pb) = (Addr::new(a, 0), Addr::new(b, 0));
            for (addr, peer) in [(pa, pb), (pb, pa)] {
                if map.owner(addr.node.0 as usize) == shard {
                    sim.attach(
                        addr,
                        PingPong {
                            peer,
                            rounds: 9,
                            seen: Vec::new(),
                        },
                    );
                }
            }
            if map.owner(pa.node.0 as usize) == shard {
                sim.send_from(Addr::EXTERNAL, pa, 0u64.to_le_bytes().to_vec());
            }
            sims.push(sim);
        }
        let lookahead = sims[0]
            .topology()
            .min_cross_partition_latency(&map)
            .unwrap_or(SimDuration::from_millis(2));
        let mut kernel = ShardedKernel::new(sims, lookahead);
        kernel.set_threaded(threaded);
        kernel.run();
        let mut all = Vec::new();
        for sim in kernel.into_shards() {
            for node in 0..2u32 {
                let addr = Addr::new(NodeIdx(node), 0);
                if let Some(p) = sim.inspect::<PingPong>(addr) {
                    all.extend(p.seen.iter().copied());
                }
            }
        }
        all.sort();
        all
    }

    #[test]
    fn sharded_sim_matches_single_shard_run() {
        let single = ping_pong_observations(1, false);
        assert_eq!(single.len(), 10, "ten volleys observed");
        assert_eq!(single, ping_pong_observations(2, false), "serial 2-shard");
        assert_eq!(single, ping_pong_observations(2, true), "threaded 2-shard");
    }

    #[test]
    fn cross_shard_sends_divert_to_the_outbox() {
        use rmodp_kernel::shard::ShardWorld;
        use rmodp_kernel::PartitionMap;
        let mut sim = Sim::with_topology(1, Topology::full_mesh(LinkConfig::default()));
        let a = sim.add_node();
        let b = sim.add_node();
        sim.enable_shard_routing(0, PartitionMap::round_robin(2, 2));
        sim.attach(Addr::new(a, 0), Recorder::new(false));
        // a (shard 0, local): scheduled. b (shard 1): diverted.
        sim.send_from(Addr::EXTERNAL, Addr::new(a, 0), vec![1]);
        sim.send_from(Addr::EXTERNAL, Addr::new(b, 0), vec![2]);
        assert_eq!(sim.queue.len(), 1);
        let outbox = ShardWorld::take_outbox(&mut sim);
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].dst_shard, 1);
        assert_eq!(outbox[0].msg.dst, Addr::new(b, 0));
    }

    #[test]
    fn inspect_with_wrong_type_is_none() {
        let (sim, pa, _) = two_node_sim(LinkConfig::ideal());
        struct Other;
        impl Process for Other {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Message) {}
        }
        assert!(sim.inspect::<Other>(pa).is_none());
        assert!(sim.inspect::<Recorder>(pa).is_some());
    }

    #[test]
    fn detach_makes_address_unroutable() {
        let (mut sim, pa, pb) = two_node_sim(LinkConfig::ideal());
        assert!(sim.procs.remove(&pa).is_some());
        sim.send_from(pb, pa, vec![1]);
        sim.run_until_idle();
        assert_eq!(sim.metrics().dropped_unroutable, 1);
    }

    #[test]
    fn jitter_varies_latency_within_bounds() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1))
            .jitter(SimDuration::from_millis(4));
        let (mut sim, pa, pb) = two_node_sim(link);
        sim.attach(pa, Recorder::new(false));
        for _ in 0..100 {
            sim.send_from(pb, pa, vec![0]);
        }
        sim.run_until_idle();
        let deliveries: Vec<u64> = bus::snapshot_events()
            .iter()
            .filter(|e| e.kind == EventKind::Deliver)
            .map(|e| e.t_us)
            .collect();
        assert_eq!(deliveries.len(), 100);
        let min = *deliveries.iter().min().unwrap();
        let max = *deliveries.iter().max().unwrap();
        assert!(min >= 1_000, "min={min}");
        assert!(max <= 5_000, "max={max}");
        assert!(max > min, "jitter should spread deliveries");
    }
}
