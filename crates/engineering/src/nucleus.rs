//! The nucleus: the per-node engineering kernel (§6.2).
//!
//! "A node has a nucleus object — an (extended) operating system
//! supporting ODP." Here the nucleus is a [`Process`] attached to a
//! simulator node: it owns the node's capsules, clusters and basic
//! engineering objects, terminates the server halves of channels, and
//! dispatches incoming invocations to object behaviours.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rmodp_computational::signature::{Invocation, Termination};
use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{CapsuleId, ChannelId, ClusterId, InterfaceId, NodeId, ObjectId};
use rmodp_core::value::Value;
use rmodp_kernel::payload::Payload;
use rmodp_netsim::sim::{Ctx, Message, Process};
use rmodp_netsim::time::SimDuration;
use rmodp_netsim::time::SimTime;

use crate::behaviour::ServerBehaviour;
use crate::channel::{ChannelError, Stack};
use crate::envelope::{Envelope, EnvelopeKind, ReplyStatus};
use crate::structure::{BeoRecord, Cluster, ClusterCheckpoint, NodeStructure, ObjectCheckpoint};
use crate::wire;

/// The port a node's nucleus listens on.
pub const NUCLEUS_PORT: u32 = 0;
/// The port a node's driver (client-side reply collector) listens on.
pub const DRIVER_PORT: u32 = 1;

/// Timer tag the nucleus uses for its invocation-service drain.
const SERVICE_TIMER_TAG: u64 = 0xAD_715;

/// How many request outcomes the dedup cache remembers before evicting
/// the oldest (FIFO). Far above any in-flight population the simulator
/// reaches, so retransmissions practically always hit the cache.
/// Override per node with [`NucleusProcess::set_dedup_capacity`].
pub const DEDUP_CAPACITY: usize = 65_536;

/// Remembered outcome of a request, keyed by (channel, request id), so
/// retransmissions are served **at most once** even without a
/// [`crate::channel::SequenceBinder`].
#[derive(Debug, Clone)]
enum DedupEntry {
    /// Admitted but not yet answered (possibly parked in the admission
    /// queue): duplicate arrivals are silently suppressed.
    InFlight,
    /// Answered: the reply status and payload, re-sent verbatim (through
    /// the server stack, so it is stamped as a fresh message) when a
    /// retransmission arrives. The payload is shared bytes: caching and
    /// replaying never deep-copy.
    Done(ReplyStatus, Payload),
}

/// What the nucleus does with a new invocation when its bounded queue is
/// full — the backpressure half of an environment contract (§5.3): the
/// server either honours the contract's latency bound by refusing excess
/// load, or lets latency grow without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// No queue, no bound: invocations dispatch the instant they arrive.
    /// This is the historical behaviour and the default.
    #[default]
    Unbounded,
    /// Reject the *new* invocation with a `Rejected` reply when the queue
    /// is at capacity.
    Reject,
    /// Shed the *oldest* queued invocation (replying `Rejected` to it) to
    /// make room for the new one.
    ShedOldest,
    /// Never reject: the queue grows without bound and excess load shows
    /// up as latency instead of errors.
    Delay,
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Unbounded => write!(f, "unbounded"),
            AdmissionPolicy::Reject => write!(f, "reject"),
            AdmissionPolicy::ShedOldest => write!(f, "shed-oldest"),
            AdmissionPolicy::Delay => write!(f, "delay"),
        }
    }
}

/// Admission control for a nucleus: a bounded invocation intake queue
/// drained at a fixed service rate.
///
/// With the default ([`AdmissionPolicy::Unbounded`]) the nucleus behaves
/// exactly as it always has: every request is dispatched synchronously on
/// delivery. Any other policy routes requests through the queue: one
/// request is served every `service_time` of virtual time, the queue
/// depth is capped at `capacity`, and the policy decides who pays when it
/// overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// The overflow policy.
    pub policy: AdmissionPolicy,
    /// Queue capacity (ignored by `Unbounded` and `Delay`).
    pub capacity: usize,
    /// Virtual time to serve one queued invocation.
    pub service_time: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            policy: AdmissionPolicy::Unbounded,
            capacity: usize::MAX,
            service_time: SimDuration::ZERO,
        }
    }
}

impl AdmissionConfig {
    /// A bounded queue that rejects overflow.
    pub fn reject(capacity: usize, service_time: SimDuration) -> Self {
        Self {
            policy: AdmissionPolicy::Reject,
            capacity,
            service_time,
        }
    }

    /// A bounded queue that sheds its oldest entry on overflow.
    pub fn shed_oldest(capacity: usize, service_time: SimDuration) -> Self {
        Self {
            policy: AdmissionPolicy::ShedOldest,
            capacity,
            service_time,
        }
    }
}

/// A request parked in the nucleus's admission queue.
#[derive(Debug)]
struct QueuedRequest {
    env: Envelope,
    reply_to: rmodp_netsim::sim::Addr,
    enqueued_at: SimTime,
    /// The causal context (the request message's span) captured at
    /// enqueue time. Service happens on a timer, which carries no
    /// context of its own; restoring this around dispatch keeps the
    /// reply causally linked to the request that provoked it.
    context: Option<u64>,
}

/// A resident object's executable half: what a [`BeoRecord`] in the
/// structure tree runs as.
struct Resident {
    behaviour: Box<dyn ServerBehaviour>,
    /// The durable state checkpoints capture.
    state: Value,
}

/// The per-node engineering kernel, run as a simulator process.
pub struct NucleusProcess {
    /// Which engineering node this nucleus serves.
    pub node: NodeId,
    /// The node's native transfer syntax (its "data representation").
    pub native: SyntaxId,
    /// The capsule/cluster/object tree.
    pub structure: NodeStructure,
    /// Interface → object routing for this node.
    pub routing: BTreeMap<InterfaceId, ObjectId>,
    /// Server-side channel stacks, by channel.
    pub server_channels: BTreeMap<ChannelId, Stack>,
    /// Behaviour and state of every resident object.
    objects: BTreeMap<ObjectId, Resident>,
    /// Counters for observability.
    pub stats: NucleusStats,
    /// Admission control for incoming invocations.
    admission: AdmissionConfig,
    /// Requests awaiting service (non-`Unbounded` policies only).
    queue: VecDeque<QueuedRequest>,
    /// Whether a service timer is outstanding.
    draining: bool,
    /// At-most-once execution: remembered request outcomes.
    dedup: BTreeMap<(u64, u64), DedupEntry>,
    /// FIFO eviction order for `dedup`.
    dedup_order: VecDeque<(u64, u64)>,
    /// How many outcomes `dedup` may hold before FIFO eviction.
    dedup_capacity: usize,
}

/// Counters the nucleus maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NucleusStats {
    /// Requests dispatched to behaviours.
    pub requests: u64,
    /// Announcements dispatched.
    pub announcements: u64,
    /// Flow items dispatched.
    pub flows: u64,
    /// Requests answered `NotHere`.
    pub not_here: u64,
    /// Messages rejected by channel components or malformed.
    pub rejected: u64,
    /// Requests refused or evicted by the admission policy.
    pub shed: u64,
    /// Deepest the admission queue has been.
    pub peak_queue_depth: u64,
    /// Retransmitted requests suppressed or answered from the dedup
    /// cache instead of being executed again.
    pub dedup_hits: u64,
    /// Requests that *executed* despite an already-recorded outcome — a
    /// duplicate side-effect. The recovery oracle asserts this stays 0.
    pub duplicate_dispatches: u64,
}

impl std::fmt::Debug for NucleusProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (capsules, clusters, objects) = self.structure.census();
        f.debug_struct("NucleusProcess")
            .field("node", &self.node)
            .field("capsules", &capsules)
            .field("clusters", &clusters)
            .field("objects", &objects)
            .finish()
    }
}

impl NucleusProcess {
    /// Creates an empty nucleus for a node.
    pub fn new(node: NodeId, native: SyntaxId) -> Self {
        Self {
            node,
            native,
            structure: NodeStructure::default(),
            routing: BTreeMap::new(),
            server_channels: BTreeMap::new(),
            objects: BTreeMap::new(),
            stats: NucleusStats::default(),
            admission: AdmissionConfig::default(),
            queue: VecDeque::new(),
            draining: false,
            dedup: BTreeMap::new(),
            dedup_order: VecDeque::new(),
            dedup_capacity: DEDUP_CAPACITY,
        }
    }

    /// Overrides the dedup cache capacity (default [`DEDUP_CAPACITY`]).
    /// Shrinking evicts oldest-first immediately, preserving FIFO order.
    pub fn set_dedup_capacity(&mut self, capacity: usize) {
        self.dedup_capacity = capacity.max(1);
        while self.dedup_order.len() > self.dedup_capacity {
            if let Some(old) = self.dedup_order.pop_front() {
                self.dedup.remove(&old);
            }
        }
    }

    /// How many request outcomes the dedup cache currently remembers.
    pub fn dedup_len(&self) -> usize {
        self.dedup.len()
    }

    /// The dedup key for an envelope, when it can be correlated: the
    /// driver's raw channel-0 sends and requests without ids are exempt.
    fn dedup_key(env: &Envelope) -> Option<(u64, u64)> {
        (env.channel.raw() != 0 && env.request != 0).then(|| (env.channel.raw(), env.request))
    }

    /// Inserts a dedup entry, evicting the oldest beyond capacity.
    fn dedup_insert(&mut self, key: (u64, u64), entry: DedupEntry) {
        if self.dedup.insert(key, entry).is_none() {
            self.dedup_order.push_back(key);
            while self.dedup_order.len() > self.dedup_capacity {
                if let Some(old) = self.dedup_order.pop_front() {
                    self.dedup.remove(&old);
                }
            }
        }
    }

    /// Records a request's final answer so retransmissions can replay it.
    /// Shares the payload's buffer with the reply being sent.
    fn dedup_done(&mut self, env: &Envelope, status: ReplyStatus, payload: &Payload) {
        if let Some(key) = Self::dedup_key(env) {
            self.dedup_insert(key, DedupEntry::Done(status, payload.clone()));
        }
    }

    /// Replaces the admission configuration (the default is
    /// [`AdmissionPolicy::Unbounded`], dispatch on delivery) and notes
    /// the change. Requests already queued stay queued and drain under
    /// the new service time.
    pub fn set_admission(&mut self, config: AdmissionConfig) {
        self.admission = config;
        rmodp_observe::event(
            rmodp_observe::Layer::Engineering,
            rmodp_observe::EventKind::Note,
        )
        .in_context()
        .node(self.node.raw())
        .detail_fmt(format_args!(
            "admission policy={} capacity={} service={}us",
            config.policy,
            std::fmt::from_fn(|f| match config.capacity {
                usize::MAX => f.write_str("inf"),
                n => write!(f, "{n}"),
            }),
            config.service_time.as_micros()
        ))
        .emit();
    }

    /// Adds a capsule.
    pub fn add_capsule(&mut self, capsule: CapsuleId) {
        self.structure.capsules.entry(capsule).or_default();
    }

    /// Adds a cluster to a capsule; `false` if the capsule is unknown.
    pub fn add_cluster(&mut self, capsule: CapsuleId, cluster: ClusterId) -> bool {
        match self.structure.capsules.get_mut(&capsule) {
            Some(c) => {
                c.clusters.entry(cluster).or_insert_with(Cluster::default);
                true
            }
            None => false,
        }
    }

    /// Installs an object (record + behaviour + state) into a cluster and
    /// routes its interfaces; `false` if the cluster is unknown.
    pub fn install_object(
        &mut self,
        capsule: CapsuleId,
        cluster: ClusterId,
        record: BeoRecord,
        behaviour: Box<dyn ServerBehaviour>,
        state: Value,
    ) -> bool {
        let Some(cl) = self
            .structure
            .capsules
            .get_mut(&capsule)
            .and_then(|c| c.clusters.get_mut(&cluster))
        else {
            return false;
        };
        for ifc in &record.interfaces {
            self.routing.insert(*ifc, record.object);
        }
        rmodp_observe::event(
            rmodp_observe::Layer::Engineering,
            rmodp_observe::EventKind::Note,
        )
        .in_context()
        .node(self.node.raw())
        .capsule(capsule.raw())
        .detail_fmt(format_args!(
            "nucleus installed {} in {cluster} ({} interface(s))",
            record.object,
            record.interfaces.len()
        ))
        .emit();
        rmodp_observe::bus::counter_add("engineering.objects_installed", 1);
        self.objects
            .insert(record.object, Resident { behaviour, state });
        cl.objects.insert(record.object, record);
        true
    }

    /// Removes an object entirely; returns its checkpoint if present.
    pub fn remove_object(&mut self, object: ObjectId) -> Option<ObjectCheckpoint> {
        let mut found = None;
        for capsule in self.structure.capsules.values_mut() {
            for cluster in capsule.clusters.values_mut() {
                if let Some(record) = cluster.objects.remove(&object) {
                    found = Some(record);
                    break;
                }
            }
        }
        let record = found?;
        for ifc in &record.interfaces {
            self.routing.remove(ifc);
        }
        let state = self
            .objects
            .remove(&object)
            .map_or(Value::Null, |resident| resident.state);
        Some(ObjectCheckpoint { record, state })
    }

    /// Snapshots a cluster without disturbing it (§8.1 checkpoint).
    pub fn checkpoint_cluster(
        &self,
        capsule: CapsuleId,
        cluster: ClusterId,
        epoch: u64,
    ) -> Option<ClusterCheckpoint> {
        let cl = self
            .structure
            .capsules
            .get(&capsule)?
            .clusters
            .get(&cluster)?;
        let objects = cl
            .objects
            .values()
            .map(|record| ObjectCheckpoint {
                record: record.clone(),
                state: self
                    .object_state(record.object)
                    .cloned()
                    .unwrap_or(Value::Null),
            })
            .collect();
        Some(ClusterCheckpoint {
            cluster,
            objects,
            epoch,
        })
    }

    /// Removes a cluster wholesale (deactivation / the destructive half of
    /// migration), returning its checkpoint.
    pub fn remove_cluster(
        &mut self,
        capsule: CapsuleId,
        cluster: ClusterId,
        epoch: u64,
    ) -> Option<ClusterCheckpoint> {
        let checkpoint = self.checkpoint_cluster(capsule, cluster, epoch)?;
        let cl = self
            .structure
            .capsules
            .get_mut(&capsule)?
            .clusters
            .remove(&cluster)?;
        for record in cl.objects.values() {
            for ifc in &record.interfaces {
                self.routing.remove(ifc);
            }
            self.objects.remove(&record.object);
        }
        Some(checkpoint)
    }

    /// Direct read access to an object's state (used by management
    /// functions and tests).
    pub fn object_state(&self, object: ObjectId) -> Option<&Value> {
        self.objects.get(&object).map(|resident| &resident.state)
    }

    /// The one interface → resident-object lookup every dispatch site
    /// uses. Takes the two maps rather than `self` so callers can keep
    /// counting and replying while they hold the object.
    fn resident<'a>(
        routing: &BTreeMap<InterfaceId, ObjectId>,
        objects: &'a mut BTreeMap<ObjectId, Resident>,
        interface: InterfaceId,
    ) -> Option<(ObjectId, &'a mut Resident)> {
        let object = *routing.get(&interface)?;
        Some((object, objects.get_mut(&object)?))
    }

    /// Direct invocation bypassing the network — the engine uses this for
    /// intra-node calls from management functions.
    pub fn invoke_local(
        &mut self,
        interface: InterfaceId,
        invocation: &Invocation,
    ) -> Option<Termination> {
        let (object, resident) = Self::resident(&self.routing, &mut self.objects, interface)?;
        self.stats.requests += 1;
        rmodp_observe::event(
            rmodp_observe::Layer::Engineering,
            rmodp_observe::EventKind::Note,
        )
        .in_context()
        .node(self.node.raw())
        .detail_fmt(format_args!(
            "nucleus dispatch {} -> {object} ({interface})",
            invocation.operation
        ))
        .emit();
        rmodp_observe::bus::counter_add("engineering.nucleus_dispatches", 1);
        Some(resident.behaviour.invoke(&mut resident.state, invocation))
    }

    /// A termination record in this node's native syntax, as a payload
    /// of its own (for the dedup cache and the server stack).
    fn termination_payload(&self, termination: &Termination) -> Payload {
        let mut bytes = Vec::new();
        wire::encode_termination_into(self.native, termination, &mut bytes);
        Payload::new(bytes)
    }

    /// Answers a request with a termination.
    fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: &Envelope,
        status: ReplyStatus,
        termination: Termination,
        reply_to: rmodp_netsim::sim::Addr,
    ) {
        if req.channel.raw() == 0 {
            // The ephemeral default channel has no server stack and no
            // dedup entry, so only the frame needs the payload.
            ctx.send(
                reply_to,
                wire::reply_frame(req, status, self.native, &termination),
            );
            return;
        }
        let payload = self.termination_payload(&termination);
        self.dedup_done(req, status, &payload);
        self.send_reply(ctx, req, status, payload, reply_to);
    }

    fn send_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: &Envelope,
        status: ReplyStatus,
        payload: Payload,
        reply_to: rmodp_netsim::sim::Addr,
    ) {
        let mut reply = Envelope::reply_to(req, status, self.native, payload);
        if req.channel.raw() != 0 {
            if let Some(stack) = self.server_channels.get_mut(&req.channel) {
                // A failing outgoing stack would leave the client waiting;
                // components only fail on malformed payloads we produced
                // ourselves, so surface that loudly in debug builds.
                if let Err(e) = stack.outgoing(&mut reply) {
                    debug_assert!(false, "server outgoing stack failed: {e}");
                    return;
                }
            }
        }
        ctx.send(reply_to, reply.to_bytes());
    }

    /// Decodes, routes and executes one admitted request, replying to the
    /// caller.
    fn dispatch_request(&mut self, ctx: &mut Ctx<'_>, src: rmodp_netsim::sim::Addr, env: Envelope) {
        if let Some(key) = Self::dedup_key(&env) {
            if matches!(self.dedup.get(&key), Some(DedupEntry::Done(..))) {
                // Executing a request whose outcome is already recorded
                // would be a duplicate side-effect; `handle_envelope`
                // suppresses these, so this counter must stay 0.
                self.stats.duplicate_dispatches += 1;
                rmodp_observe::bus::counter_add("engineering.dedup.duplicate_dispatches", 1);
            }
        }
        let Some((_, resident)) = Self::resident(&self.routing, &mut self.objects, env.target)
        else {
            self.stats.not_here += 1;
            let payload = Payload::new(syntax_for(self.native).encode(&Value::Null));
            self.dedup_done(&env, ReplyStatus::NotHere, &payload);
            self.send_reply(ctx, &env, ReplyStatus::NotHere, payload, src);
            return;
        };
        let Some(invocation) = wire::decode_invocation(env.syntax, &env.payload) else {
            self.stats.rejected += 1;
            let bad = Termination::error("bad invocation");
            self.reply(ctx, &env, ReplyStatus::Rejected, bad, src);
            return;
        };
        self.stats.requests += 1;
        let termination = resident.behaviour.invoke(&mut resident.state, &invocation);
        self.reply(ctx, &env, ReplyStatus::Ok, termination, src);
    }

    /// Publishes the current queue depth as a per-node gauge and tracks
    /// the peak.
    fn publish_queue_depth(&mut self) {
        let depth = self.queue.len() as u64;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(depth);
        if rmodp_observe::bus::is_enabled() {
            rmodp_observe::bus::gauge_set(
                &format!("engineering.node{}.queue_depth", self.node.raw()),
                depth as i64,
            );
        }
    }

    /// Replies `Rejected` with a machine-readable reason to a request the
    /// admission policy refused.
    fn refuse(
        &mut self,
        ctx: &mut Ctx<'_>,
        env: &Envelope,
        reply_to: rmodp_netsim::sim::Addr,
        reason: &str,
    ) {
        self.stats.shed += 1;
        rmodp_observe::bus::counter_add("engineering.admission.shed", 1);
        rmodp_observe::event(
            rmodp_observe::Layer::Engineering,
            rmodp_observe::EventKind::Note,
        )
        .in_context()
        .node(self.node.raw())
        .channel(env.channel.raw())
        .detail_fmt(format_args!(
            "admission {reason} (queue at {})",
            self.queue.len()
        ))
        .emit();
        let refusal = Termination::error(reason);
        self.reply(ctx, env, ReplyStatus::Rejected, refusal, reply_to);
    }

    /// Routes a request through the bounded admission queue.
    fn admit_request(&mut self, ctx: &mut Ctx<'_>, src: rmodp_netsim::sim::Addr, env: Envelope) {
        let full = self.queue.len() >= self.admission.capacity;
        if full {
            match self.admission.policy {
                AdmissionPolicy::Reject => {
                    self.refuse(ctx, &env, src, "overload");
                    return;
                }
                AdmissionPolicy::ShedOldest => {
                    if let Some(oldest) = self.queue.pop_front() {
                        self.refuse(ctx, &oldest.env, oldest.reply_to, "shed");
                    }
                }
                // Delay and Unbounded never refuse; Unbounded never gets
                // here.
                AdmissionPolicy::Delay | AdmissionPolicy::Unbounded => {}
            }
        }
        rmodp_observe::bus::counter_add("engineering.admission.enqueued", 1);
        rmodp_observe::event(
            rmodp_observe::Layer::Engineering,
            rmodp_observe::EventKind::AdmissionEnqueue,
        )
        .in_context()
        .node(self.node.raw())
        .channel(env.channel.raw())
        .detail_fmt(format_args!("queue at {}", self.queue.len() + 1))
        .emit();
        self.queue.push_back(QueuedRequest {
            env,
            reply_to: src,
            enqueued_at: ctx.now(),
            context: rmodp_observe::bus::current_context(),
        });
        self.publish_queue_depth();
        if !self.draining {
            self.draining = true;
            ctx.set_timer(self.admission.service_time, SERVICE_TIMER_TAG);
        }
    }

    /// Serves the request at the head of the queue and re-arms the drain
    /// timer while work remains.
    fn serve_next(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(queued) = self.queue.pop_front() {
            self.publish_queue_depth();
            let wait_us = ctx.now().since(queued.enqueued_at).as_micros();
            rmodp_observe::bus::observe("engineering.admission.queue_wait_us", wait_us);
            // The drain timer carries no causal context; restore the
            // one captured at enqueue so the dispatch (and the reply it
            // sends) stays on the request's span.
            if let Some(span) = queued.context {
                rmodp_observe::bus::push_context(span);
            }
            rmodp_observe::event(
                rmodp_observe::Layer::Engineering,
                rmodp_observe::EventKind::AdmissionDispatch,
            )
            .in_context()
            .node(self.node.raw())
            .channel(queued.env.channel.raw())
            .detail_fmt(format_args!("waited {wait_us}us"))
            .emit();
            self.dispatch_request(ctx, queued.reply_to, queued.env);
            if queued.context.is_some() {
                rmodp_observe::bus::pop_context();
            }
        }
        if self.queue.is_empty() {
            self.draining = false;
        } else {
            ctx.set_timer(self.admission.service_time, SERVICE_TIMER_TAG);
        }
    }

    fn handle_envelope(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: rmodp_netsim::sim::Addr,
        mut env: Envelope,
    ) {
        // Run the server half of the channel.
        if env.channel.raw() != 0 {
            if let Some(stack) = self.server_channels.get_mut(&env.channel) {
                match stack.incoming(&mut env) {
                    Ok(()) => {}
                    Err(ChannelError::Replay { seq }) => {
                        self.stats.rejected += 1;
                        ctx.note(|| format!("replay foiled (seq {seq})"));
                        if env.kind == EnvelopeKind::Request {
                            let payload = self.termination_payload(&Termination::error("replay"));
                            self.send_reply(ctx, &env, ReplyStatus::Rejected, payload, src);
                        }
                        return;
                    }
                    Err(e) => {
                        self.stats.rejected += 1;
                        ctx.note(|| format!("channel rejected message: {e}"));
                        return;
                    }
                }
            }
        }
        match env.kind {
            EnvelopeKind::Request => {
                // At-most-once: a request id we have already seen is
                // either still executing (suppress the duplicate) or
                // answered (replay the recorded reply); only a fresh id
                // reaches the admission path.
                if let Some(key) = Self::dedup_key(&env) {
                    match self.dedup.get(&key) {
                        Some(DedupEntry::Done(status, payload)) => {
                            let (status, payload) = (*status, payload.clone());
                            self.stats.dedup_hits += 1;
                            rmodp_observe::bus::counter_add("engineering.dedup.hits", 1);
                            ctx.note(|| {
                                format!(
                                    "dedup: replayed {status:?} reply for request {}",
                                    env.request
                                )
                            });
                            self.send_reply(ctx, &env, status, payload, src);
                            return;
                        }
                        Some(DedupEntry::InFlight) => {
                            self.stats.dedup_hits += 1;
                            rmodp_observe::bus::counter_add("engineering.dedup.hits", 1);
                            ctx.note(|| {
                                format!(
                                    "dedup: suppressed in-flight duplicate of request {}",
                                    env.request
                                )
                            });
                            return;
                        }
                        None => self.dedup_insert(key, DedupEntry::InFlight),
                    }
                }
                if self.admission.policy == AdmissionPolicy::Unbounded {
                    self.dispatch_request(ctx, src, env);
                } else {
                    self.admit_request(ctx, src, env);
                }
            }
            EnvelopeKind::Announce => {
                if let Some((_, resident)) =
                    Self::resident(&self.routing, &mut self.objects, env.target)
                {
                    if let Some(invocation) = wire::decode_invocation(env.syntax, &env.payload) {
                        self.stats.announcements += 1;
                        let _ = resident.behaviour.invoke(&mut resident.state, &invocation);
                    }
                }
            }
            EnvelopeKind::Flow => {
                if let Some((_, resident)) =
                    Self::resident(&self.routing, &mut self.objects, env.target)
                {
                    if let Ok(item) = syntax_for(env.syntax).decode(&env.payload) {
                        self.stats.flows += 1;
                        resident
                            .behaviour
                            .on_flow(&mut resident.state, &env.flow, &item);
                    }
                }
            }
            EnvelopeKind::Reply => {
                // Replies are addressed to drivers, not nuclei.
                self.stats.rejected += 1;
            }
        }
    }
}

impl Process for NucleusProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match Envelope::from_payload(&msg.payload) {
            Ok(env) => self.handle_envelope(ctx, msg.src, env),
            Err(e) => {
                self.stats.rejected += 1;
                ctx.note(|| format!("malformed envelope: {e}"));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == SERVICE_TIMER_TAG {
            self.serve_next(ctx);
        }
    }
}

/// The client-side reply collector: the engine's `call` sends requests
/// from this address and polls its mailbox for correlated replies.
#[derive(Debug, Default)]
pub struct DriverProcess {
    /// Replies keyed by request id, with their arrival time (so load
    /// generators can measure latency at the instant of delivery rather
    /// than at the instant of polling).
    pub mailbox: BTreeMap<u64, (Envelope, SimTime)>,
    /// Request ids the engine has sent and not yet seen answered. Only
    /// their replies are kept: the second reply to a retransmitted
    /// request, or one landing after the call timed out, has nobody left
    /// to collect it.
    awaiting: BTreeSet<u64>,
}

impl DriverProcess {
    /// Registers a request whose reply the engine will collect.
    pub(crate) fn expect_reply(&mut self, request: u64) {
        self.awaiting.insert(request);
    }

    /// Stops waiting for a request that timed out or was abandoned, and
    /// drops its reply if that has already landed uncollected.
    pub(crate) fn forget(&mut self, request: u64) {
        self.awaiting.remove(&request);
        self.mailbox.remove(&request);
    }

    /// Requests whose reply is still waited for.
    pub fn awaiting(&self) -> usize {
        self.awaiting.len()
    }
}

impl Process for DriverProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Ok(env) = Envelope::from_payload(&msg.payload) {
            // First reply wins: it ends the wait, so duplicates from
            // retransmission and replies nobody waits for are dropped here.
            if env.kind == EnvelopeKind::Reply && self.awaiting.remove(&env.request) {
                self.mailbox.insert(env.request, (env, ctx.now()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behaviour::CounterBehaviour;

    fn nucleus_with_counter() -> (NucleusProcess, InterfaceId, ObjectId) {
        let mut n = NucleusProcess::new(NodeId::new(1), SyntaxId::Binary);
        n.add_capsule(CapsuleId::new(1));
        assert!(n.add_cluster(CapsuleId::new(1), ClusterId::new(1)));
        let obj = ObjectId::new(1);
        let ifc = InterfaceId::new(10);
        let record = BeoRecord {
            object: obj,
            name: "counter".into(),
            behaviour: "counter".into(),
            interfaces: vec![ifc],
        };
        assert!(n.install_object(
            CapsuleId::new(1),
            ClusterId::new(1),
            record,
            Box::new(CounterBehaviour),
            CounterBehaviour::initial_state(),
        ));
        (n, ifc, obj)
    }

    #[test]
    fn install_routes_interfaces_and_invoke_local_works() {
        let (mut n, ifc, obj) = nucleus_with_counter();
        assert_eq!(n.routing.get(&ifc), Some(&obj));
        let t = n
            .invoke_local(
                ifc,
                &Invocation::new("Add", Value::record([("k", Value::Int(4))])),
            )
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(4)));
        assert_eq!(
            n.object_state(obj).unwrap().field("n"),
            Some(&Value::Int(4))
        );
        assert_eq!(n.stats.requests, 1);
    }

    /// A process that keeps every frame it is sent.
    #[derive(Default)]
    struct Sink(Vec<Payload>);

    impl Process for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_>, msg: Message) {
            self.0.push(msg.payload);
        }
    }

    #[test]
    fn default_channel_reply_frames_match_the_envelope_built_whole() {
        use rmodp_netsim::sim::{Addr, Sim};
        let (nucleus, ifc, _) = nucleus_with_counter();
        let mut sim = Sim::new(5);
        let node = sim.add_node();
        let (server, client) = (Addr::new(node, NUCLEUS_PORT), Addr::new(node, DRIVER_PORT));
        sim.attach(server, nucleus);
        sim.attach(client, Sink::default());
        let mut add = Vec::new();
        let args = Value::record([("k", Value::Int(4))]);
        wire::encode_invocation_into(SyntaxId::Binary, "Add", &args, &mut add);
        let requests = [
            Envelope::request(ChannelId::new(0), 1, ifc, SyntaxId::Binary, add),
            Envelope::request(ChannelId::new(0), 2, ifc, SyntaxId::Binary, vec![0xff]),
            // Nested far past the decoder's limit: refused, not fatal.
            Envelope::request(
                ChannelId::new(0),
                3,
                ifc,
                SyntaxId::Binary,
                [0x06, 1, 0, 0, 0].repeat(200_000),
            ),
        ];
        for req in &requests {
            sim.send_from(client, server, req.to_bytes());
        }
        sim.run_until_idle();
        let expected = [
            (
                ReplyStatus::Ok,
                Termination::ok(Value::record([("n", Value::Int(4))])),
            ),
            (ReplyStatus::Rejected, Termination::error("bad invocation")),
            (ReplyStatus::Rejected, Termination::error("bad invocation")),
        ];
        let frames = &sim.inspect::<Sink>(client).expect("attached above").0;
        assert_eq!(frames.len(), 3);
        for ((req, (status, termination)), frame) in requests.iter().zip(expected).zip(frames) {
            let mut payload = Vec::new();
            wire::encode_termination_into(SyntaxId::Binary, &termination, &mut payload);
            let whole = Envelope::reply_to(req, status, SyntaxId::Binary, payload);
            assert_eq!(*frame, whole.to_bytes());
        }
    }

    #[test]
    fn checkpoint_captures_and_remove_cluster_clears() {
        let (mut n, ifc, obj) = nucleus_with_counter();
        n.invoke_local(
            ifc,
            &Invocation::new("Add", Value::record([("k", Value::Int(7))])),
        );
        let cp = n
            .checkpoint_cluster(CapsuleId::new(1), ClusterId::new(1), 3)
            .unwrap();
        assert_eq!(cp.objects.len(), 1);
        assert_eq!(cp.objects[0].state.field("n"), Some(&Value::Int(7)));
        assert_eq!(cp.epoch, 3);
        // Checkpoint is non-destructive.
        assert!(n.object_state(obj).is_some());

        let cp2 = n
            .remove_cluster(CapsuleId::new(1), ClusterId::new(1), 4)
            .unwrap();
        assert_eq!(cp2.objects[0].state.field("n"), Some(&Value::Int(7)));
        assert!(n.object_state(obj).is_none());
        assert!(!n.routing.contains_key(&ifc));
        assert_eq!(n.structure.census(), (1, 0, 0));
    }

    #[test]
    fn remove_object_returns_checkpoint() {
        let (mut n, ifc, obj) = nucleus_with_counter();
        let cp = n.remove_object(obj).unwrap();
        assert_eq!(cp.record.object, obj);
        assert!(n.remove_object(obj).is_none());
        assert!(!n.routing.contains_key(&ifc));
    }

    #[test]
    fn unknown_cluster_operations_fail_gracefully() {
        let (mut n, _, _) = nucleus_with_counter();
        assert!(!n.add_cluster(CapsuleId::new(9), ClusterId::new(2)));
        assert!(n
            .checkpoint_cluster(CapsuleId::new(9), ClusterId::new(1), 0)
            .is_none());
        assert!(n
            .remove_cluster(CapsuleId::new(1), ClusterId::new(9), 0)
            .is_none());
        let record = BeoRecord {
            object: ObjectId::new(5),
            name: "x".into(),
            behaviour: "counter".into(),
            interfaces: vec![],
        };
        assert!(!n.install_object(
            CapsuleId::new(9),
            ClusterId::new(1),
            record,
            Box::new(CounterBehaviour),
            Value::Null,
        ));
    }
}
