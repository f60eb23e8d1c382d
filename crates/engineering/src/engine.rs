//! The engineering engine: drives nodes, channels and management
//! operations over the simulator.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmodp_computational::signature::{Invocation, Termination};
use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{CapsuleId, ChannelId, ClusterId, IdGen, InterfaceId, NodeId, ObjectId};
use rmodp_core::value::Value;
use rmodp_kernel::payload::Payload;
use rmodp_kernel::shard::ShardWorld;
use rmodp_netsim::sim::{Addr, NodeIdx, Sim};
use rmodp_netsim::time::{SimDuration, SimTime};
use rmodp_observe::{bus, event, EventKind, Facts, Layer};

use crate::behaviour::BehaviourRegistry;
use crate::channel::{
    BreakerConfig, BreakerPhase, ChannelConfig, ChannelError, RetryPolicy, Stack,
};
use crate::envelope::{Envelope, EnvelopeKind, ReplyStatus};
use crate::nucleus::{DriverProcess, NucleusProcess, DRIVER_PORT, NUCLEUS_PORT};
use crate::structure::{BeoRecord, ClusterCheckpoint, InterfaceRef, Location, StructurePolicy};
use crate::wire;

/// An engineering-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum EngError {
    /// No such node.
    UnknownNode { node: NodeId },
    /// No such capsule on the node.
    UnknownCapsule { capsule: CapsuleId },
    /// No such cluster in the capsule.
    UnknownCluster { cluster: ClusterId },
    /// No such interface is active anywhere.
    UnknownInterface { interface: InterfaceId },
    /// No such channel.
    UnknownChannel { channel: ChannelId },
    /// The behaviour name is not registered.
    UnknownBehaviour { behaviour: String },
    /// A structure policy constraint was violated.
    Policy { detail: String },
}

impl fmt::Display for EngError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngError::UnknownNode { node } => write!(f, "unknown node {node}"),
            EngError::UnknownCapsule { capsule } => write!(f, "unknown capsule {capsule}"),
            EngError::UnknownCluster { cluster } => write!(f, "unknown cluster {cluster}"),
            EngError::UnknownInterface { interface } => {
                write!(f, "unknown interface {interface}")
            }
            EngError::UnknownChannel { channel } => write!(f, "unknown channel {channel}"),
            EngError::UnknownBehaviour { behaviour } => {
                write!(f, "behaviour {behaviour:?} is not registered")
            }
            EngError::Policy { detail } => write!(f, "structure policy violation: {detail}"),
        }
    }
}

impl std::error::Error for EngError {}

/// A failure of a remote call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallError {
    /// An engineering-level problem (unknown channel, node…).
    Eng(EngError),
    /// A client-side channel component failed.
    Channel(ChannelError),
    /// No reply within the retry policy (all attempts exhausted).
    Timeout {
        /// How many attempts were made.
        attempts: u32,
    },
    /// The destination node reported the interface is not there (stale
    /// reference — the trigger for relocation transparency, §9.2).
    NotHere {
        /// The interface that was not found.
        interface: InterfaceId,
    },
    /// The channel's circuit breaker is open: the call failed fast
    /// without touching the network (graceful degradation under a
    /// persistent fault).
    CircuitOpen {
        /// When the breaker will next allow a probe.
        until: SimTime,
    },
    /// The server's channel rejected the message (e.g. replay).
    Rejected {
        /// Detail from the server, if any.
        detail: String,
    },
    /// The reply payload could not be decoded as a termination.
    BadReply {
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Eng(e) => write!(f, "{e}"),
            CallError::Channel(e) => write!(f, "{e}"),
            CallError::Timeout { attempts } => {
                write!(f, "no reply after {attempts} attempt(s)")
            }
            CallError::NotHere { interface } => {
                write!(f, "interface {interface} is not at the believed location")
            }
            CallError::CircuitOpen { until } => {
                write!(
                    f,
                    "circuit breaker open (next probe at {}us)",
                    until.as_micros()
                )
            }
            CallError::Rejected { detail } => write!(f, "request rejected: {detail}"),
            CallError::BadReply { detail } => write!(f, "bad reply: {detail}"),
        }
    }
}

impl std::error::Error for CallError {}

impl From<EngError> for CallError {
    fn from(e: EngError) -> Self {
        CallError::Eng(e)
    }
}

impl From<ChannelError> for CallError {
    fn from(e: ChannelError) -> Self {
        CallError::Channel(e)
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeHandle {
    sim_node: NodeIdx,
    native: SyntaxId,
}

/// Per-channel circuit-breaker state (see [`BreakerConfig`] for the
/// state machine's rules).
#[derive(Debug, Clone, Copy)]
struct BreakerState {
    config: BreakerConfig,
    phase: BreakerPhase,
    consecutive_failures: u32,
    probe_successes: u32,
    opened_at: SimTime,
}

impl BreakerState {
    fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            phase: BreakerPhase::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
            opened_at: SimTime::ZERO,
        }
    }
}

/// Where a channel's frames travel, as its client half currently
/// believes: resolved once per send by [`Engine::route`].
#[derive(Debug, Clone, Copy)]
struct Route {
    /// The client node's native syntax (what the invocation is encoded in).
    native: SyntaxId,
    target: InterfaceId,
    /// The client node's reply collector: every frame is sent from here.
    driver: Addr,
    /// The nucleus of the node the target is believed to be on.
    nucleus: Addr,
}

/// What a call's `CallStart` and (on a termination) `CallEnd` details are
/// written from: the operation and the termination's name.
fn call_facts<'a>(op: &'a str, termination: &'a str) -> Facts<'a> {
    Facts {
        texts: [op, termination],
        ..Facts::default()
    }
}

/// `CallStart`'s detail: `op=<op>`.
fn render_call_start(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "op={}", facts.texts[0])
}

/// A terminated call's `CallEnd` detail: `op=<op> -> <termination>`.
fn render_call_end(facts: &Facts<'_>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let [op, termination] = facts.texts;
    write!(f, "op={op} -> {termination}")
}

/// One interrogation between its `CallStart` and its `CallEnd`: what
/// [`Engine::open`] made and [`Engine::close`] needs. A blocking call
/// keeps it on the stack; an asynchronous one waits in the engine's
/// pending table until its reply is collected.
#[derive(Debug, Clone, Copy)]
struct Call {
    channel: ChannelId,
    route: Route,
    /// One id for the whole call: retransmissions carry it too, so the
    /// server's dedup cache can suppress duplicates.
    request: u64,
    span: u64,
    started: SimTime,
}

struct ClientChannel {
    client: NodeId,
    target: InterfaceId,
    stack: Stack,
    config: ChannelConfig,
    retry: RetryPolicy,
    believed: InterfaceRef,
    breaker: Option<BreakerState>,
}

/// The engineering runtime: owns the simulator, the nodes (each with a
/// nucleus), the authoritative interface-location registry, and the
/// client halves of channels.
pub struct Engine {
    sim: Sim,
    registry: BehaviourRegistry,
    policy: StructurePolicy,
    nodes: BTreeMap<NodeId, NodeHandle>,
    /// Authoritative interface locations (what the relocator republishes).
    locations: BTreeMap<InterfaceId, InterfaceRef>,
    /// Epochs survive deactivation so reactivation can bump them.
    epochs: BTreeMap<InterfaceId, u64>,
    channels: BTreeMap<ChannelId, ClientChannel>,
    node_gen: IdGen<NodeId>,
    capsule_gen: IdGen<CapsuleId>,
    cluster_gen: IdGen<ClusterId>,
    object_gen: IdGen<ObjectId>,
    interface_gen: IdGen<InterfaceId>,
    channel_gen: IdGen<ChannelId>,
    /// The last request id handed out; the first is 1.
    next_request: u64,
    /// In-flight [`Engine::call_send`] requests by id, with their
    /// operation names, so [`Engine::take_reply`] can close them.
    pending_calls: BTreeMap<u64, (Call, String)>,
    /// Deterministic jitter for retransmission backoff; a separate
    /// stream from the simulator's RNG so retry pacing never perturbs
    /// loss/latency draws.
    jitter_rng: StdRng,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("nodes", &self.nodes.len())
            .field("interfaces", &self.locations.len())
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl Engine {
    /// Creates an engine with an unconstrained structure policy.
    pub fn new(seed: u64) -> Self {
        Self::with_policy(seed, StructurePolicy::default())
    }

    /// Creates an engine with a structure policy (§6.2 constraints).
    pub fn with_policy(seed: u64, policy: StructurePolicy) -> Self {
        Self {
            sim: Sim::new(seed),
            registry: BehaviourRegistry::new(),
            policy,
            nodes: BTreeMap::new(),
            locations: BTreeMap::new(),
            epochs: BTreeMap::new(),
            channels: BTreeMap::new(),
            node_gen: IdGen::new(),
            capsule_gen: IdGen::new(),
            cluster_gen: IdGen::new(),
            object_gen: IdGen::new(),
            interface_gen: IdGen::new(),
            channel_gen: IdGen::new(),
            next_request: 0,
            pending_calls: BTreeMap::new(),
            jitter_rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The underlying simulator (topology, metrics, clock).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mutable access to the simulator (fault injection, clock control).
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// The behaviour registry (register behaviours before creating
    /// objects).
    pub fn behaviours_mut(&mut self) -> &mut BehaviourRegistry {
        &mut self.registry
    }

    /// The structure policy in force.
    pub fn policy(&self) -> StructurePolicy {
        self.policy
    }

    /// The netsim index of a node (for topology manipulation).
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn sim_node(&self, node: NodeId) -> Result<NodeIdx, EngError> {
        Ok(self.handle(node)?.sim_node)
    }

    fn handle(&self, node: NodeId) -> Result<NodeHandle, EngError> {
        self.nodes
            .get(&node)
            .copied()
            .ok_or(EngError::UnknownNode { node })
    }

    fn nucleus_addr(&self, node: NodeId) -> Result<Addr, EngError> {
        Ok(Addr::new(self.handle(node)?.sim_node, NUCLEUS_PORT))
    }

    /// A node's nucleus, to configure (admission control, the dedup
    /// cache's bound) or to read (its structure, counters and caches).
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn nucleus_mut(&mut self, node: NodeId) -> Result<&mut NucleusProcess, EngError> {
        let addr = self.nucleus_addr(node)?;
        self.sim
            .inspect_mut::<NucleusProcess>(addr)
            .ok_or(EngError::UnknownNode { node })
    }

    /// A node's nucleus, read-only: see [`Engine::nucleus_mut`].
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn nucleus(&self, node: NodeId) -> Result<&NucleusProcess, EngError> {
        let addr = self.nucleus_addr(node)?;
        self.sim
            .inspect::<NucleusProcess>(addr)
            .ok_or(EngError::UnknownNode { node })
    }

    /// Creates a node: a simulator node with a nucleus and a driver
    /// process ("a node has a nucleus object", §6.2).
    pub fn add_node(&mut self, native: SyntaxId) -> NodeId {
        let node = self.node_gen.fresh();
        let sim_node = self.sim.add_node();
        self.sim.attach(
            Addr::new(sim_node, NUCLEUS_PORT),
            NucleusProcess::new(node, native),
        );
        self.sim
            .attach(Addr::new(sim_node, DRIVER_PORT), DriverProcess::default());
        self.nodes.insert(node, NodeHandle { sim_node, native });
        node
    }

    /// Creates a capsule on a node.
    ///
    /// # Errors
    ///
    /// Unknown node, or the capsules-per-node policy limit.
    pub fn add_capsule(&mut self, node: NodeId) -> Result<CapsuleId, EngError> {
        let policy = self.policy;
        let nucleus = self.nucleus_mut(node)?;
        if let Some(max) = policy.max_capsules_per_node {
            if nucleus.structure.capsules.len() >= max {
                return Err(EngError::Policy {
                    detail: format!("{node} already has {max} capsule(s)"),
                });
            }
        }
        let capsule = self.capsule_gen.fresh();
        self.nucleus_mut(node)?.add_capsule(capsule);
        Ok(capsule)
    }

    /// Creates a cluster in a capsule.
    ///
    /// # Errors
    ///
    /// Unknown node/capsule, or the clusters-per-capsule policy limit.
    pub fn add_cluster(&mut self, node: NodeId, capsule: CapsuleId) -> Result<ClusterId, EngError> {
        let policy = self.policy;
        let nucleus = self.nucleus_mut(node)?;
        let Some(c) = nucleus.structure.capsules.get(&capsule) else {
            return Err(EngError::UnknownCapsule { capsule });
        };
        if let Some(max) = policy.max_clusters_per_capsule {
            if c.clusters.len() >= max {
                return Err(EngError::Policy {
                    detail: format!("{capsule} already has {max} cluster(s)"),
                });
            }
        }
        let cluster = self.cluster_gen.fresh();
        self.nucleus_mut(node)?.add_cluster(capsule, cluster);
        Ok(cluster)
    }

    /// Creates a basic engineering object in a cluster, with
    /// `interface_count` fresh interfaces, and registers their locations.
    ///
    /// # Errors
    ///
    /// Unknown node/capsule/cluster/behaviour, or the objects-per-cluster
    /// policy limit.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's creation parameters
    pub fn create_object(
        &mut self,
        node: NodeId,
        capsule: CapsuleId,
        cluster: ClusterId,
        name: impl Into<String>,
        behaviour: &str,
        state: Value,
        interface_count: usize,
    ) -> Result<(ObjectId, Vec<InterfaceRef>), EngError> {
        if !self.registry.contains(behaviour) {
            return Err(EngError::UnknownBehaviour {
                behaviour: behaviour.to_owned(),
            });
        }
        let policy = self.policy;
        {
            let nucleus = self.nucleus(node)?;
            let cl = nucleus
                .structure
                .capsules
                .get(&capsule)
                .ok_or(EngError::UnknownCapsule { capsule })?
                .clusters
                .get(&cluster)
                .ok_or(EngError::UnknownCluster { cluster })?;
            if let Some(max) = policy.max_objects_per_cluster {
                if cl.objects.len() >= max {
                    return Err(EngError::Policy {
                        detail: format!("{cluster} already has {max} object(s)"),
                    });
                }
            }
        }
        let object = self.object_gen.fresh();
        let interfaces: Vec<InterfaceId> = (0..interface_count)
            .map(|_| self.interface_gen.fresh())
            .collect();
        let record = BeoRecord {
            object,
            name: name.into(),
            behaviour: behaviour.to_owned(),
            interfaces: interfaces.clone(),
        };
        let instance = self
            .registry
            .create(behaviour)
            .expect("checked contains above");
        let installed = self
            .nucleus_mut(node)?
            .install_object(capsule, cluster, record, instance, state);
        debug_assert!(installed, "cluster existence checked above");
        let location = Location {
            node,
            capsule,
            cluster,
        };
        let mut refs = Vec::with_capacity(interfaces.len());
        for ifc in interfaces {
            let epoch = self.bump_epoch(ifc);
            let r = InterfaceRef {
                interface: ifc,
                location,
                epoch,
            };
            self.locations.insert(ifc, r);
            refs.push(r);
        }
        Ok((object, refs))
    }

    fn bump_epoch(&mut self, interface: InterfaceId) -> u64 {
        let e = self.epochs.entry(interface).or_insert(0);
        *e += 1;
        *e
    }

    /// The authoritative location of an interface (what feeds the
    /// relocator function). `None` while the owning cluster is
    /// deactivated.
    pub fn lookup(&self, interface: InterfaceId) -> Option<InterfaceRef> {
        self.locations.get(&interface).copied()
    }

    /// Opens a channel from a client node to a target interface,
    /// installing the server half at the interface's current node.
    ///
    /// # Errors
    ///
    /// Unknown node or interface.
    pub fn open_channel(
        &mut self,
        client: NodeId,
        target: InterfaceId,
        config: ChannelConfig,
    ) -> Result<ChannelId, EngError> {
        self.handle(client)?;
        let believed = self
            .lookup(target)
            .ok_or(EngError::UnknownInterface { interface: target })?;
        let channel = self.channel_gen.fresh();
        let client_native = self.handle(client)?.native;
        let server_native = self.handle(believed.location.node)?.native;
        let client_stack = config.build_stack(client_native);
        let server_stack = config.build_stack(server_native);
        self.nucleus_mut(believed.location.node)?
            .server_channels
            .insert(channel, server_stack);
        // `retry: None` means a single attempt (at-most-once), NOT the
        // hardened `RetryPolicy::default()` — retransmission is opt-in
        // per channel.
        let retry = config.retry.unwrap_or_else(RetryPolicy::one_shot);
        let breaker = config.breaker.map(BreakerState::new);
        self.channels.insert(
            channel,
            ClientChannel {
                client,
                target,
                stack: client_stack,
                config,
                retry,
                believed,
                breaker,
            },
        );
        Ok(channel)
    }

    /// The current phase of a channel's circuit breaker, if it has one.
    pub fn breaker_phase(&self, channel: ChannelId) -> Option<BreakerPhase> {
        self.channels
            .get(&channel)
            .and_then(|c| c.breaker.as_ref())
            .map(|b| b.phase)
    }

    /// What the channel currently believes about its target's location.
    pub fn channel_believes(&self, channel: ChannelId) -> Option<InterfaceRef> {
        self.channels.get(&channel).map(|c| c.believed)
    }

    /// Points a channel at a (new) interface location and installs the
    /// server half there — the mechanics a relocation-transparent binder
    /// performs after requerying the relocator (§9.2).
    ///
    /// # Errors
    ///
    /// Unknown channel or node.
    pub fn redirect_channel(
        &mut self,
        channel: ChannelId,
        to: InterfaceRef,
    ) -> Result<(), EngError> {
        let (config, server_node) = {
            let cc = self
                .channels
                .get(&channel)
                .ok_or(EngError::UnknownChannel { channel })?;
            (cc.config.clone(), to.location.node)
        };
        let server_native = self.handle(server_node)?.native;
        let server_stack = config.build_stack(server_native);
        self.nucleus_mut(server_node)?
            .server_channels
            .insert(channel, server_stack);
        let cc = self
            .channels
            .get_mut(&channel)
            .ok_or(EngError::UnknownChannel { channel })?;
        cc.believed = to;
        event(Layer::Engineering, EventKind::Relocate)
            .in_context()
            .channel(channel.raw())
            .capsule(to.location.capsule.raw())
            .detail_fmt(format_args!(
                "channel rebound to {} epoch={}",
                to.location.node, to.epoch
            ))
            .emit();
        bus::counter_add("engineering.relocations", 1);
        Ok(())
    }

    /// Resolves a channel to the addresses and syntax its frames use.
    fn route(&self, channel: ChannelId) -> Result<Route, EngError> {
        let cc = self
            .channels
            .get(&channel)
            .ok_or(EngError::UnknownChannel { channel })?;
        let client = self.handle(cc.client)?;
        Ok(Route {
            native: client.native,
            target: cc.target,
            driver: Addr::new(client.sim_node, DRIVER_PORT),
            nucleus: self.nucleus_addr(cc.believed.location.node)?,
        })
    }

    /// The one transmit step every kind of send shares: runs the
    /// channel's outgoing stack over the envelope, serialises it and
    /// hands the frame to the network. A request's id is registered with
    /// the driver first, so the reply has somewhere to land. Returns the
    /// frame for retransmission.
    fn transmit(
        &mut self,
        channel: ChannelId,
        route: Route,
        env: &mut Envelope,
    ) -> Result<Payload, ChannelError> {
        let cc = self.channels.get_mut(&channel).expect("routed above");
        cc.stack.outgoing(env)?;
        if env.kind == EnvelopeKind::Request {
            if let Some(d) = self.driver_mut(route.driver) {
                d.expect_reply(env.request);
            }
        }
        let frame = Payload::new(env.to_bytes());
        self.sim
            .send_from(route.driver, route.nucleus, frame.clone());
        Ok(frame)
    }

    fn driver_mut(&mut self, driver: Addr) -> Option<&mut DriverProcess> {
        self.sim.inspect_mut::<DriverProcess>(driver)
    }

    /// The invocation record for `op(args)` in a client's native syntax.
    fn invocation_payload(native: SyntaxId, op: &str, args: &Value) -> Payload {
        let mut bytes = Vec::new();
        wire::encode_invocation_into(native, op, args, &mut bytes);
        Payload::new(bytes)
    }

    /// Invokes an interrogation through a channel and runs the simulator
    /// until the reply arrives (or the retry policy is exhausted).
    ///
    /// # Delivery semantics
    ///
    /// With `retry: None` (or [`RetryPolicy::one_shot`]) the request is
    /// transmitted once: **at-most-once** delivery — a timeout leaves it
    /// unknown whether the server executed the operation. With
    /// `retries > 0` the same request id is retransmitted with
    /// exponential backoff and deterministic jitter until a reply
    /// arrives or the policy's total `deadline` passes: at-least-once
    /// *transmission*. The server nucleus keeps a request-id dedup
    /// cache, so a retransmitted request is **executed at most once**
    /// and duplicate arrivals are answered from the cache — effectively
    /// exactly-once while the server's cache holds the entry.
    /// Retransmissions re-enter the channel stack, so sequence binders
    /// stamp them as fresh messages rather than replays.
    ///
    /// If the channel has a [`BreakerConfig`], consecutive timeouts open
    /// the breaker and further calls fail fast with
    /// [`CallError::CircuitOpen`] (no queueing, no network traffic)
    /// until a cooldown elapses and a probe call closes it again.
    ///
    /// # Errors
    ///
    /// Any [`CallError`]; `NotHere` signals a stale location belief.
    pub fn call(
        &mut self,
        channel: ChannelId,
        op: &str,
        args: &Value,
    ) -> Result<Termination, CallError> {
        self.call_blocking(channel, op, |native| {
            Self::invocation_payload(native, op, args)
        })
    }

    /// Encodes an invocation once in a client node's native syntax. Pair
    /// with [`Engine::call_prepared`] to fan one invocation out across
    /// many channels (e.g. a replica group) without re-encoding per call.
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn prepare_invocation(
        &self,
        client: NodeId,
        op: &str,
        args: &Value,
    ) -> Result<Payload, EngError> {
        let native = self.handle(client)?.native;
        Ok(Self::invocation_payload(native, op, args))
    }

    /// Like [`Engine::call`], but with a payload already encoded by
    /// [`Engine::prepare_invocation`]: the shared bytes are reused
    /// verbatim, so an N-way fan-out marshals once, not N times. The
    /// caller must have prepared the payload on this channel's client
    /// node (the encodings would otherwise disagree).
    ///
    /// # Errors
    ///
    /// Any [`CallError`], as for [`Engine::call`].
    pub fn call_prepared(
        &mut self,
        channel: ChannelId,
        op: &str,
        prepared: &Payload,
    ) -> Result<Termination, CallError> {
        self.call_blocking(channel, op, |_| prepared.clone())
    }

    /// Opens an interrogation: resolves the channel, takes a fresh
    /// request id, emits the one `CallStart` and pushes the call's span
    /// as the causal context until [`Engine::close`] pops it. `encode`
    /// writes the invocation in the client's native syntax. Returns the
    /// record and the request envelope, not yet transmitted: a blocking
    /// call passes its circuit breaker first.
    fn open(
        &mut self,
        channel: ChannelId,
        op: &str,
        encode: impl FnOnce(SyntaxId) -> Payload,
    ) -> Result<(Call, Envelope), EngError> {
        let route = self.route(channel)?;
        self.next_request += 1;
        let call = Call {
            channel,
            route,
            request: self.next_request,
            span: bus::new_span(),
            started: self.sim.now(),
        };
        event(Layer::Engineering, EventKind::CallStart)
            .span(call.span)
            .parent_from_context()
            .channel(channel.raw())
            .detail_deferred(|| call_facts(op, ""), render_call_start)
            .emit();
        bus::push_context(call.span);
        let (target, native) = (route.target, route.native);
        let env = Envelope::request(channel, call.request, target, native, encode(native));
        Ok((call, env))
    }

    /// Closes an interrogation: reads the reply through
    /// [`Engine::accept_reply`] (or takes the error that ended the call
    /// first), pops the call's span, emits the one `CallEnd` and counts
    /// the call.
    fn close(
        &mut self,
        call: Call,
        op: &str,
        reply: Result<Envelope, CallError>,
    ) -> Result<Termination, CallError> {
        let result = reply.and_then(|reply| self.accept_reply(call, reply));
        bus::pop_context();
        bus::counter_add("engineering.calls", 1);
        bus::observe(
            "engineering.call_us",
            self.sim.now().since(call.started).as_micros(),
        );
        if result.is_err() {
            bus::counter_add("engineering.call_errors", 1);
        }
        let end = event(Layer::Engineering, EventKind::CallEnd)
            .span(call.span)
            .channel(call.channel.raw());
        match &result {
            Ok(t) => end
                .detail_deferred(|| call_facts(op, &t.name), render_call_end)
                .emit(),
            Err(e) => end.detail_fmt(format_args!("op={op} -> error: {e}")).emit(),
        };
        result
    }

    /// The blocking path: open, pass the circuit breaker, transmit and
    /// await the reply under the retry policy, note the outcome with the
    /// breaker, close. Retries and the breaker are blocking-only: they
    /// count timeouts, and an asynchronous call has none.
    fn call_blocking(
        &mut self,
        channel: ChannelId,
        op: &str,
        encode: impl FnOnce(SyntaxId) -> Payload,
    ) -> Result<Termination, CallError> {
        let (call, env) = self.open(channel, op, encode)?;
        let reply = self.breaker_admit(channel).and_then(|()| {
            let reply = self.transmit_and_await(call, op, env);
            self.breaker_note(channel, matches!(reply, Err(CallError::Timeout { .. })));
            reply
        });
        self.close(call, op, reply)
    }

    /// Gate a call on the channel's circuit breaker: fail fast while
    /// open, move to half-open once the cooldown has elapsed.
    fn breaker_admit(&mut self, channel: ChannelId) -> Result<(), CallError> {
        let now = self.sim.now();
        let Some(b) = self
            .channels
            .get_mut(&channel)
            .and_then(|cc| cc.breaker.as_mut())
        else {
            return Ok(());
        };
        if b.phase == BreakerPhase::Open {
            let until = b.opened_at + b.config.cooldown;
            if now < until {
                bus::counter_add("engineering.breaker.fast_fails", 1);
                return Err(CallError::CircuitOpen { until });
            }
            b.phase = BreakerPhase::HalfOpen;
            b.probe_successes = 0;
            Self::emit_breaker_transition(
                channel,
                BreakerPhase::Open,
                BreakerPhase::HalfOpen,
                "cooldown elapsed; probing",
            );
        }
        Ok(())
    }

    /// Feed a call outcome into the breaker's state machine. Only
    /// timeouts count as failures: a reply of any status proves the
    /// server is alive.
    fn breaker_note(&mut self, channel: ChannelId, timed_out: bool) {
        let now = self.sim.now();
        let Some(b) = self
            .channels
            .get_mut(&channel)
            .and_then(|cc| cc.breaker.as_mut())
        else {
            return;
        };
        if timed_out {
            b.consecutive_failures += 1;
            b.probe_successes = 0;
            let trip = match b.phase {
                BreakerPhase::HalfOpen => true,
                BreakerPhase::Closed => b.consecutive_failures >= b.config.failure_threshold,
                BreakerPhase::Open => false,
            };
            if trip {
                let from = b.phase;
                b.phase = BreakerPhase::Open;
                b.opened_at = now;
                let failures = b.consecutive_failures;
                Self::emit_breaker_transition(
                    channel,
                    from,
                    BreakerPhase::Open,
                    &format!("{failures} consecutive timeout(s)"),
                );
            }
        } else {
            match b.phase {
                BreakerPhase::HalfOpen => {
                    b.probe_successes += 1;
                    if b.probe_successes >= b.config.success_to_close {
                        b.phase = BreakerPhase::Closed;
                        b.consecutive_failures = 0;
                        Self::emit_breaker_transition(
                            channel,
                            BreakerPhase::HalfOpen,
                            BreakerPhase::Closed,
                            "probe reply received",
                        );
                    }
                }
                _ => b.consecutive_failures = 0,
            }
        }
    }

    fn emit_breaker_transition(
        channel: ChannelId,
        from: BreakerPhase,
        to: BreakerPhase,
        why: &str,
    ) {
        event(Layer::Engineering, EventKind::BreakerTransition)
            .in_context()
            .channel(channel.raw())
            .detail_fmt(format_args!("{} -> {}: {why}", from.name(), to.name()))
            .emit();
        bus::counter_add("engineering.breaker.transitions", 1);
    }

    /// Transmits a blocking call's request and waits for the reply,
    /// retransmitting under the channel's retry policy until one arrives
    /// or the policy's total deadline passes.
    fn transmit_and_await(
        &mut self,
        call: Call,
        op: &str,
        mut env: Envelope,
    ) -> Result<Envelope, CallError> {
        let Call {
            channel,
            route,
            request,
            span,
            ..
        } = call;
        let retry = self.channels[&channel].retry;
        let overall = self.sim.now() + retry.deadline;

        // Marshal once per call, not once per attempt: the first
        // transmission runs the outgoing stack and the serialised frame
        // is reused for every retransmission. Only components that must
        // restamp (a sequence binder issuing a fresh number) touch it
        // again, via the event-free `Stack::restamp`.
        let mut frame = self.transmit(channel, route, &mut env)?;
        let mut made = 1u32;

        for attempt in 0..retry.retries + 1 {
            if attempt > 0 {
                // Exponential backoff with deterministic jitter. A late
                // reply landing during the pause is consumed instead of
                // retransmitting.
                let mut pause = retry.backoff_delay(attempt);
                if retry.jitter > SimDuration::ZERO {
                    let extra = self.jitter_rng.gen_range(0..=retry.jitter.as_micros());
                    pause = pause + SimDuration::from_micros(extra);
                }
                let resume = (self.sim.now() + pause).min(overall);
                if let Some(reply) = self.await_reply(route.driver, request, resume) {
                    return Ok(reply);
                }
                if self.sim.now() >= overall {
                    break;
                }
                event(Layer::Engineering, EventKind::Retry)
                    .span(span)
                    .channel(channel.raw())
                    .detail_fmt(format_args!("op={op} attempt={}", attempt + 1))
                    .emit();
                bus::counter_add("engineering.retries", 1);
                let cc = self.channels.get_mut(&channel).expect("checked above");
                if cc.stack.restamp(&mut env) {
                    frame = Payload::new(env.to_bytes());
                }
                made += 1;
                self.sim
                    .send_from(route.driver, route.nucleus, frame.clone());
            }
            let deadline = (self.sim.now() + retry.timeout).min(overall);
            if let Some(reply) = self.await_reply(route.driver, request, deadline) {
                return Ok(reply);
            }
            if self.sim.now() >= overall {
                break;
            }
        }
        // Nobody waits for this id any longer: a reply still in flight is
        // dropped when it lands instead of sitting in the mailbox forever.
        if let Some(d) = self.driver_mut(route.driver) {
            d.forget(request);
        }
        Err(CallError::Timeout { attempts: made })
    }

    /// The one reply step: runs the channel's incoming stack over a
    /// collected reply and reads its status and termination record.
    fn accept_reply(&mut self, call: Call, mut reply: Envelope) -> Result<Termination, CallError> {
        let cc = self.channels.get_mut(&call.channel).expect("routed above");
        cc.stack.incoming(&mut reply)?;
        match reply.status {
            ReplyStatus::NotHere => Err(CallError::NotHere {
                interface: call.route.target,
            }),
            ReplyStatus::Rejected => {
                let detail = wire::decode_termination(reply.syntax, &reply.payload)
                    .ok()
                    .and_then(|t| {
                        t.results
                            .field("reason")
                            .and_then(Value::as_text)
                            .map(str::to_owned)
                    })
                    .unwrap_or_else(|| "rejected".to_owned());
                Err(CallError::Rejected { detail })
            }
            ReplyStatus::Ok => wire::decode_termination(reply.syntax, &reply.payload),
        }
    }

    /// Runs the simulator until the reply to `request_id` lands at
    /// `driver` or the clock reaches `deadline`, whichever comes first.
    /// Only events at or before the deadline are stepped, so a timed-out
    /// wait ends at its deadline however late the next event is; the
    /// clock is then idled forward to it (breaker cooldowns and recovery
    /// windows are measured from it, so a timeout is not free).
    fn await_reply(
        &mut self,
        driver: Addr,
        request_id: u64,
        deadline: SimTime,
    ) -> Option<Envelope> {
        loop {
            if let Some((reply, _arrived)) = self
                .driver_mut(driver)
                .and_then(|d| d.mailbox.remove(&request_id))
            {
                return Some(reply);
            }
            if self.sim.next_event_time().is_none_or(|at| at > deadline) {
                self.sim.run_until(deadline);
                return None;
            }
            self.sim.step();
        }
    }

    /// Sends an interrogation through a channel *without* waiting for the
    /// reply, returning the request id. The message is queued in the
    /// simulator; run it (e.g. [`Engine::run_until_idle`] or
    /// `sim_mut().run_until`) to make progress, then collect the outcome
    /// with [`Engine::take_reply`].
    ///
    /// This is the open-loop primitive load generators need: many
    /// requests can be in flight at once, so a server's admission queue
    /// actually fills. No retransmission is performed (an unanswered
    /// request simply never produces a reply).
    ///
    /// # Errors
    ///
    /// Unknown channel/node or a client-side channel failure.
    pub fn call_send(
        &mut self,
        channel: ChannelId,
        op: &str,
        args: &Value,
    ) -> Result<u64, CallError> {
        let (call, mut env) = self.open(channel, op, |native| {
            Self::invocation_payload(native, op, args)
        })?;
        if let Err(e) = self.transmit(channel, call.route, &mut env) {
            let failed = self.close(call, op, Err(e.into()));
            return Err(failed.expect_err("a call closed with an error fails"));
        }
        // The span is pushed again when the reply is collected.
        bus::pop_context();
        self.pending_calls
            .insert(call.request, (call, op.to_owned()));
        Ok(call.request)
    }

    /// Collects the reply to a [`Engine::call_send`] request if it has
    /// arrived: `None` while still in flight (and once collected or
    /// abandoned), otherwise the arrival time and the interpreted
    /// outcome. Does not advance the simulator.
    pub fn take_reply(
        &mut self,
        request: u64,
    ) -> Option<(SimTime, Result<Termination, CallError>)> {
        let driver = self.pending_calls.get(&request)?.0.route.driver;
        let (reply, arrived) = self.driver_mut(driver)?.mailbox.remove(&request)?;
        let (call, op) = self.pending_calls.remove(&request)?;
        bus::push_context(call.span);
        Some((arrived, self.close(call, &op, Ok(reply))))
    }

    /// Gives up on a [`Engine::call_send`] request nobody will collect:
    /// its pending entry, the driver's wait for it and a reply that has
    /// already landed all go, and a reply still in flight is dropped when
    /// it lands. Emits no event and moves no counter.
    pub fn abandon_call(&mut self, request: u64) {
        if let Some((call, _)) = self.pending_calls.remove(&request) {
            if let Some(d) = self.driver_mut(call.route.driver) {
                d.forget(request);
            }
        }
    }

    /// [`Engine::call_send`] requests neither collected nor abandoned.
    pub fn calls_in_flight(&self) -> usize {
        self.pending_calls.len()
    }

    /// Sends an announcement (no reply) through a channel. The message is
    /// queued; run the simulator to deliver it.
    ///
    /// # Errors
    ///
    /// Unknown channel/node or a client-side channel failure.
    pub fn announce(
        &mut self,
        channel: ChannelId,
        op: &str,
        args: &Value,
    ) -> Result<(), CallError> {
        let route = self.route(channel)?;
        let payload = Self::invocation_payload(route.native, op, args);
        let mut env = Envelope::announce(channel, route.target, route.native, payload);
        self.transmit(channel, route, &mut env)?;
        Ok(())
    }

    /// Sends one stream-flow item through a channel (queued; run the
    /// simulator to deliver).
    ///
    /// # Errors
    ///
    /// Unknown channel/node or a client-side channel failure.
    pub fn send_flow(
        &mut self,
        channel: ChannelId,
        flow: &str,
        item: &Value,
    ) -> Result<(), CallError> {
        let route = self.route(channel)?;
        let payload = syntax_for(route.native).encode(item);
        let mut env = Envelope::flow_item(channel, route.target, flow, route.native, payload);
        self.transmit(channel, route, &mut env)?;
        Ok(())
    }

    /// Runs the simulator until no events remain.
    pub fn run_until_idle(&mut self) -> u64 {
        self.sim.run_until_idle()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Checkpoints a cluster without disturbing it (§8.1).
    ///
    /// # Errors
    ///
    /// Unknown node/capsule/cluster.
    pub fn checkpoint_cluster(
        &mut self,
        node: NodeId,
        capsule: CapsuleId,
        cluster: ClusterId,
    ) -> Result<ClusterCheckpoint, EngError> {
        let epoch = self.max_epoch_in(node, capsule, cluster)?;
        let checkpoint = self
            .nucleus(node)?
            .checkpoint_cluster(capsule, cluster, epoch)
            .ok_or(EngError::UnknownCluster { cluster })?;
        event(Layer::Engineering, EventKind::Checkpoint)
            .in_context()
            .capsule(capsule.raw())
            .detail_fmt(format_args!(
                "cluster={} objects={} epoch={epoch}",
                cluster,
                checkpoint.objects.len()
            ))
            .emit();
        bus::counter_add("engineering.checkpoints", 1);
        Ok(checkpoint)
    }

    fn max_epoch_in(
        &self,
        node: NodeId,
        capsule: CapsuleId,
        cluster: ClusterId,
    ) -> Result<u64, EngError> {
        let nucleus = self.nucleus(node)?;
        let cl = nucleus
            .structure
            .capsules
            .get(&capsule)
            .ok_or(EngError::UnknownCapsule { capsule })?
            .clusters
            .get(&cluster)
            .ok_or(EngError::UnknownCluster { cluster })?;
        Ok(cl
            .objects
            .values()
            .flat_map(|r| r.interfaces.iter())
            .filter_map(|i| self.epochs.get(i))
            .copied()
            .max()
            .unwrap_or(0))
    }

    /// Deactivates a cluster: removes it from its node and returns the
    /// checkpoint needed to reactivate it (§8.1). The interfaces become
    /// unresolvable until reactivation.
    ///
    /// # Errors
    ///
    /// Unknown node/capsule/cluster.
    pub fn deactivate_cluster(
        &mut self,
        node: NodeId,
        capsule: CapsuleId,
        cluster: ClusterId,
    ) -> Result<ClusterCheckpoint, EngError> {
        let epoch = self.max_epoch_in(node, capsule, cluster)?;
        let checkpoint = self
            .nucleus_mut(node)?
            .remove_cluster(capsule, cluster, epoch)
            .ok_or(EngError::UnknownCluster { cluster })?;
        for oc in &checkpoint.objects {
            for ifc in &oc.record.interfaces {
                self.locations.remove(ifc);
            }
        }
        event(Layer::Engineering, EventKind::Deactivate)
            .in_context()
            .capsule(capsule.raw())
            .detail_fmt(format_args!(
                "cluster={cluster} objects={}",
                checkpoint.objects.len()
            ))
            .emit();
        Ok(checkpoint)
    }

    /// Reactivates a cluster from a checkpoint into a capsule (possibly on
    /// a different node), preserving object and interface identities and
    /// bumping interface epochs.
    ///
    /// # Errors
    ///
    /// Unknown node/capsule or unregistered behaviour names in the
    /// checkpoint.
    pub fn reactivate_cluster(
        &mut self,
        node: NodeId,
        capsule: CapsuleId,
        checkpoint: &ClusterCheckpoint,
    ) -> Result<ClusterId, EngError> {
        // Validate everything before mutating.
        for oc in &checkpoint.objects {
            if !self.registry.contains(&oc.record.behaviour) {
                return Err(EngError::UnknownBehaviour {
                    behaviour: oc.record.behaviour.clone(),
                });
            }
        }
        {
            let nucleus = self.nucleus(node)?;
            if !nucleus.structure.capsules.contains_key(&capsule) {
                return Err(EngError::UnknownCapsule { capsule });
            }
        }
        let cluster = self.cluster_gen.fresh();
        self.nucleus_mut(node)?.add_cluster(capsule, cluster);
        let location = Location {
            node,
            capsule,
            cluster,
        };
        for oc in &checkpoint.objects {
            let behaviour = self
                .registry
                .create(&oc.record.behaviour)
                .expect("validated above");
            self.nucleus_mut(node)?.install_object(
                capsule,
                cluster,
                oc.record.clone(),
                behaviour,
                oc.state.clone(),
            );
            for ifc in &oc.record.interfaces {
                let epoch = self.bump_epoch(*ifc);
                self.locations.insert(
                    *ifc,
                    InterfaceRef {
                        interface: *ifc,
                        location,
                        epoch,
                    },
                );
            }
        }
        event(Layer::Engineering, EventKind::Reactivate)
            .in_context()
            .capsule(capsule.raw())
            .detail_fmt(format_args!(
                "cluster={cluster} objects={} at {node}",
                checkpoint.objects.len()
            ))
            .emit();
        Ok(cluster)
    }

    /// Migrates a cluster to another node/capsule: checkpoint, destroy,
    /// reactivate (§8.1's migration function). Interface identities are
    /// preserved; epochs are bumped so stale references fail over.
    ///
    /// # Errors
    ///
    /// As the constituent operations; on a validation failure at the
    /// target, the source is restored.
    pub fn migrate_cluster(
        &mut self,
        from_node: NodeId,
        from_capsule: CapsuleId,
        cluster: ClusterId,
        to_node: NodeId,
        to_capsule: CapsuleId,
    ) -> Result<ClusterId, EngError> {
        let span = bus::new_span();
        event(Layer::Engineering, EventKind::MigrateStart)
            .span(span)
            .parent_from_context()
            .capsule(from_capsule.raw())
            .detail_fmt(format_args!("cluster={cluster} {from_node} -> {to_node}"))
            .emit();
        bus::push_context(span);
        let result = (|| {
            let checkpoint = self.deactivate_cluster(from_node, from_capsule, cluster)?;
            match self.reactivate_cluster(to_node, to_capsule, &checkpoint) {
                Ok(new_cluster) => Ok(new_cluster),
                Err(e) => {
                    // Roll back: reactivate at the source.
                    let restored = self.reactivate_cluster(from_node, from_capsule, &checkpoint);
                    debug_assert!(restored.is_ok(), "rollback must succeed");
                    Err(e)
                }
            }
        })();
        bus::pop_context();
        bus::counter_add("engineering.migrations", 1);
        let end = event(Layer::Engineering, EventKind::MigrateEnd)
            .span(span)
            .capsule(to_capsule.raw());
        match &result {
            Ok(new_cluster) => end
                .detail_fmt(format_args!(
                    "cluster={cluster} -> {new_cluster} at {to_node}"
                ))
                .emit(),
            Err(e) => end
                .detail_fmt(format_args!("cluster={cluster} failed: {e} (rolled back)"))
                .emit(),
        };
        result
    }

    /// Reads an object's current state.
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn object_state(&self, node: NodeId, object: ObjectId) -> Result<Option<Value>, EngError> {
        Ok(self.nucleus(node)?.object_state(object).cloned())
    }

    /// Validates a node's structure against the policy (Figure 5's
    /// rules); empty = valid.
    ///
    /// # Errors
    ///
    /// Unknown node.
    pub fn validate_node(&self, node: NodeId) -> Result<Vec<String>, EngError> {
        let nucleus = self.nucleus(node)?;
        Ok(nucleus.structure.validate(&self.policy, &nucleus.routing))
    }

    /// Direct local invocation on a node, bypassing channels (used by
    /// management functions and intra-node optimisation tests).
    ///
    /// # Errors
    ///
    /// Unknown node or interface.
    pub fn invoke_local(
        &mut self,
        node: NodeId,
        interface: InterfaceId,
        op: &str,
        args: &Value,
    ) -> Result<Termination, EngError> {
        let invocation = Invocation::new(op, args.clone());
        self.nucleus_mut(node)?
            .invoke_local(interface, &invocation)
            .ok_or(EngError::UnknownInterface { interface })
    }
}
