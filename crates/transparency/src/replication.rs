//! Replication transparency: a group of replicas behind one interface.
//!
//! "Replication transparency maintains consistency of a group of replica
//! objects with a common interface" (§9). A [`ReplicatedService`] fronts a
//! quorum group: an update commits on a majority of the roster under the
//! front's fencing epoch, reads are served from the elected leader, and a
//! failed leader is replaced by an election without clients noticing.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_computational::signature::Termination;
use rmodp_core::codec::SyntaxId;
use rmodp_core::id::{ChannelId, GroupId, InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::{CallError, EngError, Engine};
use rmodp_functions::group::GroupError;
use rmodp_kernel::payload::Payload;
use rmodp_observe::{bus, event, EventKind, Layer};

use crate::proxy::OdpInfra;

/// A replication failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicationError {
    /// Group bookkeeping failed.
    Group(GroupError),
    /// An update could not reach a required replica.
    UpdateFailed { replica: InterfaceId, error: String },
    /// The group has no members left.
    Exhausted,
    /// A replica fenced this front: a newer epoch exists, so this
    /// front's writes are void and it must re-elect or stand down.
    Fenced { epoch: u64, newer: u64 },
    /// Fewer than a majority of the roster acknowledged, so the update
    /// did **not** commit (retrying after failover is safe: the
    /// sequence number is not advanced and replicas stage idempotently).
    QuorumLost { acks: usize, needed: usize },
    /// A quorum operation was attempted before any epoch was elected.
    NoLeader,
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Group(e) => write!(f, "{e}"),
            ReplicationError::UpdateFailed { replica, error } => {
                write!(f, "update failed at {replica}: {error}")
            }
            ReplicationError::Exhausted => write!(f, "no replicas remain"),
            ReplicationError::Fenced { epoch, newer } => {
                write!(f, "fenced: epoch {epoch} superseded by {newer}")
            }
            ReplicationError::QuorumLost { acks, needed } => {
                write!(f, "quorum lost: {acks} acks of {needed} needed")
            }
            ReplicationError::NoLeader => write!(f, "no epoch has been elected"),
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<GroupError> for ReplicationError {
    fn from(e: GroupError) -> Self {
        ReplicationError::Group(e)
    }
}

/// A client-side front for a replica group.
///
/// Its methods ([`quorum_update`]/[`quorum_read`]/[`fail_over`]) drive
/// replicas running the epoch-fencing [`QuorumCounterBehaviour`] state
/// machine, where an update commits only when a majority of the *full
/// roster* acknowledges it under this front's epoch.
///
/// The safety argument, in one paragraph: an epoch is installed only
/// after a majority of the roster acknowledged `NewEpoch`
/// ([`GroupManager::install_view`] refuses otherwise), and an update
/// commits only on a majority of `Apply` acks at its epoch. Any two
/// majorities of one roster intersect, so a front whose epoch has been
/// superseded always meets at least one replica that already adopted
/// the newer epoch — which answers `Fenced` instead of acking — and
/// since replicas ack only epochs at or above their own, a fenced
/// response and a majority of acks are mutually exclusive. A
/// partitioned stale leader therefore cannot commit anything, ever: no
/// split-brain by construction, not by timing.
///
/// [`quorum_update`]: Self::quorum_update
/// [`quorum_read`]: Self::quorum_read
/// [`fail_over`]: Self::fail_over
/// [`QuorumCounterBehaviour`]: rmodp_engineering::behaviour::QuorumCounterBehaviour
/// [`GroupManager::install_view`]: rmodp_functions::group::GroupManager::install_view
#[derive(Debug)]
pub struct ReplicatedService {
    client: NodeId,
    group: GroupId,
    channels: BTreeMap<InterfaceId, ChannelId>,
    /// The fencing epoch this front believes it holds. Deliberately a
    /// *cached* copy, not a live read of the shared [`GroupManager`]:
    /// the cache going stale is exactly what the replicas' fencing
    /// protects against.
    ///
    /// [`GroupManager`]: rmodp_functions::group::GroupManager
    epoch: u64,
    /// Highest sequence number staged by this front.
    seq: u64,
    /// Highest sequence number known committed (majority-acked).
    committed: u64,
    /// The committed fold (counter value) at `committed` — what `Sync`
    /// sends when repairing a lagging replica.
    value: i64,
}

impl ReplicatedService {
    /// A front with cold quorum state over channels already opened.
    fn over(client: NodeId, group: GroupId, channels: BTreeMap<InterfaceId, ChannelId>) -> Self {
        Self {
            client,
            group,
            channels,
            epoch: 0,
            seq: 0,
            committed: 0,
            value: 0,
        }
    }

    /// Creates the front and a group containing the given replicas. No
    /// epoch is elected yet: quorum operations answer
    /// [`ReplicationError::NoLeader`] until [`fail_over`](Self::fail_over).
    fn new(
        engine: &mut Engine,
        infra: &mut OdpInfra,
        client: NodeId,
        replicas: Vec<InterfaceId>,
    ) -> Result<Self, ReplicationError> {
        let group = infra.groups.create(replicas.clone());
        let mut channels = BTreeMap::new();
        for r in replicas {
            let ch = engine
                .open_channel(client, r, ChannelConfig::default())
                .map_err(|e| ReplicationError::UpdateFailed {
                    replica: r,
                    error: e.to_string(),
                })?;
            channels.insert(r, ch);
        }
        Ok(Self::over(client, group, channels))
    }

    /// Creates a quorum-replicated front: a group over `replicas` (which
    /// must run the quorum state machine, e.g. via [`quorum_counters`]),
    /// with epoch 1 elected immediately — the constructor fails with
    /// [`GroupError::NoQuorum`] if a majority of the roster is not
    /// reachable at birth.
    fn quorum(
        engine: &mut Engine,
        infra: &mut OdpInfra,
        client: NodeId,
        replicas: Vec<InterfaceId>,
    ) -> Result<Self, ReplicationError> {
        let mut svc = Self::new(engine, infra, client, replicas)?;
        svc.fail_over(engine, infra)?;
        Ok(svc)
    }

    /// Opens a *second* front onto an existing quorum group — the
    /// takeover path: a fresh front may not write under the old epoch
    /// (its state cache would be cold and its seq allocation would
    /// collide), so attaching **elects a new epoch** before returning.
    /// The old front keeps running with its now-stale cached epoch; its
    /// next quorum write is fenced.
    pub fn attach(
        engine: &mut Engine,
        infra: &mut OdpInfra,
        client: NodeId,
        group: GroupId,
    ) -> Result<Self, ReplicationError> {
        let view = infra.groups.view(group)?;
        let mut channels = BTreeMap::new();
        for r in &view.members {
            if let Ok(ch) = engine.open_channel(client, *r, ChannelConfig::default()) {
                channels.insert(*r, ch);
            }
        }
        let mut svc = Self::over(client, group, channels);
        svc.fail_over(engine, infra)?;
        Ok(svc)
    }

    /// The backing group.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The highest sequence number this front knows to be committed.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    fn channel_for(
        &mut self,
        engine: &mut Engine,
        replica: InterfaceId,
    ) -> Result<ChannelId, CallError> {
        match self.channels.get(&replica) {
            Some(ch) => Ok(*ch),
            None => {
                let ch = engine.open_channel(self.client, replica, ChannelConfig::default())?;
                self.channels.insert(replica, ch);
                Ok(ch)
            }
        }
    }

    fn call_replica(
        &mut self,
        engine: &mut Engine,
        replica: InterfaceId,
        op: &str,
        args: &Value,
    ) -> Result<Termination, CallError> {
        let ch = self.channel_for(engine, replica)?;
        engine.call(ch, op, args)
    }

    /// Dispatches an already-marshalled invocation to one replica. The
    /// prepared [`Payload`] is shared (`Arc` clone) across the fan-out,
    /// so the arguments are encoded once per update, not once per
    /// replica.
    fn call_replica_prepared(
        &mut self,
        engine: &mut Engine,
        replica: InterfaceId,
        op: &str,
        prepared: &Payload,
    ) -> Result<Termination, CallError> {
        let ch = self.channel_for(engine, replica)?;
        engine.call_prepared(ch, op, prepared)
    }

    fn ack_field(t: &Termination, field: &str) -> i64 {
        t.results.field(field).and_then(Value::as_int).unwrap_or(0)
    }

    /// Repairs a replica that answered `Gap` (it is missing part of the
    /// committed prefix — typically a healed partition or a restarted
    /// node): transfer the committed state absolutely, after which the
    /// pending `Apply` lands on `applied + 1` again.
    fn sync_replica(&mut self, engine: &mut Engine, replica: InterfaceId) -> bool {
        let args = Value::record([
            ("epoch", Value::Int(self.epoch as i64)),
            ("n", Value::Int(self.value)),
            ("commit", Value::Int(self.committed as i64)),
        ]);
        bus::counter_add("replication.sync_repairs", 1);
        matches!(
            self.call_replica(engine, replica, "Sync", &args),
            Ok(t) if t.is_ok()
        )
    }

    /// Applies `k` to the group under this front's epoch, committing
    /// **only** on a majority of the full roster. On success the commit
    /// watermark is advanced and pushed to every reachable replica (so
    /// reads observe it immediately); a minority of acks leaves the
    /// update durably *uncommitted* ([`ReplicationError::QuorumLost`] —
    /// retrying the same front re-uses the sequence number, which
    /// replicas stage idempotently). A [`ReplicationError::Fenced`]
    /// answer means a newer epoch exists and this front must stand down.
    pub fn quorum_update(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
        k: i64,
    ) -> Result<Termination, ReplicationError> {
        if self.epoch == 0 {
            return Err(ReplicationError::NoLeader);
        }
        let view = infra.groups.view(self.group)?;
        if view.members.is_empty() {
            return Err(ReplicationError::Exhausted);
        }
        let seq = self.seq + 1;
        let needed = view.majority();
        let span = bus::new_span();
        event(Layer::Transparency, EventKind::ReplicaUpdate)
            .span(span)
            .parent_from_context()
            .detail_fmt(format_args!(
                "group={} epoch={} seq={seq} k={k} fanout={}",
                self.group.raw(),
                self.epoch,
                view.members.len()
            ))
            .emit();
        bus::counter_add("transparency.replica_updates", 1);
        let args = Value::record([
            ("epoch", Value::Int(self.epoch as i64)),
            ("seq", Value::Int(seq as i64)),
            ("k", Value::Int(k)),
            ("commit", Value::Int(self.committed as i64)),
        ]);
        let prepared = engine
            .prepare_invocation(self.client, "Apply", &args)
            .map_err(|e| ReplicationError::UpdateFailed {
                replica: view.members[0],
                error: e.to_string(),
            })?;
        bus::push_context(span);
        let mut acks = 0usize;
        let mut fenced_by: Option<u64> = None;
        for replica in &view.members {
            let mut answer = self.call_replica_prepared(engine, *replica, "Apply", &prepared);
            if matches!(&answer, Ok(t) if t.name == rmodp_engineering::behaviour::GAP) {
                // Laggard: state-transfer the committed prefix, retry once.
                if self.sync_replica(engine, *replica) {
                    answer = self.call_replica_prepared(engine, *replica, "Apply", &prepared);
                }
            }
            match answer {
                Ok(t) if t.is_ok() => {
                    acks += 1;
                    event(Layer::Transparency, EventKind::ReplicaVote)
                        .span(span)
                        .detail_fmt(format_args!("replica={} acked seq={seq}", replica.raw()))
                        .emit();
                }
                Ok(t) if t.name == rmodp_engineering::behaviour::FENCED => {
                    fenced_by = Some(Self::ack_field(&t, "epoch") as u64);
                }
                _ => {}
            }
        }
        if let Some(newer) = fenced_by {
            bus::pop_context();
            bus::counter_add("replication.fenced_writes", 1);
            event(Layer::Transparency, EventKind::FencedWrite)
                .span(span)
                .detail_fmt(format_args!(
                    "group={} epoch={} newer={newer} seq={seq}",
                    self.group.raw(),
                    self.epoch
                ))
                .emit();
            return Err(ReplicationError::Fenced {
                epoch: self.epoch,
                newer,
            });
        }
        if acks < needed {
            bus::pop_context();
            bus::counter_add("replication.quorum_losses", 1);
            return Err(ReplicationError::QuorumLost { acks, needed });
        }
        // Committed. Advance the watermark and push it out so reads on
        // any replica observe the new state immediately.
        self.seq = seq;
        self.committed = seq;
        bus::counter_add("replication.quorum_commits", 1);
        event(Layer::Transparency, EventKind::QuorumCommit)
            .span(span)
            .detail_fmt(format_args!(
                "group={} epoch={} seq={seq} acks={acks}",
                self.group.raw(),
                self.epoch
            ))
            .emit();
        let commit_args = Value::record([
            ("epoch", Value::Int(self.epoch as i64)),
            ("commit", Value::Int(seq as i64)),
        ]);
        let mut folded: Option<Termination> = None;
        for replica in &view.members {
            if let Ok(t) = self.call_replica(engine, *replica, "Commit", &commit_args) {
                if t.is_ok() && folded.is_none() {
                    self.value = Self::ack_field(&t, "n");
                    folded = Some(t);
                }
            }
        }
        bus::pop_context();
        folded.ok_or(ReplicationError::QuorumLost { acks: 0, needed })
    }

    /// Serves a linearizable read from the current leader under this
    /// front's epoch. Only **committed** state is ever returned (the
    /// replica state machine keeps staged updates out of `Get`), and a
    /// leader that moved on to a newer epoch fences the read.
    pub fn quorum_read(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
    ) -> Result<Termination, ReplicationError> {
        if self.epoch == 0 {
            return Err(ReplicationError::NoLeader);
        }
        let view = infra.groups.view(self.group)?;
        let leader = view.leader.ok_or(ReplicationError::NoLeader)?;
        let t = self
            .call_replica(engine, leader, "Get", &Value::record::<&str, _>([]))
            .map_err(|e| ReplicationError::UpdateFailed {
                replica: leader,
                error: e.to_string(),
            })?;
        let replica_epoch = Self::ack_field(&t, "epoch") as u64;
        if replica_epoch > self.epoch {
            bus::counter_add("replication.fenced_writes", 1);
            event(Layer::Transparency, EventKind::FencedWrite)
                .in_context()
                .detail_fmt(format_args!(
                    "group={} epoch={} newer={replica_epoch} read",
                    self.group.raw(),
                    self.epoch
                ))
                .emit();
            return Err(ReplicationError::Fenced {
                epoch: self.epoch,
                newer: replica_epoch,
            });
        }
        bus::counter_add("transparency.replica_reads", 1);
        event(Layer::Transparency, EventKind::ReplicaRead)
            .in_context()
            .detail_fmt(format_args!(
                "group={} epoch={} commit={} n={} replica={}",
                self.group.raw(),
                self.epoch,
                Self::ack_field(&t, "commit"),
                Self::ack_field(&t, "n"),
                leader.raw()
            ))
            .emit();
        Ok(t)
    }

    /// Elects a fresh epoch: asks every roster member to adopt
    /// `max(known epochs) + 1`, and — given a majority of acks — makes
    /// the **maximum-applied acker** the leader. Because every replica
    /// refuses `Apply` gaps, each member's staged log is a contiguous
    /// prefix, and any committed sequence number was staged on a
    /// majority; the majority of election acks intersects it, so the
    /// max-applied acker provably holds every committed update. Its
    /// staged prefix is folded (committed through), every other acker is
    /// state-transferred, and the view is installed in the shared
    /// [`GroupManager`] — which re-checks the quorum arithmetic and
    /// emits the `view_change` event the consistency oracle audits.
    ///
    /// Entries that were staged on the new leader but never
    /// majority-acked are committed by the takeover — the documented
    /// at-least-once edge for clients whose `quorum_update` errored
    /// mid-flight (same contract as any consensus system's "retry an
    /// uncertain write" rule).
    ///
    /// [`GroupManager`]: rmodp_functions::group::GroupManager
    pub fn fail_over(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
    ) -> Result<rmodp_functions::group::View, ReplicationError> {
        let view = infra.groups.view(self.group)?;
        if view.members.is_empty() {
            return Err(ReplicationError::Exhausted);
        }
        let epoch = view.epoch.max(self.epoch) + 1;
        let span = bus::new_span();
        event(Layer::Transparency, EventKind::Note)
            .span(span)
            .parent_from_context()
            .detail_fmt(format_args!(
                "election group={} epoch={epoch} roster={}",
                self.group.raw(),
                view.members.len()
            ))
            .emit();
        bus::push_context(span);
        let ballot = Value::record([("epoch", Value::Int(epoch as i64))]);
        let mut acks: Vec<(InterfaceId, i64, i64)> = Vec::new();
        for member in &view.members {
            if let Ok(t) = self.call_replica(engine, *member, "NewEpoch", &ballot) {
                if t.is_ok() {
                    acks.push((
                        *member,
                        Self::ack_field(&t, "applied"),
                        Self::ack_field(&t, "commit"),
                    ));
                }
            }
        }
        let needed = view.majority();
        if acks.len() < needed {
            bus::pop_context();
            return Err(ReplicationError::Group(GroupError::NoQuorum {
                acks: acks.len(),
                needed,
            }));
        }
        // Leader = max applied; ties break to roster order (acks are
        // collected in roster order, and strict `>` keeps the first).
        let (leader, leader_applied, _) = acks
            .iter()
            .copied()
            .fold(None::<(InterfaceId, i64, i64)>, |best, a| match best {
                Some(b) if b.1 >= a.1 => Some(b),
                _ => Some(a),
            })
            .expect("non-empty acks");
        // Fold the leader's whole staged prefix into committed state…
        let fold = self
            .call_replica(
                engine,
                leader,
                "Commit",
                &Value::record([
                    ("epoch", Value::Int(epoch as i64)),
                    ("commit", Value::Int(leader_applied)),
                ]),
            )
            .map_err(|e| ReplicationError::UpdateFailed {
                replica: leader,
                error: e.to_string(),
            })?;
        let value = Self::ack_field(&fold, "n");
        // …and bring every other acker to exactly that state.
        let sync_args = Value::record([
            ("epoch", Value::Int(epoch as i64)),
            ("n", Value::Int(value)),
            ("commit", Value::Int(leader_applied)),
        ]);
        for (member, _, _) in &acks {
            if *member != leader {
                let _ = self.call_replica(engine, *member, "Sync", &sync_args);
            }
        }
        self.epoch = epoch;
        self.seq = leader_applied as u64;
        self.committed = leader_applied as u64;
        self.value = value;
        bus::counter_add("replication.failovers", 1);
        let installed = infra.groups.install_view(
            self.group,
            epoch,
            leader,
            view.members.clone(),
            acks.len(),
            leader_applied as u64,
        )?;
        bus::pop_context();
        Ok(installed)
    }
}

/// Convenience: build `n` quorum-counter replicas (each alone in a cluster
/// on a fresh node, running [`QuorumCounterBehaviour`], its interface
/// published) and a quorum front with epoch 1 elected. Returns the
/// service and the replica interfaces.
///
/// [`QuorumCounterBehaviour`]: rmodp_engineering::behaviour::QuorumCounterBehaviour
pub fn quorum_counters(
    engine: &mut Engine,
    infra: &mut OdpInfra,
    client: NodeId,
    n: usize,
) -> Result<(ReplicatedService, Vec<InterfaceId>), ReplicationError> {
    use rmodp_engineering::behaviour::QuorumCounterBehaviour;
    engine
        .behaviours_mut()
        .register("quorum_counter", QuorumCounterBehaviour::default);
    let fail = |e: EngError| ReplicationError::UpdateFailed {
        replica: InterfaceId::new(0),
        error: e.to_string(),
    };
    let mut replicas = Vec::with_capacity(n);
    for _ in 0..n {
        let node = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).map_err(fail)?;
        let cluster = engine.add_cluster(node, capsule).map_err(fail)?;
        let (_, refs) = engine
            .create_object(
                node,
                capsule,
                cluster,
                "replica",
                "quorum_counter",
                QuorumCounterBehaviour::initial_state(),
                1,
            )
            .map_err(fail)?;
        let _ = infra.publish(engine, refs[0].interface);
        replicas.push(refs[0].interface);
    }
    let service = ReplicatedService::quorum(engine, infra, client, replicas.clone())?;
    Ok((service, replicas))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quorum_world(n: usize) -> (Engine, OdpInfra, ReplicatedService, Vec<InterfaceId>) {
        let mut engine = Engine::new(43);
        let client = engine.add_node(SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        let (service, replicas) = quorum_counters(&mut engine, &mut infra, client, n).unwrap();
        (engine, infra, service, replicas)
    }

    fn crash_replica(e: &mut Engine, replica: InterfaceId) {
        let loc = e.lookup(replica).unwrap().location.node;
        let idx = e.sim_node(loc).unwrap();
        e.sim_mut().topology_mut().crash(idx);
    }

    #[test]
    fn quorum_update_commits_and_reads_committed_state() {
        let (mut e, mut infra, mut svc, _) = quorum_world(3);
        assert_eq!(svc.epoch, 1);
        svc.quorum_update(&mut e, &mut infra, 5).unwrap();
        svc.quorum_update(&mut e, &mut infra, 7).unwrap();
        let t = svc.quorum_read(&mut e, &mut infra).unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(12)));
        assert_eq!(t.results.field("commit"), Some(&Value::Int(2)));
        assert_eq!(svc.committed(), 2);
        assert_eq!(bus::counter("replication.quorum_commits"), 2);
        assert_eq!(bus::counter("replication.fenced_writes"), 0);
    }

    #[test]
    fn quorum_survives_a_minority_crash_and_loses_a_majority() {
        let (mut e, mut infra, mut svc, replicas) = quorum_world(5);
        svc.quorum_update(&mut e, &mut infra, 1).unwrap();
        // Two of five down: still a majority of three.
        crash_replica(&mut e, replicas[3]);
        crash_replica(&mut e, replicas[4]);
        svc.quorum_update(&mut e, &mut infra, 2).unwrap();
        // A third crash breaks the quorum; the update must NOT commit.
        crash_replica(&mut e, replicas[2]);
        assert_eq!(
            svc.quorum_update(&mut e, &mut infra, 4),
            Err(ReplicationError::QuorumLost { acks: 2, needed: 3 })
        );
        assert_eq!(svc.committed(), 2);
    }

    #[test]
    fn stale_front_is_fenced_after_takeover() {
        let (mut e, mut infra, mut old_front, _) = quorum_world(3);
        old_front.quorum_update(&mut e, &mut infra, 10).unwrap();
        // A second front takes over: new epoch elected on a majority.
        let client2 = e.add_node(SyntaxId::Binary);
        let mut new_front =
            ReplicatedService::attach(&mut e, &mut infra, client2, old_front.group()).unwrap();
        assert_eq!(new_front.epoch, 2);
        // The committed prefix survived the takeover.
        let t = new_front.quorum_read(&mut e, &mut infra).unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(10)));
        new_front.quorum_update(&mut e, &mut infra, 3).unwrap();
        // The old front's next write is fenced by the very first replica.
        assert_eq!(
            old_front.quorum_update(&mut e, &mut infra, 99),
            Err(ReplicationError::Fenced { epoch: 1, newer: 2 })
        );
        assert!(bus::counter("replication.fenced_writes") >= 1);
        // Nothing the old front attempted after the takeover is visible.
        let t = new_front.quorum_read(&mut e, &mut infra).unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(13)));
    }

    #[test]
    fn failover_elects_max_applied_and_repairs_laggards() {
        let (mut e, mut infra, mut svc, replicas) = quorum_world(5);
        for k in 1..=4 {
            svc.quorum_update(&mut e, &mut infra, k).unwrap();
        }
        // The leader dies; a new election must find every committed
        // update on the surviving majority.
        let leader = infra.groups.view(svc.group()).unwrap().leader.unwrap();
        crash_replica(&mut e, leader);
        let view = svc.fail_over(&mut e, &mut infra).unwrap();
        assert_eq!(view.epoch, 2);
        assert_ne!(view.leader, Some(leader));
        let t = svc.quorum_read(&mut e, &mut infra).unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(10)));
        // Writes keep flowing at the new epoch.
        svc.quorum_update(&mut e, &mut infra, 5).unwrap();
        let t = svc.quorum_read(&mut e, &mut infra).unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(15)));
        // The dead ex-leader heals and is repaired transparently by the
        // next update's Gap → Sync path.
        let loc = e.lookup(leader).unwrap().location.node;
        let idx = e.sim_node(loc).unwrap();
        e.sim_mut().topology_mut().restart(idx);
        svc.quorum_update(&mut e, &mut infra, 6).unwrap();
        let _ = replicas;
        assert_eq!(svc.committed(), 6);
    }

    #[test]
    fn quorum_update_without_election_is_refused() {
        let (mut e, mut infra, _, replicas) = quorum_world(1);
        // Bypass the quorum constructor: a plain front has no epoch.
        let client = e.add_node(SyntaxId::Binary);
        let mut svc = ReplicatedService::new(&mut e, &mut infra, client, replicas).unwrap();
        assert_eq!(
            svc.quorum_update(&mut e, &mut infra, 1),
            Err(ReplicationError::NoLeader)
        );
        assert_eq!(
            svc.quorum_read(&mut e, &mut infra),
            Err(ReplicationError::NoLeader)
        );
    }

    #[test]
    fn empty_group_is_exhausted() {
        let (mut e, mut infra, mut svc, replicas) = quorum_world(1);
        infra.groups.leave(svc.group(), replicas[0]).unwrap();
        assert_eq!(
            svc.quorum_update(&mut e, &mut infra, 1),
            Err(ReplicationError::Exhausted)
        );
        assert_eq!(
            svc.fail_over(&mut e, &mut infra),
            Err(ReplicationError::Exhausted)
        );
    }
}
