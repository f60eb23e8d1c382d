//! Location and relocation transparency: the transparent proxy (§9.2).
//!
//! "Relocation transparency can be achieved by configuring the channel
//! with binders, which inform the relocator of the location of the
//! interface… obtain from the relocator the location(s) of the other
//! interface(s)… Binders will typically cache location information. If
//! the location of an interface changes, the use of the old location will
//! cause an error. With relocation transparency, the binder will
//! automatically obtain the new location from the relocator, reconnect
//! the channel, and replay the interaction."
//!
//! [`TransparentProxy`] is exactly that binder behaviour exposed as a
//! client-side object: the caller supplies only an interface identity and
//! operation; stale locations are detected (`NotHere`), requeried,
//! reconnected and replayed — at most `MAX_REPLAYS` times a call.

use std::fmt;

use rmodp_computational::signature::Termination;
use rmodp_core::codec::SyntaxId;
use rmodp_core::id::{CapsuleId, ChannelId, ClusterId, InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::engine::{CallError, EngError, Engine};
use rmodp_functions::checkpoints;
use rmodp_functions::events::EventNotifier;
use rmodp_functions::group::GroupManager;
use rmodp_functions::relocator::Relocator;
use rmodp_functions::storage::StorageFunction;

use crate::persistence::{PersistenceError, PersistenceManager};
use crate::selection::{Transparency, TransparencySet};

/// The infrastructure objects the transparencies lean on — the paper's
/// "supporting objects" outside the channel (Figure 4).
#[derive(Debug, Default)]
pub struct OdpInfra {
    /// The white-pages location repository (§8.3.3).
    pub relocator: Relocator,
    /// The storage function (persistent checkpoints).
    pub storage: StorageFunction,
    /// Event notification.
    pub events: EventNotifier,
    /// Group/replication membership.
    pub groups: GroupManager,
    /// Persistence bookkeeping.
    pub persistence: PersistenceManager,
}

impl OdpInfra {
    /// Creates empty infrastructure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes an interface's authoritative location from the engine
    /// into the relocator (what binders do when a binding is set up).
    ///
    /// # Errors
    ///
    /// Unknown interface.
    pub fn publish(&mut self, engine: &Engine, interface: InterfaceId) -> Result<(), EngError> {
        checkpoints::republish(engine, &mut self.relocator, &[interface])
    }
}

/// A proxy failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyError {
    /// The underlying call failed beyond what the selected transparencies
    /// can mask.
    Call(CallError),
    /// The relocator has no location for the target (and persistence
    /// transparency could not restore it).
    Unresolvable { interface: InterfaceId },
    /// Replays were exhausted without success.
    ReplaysExhausted { attempts: u32 },
    /// Persistence restoration failed.
    Persistence(String),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Call(e) => write!(f, "{e}"),
            ProxyError::Unresolvable { interface } => {
                write!(f, "no location known for {interface}")
            }
            ProxyError::ReplaysExhausted { attempts } => {
                write!(f, "gave up after {attempts} replay attempt(s)")
            }
            ProxyError::Persistence(d) => write!(f, "persistence failure: {d}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<CallError> for ProxyError {
    fn from(e: CallError) -> Self {
        ProxyError::Call(e)
    }
}

impl From<PersistenceError> for ProxyError {
    fn from(e: PersistenceError) -> Self {
        ProxyError::Persistence(e.to_string())
    }
}

/// Counters describing what the proxy masked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Successful invocations.
    pub calls: u64,
    /// Stale-location events masked by requery + replay.
    pub relocations_masked: u64,
    /// Deactivations masked by on-demand restore.
    pub restorations: u64,
}

/// A client-side transparent binding to one interface.
#[derive(Debug)]
pub struct TransparentProxy {
    client: NodeId,
    target: InterfaceId,
    selection: TransparencySet,
    channel: Option<ChannelId>,
    stats: ProxyStats,
}

/// How many times one call is reconnected and replayed before the proxy
/// gives up with [`ProxyError::ReplaysExhausted`].
const MAX_REPLAYS: u32 = 4;

impl TransparentProxy {
    /// Creates a proxy from a client node to a target interface with the
    /// selected transparencies.
    pub fn new(client: NodeId, target: InterfaceId, selection: TransparencySet) -> Self {
        Self {
            client,
            target,
            selection,
            channel: None,
            stats: ProxyStats::default(),
        }
    }

    /// What the proxy has masked so far.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    fn ensure_channel(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
    ) -> Result<ChannelId, ProxyError> {
        if let Some(ch) = self.channel {
            return Ok(ch);
        }
        // Location transparency: resolve through the relocator, not a
        // physical address held by the application.
        if infra.relocator.lookup(self.target).is_none() {
            self.try_restore(engine, infra)?;
        }
        let config = self.selection.channel_config(SyntaxId::Binary);
        let ch = engine
            .open_channel(self.client, self.target, config)
            .map_err(|e| match e {
                EngError::UnknownInterface { interface } => ProxyError::Unresolvable { interface },
                other => ProxyError::Call(CallError::Eng(other)),
            })?;
        self.channel = Some(ch);
        Ok(ch)
    }

    fn try_restore(&mut self, engine: &mut Engine, infra: &mut OdpInfra) -> Result<(), ProxyError> {
        if !self.selection.has(Transparency::Persistence) {
            return Err(ProxyError::Unresolvable {
                interface: self.target,
            });
        }
        let label = infra
            .persistence
            .label_for(self.target)
            .map(str::to_owned)
            .ok_or(ProxyError::Unresolvable {
                interface: self.target,
            })?;
        infra.persistence.restore(engine, &infra.storage, &label)?;
        infra.publish(engine, self.target).map_err(CallError::Eng)?;
        self.stats.restorations += 1;
        Ok(())
    }

    /// Invokes an operation, masking whatever the selection covers.
    ///
    /// # Errors
    ///
    /// A [`ProxyError`] when the failure exceeds the selected
    /// transparencies.
    pub fn call(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
        op: &str,
        args: &Value,
    ) -> Result<Termination, ProxyError> {
        let mut attempts = 0u32;
        loop {
            let ch = self.ensure_channel(engine, infra)?;
            match engine.call(ch, op, args) {
                Ok(t) => {
                    self.stats.calls += 1;
                    return Ok(t);
                }
                // A crashed old home yields Timeout rather than NotHere
                // (or CircuitOpen once the channel's breaker has tripped);
                // when the relocator knows a fresher location the proxy
                // fails over exactly as for an explicit stale report.
                Err(CallError::Timeout { .. } | CallError::CircuitOpen { .. })
                    if (self.selection.has(Transparency::Relocation)
                        || self.selection.has(Transparency::Migration)
                        || self.selection.has(Transparency::Failure))
                        && infra
                            .relocator
                            .lookup(self.target)
                            .zip(engine.channel_believes(ch))
                            .is_some_and(|(fresh, believed)| fresh.epoch > believed.epoch) =>
                {
                    attempts += 1;
                    if attempts > MAX_REPLAYS {
                        return Err(ProxyError::ReplaysExhausted { attempts });
                    }
                    let fresh = infra.relocator.lookup(self.target).expect("peeked above");
                    engine.redirect_channel(ch, fresh).map_err(CallError::Eng)?;
                    self.stats.relocations_masked += 1;
                    continue;
                }
                Err(CallError::NotHere { .. })
                    if self.selection.has(Transparency::Relocation)
                        || self.selection.has(Transparency::Migration) =>
                {
                    attempts += 1;
                    if attempts > MAX_REPLAYS {
                        return Err(ProxyError::ReplaysExhausted { attempts });
                    }
                    // §9.2: obtain the new location, reconnect, replay.
                    match infra.relocator.lookup(self.target) {
                        Some(fresh)
                            if engine
                                .channel_believes(ch)
                                .is_some_and(|b| b.epoch < fresh.epoch) =>
                        {
                            engine.redirect_channel(ch, fresh).map_err(CallError::Eng)?;
                            self.stats.relocations_masked += 1;
                            continue;
                        }
                        _ => {
                            // The relocator knows nothing newer: maybe the
                            // cluster was deactivated — persistence
                            // transparency restores it.
                            self.try_restore(engine, infra)?;
                            if let Some(fresh) = infra.relocator.lookup(self.target) {
                                engine.redirect_channel(ch, fresh).map_err(CallError::Eng)?;
                                continue;
                            }
                            return Err(ProxyError::Unresolvable {
                                interface: self.target,
                            });
                        }
                    }
                }
                Err(other) => return Err(other.into()),
            }
        }
    }
}

/// Migrates a cluster *transparently*: performs the migration and
/// publishes the new locations to the relocator, so proxies mask the move
/// (migration transparency for peers; the object itself never sees
/// location anyway).
///
/// # Errors
///
/// Engineering failures from the migration itself.
pub fn migrate_transparently(
    engine: &mut Engine,
    infra: &mut OdpInfra,
    from: (NodeId, CapsuleId, ClusterId),
    to: (NodeId, CapsuleId),
    interfaces: &[InterfaceId],
) -> Result<ClusterId, EngError> {
    let new_cluster = engine.migrate_cluster(from.0, from.1, from.2, to.0, to.1)?;
    checkpoints::republish(engine, &mut infra.relocator, interfaces)?;
    infra.events.emit(
        "migrations",
        Value::record([
            ("cluster", Value::Int(from.2.raw() as i64)),
            ("to_node", Value::Int(to.0.raw() as i64)),
        ]),
    );
    Ok(new_cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_engineering::behaviour::CounterBehaviour;

    struct World {
        engine: Engine,
        infra: OdpInfra,
        home: (NodeId, CapsuleId, ClusterId),
        client: NodeId,
        interface: InterfaceId,
    }

    fn world() -> World {
        let mut engine = Engine::new(21);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Text);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                node,
                capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        let mut infra = OdpInfra::new();
        infra.publish(&engine, refs[0].interface).unwrap();
        World {
            engine,
            infra,
            home: (node, capsule, cluster),
            client,
            interface: refs[0].interface,
        }
    }

    fn add(k: i64) -> Value {
        Value::record([("k", Value::Int(k))])
    }

    #[test]
    fn plain_calls_work_through_proxy() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Location),
        );
        let t = proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(5))
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(5)));
        assert_eq!(proxy.stats().calls, 1);
    }

    #[test]
    fn relocation_is_masked_by_requery_and_replay() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(7))
            .unwrap();

        // Move the cluster to a new node; the relocator is informed.
        let new_node = w.engine.add_node(SyntaxId::Binary);
        let new_capsule = w.engine.add_capsule(new_node).unwrap();
        migrate_transparently(
            &mut w.engine,
            &mut w.infra,
            w.home,
            (new_node, new_capsule),
            &[w.interface],
        )
        .unwrap();

        // The client keeps calling as if nothing happened.
        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(7)));
        assert_eq!(proxy.stats().relocations_masked, 1);
    }

    #[test]
    fn without_relocation_transparency_the_move_is_visible() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Location),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(1))
            .unwrap();
        let new_node = w.engine.add_node(SyntaxId::Binary);
        let new_capsule = w.engine.add_capsule(new_node).unwrap();
        migrate_transparently(
            &mut w.engine,
            &mut w.infra,
            w.home,
            (new_node, new_capsule),
            &[w.interface],
        )
        .unwrap();
        let err = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap_err();
        assert!(matches!(err, ProxyError::Call(CallError::NotHere { .. })));
    }

    #[test]
    fn persistence_restores_on_demand() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none()
                .with(Transparency::Relocation)
                .with(Transparency::Persistence),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(13))
            .unwrap();

        // Deactivate to storage; the relocator forgets the location.
        let (node, capsule, cluster) = w.home;
        let mut pm = std::mem::take(&mut w.infra.persistence);
        pm.deactivate_to_storage(
            &mut w.engine,
            &mut w.infra.storage,
            "c1",
            node,
            capsule,
            cluster,
        )
        .unwrap();
        w.infra.persistence = pm;
        w.infra.relocator.deactivate(w.interface);

        // The next call transparently restores and succeeds.
        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(13)));
        assert_eq!(proxy.stats().restorations, 1);
    }

    #[test]
    fn unresolvable_without_persistence() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(1))
            .unwrap();
        let (node, capsule, cluster) = w.home;
        w.engine.deactivate_cluster(node, capsule, cluster).unwrap();
        w.infra.relocator.deactivate(w.interface);
        let err = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap_err();
        assert!(matches!(err, ProxyError::Unresolvable { .. }));
    }

    #[test]
    fn repeated_migrations_are_masked_each_time() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Migration),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(1))
            .unwrap();
        let mut home = w.home;
        for i in 0..3 {
            let node = w.engine.add_node(if i % 2 == 0 {
                SyntaxId::Text
            } else {
                SyntaxId::Binary
            });
            let capsule = w.engine.add_capsule(node).unwrap();
            let new_cluster = migrate_transparently(
                &mut w.engine,
                &mut w.infra,
                home,
                (node, capsule),
                &[w.interface],
            )
            .unwrap();
            home = (node, capsule, new_cluster);
            let t = proxy
                .call(&mut w.engine, &mut w.infra, "Add", &add(1))
                .unwrap();
            assert!(t.is_ok());
        }
        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(4)));
        assert_eq!(proxy.stats().relocations_masked, 3);
        // Migration history was announced on the event channel.
        assert_eq!(w.infra.events.history("migrations").len(), 3);
    }
}
