//! Federation-scale sharding: routing offers and imports across many
//! traders by service type.
//!
//! A single trader — even an indexed one — is one address space. At the
//! ROADMAP's "millions of users" scale the offer repository must spread
//! across many traders, and the interesting question becomes *routing*:
//! which traders can possibly hold a conformant offer?
//!
//! [`ShardedFederation`] answers it with a deterministic hash partition:
//! every export routes to `fnv1a(service_type) % shards`, so all offers
//! of one service type live on exactly one shard. Imports then route:
//!
//! - an **exact-type** import (or one with no type repository) goes to
//!   the single owning shard;
//! - a **subtype** import computes the conformant type set from the
//!   repository's subtype lattice and queries only the shards owning
//!   those types — usually a small subset of the federation;
//! - a **broadcast** ([`ShardedFederation::import_all`]) walks every
//!   shard through the underlying [`Federation`]'s links. No import is
//!   routed there: it is the unrouted reference that the routed import is
//!   tested against.
//!
//! Results from multiple shards are deduplicated and preference-ordered
//! with the same `(score, holder, offer id)` tie-break as
//! [`Federation::import_federated`], so sharding is invisible in the
//! result — only in the work done.

use std::collections::BTreeSet;

use rmodp_core::id::{InterfaceId, OfferId};
use rmodp_core::value::Value;
use rmodp_observe::hash::fnv1a;
use rmodp_typerepo::TypeRepository;

use crate::federation::{Federation, FederationError};
use crate::store::IndexKind;
use crate::trader::{first_per_holder, keep_best, ImportRequest, Match, Trader, TraderError};

/// Routing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Offers routed to a shard by export.
    pub exports: u64,
    /// Imports answered by querying a bounded set of owning shards.
    pub routed_imports: u64,
    /// Shard queries issued by routed imports (≥ `routed_imports`).
    pub shard_queries: u64,
    /// Imports that had to broadcast across the whole federation.
    pub broadcast_imports: u64,
}

/// A federation of `n` traders with hash-partitioned offer placement
/// and type-directed import routing.
#[derive(Debug)]
pub struct ShardedFederation {
    federation: Federation,
    names: Vec<String>,
    stats: ShardStats,
}

impl ShardedFederation {
    /// Creates `shards` traders named `{prefix}-0 … {prefix}-{n-1}`,
    /// ring-linked (each shard links to the next) so broadcasts can walk
    /// the whole federation through ordinary federation links.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(prefix: &str, shards: usize) -> Self {
        assert!(shards > 0, "a sharded federation needs at least one shard");
        let mut federation = Federation::new();
        let names: Vec<String> = (0..shards).map(|i| format!("{prefix}-{i}")).collect();
        for name in &names {
            federation
                .add_trader(name.clone())
                .expect("fresh shard names are unique");
        }
        for i in 0..shards {
            federation
                .link(&names[i], &names[(i + 1) % shards])
                .expect("shards exist");
        }
        Self {
            federation,
            names,
            stats: ShardStats::default(),
        }
    }

    /// Routing counters.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// The underlying federation (e.g. for extra links or direct access).
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The shard that owns a service type.
    fn shard_of(&self, service_type: &str) -> &str {
        let i = (fnv1a(service_type.as_bytes()) % self.names.len() as u64) as usize;
        &self.names[i]
    }

    /// One shard by index (ascending name order).
    pub fn shard(&self, i: usize) -> Option<&Trader> {
        self.federation.trader(&self.names[i])
    }

    /// Declares a secondary index on every shard (indexes are a
    /// federation-wide schema decision, not a per-shard one).
    pub fn index_property(&mut self, property: &str, kind: IndexKind) {
        for name in &self.names {
            self.federation
                .trader_mut(name)
                .expect("shards exist")
                .index_property(property, kind);
        }
    }

    /// Exports an offer, routed to the owning shard. Returns the shard
    /// name with the offer id.
    ///
    /// # Errors
    ///
    /// As [`Trader::export`].
    pub fn export(
        &mut self,
        service_type: impl AsRef<str>,
        interface: InterfaceId,
        properties: Value,
    ) -> Result<(String, OfferId), TraderError> {
        let service_type = service_type.as_ref();
        let shard = self.shard_of(service_type).to_owned();
        let id = self
            .federation
            .trader_mut(&shard)
            .expect("shards exist")
            .export(service_type, interface, properties)?;
        self.stats.exports += 1;
        Ok((shard, id))
    }

    /// Serves an import by routing to the shards that can hold
    /// conformant offers: the requested type's shard, plus — when
    /// subtype substitution is on and a repository is given — the shards
    /// owning each registered subtype. Results are deduplicated by
    /// `(holder, offer id)` and preference-ordered across shards.
    pub fn import(&mut self, request: &ImportRequest, repo: Option<&TypeRepository>) -> Vec<Match> {
        let mut shards: BTreeSet<String> = BTreeSet::new();
        shards.insert(self.shard_of(&request.service_type).to_owned());
        if request.allow_subtypes {
            if let Some(repo) = repo {
                for sub in repo.subtypes_of(&request.service_type) {
                    shards.insert(self.shard_of(sub).to_owned());
                }
            }
        }
        self.stats.routed_imports += 1;
        self.stats.shard_queries += shards.len() as u64;
        rmodp_observe::bus::counter_add("trader.shard.routed", 1);
        rmodp_observe::bus::counter_add("trader.shard.queries", shards.len() as u64);
        // Shards are visited in name order, so `FirstFound` comes out in
        // `(holder, offer id)` order without a sort.
        let mut found = Vec::new();
        for shard in &shards {
            let trader = self.federation.trader_mut(shard).expect("shards exist");
            found.extend(trader.import(request, repo));
        }
        let mut matches = first_per_holder(&found);
        keep_best(
            &mut matches,
            &request.preference,
            true,
            request.max_matches,
            |m| (m.score, &m.offer),
        );
        matches
    }

    /// Broadcasts an import to every shard by walking the federation's
    /// ring links: the unrouted reference a routed [`import`](Self::import)
    /// must agree with.
    ///
    /// # Errors
    ///
    /// Never fails for a non-empty federation (the start shard exists).
    pub fn import_all(
        &mut self,
        request: &ImportRequest,
        repo: Option<&TypeRepository>,
    ) -> Result<Vec<Match>, FederationError> {
        self.stats.broadcast_imports += 1;
        rmodp_observe::bus::counter_add("trader.shard.broadcast", 1);
        let start = self.names[0].clone();
        self.federation
            .import_federated(&start, request, repo, self.names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_computational::signature::{InterfaceSignature, OperationalSignature};
    use rmodp_core::dtype::DataType;

    fn populated(shards: usize) -> ShardedFederation {
        let mut f = ShardedFederation::new("shard", shards);
        for i in 1..=20u64 {
            let ty = if i % 2 == 0 { "Printer" } else { "Scanner" };
            f.export(
                ty,
                InterfaceId::new(i),
                Value::record([("n", Value::Int(i as i64))]),
            )
            .unwrap();
        }
        f
    }

    #[test]
    fn exports_route_by_type() {
        let f = populated(4);
        let printer_shard = f.shard_of("Printer").to_owned();
        // Every printer offer lives on the owning shard, nowhere else.
        let held: usize = (0..f.names.len())
            .map(|i| {
                let t = f.shard(i).unwrap();
                let n = t.store().type_postings("Printer").map_or(0, |s| s.len());
                if t.name() != printer_shard {
                    assert_eq!(n, 0);
                }
                n
            })
            .sum();
        assert_eq!(held, 10);
    }

    #[test]
    fn exact_imports_query_one_shard() {
        let mut f = populated(8);
        let matches = f.import(&ImportRequest::new("Printer").exact_type(), None);
        assert_eq!(matches.len(), 10);
        assert_eq!(f.stats().shard_queries, 1);
    }

    #[test]
    fn subtype_imports_query_owning_shards_only() {
        let mut repo = TypeRepository::new();
        let teller =
            OperationalSignature::new("BankTeller").announcement("Deposit", [("d", DataType::Int)]);
        let manager = OperationalSignature::new("BankManager")
            .announcement("Deposit", [("d", DataType::Int)])
            .announcement("CreateAccount", [("c", DataType::Int)]);
        repo.register(InterfaceSignature::Operational(teller))
            .unwrap();
        repo.register(InterfaceSignature::Operational(manager))
            .unwrap();
        let mut f = ShardedFederation::new("bank", 16);
        f.export(
            "BankManager",
            InterfaceId::new(1),
            Value::record::<&str, _>([]),
        )
        .unwrap();
        f.export(
            "BankTeller",
            InterfaceId::new(2),
            Value::record::<&str, _>([]),
        )
        .unwrap();
        // Subtype substitution finds the manager on its own shard.
        let matches = f.import(&ImportRequest::new("BankTeller"), Some(&repo));
        assert_eq!(matches.len(), 2);
        // At most two shards queried (teller's + manager's), not 16.
        assert!(f.stats().shard_queries <= 2);
    }

    #[test]
    fn routed_and_broadcast_agree() {
        let mut f = populated(4);
        let req = ImportRequest::new("Printer").prefer_max("n").unwrap();
        let routed = f.import(&req, None);
        let broadcast = f.import_all(&req, None).unwrap();
        assert_eq!(routed, broadcast);
        assert_eq!(routed[0].offer.interface, InterfaceId::new(20));
        assert_eq!(f.stats().routed_imports, 1);
        assert_eq!(f.stats().broadcast_imports, 1);
    }

    #[test]
    fn placement_is_deterministic() {
        let a = populated(4);
        let b = populated(4);
        for ty in ["Printer", "Scanner"] {
            assert_eq!(a.shard_of(ty), b.shard_of(ty));
        }
    }
}
