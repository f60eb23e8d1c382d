//! # rmodp-trader — the trading function (§8.3.2)
//!
//! "The ODP Trader provides a *dating service for objects*; its purpose is
//! to support dynamic binding by allowing services to be discovered at
//! run-time. Servers advertise their services through a trader; the
//! service advertisement specifies the interface type and service
//! attributes. Servers manipulate their service advertisements by using
//! the **export** operations… Clients choose services by specifying the
//! required type and attributes in **import** operations."
//!
//! This crate implements:
//!
//! - [`offer`] — service offers with typed properties;
//! - [`trader`] — export / withdraw / import with a constraint language
//!   (the shared `rmodp-core` expression language), preference ordering,
//!   and type-safe matching through the type repository's subtype
//!   lattice;
//! - [`store`] — the indexed offer repository: a service-type index plus
//!   declared per-property secondary indexes (hash for equality, B-tree
//!   for ranges), all with deterministic iteration order. Treating the
//!   repository as a first-class engineering-viewpoint store (rather
//!   than a flat list the computational viewpoint scans) is what lets
//!   trading scale;
//! - [`plan`] — the constraint query planner: compiles an import's
//!   constraint into index lookups → intersection → residual filter,
//!   chooses indexes by exact selectivity, falls back transparently to a
//!   type-bucket scan, and renders an explainable plan
//!   ([`plan::QueryPlan`]'s `Display`). Plans are traced as
//!   `trader_plan` spans through `rmodp-observe`;
//! - [`federation`] — linked traders: imports flow across trader links
//!   with bounded hops, mirroring the interworking the separate trader
//!   standard (the paper's reference \[5\]) defines;
//! - [`shard`] — federation-scale routing: offers hash-partitioned
//!   across many traders by service type, imports routed to the shards
//!   that can hold conformant offers instead of broadcast everywhere.
//!
//! Every import is answered identically by two engines: the planned,
//! index-backed [`trader::Trader::import`] and the linear reference
//! scan [`trader::Trader::import_scan`]. Property tests
//! (`tests/plan_equivalence.rs`) hold them equal — members *and*
//! ordering — over randomized populations, constraints, and index
//! declarations; the `BENCH_trader.json` suite measures the gap between
//! them, at a million offers with `baselines --full`.
//!
//! # Example
//!
//! ```
//! use rmodp_trader::prelude::*;
//! use rmodp_core::id::InterfaceId;
//! use rmodp_core::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut trader = Trader::new("brisbane");
//! trader.export(
//!     "BankTeller",
//!     InterfaceId::new(7),
//!     Value::record([("latency_ms", Value::Int(12)), ("region", Value::text("bne"))]),
//! )?;
//! let matches = trader.import(
//!     &ImportRequest::new("BankTeller")
//!         .constraint("latency_ms <= 20 and region == \"bne\"")?,
//!     None,
//! );
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].offer.interface, InterfaceId::new(7));
//! # Ok(())
//! # }
//! ```

pub mod federation;
pub mod offer;
pub mod plan;
pub mod shard;
pub mod store;
pub mod trader;

/// Commonly used items.
pub mod prelude {
    pub use crate::federation::Federation;
    pub use crate::offer::ServiceOffer;
    pub use crate::plan::QueryPlan;
    pub use crate::shard::ShardedFederation;
    pub use crate::store::{IndexKind, OfferStore};
    pub use crate::trader::{ImportRequest, Match, Preference, Trader, TraderError};
}

pub use prelude::*;
