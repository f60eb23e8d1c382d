//! # rmodp-transparency — distribution transparencies (§9)
//!
//! "The aim of transparencies is to shift the complexities of distributed
//! systems from the applications developers to the supporting
//! infrastructure." This crate configures the engineering machinery
//! (channels, relocator, groups, storage, checkpoints) so that client code
//! written against a plain interface keeps working through heterogeneity,
//! movement, deactivation, failure and replication:
//!
//! | Transparency | Mechanism here |
//! |---|---|
//! | access | marshalling stubs re-encode payloads between native syntaxes ([`selection`]) |
//! | location | clients hold only an [`InterfaceId`](rmodp_core::id::InterfaceId); the proxy resolves physical addresses via the relocator ([`proxy`]) |
//! | relocation | on `NotHere`, the proxy requeries the relocator, reconnects the channel and **replays** the interaction (§9.2) |
//! | migration | cluster migration keeps interface identity; combined with relocation the moved object *and its peers* are unaware ([`proxy::migrate_transparently`]) |
//! | persistence | deactivated clusters are restored on demand from any [`PersistentStore`](rmodp_store::PersistentStore) — in-memory or write-ahead durable ([`persistence`]) |
//! | failure | a [`FailureGuard`](failure::FailureGuard) checkpoints a cluster into any [`PersistentStore`](rmodp_store::PersistentStore) and recovers it on a backup node when its home crashes; without an op log it rolls back to the checkpoint and measures the loss window, with every operation write-ahead logged it replays the tail and loses nothing ([`failure`]) |
//! | replication | a [`ReplicatedService`](replication::ReplicatedService) keeps a group of replicas consistent behind one interface ([`replication`]) |
//! | transaction | behaviour refinements report *actions of interest* to the transaction function; [`transaction::in_transaction`] brackets application code (§9.3) |

pub mod failure;
pub mod persistence;
pub mod proxy;
pub mod replication;
pub mod selection;
pub mod transaction;

pub use proxy::{OdpInfra, ProxyError, TransparentProxy};
pub use selection::{Transparency, TransparencySet};
