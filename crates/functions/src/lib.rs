//! # rmodp-functions — the ODP functions (§8)
//!
//! "The ODP functions are a collection of functions expected to be
//! required in ODP systems to support the needs of the computational
//! language (e.g. the trading function) and the engineering language
//! (e.g. the relocator)."
//!
//! This crate provides every function group of §8 except the trader
//! (which has its own crate, mirroring its separate standardisation) and
//! the transaction function (crate `rmodp-transactions`):
//!
//! - [`management`] — coordinated checkpointing over the engineering
//!   engine, whose methods are the §8.1 node / capsule / cluster / object
//!   management functions;
//! - [`checkpoints`] — storing a cluster checkpoint under a key, loading
//!   it back and republishing locations: the part persistence, failure
//!   and coordinated recovery share;
//! - [`events`] — event notification (§8.2);
//! - [`group`] — groups and replication membership with numbered views
//!   (§8.2), plus epoch-numbered elected views installed by majority
//!   acknowledgement;
//! - [`detect`] — heartbeat failure detection with deterministic
//!   virtual-time suspicion, feeding view changes;
//! - [`storage`] — the storage function (§8.3): the [`PersistentStore`]
//!   seam and its in-memory implementation;
//! - [`relation`] — the relationship repository (§8.3);
//! - [`relocator`] — the white-pages repository of interface locations
//!   behind relocation transparency (§8.3.3, §9.2);
//! - [`security`] — authentication, access control and audit, after the
//!   OSI security frameworks (§8.4).

pub mod checkpoints;
pub mod detect;
pub mod events;
pub mod group;
pub mod management;
pub mod relation;
pub mod relocator;
pub mod security;
pub mod storage;

pub use detect::{Detection, FailureDetector};
pub use events::EventNotifier;
pub use group::GroupManager;
pub use relocator::Relocator;
pub use security::{AccessController, Authenticator};
pub use storage::{PersistentStore, StorageFunction};
