//! # rmodp-engineering — the engineering viewpoint (§6)
//!
//! The engineering language describes the distributed-systems
//! infrastructure: it "is not concerned with the semantics of the ODP
//! application, except to determine its requirements for distribution and
//! distribution transparency".
//!
//! - [`structure`] — node / capsule / cluster / basic engineering object
//!   (Figure 5), checkpoints, structuring rules and policies;
//! - [`channel`] — channels composed of stubs, binders and protocol
//!   objects (Figure 4): marshalling stubs (access transparency), audit
//!   stubs, sequence binders (capture-and-replay protection);
//! - [`envelope`] — the wire format carried by protocol objects;
//! - [`wire`] — the invocation and termination records an envelope's
//!   payload holds: the one encoder and decoder of each;
//! - [`behaviour`] — executable behaviour of basic engineering objects
//!   and the registry used by reactivation/migration;
//! - [`nucleus`] — the per-node kernel run as a simulator process;
//! - [`engine`] — the driver-facing runtime: create nodes/capsules/
//!   clusters/objects, open channels, invoke operations, checkpoint /
//!   deactivate / reactivate / migrate clusters.
//!
//! # Example: a remote interrogation through a real channel
//!
//! ```
//! use rmodp_engineering::prelude::*;
//! use rmodp_core::codec::SyntaxId;
//! use rmodp_core::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new(42);
//! engine.behaviours_mut().register("counter", CounterBehaviour::default);
//!
//! let server = engine.add_node(SyntaxId::Binary);
//! let client = engine.add_node(SyntaxId::Text); // heterogeneous!
//! let capsule = engine.add_capsule(server)?;
//! let cluster = engine.add_cluster(server, capsule)?;
//! let (_obj, refs) = engine.create_object(
//!     server, capsule, cluster, "counter", "counter",
//!     CounterBehaviour::initial_state(), 1,
//! )?;
//!
//! let channel = engine.open_channel(client, refs[0].interface, ChannelConfig::default())?;
//! let t = engine.call(channel, "Add", &Value::record([("k", Value::Int(5))]))?;
//! assert_eq!(t.results.field("n"), Some(&Value::Int(5)));
//! # Ok(())
//! # }
//! ```

pub mod behaviour;
pub mod channel;
pub mod engine;
pub mod envelope;
pub mod nucleus;
pub mod population;
pub mod structure;
pub mod wire;

/// Commonly used items.
pub mod prelude {
    pub use crate::behaviour::{
        BehaviourRegistry, CounterBehaviour, EchoBehaviour, ServerBehaviour,
    };
    pub use crate::channel::{BreakerConfig, BreakerPhase, ChannelConfig, RetryPolicy};
    pub use crate::engine::{CallError, EngError, Engine};
    pub use crate::nucleus::{AdmissionConfig, AdmissionPolicy};
    pub use crate::structure::{ClusterCheckpoint, InterfaceRef, Location, StructurePolicy};
}

pub use engine::Engine;
