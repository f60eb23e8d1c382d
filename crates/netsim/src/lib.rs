//! # rmodp-netsim — deterministic discrete-event network simulator
//!
//! RM-ODP's engineering viewpoint bottoms out in *protocol objects*
//! interacting "via a communications interface; this models networking"
//! (§6.1). The paper's authors had real networks; this workspace substitutes
//! a **deterministic discrete-event simulator** so that every experiment —
//! including failure, partition and relocation scenarios — is exactly
//! reproducible from a seed.
//!
//! The model is a classic actor-style DES:
//!
//! - a [`sim::Sim`] drives the kernel's event queue and virtual clock
//!   (see `rmodp-kernel`); payloads are shared [`Payload`] bytes;
//! - [`sim::Process`]es are attached at [`sim::Addr`]esses
//!   (node + port);
//! - processes react to messages and timers via a [`sim::Ctx`] that
//!   lets them send messages, set timers and draw deterministic randomness;
//! - a [`topology::Topology`] gives every node pair a latency /
//!   jitter / loss configuration and supports partitions and node crashes.
//!
//! # Example
//!
//! ```
//! use rmodp_netsim::sim::{Addr, Ctx, Message, Process, Sim};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
//!         ctx.send(msg.src, msg.payload); // bounce it straight back
//!     }
//! }
//!
//! struct Probe;
//! impl Process for Probe {
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
//! }
//!
//! let mut sim = Sim::new(7);
//! let a = sim.add_node();
//! let b = sim.add_node();
//! sim.attach(Addr::new(a, 0), Echo);
//! sim.attach(Addr::new(b, 0), Probe);
//! sim.send_from(Addr::new(b, 0), Addr::new(a, 0), b"ping".to_vec());
//! sim.run_until_idle();
//! assert_eq!(sim.metrics().delivered, 2); // ping + echo
//! ```

pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

pub use rmodp_kernel::payload::Payload;
pub use sim::{Addr, Ctx, Message, NodeIdx, Process, ShardAction, Sim};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkConfig, Topology};
pub use trace::Metrics;
