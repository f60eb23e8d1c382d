//! `rmodp-kernel` — the deterministic scheduling kernel.
//!
//! RM-ODP's engineering language places a single *nucleus* under every
//! node: the component that owns scheduling, timing, and communication
//! for everything above it. This crate is that nucleus for the whole
//! workspace:
//!
//! * [`time`] — exact microsecond virtual time ([`SimTime`],
//!   [`SimDuration`]);
//! * [`queue`] — the one totally ordered event queue, keyed by
//!   `(SimTime, seq)` with a stable FIFO tie-break, whose clock feeds
//!   the observe bus. It is the one schedule: the network simulator
//!   runs on it, a fault plan's actions are entries of it, and the
//!   workload loops step the simulator over it themselves, so no
//!   scheduler sits on top;
//! * [`rng`] — seeded randomness handles ([`KernelRng`]);
//! * [`payload`] — shared immutable byte buffers ([`Payload`]) that make
//!   the invocation hot path allocation-light (clone = share, slice =
//!   view, and deep copies are metered so benchmarks can assert there
//!   are none);
//! * [`hash`] — the workspace's one FNV-1a (defined in `rmodp-observe`,
//!   the crate below this one, and re-exported here);
//! * [`shard`] — partitioned execution: N disjoint shards, each with its
//!   own queue/clock/RNG stream, synchronized by conservative lookahead
//!   and a deterministic cross-shard merge ([`ShardedKernel`]), over a
//!   static node-to-shard assignment ([`PartitionMap`]).

pub mod payload;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;

pub use rmodp_observe::hash;

pub use payload::{Payload, PAYLOAD_ALLOCS, PAYLOAD_COPIES};
pub use queue::EventQueue;
pub use rng::KernelRng;
pub use shard::{CrossShardEvent, PartitionMap, ShardWorld, ShardedKernel, SyncStats};
pub use time::{SimDuration, SimTime};
