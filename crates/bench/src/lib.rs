//! # rmodp-bench — the deterministic suites and their artifacts
//!
//! The paper (a reference-model tutorial) contains no measurement tables;
//! its five figures are architectural. What a figure claims is a shape —
//! what grows with what — and this crate pins that shape as counts: the
//! seven deterministic suites, the rig builders they share, and the
//! [`artifacts`] table naming the configurations each published
//! `BENCH_*.json` is run at — committed and full — which the `baselines`
//! bin writes and `tests/golden.rs` pins byte-for-byte against
//! `tests/baselines/`. Wall-clock time is measured in `benchmark/`, not
//! here (see `EXPERIMENTS.md` at the workspace root for the index).

pub mod artifacts;
pub mod chaos_suite;
pub mod failover_suite;
pub mod mechanisms;
pub mod oo7_suite;
pub mod population_suite;
pub mod trader_suite;
pub mod workload_suite;

use rmodp_core::codec::SyntaxId;
use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::Engine;

/// A deployed counter reachable from a client node — the standard unit of
/// the invocation measurements.
#[derive(Debug)]
pub struct CounterRig {
    /// The engine.
    pub engine: Engine,
    /// The server node.
    pub server: NodeId,
    /// The client node.
    pub client: NodeId,
    /// The counter's home.
    pub home: (NodeId, CapsuleId, ClusterId),
    /// The counter's interface.
    pub interface: InterfaceId,
}

/// Builds a two-node counter rig. `client_syntax` differing from binary
/// forces real marshalling on every call.
pub fn counter_rig(seed: u64, client_syntax: SyntaxId) -> CounterRig {
    let mut engine = Engine::new(seed);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(client_syntax);
    let capsule = engine.add_capsule(server).expect("fresh node");
    let cluster = engine.add_cluster(server, capsule).expect("fresh capsule");
    let (_, refs) = engine
        .create_object(
            server,
            capsule,
            cluster,
            "counter",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .expect("fresh cluster");
    CounterRig {
        engine,
        server,
        client,
        home: (server, capsule, cluster),
        interface: refs[0].interface,
    }
}

/// Opens a channel on a rig and returns it.
pub fn open(rig: &mut CounterRig, config: ChannelConfig) -> rmodp_core::id::ChannelId {
    rig.engine
        .open_channel(rig.client, rig.interface, config)
        .expect("interface is live")
}

/// The standard `Add {k: 1}` argument record.
pub fn add_one() -> Value {
    Value::record([("k", Value::Int(1))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rig_serves_calls() {
        let mut rig = counter_rig(1, SyntaxId::Text);
        let ch = open(&mut rig, ChannelConfig::default());
        let t = rig.engine.call(ch, "Add", &add_one()).unwrap();
        assert!(t.is_ok());
    }
}
