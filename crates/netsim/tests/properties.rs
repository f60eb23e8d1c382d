//! Property tests for the simulator: conservation of messages,
//! determinism, and clock monotonicity under arbitrary workloads.

use proptest::prelude::*;

use rmodp_netsim::sim::{Addr, Ctx, Message, Process, Sim};
use rmodp_netsim::time::SimDuration;
use rmodp_netsim::topology::{LinkConfig, Topology};
use rmodp_netsim::trace::Metrics;
use rmodp_observe::{bus, Event, EventKind};

/// Forwards each message to a fixed next hop a bounded number of times.
struct Forwarder {
    next: Addr,
    budget: u32,
}

impl Process for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(self.next, msg.payload);
        }
    }
}

#[derive(Debug, Clone)]
struct Workload {
    nodes: u8,
    messages: Vec<(u8, u8)>,
    latency_us: u64,
    jitter_us: u64,
    loss_permille: u16,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (2u8..6, 1u64..5_000, 0u64..2_000, 0u16..400).prop_flat_map(
        |(nodes, latency_us, jitter_us, loss_permille)| {
            proptest::collection::vec((0..nodes, 0..nodes), 1..40).prop_map(move |messages| {
                Workload {
                    nodes,
                    messages,
                    latency_us,
                    jitter_us,
                    loss_permille,
                }
            })
        },
    )
}

/// Runs the workload and returns the simulator with the observe stream
/// it produced (`Sim::with_topology` starts a fresh one).
fn run(seed: u64, w: &Workload) -> (Sim, Vec<Event>) {
    let link = LinkConfig::with_latency(SimDuration::from_micros(w.latency_us))
        .jitter(SimDuration::from_micros(w.jitter_us))
        .loss(w.loss_permille as f64 / 1_000.0);
    let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
    let mut addrs = Vec::new();
    for _ in 0..w.nodes {
        let n = sim.add_node();
        addrs.push(Addr::new(n, 0));
    }
    for (i, addr) in addrs.iter().enumerate() {
        let next = addrs[(i + 1) % addrs.len()];
        sim.attach(*addr, Forwarder { next, budget: 3 });
    }
    for (src, dst) in &w.messages {
        sim.send_from(
            Addr::EXTERNAL,
            addrs[*dst as usize % addrs.len()],
            vec![*src, *dst],
        );
    }
    sim.run_until_idle();
    (sim, bus::take_events())
}

/// All drops combined.
fn dropped(m: &Metrics) -> u64 {
    m.dropped_loss + m.dropped_partition + m.dropped_crash + m.dropped_unroutable
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn messages_are_conserved(seed in 0u64..1_000, w in arb_workload()) {
        let (sim, _) = run(seed, &w);
        let m = sim.metrics();
        prop_assert_eq!(m.sent, m.delivered + dropped(&m));
    }

    #[test]
    fn same_seed_same_trace(seed in 0u64..1_000, w in arb_workload()) {
        let (_, a) = run(seed, &w);
        let (_, b) = run(seed, &w);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn clock_is_monotone(seed in 0u64..1_000, w in arb_workload()) {
        let (_, trace) = run(seed, &w);
        prop_assert!(!trace.is_empty());
        for pair in trace.windows(2) {
            prop_assert!(pair[0].t_us <= pair[1].t_us);
        }
    }

    #[test]
    fn no_loss_no_partition_delivers_everything(seed in 0u64..1_000, count in 1usize..50) {
        let mut sim = Sim::with_topology(
            seed,
            Topology::full_mesh(LinkConfig::with_latency(SimDuration::from_millis(1))),
        );
        let a = sim.add_node();
        let b = sim.add_node();
        struct Sink;
        impl Process for Sink {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Message) {}
        }
        sim.attach(Addr::new(b, 0), Sink);
        let _ = a;
        for _ in 0..count {
            sim.send_from(Addr::new(a, 0), Addr::new(b, 0), vec![1]);
        }
        sim.run_until_idle();
        prop_assert_eq!(sim.metrics().delivered, count as u64);
        prop_assert_eq!(dropped(&sim.metrics()), 0);
    }

    #[test]
    fn deliveries_never_precede_sends(seed in 0u64..500, w in arb_workload()) {
        // The engine's debug_assert on time travel covers each message;
        // here the stream as a whole shows no Deliver before the first
        // Send.
        let (_, trace) = run(seed, &w);
        let first_deliver = trace.iter().position(|e| e.kind == EventKind::Deliver);
        let first_send = trace.iter().position(|e| e.kind == EventKind::Send);
        prop_assert!(first_send.is_some());
        if let (Some(d), Some(s)) = (first_deliver, first_send) {
            prop_assert!(s <= d);
        }
    }
}
