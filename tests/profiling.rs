//! Cross-crate profiling properties: the critical-path analyzer's
//! attribution must sum exactly to observed latency on real scenarios,
//! head-based sampling must keep whole invocation trees (so a sampled
//! profile equals its unsampled counterpart) while bounding trace
//! memory, and the folded-stack export must be byte-identical across
//! same-seed reruns.
//!
//! The event bus is thread-local and the test harness runs each test on
//! its own thread, so scenarios here cannot contaminate each other.

use proptest::prelude::*;
use rmodp::computational::signature::InterfaceSignature;
use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp::engineering::engine::Engine;
use rmodp::engineering::nucleus::AdmissionConfig;
use rmodp::netsim::time::SimDuration;
use rmodp::netsim::topology::LinkConfig;
use rmodp::observe::bus::{self, CollectConfig};
use rmodp::observe::{Event, EventKind};
use rmodp::prelude::*;
use rmodp::profile;
use rmodp::trader::Federation;
use rmodp::OdpSystem;

/// A two-node counter rig with optional admission queueing and loss —
/// the knobs that exercise every profiler segment.
fn counter_scenario(seed: u64, calls: u32, queued: bool, loss: bool) -> Vec<Event> {
    let mut engine = Engine::new(seed);
    bus::set_enabled(true);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(SyntaxId::Text);
    let capsule = engine.add_capsule(server).unwrap();
    let cluster = engine.add_cluster(server, capsule).unwrap();
    let (_, refs) = engine
        .create_object(
            server,
            capsule,
            cluster,
            "c",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .unwrap();
    if queued {
        engine
            .nucleus_mut(server)
            .unwrap()
            .set_admission(AdmissionConfig::reject(64, SimDuration::from_millis(1)));
    }
    let mut config = ChannelConfig::default();
    if loss {
        let c = engine.sim_node(client).unwrap();
        let s = engine.sim_node(server).unwrap();
        let lossy = LinkConfig {
            loss: 0.3,
            ..engine.sim().topology().link(c, s)
        };
        let topo = engine.sim_mut().topology_mut();
        topo.set_link(c, s, lossy);
        topo.set_link(s, c, lossy);
        config.retry = Some(RetryPolicy::reliable());
    }
    let channel = engine
        .open_channel(client, refs[0].interface, config)
        .unwrap();
    let add = Value::record([("k", Value::Int(1))]);
    for _ in 0..calls {
        let t = engine.call(channel, "Add", &add).unwrap();
        assert!(t.is_ok());
    }
    bus::snapshot_events()
}

/// The paper's bank branch called through a transparent proxy — the
/// "bank" attribution scenario.
fn bank_scenario(seed: u64, calls: u32) -> Vec<Event> {
    let mut sys = OdpSystem::new(seed);
    bus::set_enabled(true);
    let branch = rmodp::bank::deploy_branch(&mut sys.engine, SyntaxId::Binary).unwrap();
    sys.publish(branch.manager.interface).unwrap();
    let client = sys.engine.add_node(SyntaxId::Text);
    let mut proxy = sys.proxy(
        client,
        branch.manager.interface,
        TransparencySet::none().with(Transparency::Location),
    );
    for i in 0..calls {
        let t = proxy
            .call(
                &mut sys.engine,
                &mut sys.infra,
                "CreateAccount",
                &Value::record([
                    ("c", Value::Int(i64::from(i))),
                    ("opening", Value::Int(100)),
                ]),
            )
            .unwrap();
        assert!(t.is_ok());
    }
    bus::snapshot_events()
}

/// The trader-mediated flow: offers exported, imported through the
/// trader, then invoked — the "trader" attribution scenario.
fn trader_scenario(seed: u64, calls: u32) -> Vec<Event> {
    let mut sys = OdpSystem::new(seed);
    bus::set_enabled(true);
    let branch = rmodp::bank::deploy_branch(&mut sys.engine, SyntaxId::Binary).unwrap();
    rmodp::bank::deployment::register_types(&mut sys.types).unwrap();
    rmodp::bank::deployment::export_to_trader(&mut sys.trader, &branch).unwrap();
    sys.publish(branch.teller.interface).unwrap();
    sys.publish(branch.manager.interface).unwrap();
    let client = sys.engine.add_node(SyntaxId::Text);
    let teller = sys
        .find("BankTeller", None)
        .unwrap()
        .expect("branch exported");
    let mut proxy = sys.proxy(client, teller, TransparencySet::all());
    for i in 0..calls {
        let t = proxy
            .call(
                &mut sys.engine,
                &mut sys.infra,
                "CreateAccount",
                &Value::record([("c", Value::Int(i64::from(i))), ("opening", Value::Int(10))]),
            )
            .unwrap();
        assert!(t.is_ok());
    }
    bus::snapshot_events()
}

/// Attribution is exact: for every profiled invocation, the named
/// segments partition the observed latency with nothing left over.
fn assert_exact(events: &[Event], at_least: usize) -> Vec<profile::InvocationProfile> {
    let profiles = profile::analyze(events);
    assert!(
        profiles.len() >= at_least,
        "expected >= {at_least} profiles, got {}",
        profiles.len()
    );
    for p in &profiles {
        assert_eq!(
            p.segment_sum(),
            p.end_us - p.start_us,
            "segments must sum exactly to observed latency: {p:?}"
        );
        let known: Vec<&str> = p.segments.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            known,
            profile::SEGMENTS.to_vec(),
            "segment vocabulary drifted"
        );
    }
    profiles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact attribution on the counter rig across seeds and the
    /// queueing/loss knobs that produce every segment kind.
    #[test]
    fn attribution_is_exact_on_counter_scenarios(
        seed in 1u64..500,
        queued in any::<bool>(),
        loss in any::<bool>(),
    ) {
        let events = counter_scenario(seed, 6, queued, loss);
        let profiles = assert_exact(&events, 6);
        if queued {
            let waited: u64 = profiles.iter().map(|p| p.segment("queue.wait")).sum();
            prop_assert!(waited > 0, "queued scenario must show queue.wait time");
        }
    }

    /// Exact attribution on the bank branch behind a proxy.
    #[test]
    fn attribution_is_exact_on_bank_scenario(seed in 1u64..500) {
        let events = bank_scenario(seed, 4);
        assert_exact(&events, 4);
    }

    /// Exact attribution on the trader-mediated invocation flow.
    #[test]
    fn attribution_is_exact_on_trader_scenario(seed in 1u64..500) {
        let events = trader_scenario(seed, 4);
        assert_exact(&events, 4);
    }
}

#[test]
fn folded_stacks_are_byte_identical_across_same_seed_reruns() {
    let a = profile::folded_stacks(&profile::analyze(&counter_scenario(77, 10, true, true)));
    let b = profile::folded_stacks(&profile::analyze(&counter_scenario(77, 10, true, true)));
    assert_eq!(a, b, "folded stacks must be deterministic");
    assert!(a.contains("invoke.Add;"), "stacks name the operation: {a}");
    let c = profile::attribution_table(&profile::analyze(&counter_scenario(77, 10, true, true)));
    let d = profile::attribution_table(&profile::analyze(&counter_scenario(77, 10, true, true)));
    assert_eq!(c, d, "attribution table must be deterministic");
}

/// The headline sampling property: at 1/16 sampling with a ring sized
/// to a sixteenth of the full trace, peak trace memory drops by at
/// least 10x — and every invocation the sampler kept profiles exactly
/// as it does in the full trace (head-based sampling keeps whole
/// trees; seq/span numbering is allocated before the keep decision, so
/// the sampled trace is literally a filtered view of the full one).
#[test]
fn sampling_bounds_memory_without_changing_kept_attribution() {
    const SEED: u64 = 4_040;
    const CALLS: u32 = 300;

    let full = counter_scenario(SEED, CALLS, true, false);
    let full_peak_bytes = bus::peak_trace_bytes();
    let full_peak_events = bus::peak_trace_events();
    let full_profiles = profile::analyze(&full);
    assert_eq!(full_profiles.len() as u32, CALLS);

    bus::set_collect(CollectConfig {
        ring_capacity: Some(full_peak_events / 16),
        sample_denom: Some(16),
    });
    let sampled = counter_scenario(SEED, CALLS, true, false);
    let sampled_peak_bytes = bus::peak_trace_bytes();
    let drops = bus::drop_stats();
    bus::set_collect(CollectConfig::default());

    assert!(drops.sampled_out > 0, "1/16 sampling must drop spans");
    assert!(
        sampled_peak_bytes.saturating_mul(10) <= full_peak_bytes,
        "peak trace memory must drop >= 10x: full={full_peak_bytes} sampled={sampled_peak_bytes}"
    );

    // Same seed → same virtual-time schedule → same span numbering, so
    // kept profiles must match their full-trace counterparts exactly.
    let sampled_profiles = profile::analyze(&sampled);
    assert!(
        !sampled_profiles.is_empty(),
        "1/16 over {CALLS} calls keeps some invocations"
    );
    assert!(sampled_profiles.len() < full_profiles.len());
    for p in &sampled_profiles {
        assert!(
            full_profiles.contains(p),
            "sampled profile diverged from its unsampled counterpart: {p:?}"
        );
    }
}

/// Satellite of the bounded-collection work: constructing a fresh
/// `Engine` (which builds a `Sim`, which calls `bus::reset`) clears the
/// drop counters, peak gauges and sampling memory, while the collection
/// *configuration* survives — a run configured for sampling stays
/// configured after the next scenario boots.
#[test]
fn engine_construction_resets_drop_stats_but_keeps_collect_config() {
    bus::set_collect(CollectConfig {
        ring_capacity: Some(4),
        sample_denom: None,
    });
    let events = counter_scenario(9, 3, false, false);
    assert!(events.len() <= 4, "ring caps the retained trace");
    assert!(bus::drop_stats().ring_evicted > 0);
    assert!(bus::peak_trace_events() > 0);

    let _fresh = Engine::new(10); // resets the bus via Sim::new
    assert_eq!(
        bus::drop_stats(),
        bus::DropStats::default(),
        "drop counters reset"
    );
    assert_eq!(bus::peak_trace_events(), 0, "peak gauges reset");
    assert_eq!(bus::event_count(), 0, "trace cleared");
    let events = counter_scenario(9, 3, false, false);
    assert!(
        events.len() <= 4 && bus::drop_stats().ring_evicted > 0,
        "collection config survives reset like `enabled` does"
    );
    bus::set_collect(CollectConfig::default());
}

/// Trader-plan oracle: every `trader_plan` span nests acyclically under
/// the federated import span that spawned it, and the
/// `trader.plan.indexed` / `trader.plan.fallback` counters reconcile
/// exactly with the number of `trader_plan` spans emitted.
#[test]
fn trader_plan_spans_nest_acyclically_and_counters_reconcile() {
    bus::reset();
    bus::set_enabled(true);
    let mut repo = TypeRepository::new();
    repo.register(InterfaceSignature::Operational(
        rmodp::bank::computational::bank_teller(),
    ))
    .unwrap();

    let mut federation = Federation::new();
    for name in ["brisbane", "sydney", "melbourne"] {
        federation.add_trader(name).unwrap();
    }
    federation.link("brisbane", "sydney").unwrap();
    federation.link("sydney", "melbourne").unwrap();
    for (i, name) in ["brisbane", "sydney", "melbourne"].iter().enumerate() {
        let trader = federation.trader_mut(name).unwrap();
        trader.index_property("daily_limit", rmodp::trader::IndexKind::Hash);
        trader
            .export(
                "BankTeller",
                InterfaceId::new(i as u64 + 1),
                Value::record([("daily_limit", Value::Int(500 + i as i64))]),
            )
            .unwrap();
    }
    for hops in 0..3usize {
        // An indexed plan (equality on an indexed property) and a
        // fallback plan (an opaque comparison) per hop count.
        let indexed = ImportRequest::new("BankTeller")
            .constraint("daily_limit == 501")
            .unwrap();
        federation
            .import_federated("brisbane", &indexed, Some(&repo), hops)
            .unwrap();
        let opaque = ImportRequest::new("BankTeller")
            .constraint("daily_limit > 100")
            .unwrap();
        federation
            .import_federated("brisbane", &opaque, Some(&repo), hops)
            .unwrap();
    }

    let events = bus::snapshot_events();
    let plans: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::TraderPlan)
        .collect();
    assert!(!plans.is_empty());

    // Counters reconcile with span counts: every plan span is counted
    // exactly once as indexed or fallback.
    let indexed = bus::counter("trader.plan.indexed");
    let fallback = bus::counter("trader.plan.fallback");
    assert!(indexed > 0, "equality constraints compile to indexed plans");
    assert!(fallback > 0, "opaque comparisons fall back to scans");
    assert_eq!(
        indexed + fallback,
        plans.len() as u64,
        "plan counters must reconcile with emitted trader_plan spans"
    );

    // Acyclic nesting: each plan span's parent chain (learned from the
    // whole stream) terminates without revisiting a span, and a plan
    // spawned inside a federated import hangs off that import's span.
    let mut parent_of = std::collections::BTreeMap::new();
    for e in &events {
        if let (Some(span), Some(parent)) = (e.span, e.parent) {
            parent_of.entry(span).or_insert(parent);
        }
    }
    let fed_spans: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::TraderLookup && e.detail.starts_with("federated start="))
        .filter_map(|e| e.span)
        .collect();
    for plan in &plans {
        let span = plan.span.expect("trader_plan events carry a span");
        let mut seen = std::collections::BTreeSet::from([span]);
        let mut cursor = span;
        while let Some(&up) = parent_of.get(&cursor) {
            assert!(seen.insert(up), "cycle in span ancestry at {up}");
            cursor = up;
        }
        assert!(
            fed_spans.contains(&cursor),
            "a federated plan's ancestry must end at the import span; ended at {cursor}"
        );
    }
}
