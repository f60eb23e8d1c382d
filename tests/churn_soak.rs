//! Soak test: a larger deployment (several branches, several clients)
//! under continuous churn — migrations, crashes, recoveries — driven by a
//! seeded schedule. Asserts liveness (the system keeps answering), safety
//! (balances never violate the information invariants) and determinism.
//! A second segment soaks a branch under a bursty open-loop workload with
//! a bounded admission queue and asserts the causal oracle stays clean
//! while the SLO report replays byte-identically.

use rmodp::bank;
use rmodp::netsim::time::SimDuration;
use rmodp::observe::{bus, oracle};
use rmodp::prelude::*;
use rmodp::transparency::proxy::migrate_transparently;
use rmodp::OdpSystem;

struct Churn {
    sys: OdpSystem,
    branches: Vec<bank::BankDeployment>,
    proxies: Vec<TransparentProxy>,
    accounts: Vec<i64>,
    /// (branch index, live home) — updated as clusters migrate.
    homes: Vec<(NodeId, CapsuleId, ClusterId)>,
}

fn build(seed: u64, branches: usize) -> Churn {
    let mut sys = OdpSystem::new(seed);
    let mut deployments = Vec::new();
    let mut proxies = Vec::new();
    let mut accounts = Vec::new();
    let mut homes = Vec::new();
    let client = sys.engine.add_node(SyntaxId::Text);
    for i in 0..branches {
        let dep = bank::deploy_branch(
            &mut sys.engine,
            if i % 2 == 0 {
                SyntaxId::Binary
            } else {
                SyntaxId::Text
            },
        )
        .unwrap();
        sys.publish(dep.teller.interface).unwrap();
        sys.publish(dep.manager.interface).unwrap();
        let mut proxy = sys.proxy(client, dep.manager.interface, TransparencySet::all());
        let t = proxy
            .call(
                &mut sys.engine,
                &mut sys.infra,
                "CreateAccount",
                &Value::record([("c", Value::Int(i as i64)), ("opening", Value::Int(1_000))]),
            )
            .unwrap();
        accounts.push(t.results.field("a").unwrap().as_int().unwrap());
        homes.push((dep.node, dep.capsule, dep.cluster));
        deployments.push(dep);
        proxies.push(proxy);
    }
    Churn {
        sys,
        branches: deployments,
        proxies,
        accounts,
        homes,
    }
}

/// A deterministic pseudo-random schedule derived from the seed (no
/// wall-clock, no global RNG).
fn schedule(seed: u64, steps: usize) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..steps)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

fn run(seed: u64) -> (Vec<String>, u64) {
    let mut churn = build(seed, 3);
    let mut outcomes = Vec::new();
    for (step, r) in schedule(seed, 60).into_iter().enumerate() {
        let b = (r % churn.branches.len() as u64) as usize;
        match r % 5 {
            // Banking traffic.
            0..=2 => {
                let op = if r % 2 == 0 { "Deposit" } else { "Withdraw" };
                let amount = (r % 120) as i64 + 1;
                let args = Value::record([
                    ("c", Value::Int(b as i64)),
                    ("a", Value::Int(churn.accounts[b])),
                    ("d", Value::Int(amount)),
                ]);
                let t = churn.proxies[b]
                    .call(&mut churn.sys.engine, &mut churn.sys.infra, op, &args)
                    .unwrap_or_else(|e| panic!("step {step}: {op} failed: {e}"));
                assert!(
                    matches!(t.name.as_str(), "OK" | "NotToday" | "Error"),
                    "unexpected termination {t:?}"
                );
                outcomes.push(format!("{step} {op} {}", t.name));
            }
            // Migration churn.
            3 => {
                let node = churn.sys.engine.add_node(if r % 2 == 0 {
                    SyntaxId::Binary
                } else {
                    SyntaxId::Text
                });
                let capsule = churn.sys.engine.add_capsule(node).unwrap();
                let dep = churn.branches[b];
                let new_cluster = migrate_transparently(
                    &mut churn.sys.engine,
                    &mut churn.sys.infra,
                    churn.homes[b],
                    (node, capsule),
                    &[dep.teller.interface, dep.manager.interface],
                )
                .unwrap();
                churn.homes[b] = (node, capsule, new_cluster);
                outcomes.push(format!("{step} migrate b{b}"));
            }
            // Midnight reset (keeps the daily limit from starving traffic).
            _ => {
                let t = churn.proxies[b]
                    .call(
                        &mut churn.sys.engine,
                        &mut churn.sys.infra,
                        "ResetDay",
                        &Value::record::<&str, _>([]),
                    )
                    .unwrap();
                assert!(t.is_ok());
                outcomes.push(format!("{step} reset b{b}"));
            }
        }
    }
    // Safety: every account still satisfies the information invariants.
    for (b, dep) in churn.branches.iter().enumerate() {
        let (node, _, _) = churn.homes[b];
        let state = churn
            .sys
            .engine
            .object_state(node, dep.object)
            .unwrap()
            .expect("branch object is live");
        let key = format!("acct{}", churn.accounts[b]);
        let balance = state
            .path(&["accounts", &key, "balance"])
            .and_then(Value::as_int)
            .unwrap();
        let withdrawn = state
            .path(&["accounts", &key, "withdrawn_today"])
            .and_then(Value::as_int)
            .unwrap();
        assert!(balance >= 0, "branch {b} balance {balance}");
        assert!(
            (0..=500).contains(&withdrawn),
            "branch {b} withdrawn {withdrawn}"
        );
    }
    (outcomes, churn.sys.engine.sim().now().as_micros())
}

#[test]
fn soak_under_churn_is_safe_and_live() {
    let (outcomes, _) = run(2026);
    assert_eq!(outcomes.len(), 60);
    // Some of everything actually happened.
    assert!(outcomes.iter().any(|o| o.contains("migrate")));
    assert!(outcomes
        .iter()
        .any(|o| o.contains("Deposit") || o.contains("Withdraw")));
}

#[test]
fn soak_is_deterministic() {
    assert_eq!(run(7_771), run(7_771));
}

/// Drives a branch with a bounded shed-oldest admission queue through a
/// bursty open-loop workload; returns the SLO report JSON, the causal
/// oracle's violation count and the server-side shed count.
fn bursty_run(seed: u64) -> (String, usize, u64) {
    let mut sys = OdpSystem::new(seed);
    let dep = bank::deploy_branch(&mut sys.engine, SyntaxId::Binary).unwrap();
    sys.engine
        .nucleus_mut(dep.node)
        .unwrap()
        .set_admission(AdmissionConfig::shed_oldest(
            8,
            SimDuration::from_micros(900),
        ));

    let manager = sys.engine.add_node(SyntaxId::Binary);
    let manager_ch = sys
        .engine
        .open_channel(manager, dep.manager.interface, ChannelConfig::default())
        .unwrap();
    let t = sys
        .engine
        .call(
            manager_ch,
            "CreateAccount",
            &Value::record([("c", Value::Int(7)), ("opening", Value::Int(100_000))]),
        )
        .unwrap();
    let acct = t.results.field("a").and_then(Value::as_int).unwrap();

    let client = sys.engine.add_node(SyntaxId::Text);
    let teller_ch = sys
        .engine
        .open_channel(client, dep.teller.interface, ChannelConfig::default())
        .unwrap();

    let scenario = Scenario::new(
        "churn_bursty",
        seed,
        LoadModel::Open {
            arrivals: ArrivalProcess::BurstyOnOff {
                on_rate_per_sec: 3_000.0,
                off_rate_per_sec: 100.0,
                mean_on: SimDuration::from_millis(40),
                mean_off: SimDuration::from_millis(120),
            },
        },
    )
    .lasting(SimDuration::from_millis(800))
    .with_mix(OperationMix::new().with(
        "Deposit",
        Value::record([
            ("c", Value::Int(7)),
            ("a", Value::Int(acct)),
            ("d", Value::Int(3)),
        ]),
        1,
    ))
    .with_contract(
        rmodp::core::contract::QosRequirement::none()
            .with_min_availability(0.25)
            .reliable(),
    );

    let (stats, report) = run_scenario(&mut sys.engine, teller_ch, &scenario);
    let violations = oracle::verify_causality(&bus::snapshot_events()).len();
    (report.to_json(), violations, stats.admission_shed)
}

#[test]
fn bursty_segment_is_causal_and_replays_identically() {
    let (a, violations_a, shed) = bursty_run(4_242);
    assert_eq!(violations_a, 0, "causal oracle must stay clean");
    assert!(shed > 0, "the bursts must actually trip admission control");
    let (b, violations_b, _) = bursty_run(4_242);
    assert_eq!(violations_b, 0);
    assert_eq!(a, b, "same seed must yield a byte-identical SLO report");
}
