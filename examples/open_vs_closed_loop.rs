//! Open-loop vs. closed-loop load on the paper's bank branch, judged
//! against the same environment contract (§5.3).
//!
//! The same deposit/withdraw mix is applied twice to an identical
//! deployment with a bounded admission queue on the branch node:
//!
//! * **open loop** — a Poisson arrival stream that keeps offering
//!   traffic no matter how slowly the branch answers, so the admission
//!   queue fills and the Reject policy sheds load;
//! * **closed loop** — a fixed population of customers who each wait for
//!   their reply (plus a think time), so offered load self-limits and
//!   nothing is shed.
//!
//! Both runs print the SLO verdict as JSON; the contrast *is* the lesson:
//! identical system, identical contract, different load model, opposite
//! verdicts on availability.
//!
//! Run with: `cargo run --example open_vs_closed_loop`

use std::time::Duration;

use rmodp::bank;
use rmodp::observe::{bus, oracle};
use rmodp::prelude::*;
use rmodp::OdpSystem;
use rmodp_netsim::time::SimDuration;

/// Deploys a fresh branch with one funded account and a bounded
/// admission queue, and opens a teller channel for the population.
fn build(seed: u64) -> Result<(OdpSystem, ChannelId, i64), Box<dyn std::error::Error>> {
    let mut sys = OdpSystem::new(seed);
    let branch = bank::deploy_branch(&mut sys.engine, SyntaxId::Binary)?;
    // Serve one request per 800us from a queue of at most 8; refuse the
    // rest. (Unbounded is the default — this example opts in.)
    sys.engine
        .nucleus_mut(branch.node)?
        .set_admission(AdmissionConfig::reject(8, SimDuration::from_micros(800)));

    let manager = sys.engine.add_node(SyntaxId::Binary);
    let manager_ch =
        sys.engine
            .open_channel(manager, branch.manager.interface, ChannelConfig::default())?;
    let t = sys.engine.call(
        manager_ch,
        "CreateAccount",
        &Value::record([("c", Value::Int(1)), ("opening", Value::Int(1_000_000))]),
    )?;
    let acct = t
        .results
        .field("a")
        .and_then(Value::as_int)
        .expect("OK carries a");

    let customers = sys.engine.add_node(SyntaxId::Text);
    let teller_ch =
        sys.engine
            .open_channel(customers, branch.teller.interface, ChannelConfig::default())?;
    Ok((sys, teller_ch, acct))
}

/// The shared mix: deposit-heavy traffic with small withdrawals, all
/// against the single funded account.
fn mix(acct: i64) -> OperationMix {
    let dwa = |d: i64| {
        Value::record([
            ("c", Value::Int(1)),
            ("a", Value::Int(acct)),
            ("d", Value::Int(d)),
        ])
    };
    OperationMix::new()
        .with("Deposit", dwa(5), 3)
        .with("Withdraw", dwa(1), 1)
}

/// The shared contract both load models are judged against.
fn contract() -> rmodp::core::contract::QosRequirement {
    rmodp::core::contract::QosRequirement::default()
        .with_max_latency(Duration::from_millis(25))
        .with_min_availability(0.99)
        .reliable()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SEED: u64 = 1_993;

    // Open loop: 2000 requests/s offered against ~1250/s of service
    // capacity — the arrival stream does not care that the branch is
    // saturated. Closed loop: 8 customers, each at most one request in
    // flight — the whole population fits the admission queue, so offered
    // load self-limits instead of being shed.
    let loads = [
        (
            "bank_open_loop",
            LoadModel::Open {
                arrivals: ArrivalProcess::Poisson {
                    rate_per_sec: 2_000.0,
                },
            },
        ),
        (
            "bank_closed_loop",
            LoadModel::Closed {
                population: 8,
                think_time: SimDuration::from_millis(5),
            },
        ),
    ];

    for (name, load) in loads {
        let (mut sys, teller_ch, acct) = build(SEED)?;
        let scenario = Scenario::new(name, SEED, load)
            .lasting(SimDuration::from_secs(1))
            .with_mix(mix(acct))
            .with_contract(contract());
        let (stats, report) = run_scenario(&mut sys.engine, teller_ch, &scenario);
        let violations = oracle::verify_causality(&bus::snapshot_events());
        println!("{}", report.to_json());
        println!(
            "  causal oracle: {} violations; server shed {} of {} offered\n",
            violations.len(),
            stats.admission_shed,
            stats.offered
        );
        violations.assert_clean("causality under overload");
    }
    Ok(())
}
