//! The bank branch under fire: a customer keeps depositing while the
//! branch node crashes, the network partitions, and a loss burst rolls
//! through — the failure-transparency machinery (retransmission with
//! backoff, request dedup, circuit breaking) carries the session
//! through, and the recovery oracle prints the timeline and SLO
//! verdicts.
//!
//! Run with: `cargo run --example chaos_bank`

use rmodp::bank;
use rmodp::chaos::prelude::*;
use rmodp::netsim::time::SimDuration;
use rmodp::observe::bus;
use rmodp::prelude::*;
use rmodp::OdpSystem;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = OdpSystem::new(2_026);
    let branch = bank::deploy_branch(&mut sys.engine, SyntaxId::Binary)?;
    sys.publish(branch.teller.interface)?;
    sys.publish(branch.manager.interface)?;

    let customer = sys.engine.add_node(SyntaxId::Text);
    // A hardened channel: retransmission with exponential backoff under
    // a total deadline, plus a circuit breaker for fast failure while
    // the branch is provably dead.
    let teller_ch = sys.engine.open_channel(
        customer,
        branch.teller.interface,
        ChannelConfig {
            retry: Some(RetryPolicy::reliable().with_deadline(SimDuration::from_millis(100))),
            breaker: Some(BreakerConfig::default()),
            ..ChannelConfig::default()
        },
    )?;
    let manager_ch =
        sys.engine
            .open_channel(customer, branch.manager.interface, ChannelConfig::default())?;

    let t = sys.engine.call(
        manager_ch,
        "CreateAccount",
        &Value::record([("c", Value::Int(1)), ("opening", Value::Int(100))]),
    )?;
    let acct = t
        .results
        .field("a")
        .and_then(Value::as_int)
        .expect("OK carries a");
    println!("opened account {acct} with $100\n");

    // The day's fault schedule, on virtual time.
    let branch_idx = sys.engine.sim_node(branch.node)?;
    let customer_idx = sys.engine.sim_node(customer)?;
    let plan = FaultPlan::new()
        .with(
            SimDuration::from_millis(60),
            FaultKind::LossBurst {
                a: customer_idx,
                b: branch_idx,
                loss: 0.5,
                window: SimDuration::from_millis(80),
            },
        )
        .with(
            SimDuration::from_millis(200),
            FaultKind::CrashRestart {
                node: branch_idx,
                down_for: SimDuration::from_millis(70),
            },
        )
        .with(
            SimDuration::from_millis(420),
            FaultKind::Partition {
                a: customer_idx,
                b: branch_idx,
                heal_after: SimDuration::from_millis(50),
            },
        );
    println!("fault plan:\n{}", plan.describe());

    // Thirty $10 deposits, one every 20ms, riding through the plan: the
    // simulator applies each fault at its planned instant.
    let t0 = sys.engine.sim().now();
    plan.schedule_on(sys.engine.sim_mut());
    let deposit = Value::record([
        ("c", Value::Int(1)),
        ("a", Value::Int(acct)),
        ("d", Value::Int(10)),
    ]);
    let total = 30u64;
    let mut ok = 0u64;
    let mut failed = 0u64;
    for i in 0..total {
        // Pace to the deposit's due time; if a slow retry battle already
        // pushed the clock past it, the deposit goes at once.
        sys.engine
            .sim_mut()
            .run_until(t0 + SimDuration::from_millis(20 * i));
        let at_us = sys.engine.sim().now().as_micros();
        match sys.engine.call(teller_ch, "Deposit", &deposit) {
            Ok(t) if t.is_ok() => ok += 1,
            Ok(t) => {
                failed += 1;
                println!("t={at_us}us deposit refused: {}", t.name);
            }
            Err(e) => {
                failed += 1;
                println!("t={at_us}us deposit failed: {e}");
            }
        }
    }
    sys.engine.run_until_idle();
    println!("\n{ok} deposits acknowledged, {failed} failed at the counter");

    // Give any open breaker time to probe again, then prove exactly-once
    // execution via the balance: dedup suppressed retransmitted
    // duplicates, and nothing acknowledged was lost.
    let resume = sys.engine.sim().now() + BreakerConfig::default().cooldown;
    sys.engine.sim_mut().run_until(resume);
    let t = sys.engine.call(teller_ch, "Deposit", &deposit)?;
    let balance = t
        .results
        .field("new_balance")
        .and_then(Value::as_int)
        .expect("deposit reports the new balance");
    println!("final balance: ${balance} after {ok}/{total} acknowledged deposits");
    assert!(
        balance >= 100 + 10 * (ok as i64 + 1),
        "an acknowledged deposit was lost"
    );
    assert!(
        balance <= 100 + 10 * (total as i64 + 1),
        "a deposit executed twice"
    );

    // The recovery timeline, judged from the observe stream.
    let report = verify_recovery(
        &bus::snapshot_events(),
        &bus::snapshot_metrics(),
        customer_idx.0 as u64,
        &plan,
        t0,
    );
    println!("\nrecovery timeline:");
    println!("{}", report.to_json());
    for f in &report.faults {
        let verdict = if f.recovered { "RECOVERED" } else { "STUCK" };
        println!(
            "  {}: mttr {:.1}ms, availability {:.0}% during window -> {verdict}",
            f.label,
            f.mttr_us as f64 / 1_000.0,
            f.availability * 100.0,
        );
    }
    report.assert_clean("chaos invariants");
    assert_eq!(report.duplicate_dispatches, 0);
    println!(
        "\nSLO verdict: all faults recovered, no duplicate side-effects \
         ({} duplicate arrivals absorbed by the dedup cache, {} breaker transitions)",
        report.dedup_hits, report.breaker_transitions
    );
    println!("network: {}", sys.engine.sim().metrics());
    Ok(())
}
