//! Figure 1: the five RM-ODP viewpoints mapped onto the software
//! engineering process, walked end-to-end for the bank application.
//!
//! enterprise → requirements analysis
//! information + computational → functional specification
//! engineering → design
//! technology → implementation
//!
//! Run with: `cargo run --example five_viewpoints`

use rmodp::bank;
use rmodp::prelude::*;
use rmodp::OdpSystem;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== 1. Enterprise viewpoint (requirements analysis) ==");
    let roster = bank::enterprise::BranchRoster::default();
    let community = bank::enterprise::branch_community(&roster);
    let mut policies = bank::enterprise::branch_policies();
    println!("community: {community}");
    for p in policies.policies() {
        println!("  policy: {p}");
    }
    // The performative action: a rate change creates obligations.
    let obligations =
        bank::enterprise::change_interest_rate(&mut policies, &roster, 5.25, Some(1_000));
    println!(
        "  rate change created {} obligations on the manager",
        obligations.len()
    );

    println!("\n== 2. Information viewpoint (functional specification: data) ==");
    let mut account = bank::information::new_account(1, 1_000);
    println!("account schema: {}", account.schema().dtype());
    for inv in account.invariants() {
        println!("  invariant {}: {}", inv.name(), inv.predicate());
    }
    let withdraw = bank::information::withdraw_schema();
    account.apply(&withdraw, Value::record([("x", Value::Int(400))]))?;
    println!(
        "  morning withdrawal of $400: ok, state {}",
        account.state()
    );
    let rejected = account.apply(&withdraw, Value::record([("x", Value::Int(200))]));
    println!("  afternoon withdrawal of $200: {}", rejected.unwrap_err());

    println!("\n== 3. Computational viewpoint (functional specification: behaviour) ==");
    let teller = bank::computational::bank_teller();
    let manager = bank::computational::bank_manager();
    println!(
        "interface types: {} ({} ops), {} ({} ops)",
        teller.name(),
        teller.operations().len(),
        manager.name(),
        manager.operations().len()
    );
    let sub = rmodp::computational::subtype::is_operational_subtype(&manager, &teller);
    println!(
        "  BankManager substitutable for BankTeller: {}",
        sub.is_ok()
    );

    println!("\n== 4. Engineering viewpoint (design) ==");
    let mut sys = OdpSystem::new(11);
    let branch = bank::deploy_branch(&mut sys.engine, SyntaxId::Binary)?;
    sys.publish(branch.teller.interface)?;
    let (capsules, clusters, objects) = sys.engine.nucleus(branch.node)?.structure.census();
    println!(
        "node {}: {capsules} capsule(s), {clusters} cluster(s), {objects} object(s)",
        branch.node
    );
    let violations = sys.engine.validate_node(branch.node)?;
    println!(
        "  structuring rules: {}",
        if violations.is_empty() {
            "all hold".to_owned()
        } else {
            violations.join("; ")
        }
    );

    println!("\n== 5. Technology viewpoint (implementation) ==");
    let tech = bank::technology::standard();
    println!(
        "server syntax {:?}, client syntax {:?}, link latency {}",
        tech.server_syntax, tech.client_syntax, tech.link_latency
    );
    for point in &tech.conformance {
        println!("  conformance point {}: {}", point.name, point.observes);
    }

    println!("\n== One interaction crossing all five ==");
    let client = sys.engine.add_node(tech.client_syntax);
    let mut proxy = sys.proxy(client, branch.teller.interface, TransparencySet::all());
    // The enterprise policy allows it, the information schema constrains
    // it, the computational signature types it, the engineering channel
    // carries it, the technology choice marshals it.
    let manager_ch =
        sys.engine
            .open_channel(client, branch.manager.interface, Default::default())?;
    let t = sys.engine.call(
        manager_ch,
        "CreateAccount",
        &Value::record([("c", Value::Int(10)), ("opening", Value::Int(800))]),
    )?;
    let acct = t
        .results
        .field("a")
        .and_then(Value::as_int)
        .expect("created");
    let t = proxy.call(
        &mut sys.engine,
        &mut sys.infra,
        "Withdraw",
        &Value::record([
            ("c", Value::Int(10)),
            ("a", Value::Int(acct)),
            ("d", Value::Int(400)),
        ]),
    )?;
    println!("Withdraw $400 -> {} {}", t.name, t.results);
    Ok(())
}
