//! Federated trading (§8.3.2): three linked traders serving a constrained,
//! preference-ordered import across administrative domains, with type-safe
//! subtype matching through the type repository.
//!
//! Run with: `cargo run --example trading_federation`

use rmodp::bank;
use rmodp::computational::signature::InterfaceSignature;
use rmodp::observe::{bus, export};
use rmodp::prelude::*;
use rmodp::trader::{Federation, ImportRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The type repository knows the Figure 3 lattice.
    let mut repo = TypeRepository::new();
    repo.register(InterfaceSignature::Operational(
        bank::computational::bank_teller(),
    ))?;
    repo.register(InterfaceSignature::Operational(
        bank::computational::bank_manager(),
    ))?;
    repo.register(InterfaceSignature::Operational(
        bank::computational::loans_officer(),
    ))?;

    // Three city traders in a chain, each advertising branch interfaces.
    let mut federation = Federation::new();
    for name in ["brisbane", "sydney", "melbourne"] {
        federation.add_trader(name)?;
    }
    federation.link("brisbane", "sydney")?;
    federation.link("sydney", "melbourne")?;

    let offers: [(&str, &str, u64, i64); 4] = [
        ("brisbane", "BankTeller", 101, 12),
        ("sydney", "BankManager", 201, 8),
        ("sydney", "BankTeller", 202, 30),
        ("melbourne", "LoansOfficer", 301, 5),
    ];
    for (city, service, interface, latency_ms) in offers {
        federation.trader_mut(city)?.export(
            service,
            InterfaceId::new(interface),
            Value::record([
                ("city", Value::text(city)),
                ("latency_ms", Value::Int(latency_ms)),
            ]),
        )?;
    }

    println!("federation: {:?}", federation.names().collect::<Vec<_>>());

    // A client in Brisbane wants any BankTeller-compatible service with
    // latency under 25ms, fastest first. Managers and loans officers
    // qualify by substitutability (Figure 3).
    let request = ImportRequest::new("BankTeller")
        .constraint("latency_ms <= 25")?
        .prefer_min("latency_ms")?;

    for hops in 0..=2 {
        let matches = federation.import_federated("brisbane", &request, Some(&repo), hops)?;
        println!("\nimport with {hops} hop(s): {} match(es)", matches.len());
        for m in &matches {
            println!(
                "  {} {} at {} ({})",
                m.offer.held_by, m.offer.service_type, m.offer.interface, m.offer.properties
            );
        }
    }

    // The winner across the whole federation is Melbourne's loans officer
    // at 5ms — a *subtype* of the requested BankTeller.
    let best = federation
        .import_federated("brisbane", &request.clone().at_most(1), Some(&repo), 2)?
        .remove(0);
    println!(
        "\nbest federation-wide: {} ({}) at {}ms",
        best.offer.service_type, best.offer.held_by, best.score
    );
    assert_eq!(&*best.offer.service_type, "LoansOfficer");

    // ── Observability epilogue: what did the trading layer do? ──────
    let events = bus::snapshot_events();
    // Capped exports keep the epilogue readable; `(+N more)` marks
    // anything truncated.
    println!("\n{}", export::summary_table(&events, 12));
    println!("{}", bus::snapshot_metrics().render());
    println!("{}", export::timeline(&events, 80));
    Ok(())
}
