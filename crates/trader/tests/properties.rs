//! Property tests for the trader: every returned match satisfies the
//! request; preference ordering is correct; federation equals the union
//! of reachable traders.

use proptest::prelude::*;

use rmodp_core::id::InterfaceId;
use rmodp_core::value::Value;
use rmodp_trader::{Federation, ImportRequest, Trader};

#[derive(Debug, Clone)]
struct OfferSpec {
    service: bool, // true = "Printer", false = "Scanner"
    ppm: i64,
    floor: i64,
}

fn arb_offers() -> impl Strategy<Value = Vec<OfferSpec>> {
    proptest::collection::vec(
        (any::<bool>(), 1i64..100, 0i64..10).prop_map(|(service, ppm, floor)| OfferSpec {
            service,
            ppm,
            floor,
        }),
        0..40,
    )
}

fn trader_with(offers: &[OfferSpec]) -> Trader {
    let mut t = Trader::new("prop");
    for (i, o) in offers.iter().enumerate() {
        t.export(
            if o.service { "Printer" } else { "Scanner" },
            InterfaceId::new(i as u64 + 1),
            Value::record([("ppm", Value::Int(o.ppm)), ("floor", Value::Int(o.floor))]),
        )
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_satisfy_type_and_constraint(offers in arb_offers(), threshold in 1i64..100) {
        let mut t = trader_with(&offers);
        let request = ImportRequest::new("Printer")
            .constraint(&format!("ppm >= {threshold}"))
            .unwrap();
        let matches = t.import(&request, None);
        // Soundness: every match is a printer above the threshold.
        for m in &matches {
            prop_assert_eq!(&*m.offer.service_type, "Printer");
            let ppm = m.offer.properties.field("ppm").unwrap().as_int().unwrap();
            prop_assert!(ppm >= threshold);
        }
        // Completeness: the count equals the ground truth.
        let expected = offers.iter().filter(|o| o.service && o.ppm >= threshold).count();
        prop_assert_eq!(matches.len(), expected);
    }

    #[test]
    fn max_preference_returns_descending_scores(offers in arb_offers()) {
        let mut t = trader_with(&offers);
        let request = ImportRequest::new("Printer").prefer_max("ppm").unwrap();
        let matches = t.import(&request, None);
        for pair in matches.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
        if let Some(best) = matches.first() {
            let ground_truth = offers
                .iter()
                .filter(|o| o.service)
                .map(|o| o.ppm)
                .max()
                .unwrap();
            prop_assert_eq!(best.score as i64, ground_truth);
        }
    }

    #[test]
    fn at_most_truncates_but_keeps_the_best(offers in arb_offers(), limit in 1usize..5) {
        let mut t = trader_with(&offers);
        let request = ImportRequest::new("Printer").prefer_min("floor").unwrap();
        let all = t.import(&request, None);
        let limited = t.import(&request.clone().at_most(limit), None);
        prop_assert_eq!(limited.len(), all.len().min(limit));
        for (a, b) in limited.iter().zip(all.iter()) {
            prop_assert_eq!(&a.offer, &b.offer);
        }
    }

    #[test]
    fn withdrawals_remove_exactly_one_offer(offers in arb_offers()) {
        prop_assume!(!offers.is_empty());
        let mut t = trader_with(&offers);
        let before = t.len();
        let any_offer = t.import(&ImportRequest::new("Printer"), None)
            .first()
            .map(|m| m.offer.id)
            .or_else(|| {
                t.import(&ImportRequest::new("Scanner"), None)
                    .first()
                    .map(|m| m.offer.id)
            });
        if let Some(id) = any_offer {
            t.withdraw(id).unwrap();
            prop_assert_eq!(t.len(), before - 1);
            prop_assert!(t.withdraw(id).is_err());
        }
    }

    #[test]
    fn federation_union_equals_sum_of_reachable(
        a in arb_offers(),
        b in arb_offers(),
        c in arb_offers(),
    ) {
        let mut f = Federation::new();
        for name in ["a", "b", "c"] {
            f.add_trader(name).unwrap();
        }
        f.link("a", "b").unwrap();
        f.link("b", "c").unwrap();
        for (name, offers) in [("a", &a), ("b", &b), ("c", &c)] {
            for (i, o) in offers.iter().enumerate() {
                f.trader_mut(name)
                    .unwrap()
                    .export(
                        if o.service { "Printer" } else { "Scanner" },
                        InterfaceId::new(i as u64 + 1),
                        Value::record([("ppm", Value::Int(o.ppm))]),
                    )
                    .unwrap();
            }
        }
        let request = ImportRequest::new("Printer");
        let count = |offers: &[OfferSpec]| offers.iter().filter(|o| o.service).count();
        let hop0 = f.import_federated("a", &request, None, 0).unwrap().len();
        let hop1 = f.import_federated("a", &request, None, 1).unwrap().len();
        let hop2 = f.import_federated("a", &request, None, 2).unwrap().len();
        prop_assert_eq!(hop0, count(&a));
        prop_assert_eq!(hop1, count(&a) + count(&b));
        prop_assert_eq!(hop2, count(&a) + count(&b) + count(&c));
    }
}
