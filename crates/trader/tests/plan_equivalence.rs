//! The planner's contract, property-tested: for any offer population,
//! index declaration, and constraint drawn from the grammar the planner
//! understands (and several it must treat as opaque), the planned
//! [`Trader::import`] returns *exactly* the matches of the reference
//! scan [`Trader::import_scan`] — same members, same order.
//!
//! This is the determinism argument of DESIGN.md §Trader made
//! executable: candidates are produced in ascending offer-id order (the
//! scan's visiting order) and the residual filter re-evaluates the full
//! constraint, so indexes can only skip non-matches, never reorder or
//! drop matches. The planned import judges the residual's conjuncts one
//! by one with `Expr::holds` while the scan evaluates the whole
//! constraint with `eval_bool`, so every case also holds the conjunct
//! list to the whole expression. The residual leaves
//! out the atoms an exact index answered, so the populations and
//! literals include the values exactness rests on: ints on either side
//! of ±2⁵³ (where `f64` widening turns lossy) and at ±2⁶³, `NaN` and
//! `-0.0`.

use proptest::prelude::*;

use rmodp_core::expr::{BinOp, Expr};
use rmodp_core::id::{InterfaceId, OfferId};
use rmodp_core::value::Value;
use rmodp_trader::{ImportRequest, IndexKind, Match, Trader};

/// One randomized offer: mixed property shapes on purpose — ints and
/// floats under the same key (the evaluator unifies them), a missing
/// property sometimes, an edge value of [`EDGES`] in place of `ppm`
/// sometimes, and a text region.
#[derive(Debug, Clone)]
struct OfferSpec {
    service: u8, // 0 = "Printer", 1 = "Scanner", 2 = "Plotter"
    ppm: i64,
    float_ppm: bool,
    edge: u8,   // index into EDGES; past its end, `ppm` stands
    region: u8, // index into REGIONS
    floor: Option<i64>,
    colour: bool,
}

const REGIONS: [&str; 4] = ["bne", "syd", "mel", "per"];
const SERVICES: [&str; 3] = ["Printer", "Scanner", "Plotter"];

/// 2⁵³: the largest magnitude whose every `i64` widens to `f64` exactly.
const EXACT: i64 = 1 << 53;

/// Numbers where key and value can part: ints either side of ±2⁵³ and
/// at ±2⁶³, `NaN`, `-0.0`, and the float every one of 2⁵³ ± 1 rounds to
/// or from. Offers hold them as `ppm`; constraints compare `ppm` with them.
fn edges() -> [Value; 11] {
    [
        Value::Int(EXACT - 1),
        Value::Int(EXACT),
        Value::Int(EXACT + 1),
        Value::Int(-EXACT - 1),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Float(EXACT as f64),
        Value::Float(9_223_372_036_854_775_808.0),
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::Int(0),
    ]
}

fn arb_offers() -> impl Strategy<Value = Vec<OfferSpec>> {
    proptest::collection::vec(
        (
            0u8..3,
            0i64..100,
            any::<bool>(),
            0u8..32,
            0u8..4,
            proptest::option::of(0i64..10),
            any::<bool>(),
        )
            .prop_map(
                |(service, ppm, float_ppm, edge, region, floor, colour)| OfferSpec {
                    service,
                    ppm,
                    float_ppm,
                    edge,
                    region,
                    floor,
                    colour,
                },
            ),
        0..60,
    )
}

/// `path op literal`, built rather than parsed: the grammar has no
/// negative literal (`-1` is a negation, which the planner cannot see
/// through).
fn compare(path: &str, op: BinOp, literal: Value) -> Expr {
    let path = Expr::Var(vec![path.to_owned()]);
    Expr::Binary(op, Box::new(path), Box::new(Expr::Lit(literal)))
}

/// Constraints spanning the planner's whole range: fully sargable,
/// partly sargable, and completely opaque, exact and inexact.
fn arb_constraint() -> impl Strategy<Value = Expr> {
    let parsed = arb_constraint_text().prop_map(|src| Expr::parse(&src).unwrap());
    const OPS: [BinOp; 5] = [BinOp::Eq, BinOp::Ge, BinOp::Le, BinOp::Gt, BinOp::Lt];
    let edge =
        (0usize..11, 0usize..5).prop_map(|(v, op)| compare("ppm", OPS[op], edges()[v].clone()));
    // An edge comparison beside an exact region atom: intersected, so
    // whether the edge atom is answered exactly decides the residual.
    let edge_and_region = (0usize..11, 0usize..5, 0usize..4).prop_map(|(v, op, r)| {
        let region = compare("region", BinOp::Eq, Value::text(REGIONS[r]));
        let edge = compare("ppm", OPS[op], edges()[v].clone());
        Expr::Binary(BinOp::And, Box::new(edge), Box::new(region))
    });
    // The parsed shapes twice: half the cases.
    prop_oneof![parsed.clone(), parsed, edge, edge_and_region]
}

/// The parsed half of [`arb_constraint`].
fn arb_constraint_text() -> impl Strategy<Value = String> {
    let threshold = 0i64..100;
    prop_oneof![
        threshold.clone().prop_map(|t| format!("ppm >= {t}")),
        threshold.clone().prop_map(|t| format!("ppm < {t}")),
        (threshold.clone(), 0usize..4)
            .prop_map(|(t, r)| format!("ppm >= {t} and region == \"{}\"", REGIONS[r])),
        (threshold.clone(), threshold.clone()).prop_map(|(a, b)| format!(
            "ppm >= {} and ppm <= {}",
            a.min(b),
            a.max(b)
        )),
        threshold.clone().prop_map(|t| format!("ppm >= {}.5", t)), // float literal vs int property
        // Strict bounds, looked up inclusively, stay in the residual.
        threshold.clone().prop_map(|t| format!("ppm > {t}")),
        (threshold.clone(), 0usize..4)
            .prop_map(|(t, r)| format!("ppm > {t} and region == \"{}\"", REGIONS[r])),
        // Text ranges (on an ordered region index), both sides, strict too.
        Just("region >= \"m\"".to_owned()),
        Just("region <= \"m\" and ppm <= 50".to_owned()),
        Just("region > \"mel\"".to_owned()),
        Just("\"mel\" >= region".to_owned()),
        Just("colour == true".to_owned()),
        Just("floor in [1, 3, 5]".to_owned()),
        Just("region in [\"bne\", \"mel\"]".to_owned()),
        // Planner-opaque shapes: must fall back, still agree.
        threshold.clone().prop_map(|t| format!("ppm + 0 >= {t}")),
        threshold
            .clone()
            .prop_map(|t| format!("ppm >= {t} or colour == true")),
        Just("not (colour == true)".to_owned()),
        Just("ppm != 50".to_owned()),
        // Shapes that reach each node of the residual's fast path: a
        // flipped literal, arithmetic, `or` (whose right operand binds
        // must still check), `not` over `or`, and a walker leaf.
        threshold.clone().prop_map(|t| format!("{t} <= ppm")),
        threshold
            .clone()
            .prop_map(|t| format!("ppm * 2 - 1 >= {t}")),
        threshold
            .clone()
            .prop_map(|t| format!("ppm >= {t} or ghost > 0")),
        threshold
            .clone()
            .prop_map(|t| format!("not (ppm >= {t} or colour == true)")),
        threshold.prop_map(|t| format!("exists(ghost) or ppm >= {t}")),
        // Type-error-on-some-offers shape: ordering floor (sometimes
        // absent) — absent kills the match via binds().
        Just("floor >= 2".to_owned()),
        // Always-false index shape: range against a bool literal.
        Just("ppm < true".to_owned()),
    ]
}

/// Which indexes to declare: none, partial, or all — the planner must
/// agree with the scan under every declaration.
fn arb_indexes() -> impl Strategy<Value = Vec<(&'static str, IndexKind)>> {
    proptest::collection::vec(
        prop_oneof![
            Just(("ppm", IndexKind::Ordered)),
            Just(("ppm", IndexKind::Hash)), // ranges on ppm become opaque
            Just(("region", IndexKind::Hash)),
            Just(("region", IndexKind::Ordered)), // text ranges become sargable
            Just(("floor", IndexKind::Ordered)),
            Just(("colour", IndexKind::Hash)),
        ],
        0..4,
    )
}

fn trader_with(offers: &[OfferSpec], indexes: &[(&str, IndexKind)]) -> Trader {
    let mut t = Trader::new("prop");
    for (property, kind) in indexes {
        t.index_property(*property, *kind);
    }
    for (i, o) in offers.iter().enumerate() {
        let ppm = match edges().get(usize::from(o.edge)) {
            Some(edge) => edge.clone(),
            None if o.float_ppm => Value::Float(o.ppm as f64),
            None => Value::Int(o.ppm),
        };
        let mut fields = vec![
            ("ppm", ppm),
            ("region", Value::text(REGIONS[o.region as usize])),
            ("colour", Value::Bool(o.colour)),
        ];
        if let Some(floor) = o.floor {
            fields.push(("floor", Value::Int(floor)));
        }
        t.export(
            SERVICES[o.service as usize],
            InterfaceId::new(i as u64 + 1),
            Value::record(fields),
        )
        .unwrap();
    }
    t
}

/// Matches as their `Debug` text: an offer holding `NaN` (or a `NaN`
/// score) is not equal to itself, so results are compared as text.
fn text(matches: &[Match]) -> String {
    format!("{matches:?}")
}

/// Whether a value is an int whose `f64` widening is lossy.
fn lossy(v: &Value) -> bool {
    matches!(v, Value::Int(i) if i.unsigned_abs() > EXACT.unsigned_abs())
}

/// A request for a service type under a constraint.
fn request(service: &str, constraint: &Expr) -> ImportRequest {
    ImportRequest {
        constraint: Some(constraint.clone()),
        ..ImportRequest::new(service)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// The core equivalence: planned import ≡ reference scan, members
    /// and ordering, across random populations, constraints, and index
    /// declarations.
    #[test]
    fn planned_import_equals_reference_scan(
        offers in arb_offers(),
        constraint in arb_constraint(),
        indexes in arb_indexes(),
        service in 0usize..3,
    ) {
        let mut t = trader_with(&offers, &indexes);
        let request = request(SERVICES[service], &constraint);
        let planned = t.import(&request, None);
        let scanned = t.import_scan(&request, None);
        prop_assert_eq!(text(&planned), text(&scanned), "constraint={} indexes={:?}", constraint, indexes);
    }

    /// Equivalence survives preference ordering and truncation: the
    /// plan feeds the same ordered matches into the same sort.
    #[test]
    fn equivalence_holds_under_preference_and_limit(
        offers in arb_offers(),
        constraint in arb_constraint(),
        indexes in arb_indexes(),
        limit in 1usize..6,
        preference in 0usize..3,
    ) {
        let mut t = trader_with(&offers, &indexes);
        let base = request("Printer", &constraint);
        // The last scores arithmetic over a sometimes-absent property.
        let request = match preference {
            0 => base.prefer_max("ppm"),
            1 => base.prefer_min("ppm"),
            _ => base.prefer_max("ppm + floor"),
        }
        .unwrap()
        .at_most(limit);
        let planned = t.import(&request, None);
        let scanned = t.import_scan(&request, None);
        prop_assert_eq!(text(&planned), text(&scanned));
    }

    /// Equivalence survives mutation: withdrawals and property
    /// modifications re-thread the indexes, and planned results keep
    /// tracking the scan afterwards.
    #[test]
    fn equivalence_survives_withdraw_and_modify(
        offers in arb_offers(),
        constraint in arb_constraint(),
        new_ppm in 0i64..100,
    ) {
        prop_assume!(offers.len() >= 2);
        let mut t = trader_with(
            &offers,
            &[("ppm", IndexKind::Ordered), ("region", IndexKind::Hash)],
        );
        // Withdraw the first offer; modify the second.
        let first = t.store().iter().next().unwrap().id;
        let second = t.store().iter().nth(1).unwrap().id;
        t.withdraw(first).unwrap();
        t.modify(
            second,
            Value::record([
                ("ppm", Value::Int(new_ppm)),
                ("region", Value::text("bne")),
                ("colour", Value::Bool(true)),
            ]),
        )
        .unwrap();
        let request = request("Printer", &constraint);
        let planned = t.import(&request, None);
        let scanned = t.import_scan(&request, None);
        prop_assert_eq!(text(&planned), text(&scanned));
    }

    /// Equivalence survives the early stop: a bounded first-found import
    /// ends at its `limit`-th match, over slab holes and re-threaded
    /// postings, and still returns what the unbounded scan truncates to.
    #[test]
    fn bounded_first_found_equals_the_truncated_scan(
        offers in arb_offers(),
        constraint in arb_constraint(),
        indexes in arb_indexes(),
        limit in 0usize..6,
        churn in proptest::collection::vec((any::<bool>(), 0u64..60, 0i64..100), 0..12),
    ) {
        let mut t = trader_with(&offers, &indexes);
        for (withdraw, raw, new_ppm) in churn {
            // Ids past the population, or withdrawn already, are refused.
            let id = OfferId::new(raw + 1);
            if withdraw {
                let _ = t.withdraw(id);
            } else {
                let _ = t.modify(id, Value::record([("ppm", Value::Int(new_ppm))]));
            }
        }
        let request = request("Printer", &constraint).at_most(limit);
        let planned = t.import(&request, None);
        prop_assert!(planned.len() <= limit);
        let scanned = t.import_scan(&request, None);
        prop_assert_eq!(text(&planned), text(&scanned), "constraint={} indexes={:?}", constraint, indexes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// Equivalence survives an index going inexact and back: a modify
    /// posts an int beyond ±2⁵³ under `ppm` (its key is shared with a
    /// number it does not equal), then a withdrawal, or a modify to 2⁵³
    /// itself — the same key, a different count — takes it away again;
    /// every import on the way agrees with the scan.
    #[test]
    fn equivalence_survives_a_lossy_int_coming_and_going(
        mut offers in arb_offers(),
        constraint in arb_constraint(),
        target in 0usize..60,
        wide in 0usize..4,
        withdraw in any::<bool>(),
    ) {
        // No lossy int to start with: the index starts exact, beside
        // the values that share a key with the one about to come.
        for offer in &mut offers {
            if edges().get(usize::from(offer.edge)).is_some_and(lossy) {
                offer.edge = u8::MAX;
            }
        }
        let mut t = trader_with(
            &offers,
            &[("ppm", IndexKind::Ordered), ("region", IndexKind::Hash)],
        );
        let printers: Vec<OfferId> = t
            .store()
            .iter()
            .filter(|o| &*o.service_type == "Printer")
            .map(|o| o.id)
            .collect();
        prop_assume!(!printers.is_empty());
        let id = printers[target % printers.len()];
        let request = request("Printer", &constraint);
        let props = |ppm: i64| {
            Value::record([("ppm", Value::Int(ppm)), ("region", Value::text("bne"))])
        };
        let wide = [EXACT + 1, -EXACT - 1, i64::MAX, i64::MIN][wide];
        for step in 0..3 {
            match step {
                0 => {}
                1 => t.modify(id, props(wide)).unwrap(),
                _ if withdraw => drop(t.withdraw(id).unwrap()),
                _ => t.modify(id, props(EXACT)).unwrap(),
            }
            prop_assert_eq!(t.store().index("ppm").unwrap().is_exact(), step != 1);
            let planned = t.import(&request, None);
            let scanned = t.import_scan(&request, None);
            prop_assert_eq!(text(&planned), text(&scanned), "step {} constraint={}", step, constraint);
        }
    }
}

/// Regression: with no indexes declared at all, every plan is a
/// fallback, and the fallback is still exactly the scan.
#[test]
fn empty_index_fallback_equals_scan() {
    let specs: Vec<OfferSpec> = (0..30)
        .map(|i| OfferSpec {
            service: (i % 3) as u8,
            ppm: (i * 7) % 100,
            float_ppm: i % 2 == 0,
            edge: u8::MAX,
            region: (i % 4) as u8,
            floor: if i % 5 == 0 { None } else { Some(i % 10) },
            colour: i % 2 == 1,
        })
        .collect();
    let mut t = trader_with(&specs, &[]);
    for constraint in ["ppm >= 40", "region == \"syd\"", "floor in [1, 2]"] {
        let request = ImportRequest::new("Printer")
            .constraint(constraint)
            .unwrap();
        let plan = t.explain(&request, None);
        assert!(plan.fallback, "no indexes ⇒ fallback: {constraint}");
        let planned = t.import(&request, None);
        let scanned = t.import_scan(&request, None);
        assert_eq!(planned, scanned, "{constraint}");
    }
    assert_eq!(t.stats().plans_indexed, 0);
    assert_eq!(t.stats().plans_fallback, 3);
}

/// Top-k selection against the full sort: scores with many ties, `NaN`
/// of both signs, `±inf` and a text score (not a number: the offer is
/// not a match) under `prefer_max` and `prefer_min`, cut at every
/// interesting `k` — 0 (where a naive `select_nth(k - 1)` would panic),
/// 1, 5, one short of the matches, all of them, one past, unbounded.
/// The planned import returns exactly the scan's members and order,
/// through a fallback plan and an indexed one; a federated import of
/// three traders holding tied offers under the same ids returns the
/// scans' merge in `(score, holder, offer id)` order; a sharded import
/// returns one trader's scan, and the broadcast agrees with it.
#[test]
fn top_k_selection_equals_the_full_sort() {
    use rmodp_trader::{Federation, ShardedFederation};
    let speeds = [
        Value::Int(3),
        Value::Int(1),
        Value::Float(f64::NAN),
        Value::Float(3.0),
        Value::Float(f64::INFINITY),
        Value::text("fast"),
        Value::Float(f64::NEG_INFINITY),
        Value::Int(1),
        Value::Float(-f64::NAN),
        Value::Int(2),
        Value::Int(3),
    ];
    let offer = |i: usize| {
        Value::record([
            ("speed", speeds[i % speeds.len()].clone()),
            ("region", Value::text(REGIONS[i % 2])),
        ])
    };
    const OFFERS: usize = 40;
    const HOLDERS: [&str; 3] = ["a", "b", "c"];
    let mut single = Trader::new("single");
    single.index_property("region", IndexKind::Hash);
    let mut federation = Federation::new();
    for name in HOLDERS {
        federation.add_trader(name).unwrap();
        federation
            .trader_mut(name)
            .unwrap()
            .index_property("region", IndexKind::Hash);
    }
    federation.link("a", "b").unwrap();
    federation.link("b", "c").unwrap();
    let mut sharded = ShardedFederation::new("shard", 3);
    for i in 0..OFFERS {
        let interface = InterfaceId::new(i as u64 + 1);
        single.export("Printer", interface, offer(i)).unwrap();
        sharded.export("Printer", interface, offer(i)).unwrap();
        // Round robin: every holder has ids 1, 2, … with tied scores.
        federation
            .trader_mut(HOLDERS[i % HOLDERS.len()])
            .unwrap()
            .export("Printer", interface, offer(i))
            .unwrap();
    }
    let ids_and_scores = |matches: &[Match]| -> Vec<(OfferId, u64)> {
        let score = |m: &Match| m.score.to_bits();
        matches.iter().map(|m| (m.offer.id, score(m))).collect()
    };
    for constraint in [None, Some("region == \"bne\"")] {
        for max in [true, false] {
            let mut base = ImportRequest::new("Printer");
            if let Some(src) = constraint {
                base = base.constraint(src).unwrap();
            }
            let base = if max {
                base.prefer_max("speed")
            } else {
                base.prefer_min("speed")
            }
            .unwrap();
            let all = single.import_scan(&base, None).len();
            assert!(all > 6, "{all}: the text score is excluded, the rest match");
            // The federation's model: every holder's scan, merged by the
            // one order, written out here.
            let mut merged: Vec<Match> = HOLDERS
                .iter()
                .flat_map(|name| {
                    let trader = federation.trader_mut(name).unwrap();
                    trader.import_scan(&base, None)
                })
                .collect();
            merged.sort_by(|a, b| {
                let score = a.score.total_cmp(&b.score);
                (if max { score.reverse() } else { score })
                    .then(a.offer.held_by.cmp(&b.offer.held_by))
                    .then(a.offer.id.cmp(&b.offer.id))
            });
            for k in [0, 1, 5, all - 1, all, all + 1, usize::MAX] {
                let request = base.clone().at_most(k);
                let what = format!("constraint={constraint:?} max={max} k={k}");
                let scanned = single.import_scan(&request, None);
                assert_eq!(scanned.len(), k.min(all), "{what}");
                let planned = single.import(&request, None);
                assert_eq!(text(&planned), text(&scanned), "{what}");

                let federated = federation.import_federated("a", &request, None, 2).unwrap();
                let expected = &merged[..k.min(merged.len())];
                assert_eq!(text(&federated), text(expected), "{what}");

                let routed = sharded.import(&request, None);
                assert_eq!(ids_and_scores(&routed), ids_and_scores(&scanned), "{what}");
                let broadcast = sharded.import_all(&request, None).unwrap();
                assert_eq!(text(&broadcast), text(&routed), "{what}");
            }
        }
    }
}

/// The opaque residuals the planner leaves whole — arithmetic over
/// `ppm` — against offers holding `ppm` as every kind the numeric kernel
/// meets: ints, floats, NaN, ±inf, `i64::MAX` (where `* 2` wraps), text,
/// and nothing. Plain and under `prefer_max("ppm")`, with and without
/// indexes, the planned import (the residual) returns the scan's members
/// in the scan's order; the counts pin what the evaluator says (every
/// match has a number to rank by).
#[test]
fn opaque_residuals_over_every_numeric_kind_equal_the_scan() {
    let speeds = [
        Some(Value::Int(97)),
        Some(Value::Int(10)),
        Some(Value::Int(3)),
        Some(Value::Float(96.0)),
        Some(Value::Float(17.0)),
        Some(Value::Float(10.5)),
        Some(Value::Float(f64::NAN)),
        Some(Value::Float(f64::INFINITY)),
        Some(Value::Float(f64::NEG_INFINITY)),
        Some(Value::Int(i64::MAX)),
        Some(Value::text("fast")),
        None,
    ];
    for indexes in [
        &[][..],
        &[("ppm", IndexKind::Ordered), ("region", IndexKind::Hash)],
    ] {
        let mut t = Trader::new("opaque");
        for (property, kind) in indexes {
            t.index_property(*property, *kind);
        }
        for (i, speed) in speeds.iter().chain(&speeds).enumerate() {
            let mut fields = vec![("region", Value::text(REGIONS[i % 2]))];
            fields.extend(speed.clone().map(|v| ("ppm", v)));
            t.export(
                "Printer",
                InterfaceId::new(i as u64 + 1),
                Value::record(fields),
            )
            .unwrap();
        }
        for (constraint, expected) in [
            // 97, 96.0, inf twice each; `i64::MAX` and text are not ≥ 96.
            ("ppm + 0 >= 96", 8),
            // 97, 96.0, inf; `i64::MAX * 2` wraps to −2.
            ("ppm * 2 - 1 > 150", 6),
            // An int division by zero is a fault; a float one is ±inf or NaN.
            ("ppm / 0 == 0", 0),
            // 3, 10 and 17.0; `i64::MAX % 7` is 0.
            ("ppm % 7 == 3", 6),
            // 10, 3, 17.0, 10.5, −inf.
            ("ppm - 0.5 < 20", 10),
        ] {
            let plain_request = ImportRequest::new("Printer")
                .constraint(constraint)
                .unwrap();
            assert!(t.explain(&plain_request, None).fallback, "{constraint}");
            let ranked_request = plain_request.clone().prefer_max("ppm").unwrap();
            for request in [plain_request, ranked_request] {
                let scanned = t.import_scan(&request, None);
                let planned = t.import(&request, None);
                let what = format!("{constraint} indexes={indexes:?}");
                assert_eq!(text(&planned), text(&scanned), "{what}");
                assert_eq!(scanned.len(), expected, "{what}");
            }
        }
    }
}
