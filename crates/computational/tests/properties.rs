//! Property tests for interface subtyping: reflexivity, the width/depth
//! laws, transitivity on generated chains, and activity-interpreter
//! invariants.

use proptest::prelude::*;

use rmodp_computational::activity::{execute, Activity, BasicAction};
use rmodp_computational::signature::{OperationalSignature, TerminationSignature};
use rmodp_computational::subtype::is_operational_subtype;
use rmodp_core::dtype::DataType;

#[derive(Debug, Clone)]
struct OpSpec {
    params: Vec<u8>, // 0=Int, 1=Float, 2=Text
    interrogation: bool,
}

fn dt(tag: u8) -> DataType {
    match tag % 3 {
        0 => DataType::Int,
        1 => DataType::Float,
        _ => DataType::Text,
    }
}

fn arb_signature() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (proptest::collection::vec(0u8..3, 0..4), any::<bool>()).prop_map(
            |(params, interrogation)| OpSpec {
                params,
                interrogation,
            },
        ),
        1..8,
    )
}

fn build(name: &str, ops: &[OpSpec]) -> OperationalSignature {
    let mut sig = OperationalSignature::new(name);
    for (i, op) in ops.iter().enumerate() {
        let params: Vec<(String, DataType)> = op
            .params
            .iter()
            .enumerate()
            .map(|(j, t)| (format!("p{j}"), dt(*t)))
            .collect();
        sig = if op.interrogation {
            sig.interrogation(
                format!("op{i}"),
                params,
                vec![TerminationSignature::new("OK", [("r", DataType::Int)])],
            )
        } else {
            sig.announcement(format!("op{i}"), params)
        };
    }
    sig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn subtyping_is_reflexive(ops in arb_signature()) {
        let sig = build("S", &ops);
        prop_assert!(is_operational_subtype(&sig, &sig).is_ok());
    }

    /// Width law: adding operations preserves subtyping towards the
    /// original.
    #[test]
    fn wider_signatures_are_subtypes(ops in arb_signature(), extra in arb_signature()) {
        let base = build("Base", &ops);
        let mut wide = build("Wide", &ops);
        for (i, op) in extra.iter().enumerate() {
            let params: Vec<(String, DataType)> = op
                .params
                .iter()
                .enumerate()
                .map(|(j, t)| (format!("q{j}"), dt(*t)))
                .collect();
            wide = wide.announcement(format!("extra{i}"), params);
        }
        prop_assert!(is_operational_subtype(&wide, &base).is_ok());
        // And strictly wider is not a supertype unless nothing was added.
        if !extra.is_empty() {
            prop_assert!(is_operational_subtype(&base, &wide).is_err());
        }
    }

    /// Transitivity on a generated chain: base <: mid <: top by
    /// construction implies base-extension chain relations compose.
    #[test]
    fn transitive_on_widening_chains(ops in arb_signature()) {
        let top = build("Top", &ops);
        let mid = build("Mid", &ops).announcement("mid_extra", [("x", DataType::Int)]);
        let bot = build("Bot", &ops)
            .announcement("mid_extra", [("x", DataType::Int)])
            .announcement("bot_extra", [("y", DataType::Text)]);
        prop_assert!(is_operational_subtype(&bot, &mid).is_ok());
        prop_assert!(is_operational_subtype(&mid, &top).is_ok());
        prop_assert!(is_operational_subtype(&bot, &top).is_ok());
    }

    /// Int-parameter widening to Float is contravariantly accepted.
    #[test]
    fn float_accepting_subtype_for_int_params(n_params in 1usize..4) {
        let params_int: Vec<(String, DataType)> =
            (0..n_params).map(|j| (format!("p{j}"), DataType::Int)).collect();
        let params_float: Vec<(String, DataType)> =
            (0..n_params).map(|j| (format!("p{j}"), DataType::Float)).collect();
        let sup = OperationalSignature::new("S").announcement("f", params_int);
        let sub = OperationalSignature::new("T").announcement("f", params_float);
        prop_assert!(is_operational_subtype(&sub, &sup).is_ok());
        prop_assert!(is_operational_subtype(&sup, &sub).is_err());
    }
}

/// Arbitrary activities with bounded depth.
fn arb_activity() -> impl Strategy<Value = Activity> {
    let leaf = (0u32..100).prop_map(|i| Activity::Action(BasicAction::WriteState(format!("a{i}"))));
    leaf.prop_recursive(3, 20, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Activity::Seq),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Activity::Fork),
            inner.prop_map(|a| Activity::Spawn(Box::new(a))),
        ]
    })
}

/// The basic actions an activity holds.
fn actions(activity: &Activity) -> usize {
    match activity {
        Activity::Action(_) => 1,
        Activity::Seq(items) | Activity::Fork(items) => items.iter().map(actions).sum(),
        Activity::Spawn(inner) => actions(inner),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every basic action executes exactly once, whatever the composition.
    #[test]
    fn interpreter_executes_every_action_once(activity in arb_activity()) {
        let trace = execute(&activity);
        prop_assert_eq!(trace.events.len(), actions(&activity));
        for (i, e) in trace.events.iter().enumerate() {
            prop_assert_eq!(e.step, i);
        }
    }

    /// The interpreter is deterministic.
    #[test]
    fn interpreter_is_deterministic(activity in arb_activity()) {
        prop_assert_eq!(execute(&activity), execute(&activity));
    }

    /// Sequential composition preserves relative order of its parts.
    #[test]
    fn seq_preserves_order(names in proptest::collection::vec(0u32..50, 1..10)) {
        let activity = Activity::Seq(
            names
                .iter()
                .map(|n| Activity::Action(BasicAction::WriteState(format!("a{n}"))))
                .collect(),
        );
        let trace = execute(&activity);
        let got: Vec<String> = trace
            .events
            .iter()
            .map(|e| match &e.action {
                BasicAction::WriteState(s) => s.clone(),
                _ => unreachable!(),
            })
            .collect();
        let expected: Vec<String> = names.iter().map(|n| format!("a{n}")).collect();
        prop_assert_eq!(got, expected);
    }
}
