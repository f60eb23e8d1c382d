//! Property tests for the information viewpoint: accepted transitions
//! never violate invariants, rejected transitions never change state, and
//! transition logs always replay.

use proptest::prelude::*;

use rmodp_core::dtype::DataType;
use rmodp_core::value::Value;
use rmodp_information::object::InformationObject;
use rmodp_information::schema::{DynamicSchema, InvariantSchema, StaticSchema};

fn account(opening: i64) -> InformationObject {
    let schema = StaticSchema::new(
        "Account",
        DataType::record([
            ("balance", DataType::Int),
            ("withdrawn_today", DataType::Int),
        ]),
        Value::record([
            ("balance", Value::Int(opening)),
            ("withdrawn_today", Value::Int(0)),
        ]),
    )
    .unwrap();
    let invariants = vec![
        InvariantSchema::parse("DailyLimit", "withdrawn_today <= 500").unwrap(),
        InvariantSchema::parse("NonNegativeBalance", "balance >= 0").unwrap(),
        InvariantSchema::parse("NonNegativeWithdrawn", "withdrawn_today >= 0").unwrap(),
    ];
    InformationObject::new(1, schema, invariants)
}

fn withdraw() -> DynamicSchema {
    DynamicSchema::builder("Withdraw")
        .param("x", DataType::Int)
        .guard("x > 0")
        .effect("balance", "balance - x")
        .effect("withdrawn_today", "withdrawn_today + x")
        .build()
        .unwrap()
}

fn deposit() -> DynamicSchema {
    DynamicSchema::builder("Deposit")
        .param("x", DataType::Int)
        .guard("x > 0")
        .effect("balance", "balance + x")
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// THE information-viewpoint safety property: no sequence of schema
    /// applications, whatever succeeds or fails, ever leaves the object
    /// in an invariant-violating state.
    #[test]
    fn invariants_hold_after_any_schema_sequence(
        opening in 0i64..2_000,
        ops in proptest::collection::vec((any::<bool>(), -200i64..800), 0..30),
    ) {
        let mut obj = account(opening);
        let w = withdraw();
        let d = deposit();
        for (is_withdraw, amount) in ops {
            let schema = if is_withdraw { &w } else { &d };
            let _ = obj.apply(schema, Value::record([("x", Value::Int(amount))]));
            for inv in obj.invariants() {
                prop_assert!(inv.holds(obj.state()).unwrap(), "violated: {}", inv.name());
            }
        }
    }

    /// Rejected transitions are exactly side-effect free.
    #[test]
    fn rejected_transitions_do_not_change_state(
        opening in 0i64..500,
        amount in -100i64..1_000,
    ) {
        let mut obj = account(opening);
        let before = obj.state().clone();
        let log_len = obj.log().len();
        let result = obj.apply(&withdraw(), Value::record([("x", Value::Int(amount))]));
        if result.is_err() {
            prop_assert_eq!(obj.state(), &before);
            prop_assert_eq!(obj.log().len(), log_len);
        } else {
            prop_assert!(amount > 0 && amount <= opening.min(500));
        }
    }

    /// The transition log always replays to the current state.
    #[test]
    fn logs_always_replay(
        opening in 0i64..2_000,
        ops in proptest::collection::vec((any::<bool>(), 1i64..300), 0..25),
    ) {
        let mut obj = account(opening);
        let w = withdraw();
        let d = deposit();
        for (is_withdraw, amount) in ops {
            let schema = if is_withdraw { &w } else { &d };
            let _ = obj.apply(schema, Value::record([("x", Value::Int(amount))]));
        }
        prop_assert!(obj.replay_consistent());
    }

    /// Accounting identity: balance always equals opening + deposits -
    /// withdrawals that committed.
    #[test]
    fn balance_is_the_sum_of_committed_transitions(
        opening in 0i64..2_000,
        ops in proptest::collection::vec((any::<bool>(), 1i64..300), 0..25),
    ) {
        let mut obj = account(opening);
        let w = withdraw();
        let d = deposit();
        let mut expected = opening;
        for (is_withdraw, amount) in ops {
            let schema = if is_withdraw { &w } else { &d };
            if obj.apply(schema, Value::record([("x", Value::Int(amount))])).is_ok() {
                expected += if is_withdraw { -amount } else { amount };
            }
        }
        prop_assert_eq!(obj.state().field("balance"), Some(&Value::Int(expected)));
    }
}
