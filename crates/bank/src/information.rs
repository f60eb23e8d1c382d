//! The branch's information specification (§4).

use rmodp_core::dtype::DataType;
use rmodp_core::value::Value;
use rmodp_information::association::{AssociationSchema, Cardinality, CompositeSchema};
use rmodp_information::object::InformationObject;
use rmodp_information::schema::{DynamicSchema, InvariantSchema, StaticSchema};

/// The paper's daily withdrawal limit, in dollars.
pub const DAILY_LIMIT: i64 = 500;

/// The account static schema: "a bank account consists of a balance and
/// the amount withdrawn today"; at midnight the amount-withdrawn-today is
/// $0.
fn account_schema(opening_balance: i64) -> StaticSchema {
    StaticSchema::new(
        "Account",
        DataType::record([
            ("balance", DataType::Int),
            ("withdrawn_today", DataType::Int),
        ]),
        Value::record([
            ("balance", Value::Int(opening_balance)),
            ("withdrawn_today", Value::Int(0)),
        ]),
    )
    .expect("schema is well-formed")
}

/// The account invariants: the amount-withdrawn-today never exceeds $500,
/// never goes negative, and the balance never goes negative.
pub fn account_invariants() -> Vec<InvariantSchema> {
    vec![
        InvariantSchema::parse("DailyLimit", &format!("withdrawn_today <= {DAILY_LIMIT}"))
            .expect("static predicate"),
        InvariantSchema::parse("NonNegativeWithdrawn", "withdrawn_today >= 0")
            .expect("static predicate"),
        InvariantSchema::parse("NonNegativeBalance", "balance >= 0").expect("static predicate"),
    ]
}

/// The withdraw dynamic schema: "a withdrawal of $X from an account
/// decreases the balance by $X and increases the amount-withdrawn-today
/// by $X".
pub fn withdraw_schema() -> DynamicSchema {
    DynamicSchema::builder("Withdraw")
        .param("x", DataType::Int)
        .guard("x > 0")
        .effect("balance", "balance - x")
        .effect("withdrawn_today", "withdrawn_today + x")
        .build()
        .expect("schema is well-formed")
}

/// The deposit dynamic schema.
pub fn deposit_schema() -> DynamicSchema {
    DynamicSchema::builder("Deposit")
        .param("x", DataType::Int)
        .guard("x > 0")
        .effect("balance", "balance + x")
        .build()
        .expect("schema is well-formed")
}

/// The midnight reset: "at midnight, the amount-withdrawn-today is $0".
pub fn midnight_reset_schema() -> DynamicSchema {
    DynamicSchema::builder("MidnightReset")
        .effect("withdrawn_today", "0")
        .build()
        .expect("schema is well-formed")
}

/// Creates an account information object with the standard invariants.
pub fn new_account(id: u64, opening_balance: i64) -> InformationObject {
    InformationObject::new(id, account_schema(opening_balance), account_invariants())
}

/// The *owns account* association: a customer may own many accounts, an
/// account has exactly one owner.
fn owns_account() -> AssociationSchema {
    AssociationSchema::new(
        "owns_account",
        "customer",
        Cardinality::Many,
        "account",
        Cardinality::One,
    )
}

/// The composite branch schema: "a bank branch consists of a set of
/// customers, a set of accounts, and the owns-account relationships".
pub fn branch_composite() -> CompositeSchema {
    let customer = StaticSchema::new(
        "Customer",
        DataType::record([("name", DataType::Text)]),
        Value::record([("name", Value::text(""))]),
    )
    .expect("schema is well-formed");
    CompositeSchema::new("BankBranch")
        .with_component("customer", customer)
        .expect("fresh composite")
        .with_component("account", account_schema(0))
        .expect("fresh composite")
        .with_association(owns_account())
        .expect("roles exist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_information::association::AssociationSet;
    use rmodp_information::schema::SchemaError;

    fn args(x: i64) -> Value {
        Value::record([("x", Value::Int(x))])
    }

    #[test]
    fn the_papers_exact_scenario() {
        // "$400 could be withdrawn in the morning but an additional $200
        // could not be withdrawn in the afternoon as the
        // amount-withdrawn-today cannot exceed $500."
        let mut account = new_account(1, 1_000);
        let withdraw = withdraw_schema();
        account.apply(&withdraw, args(400)).unwrap();
        assert_eq!(account.state().field("balance"), Some(&Value::Int(600)));
        let err = account.apply(&withdraw, args(200)).unwrap_err();
        assert_eq!(
            err,
            SchemaError::InvariantViolated {
                invariant: "DailyLimit".into()
            }
        );
        // State unchanged by the rejected transition.
        assert_eq!(
            account.state().field("withdrawn_today"),
            Some(&Value::Int(400))
        );
    }

    #[test]
    fn midnight_reset_reopens_the_limit() {
        let mut account = new_account(1, 1_000);
        let withdraw = withdraw_schema();
        account.apply(&withdraw, args(500)).unwrap();
        assert!(account.apply(&withdraw, args(1)).is_err());
        account
            .apply(&midnight_reset_schema(), Value::record::<&str, _>([]))
            .unwrap();
        assert_eq!(
            account.state().field("withdrawn_today"),
            Some(&Value::Int(0))
        );
        account.apply(&withdraw, args(100)).unwrap();
        assert_eq!(account.state().field("balance"), Some(&Value::Int(400)));
    }

    #[test]
    fn balance_cannot_go_negative() {
        let mut account = new_account(1, 100);
        let err = account.apply(&withdraw_schema(), args(200)).unwrap_err();
        assert_eq!(
            err,
            SchemaError::InvariantViolated {
                invariant: "NonNegativeBalance".into()
            }
        );
    }

    #[test]
    fn deposits_grow_the_balance_and_are_guarded() {
        let mut account = new_account(1, 0);
        account.apply(&deposit_schema(), args(250)).unwrap();
        assert_eq!(account.state().field("balance"), Some(&Value::Int(250)));
        assert!(matches!(
            account.apply(&deposit_schema(), args(-5)),
            Err(SchemaError::GuardFailed { .. })
        ));
    }

    #[test]
    fn transition_log_replays() {
        let mut account = new_account(1, 1_000);
        account.apply(&withdraw_schema(), args(100)).unwrap();
        account.apply(&deposit_schema(), args(50)).unwrap();
        account
            .apply(&midnight_reset_schema(), Value::record::<&str, _>([]))
            .unwrap();
        assert_eq!(account.log().len(), 3);
        assert!(account.replay_consistent());
    }

    #[test]
    fn owns_account_cardinalities_match_section3() {
        // "a customer should not be limited to having only one bank
        // account" — but an account has exactly one owner.
        let mut owns = AssociationSet::new(owns_account());
        owns.link(10, 100).unwrap();
        owns.link(10, 101).unwrap(); // second account for customer 10
        assert!(owns.link(11, 100).is_err()); // second owner for account 100
    }

    #[test]
    fn composite_branch_has_components_and_association() {
        let branch = branch_composite();
        assert_eq!(branch.components().len(), 2);
        assert_eq!(branch.associations().len(), 1);
        assert_eq!(branch.associations()[0], owns_account());
    }
}
