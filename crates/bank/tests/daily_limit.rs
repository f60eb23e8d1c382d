//! The paper's $500 rule is written in two viewpoints: the enterprise
//! prohibition `daily-limit` (§3) and the information invariant
//! `DailyLimit` (§4), both built from `DAILY_LIMIT`. Over a grid of
//! withdrawals, with the balance ample, the prohibition must deny exactly
//! the withdrawals the `Withdraw` step refuses for the invariant.

use rmodp_bank::enterprise::{branch_community, branch_policies, BranchRoster};
use rmodp_bank::information::{account_invariants, withdraw_schema, DAILY_LIMIT};
use rmodp_core::value::Value;
use rmodp_enterprise::prelude::*;
use rmodp_information::schema::{InvariantSchema, SchemaError};

/// Amounts already withdrawn today, and amounts asked for: each side of
/// the limit, and sums on both sides of it and of the limit plus one.
const WITHDRAWN: [i64; 6] = [0, 1, 250, 251, 499, 500];
const AMOUNTS: [i64; 6] = [1, 249, 250, 251, 500, 501];

/// For each `(withdrawn_today, amount)` of the grid: whether the policy
/// engine denies it by `daily-limit`, and whether `Withdraw` returns
/// `InvariantViolated { invariant: "DailyLimit" }` under `invariants`.
fn verdicts(invariants: &[InvariantSchema]) -> Vec<((i64, i64), bool, bool)> {
    let roster = BranchRoster::default();
    let community = branch_community(&roster);
    let mut policies = branch_policies();
    let withdraw = withdraw_schema();
    let prohibited = Decision::Denied {
        by: "daily-limit".into(),
    };
    let violated = Err(SchemaError::InvariantViolated {
        invariant: "DailyLimit".into(),
    });
    let mut out = Vec::new();
    for withdrawn in WITHDRAWN {
        for amount in AMOUNTS {
            let request =
                ActionRequest::new(roster.customers[0], "withdraw").with_context(Value::record([
                    ("amount", Value::Int(amount)),
                    ("withdrawn_today", Value::Int(withdrawn)),
                ]));
            let denied = policies.decide(&community, &request).unwrap() == prohibited;
            let state = Value::record([
                ("balance", Value::Int(1_000_000)),
                ("withdrawn_today", Value::Int(withdrawn)),
            ]);
            let args = Value::record([("x", Value::Int(amount))]);
            let refused = withdraw.apply_checked(&state, &args, invariants) == violated;
            out.push(((withdrawn, amount), denied, refused));
        }
    }
    out
}

/// The cells where the two viewpoints disagree.
fn mismatches(invariants: &[InvariantSchema]) -> Vec<(i64, i64)> {
    let cells = verdicts(invariants).into_iter();
    cells
        .filter(|(_, denied, refused)| denied != refused)
        .map(|(cell, ..)| cell)
        .collect()
}

#[test]
fn the_prohibition_denies_exactly_where_the_invariant_refuses() {
    let cells = verdicts(&account_invariants());
    let denied = cells.iter().filter(|(_, denied, _)| *denied).count();
    // The grid reaches both sides of the limit.
    assert!(
        0 < denied && denied < cells.len(),
        "{denied} of {}",
        cells.len()
    );
    assert_eq!(mismatches(&account_invariants()), []);
}

#[test]
fn a_limit_one_dollar_higher_on_one_side_is_reported() {
    let mut planted = account_invariants();
    let limit = format!("withdrawn_today <= {}", DAILY_LIMIT + 1);
    planted[0] = InvariantSchema::parse("DailyLimit", &limit).unwrap();
    assert_eq!(
        mismatches(&planted),
        [(0, 501), (1, 500), (250, 251), (251, 250), (500, 1)]
    );
}
