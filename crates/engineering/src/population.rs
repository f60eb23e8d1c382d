//! Behaviours for the population-scale scenarios (bank branches and
//! trader desks) driven by the sharded kernel.
//!
//! Both behaviours are deliberately **commutative**: the order in which
//! same-object invocations execute never changes the final state, and
//! every reply is a pure function of its own request. These two
//! properties are what make the population benchmark's exported results
//! invariant under re-sharding — the equal-timestamp tie-break order at
//! a server *does* depend on the shard count (cross-shard deposits and
//! local schedules interleave differently), but with commutative state
//! and request-determined replies that order is unobservable.

use rmodp_computational::signature::{Invocation, Termination};
use rmodp_core::value::Value;

use crate::behaviour::ServerBehaviour;

/// Adds `delta` to an integer field of a state record, in place. A field
/// that is missing or not an integer counts from zero.
fn add_to_field(state: &mut Value, name: &str, delta: i64) {
    match state.field_mut(name) {
        Some(Value::Int(n)) => *n += delta,
        Some(other) => *other = Value::Int(delta),
        None => {
            state.set_field(name, Value::Int(delta));
        }
    }
}

/// A retail bank branch: an account ledger folded into commutative
/// totals.
///
/// - `Deposit {amount}` → `OK {amount}` — adds to the branch total;
/// - `Withdraw {amount}` → `OK {amount}` — subtracts from it;
/// - `Audit {}` → `OK {total, movements}` — reads the folded state
///   (order-sensitive: the sharded driver only audits after quiescence);
/// - anything else → `Error`.
#[derive(Debug, Default)]
pub struct BankBranchBehaviour;

impl BankBranchBehaviour {
    /// The initial state a branch object should be created with.
    pub fn initial_state() -> Value {
        Value::record([("total", Value::Int(0)), ("movements", Value::Int(0))])
    }

    fn apply(state: &mut Value, delta: i64) {
        add_to_field(state, "total", delta);
        add_to_field(state, "movements", 1);
    }
}

impl ServerBehaviour for BankBranchBehaviour {
    fn invoke(&mut self, state: &mut Value, invocation: &Invocation) -> Termination {
        let amount = invocation.args.field("amount").and_then(Value::as_int);
        match (invocation.operation.as_str(), amount) {
            ("Deposit", Some(amount)) => {
                Self::apply(state, amount);
                Termination::ok(Value::record([("amount", Value::Int(amount))]))
            }
            ("Withdraw", Some(amount)) => {
                Self::apply(state, -amount);
                Termination::ok(Value::record([("amount", Value::Int(amount))]))
            }
            ("Deposit" | "Withdraw", None) => Termination::error("amount must be an integer"),
            ("Audit", _) => Termination::ok(Value::record([
                (
                    "total",
                    Value::Int(state.field("total").and_then(Value::as_int).unwrap_or(0)),
                ),
                (
                    "movements",
                    Value::Int(
                        state
                            .field("movements")
                            .and_then(Value::as_int)
                            .unwrap_or(0),
                    ),
                ),
            ])),
            (other, _) => Termination::error(format!("unknown operation {other}")),
        }
    }
}

/// A trading desk: price quotes are pure functions of the instrument,
/// bookings fold into commutative volume totals.
///
/// - `Quote {instrument}` → `OK {instrument, price}` — stateless, the
///   price is derived from the instrument id alone;
/// - `Book {instrument, qty}` → `OK {qty}` — adds to the desk's traded
///   volume;
/// - `Audit {}` → `OK {volume, orders}` — reads the folded state;
/// - anything else → `Error`.
#[derive(Debug, Default)]
pub struct TraderDeskBehaviour;

impl TraderDeskBehaviour {
    /// The initial state a desk object should be created with.
    pub fn initial_state() -> Value {
        Value::record([("volume", Value::Int(0)), ("orders", Value::Int(0))])
    }

    /// The quoted price for an instrument: pure, so a quote reply never
    /// leaks execution order.
    fn price_of(instrument: i64) -> i64 {
        100 + (instrument.wrapping_mul(0x5DEECE66D).rem_euclid(900))
    }
}

impl ServerBehaviour for TraderDeskBehaviour {
    fn invoke(&mut self, state: &mut Value, invocation: &Invocation) -> Termination {
        match invocation.operation.as_str() {
            "Quote" => {
                let Some(instrument) = invocation.args.field("instrument").and_then(Value::as_int)
                else {
                    return Termination::error("instrument must be an integer");
                };
                Termination::ok(Value::record([
                    ("instrument", Value::Int(instrument)),
                    ("price", Value::Int(Self::price_of(instrument))),
                ]))
            }
            "Book" => {
                let Some(qty) = invocation.args.field("qty").and_then(Value::as_int) else {
                    return Termination::error("qty must be an integer");
                };
                add_to_field(state, "volume", qty);
                add_to_field(state, "orders", 1);
                Termination::ok(Value::record([("qty", Value::Int(qty))]))
            }
            "Audit" => Termination::ok(Value::record([
                (
                    "volume",
                    Value::Int(state.field("volume").and_then(Value::as_int).unwrap_or(0)),
                ),
                (
                    "orders",
                    Value::Int(state.field("orders").and_then(Value::as_int).unwrap_or(0)),
                ),
            ])),
            other => Termination::error(format!("unknown operation {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_branch_totals_commute() {
        let mut b = BankBranchBehaviour;
        let mut forward = BankBranchBehaviour::initial_state();
        let mut reverse = BankBranchBehaviour::initial_state();
        let ops: Vec<(&str, i64)> = vec![("Deposit", 10), ("Withdraw", 4), ("Deposit", 7)];
        for (op, amount) in &ops {
            b.invoke(
                &mut forward,
                &Invocation::new(*op, Value::record([("amount", Value::Int(*amount))])),
            );
        }
        for (op, amount) in ops.iter().rev() {
            b.invoke(
                &mut reverse,
                &Invocation::new(*op, Value::record([("amount", Value::Int(*amount))])),
            );
        }
        assert_eq!(forward, reverse);
        let audit = b.invoke(
            &mut forward,
            &Invocation::new("Audit", Value::record::<&str, _>([])),
        );
        assert_eq!(audit.results.field("total"), Some(&Value::Int(13)));
        assert_eq!(audit.results.field("movements"), Some(&Value::Int(3)));
    }

    #[test]
    fn bank_branch_rejects_bad_requests() {
        let mut b = BankBranchBehaviour;
        let mut state = BankBranchBehaviour::initial_state();
        assert!(!b
            .invoke(
                &mut state,
                &Invocation::new("Deposit", Value::record::<&str, _>([]))
            )
            .is_ok());
        assert!(!b
            .invoke(&mut state, &Invocation::new("Nope", Value::Null))
            .is_ok());
    }

    #[test]
    fn quotes_are_pure_and_bookings_commute() {
        let mut b = TraderDeskBehaviour;
        let mut state = TraderDeskBehaviour::initial_state();
        let quote = |b: &mut TraderDeskBehaviour, state: &mut Value, id: i64| {
            b.invoke(
                state,
                &Invocation::new("Quote", Value::record([("instrument", Value::Int(id))])),
            )
        };
        let q1 = quote(&mut b, &mut state, 17);
        b.invoke(
            &mut state,
            &Invocation::new("Book", Value::record([("qty", Value::Int(5))])),
        );
        let q2 = quote(&mut b, &mut state, 17);
        assert_eq!(q1.results, q2.results, "quotes never leak state order");
        let audit = b.invoke(
            &mut state,
            &Invocation::new("Audit", Value::record::<&str, _>([])),
        );
        assert_eq!(audit.results.field("volume"), Some(&Value::Int(5)));
        assert_eq!(audit.results.field("orders"), Some(&Value::Int(1)));
    }
}
