//! The branch's enterprise specification (§3).

use rmodp_enterprise::prelude::*;

use crate::information::DAILY_LIMIT;

/// Object identities used by the canonical branch community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRoster {
    /// The bank manager (active object).
    pub manager: u64,
    /// The tellers (active objects).
    pub tellers: [u64; 2],
    /// The customers (active objects).
    pub customers: [u64; 3],
}

impl Default for BranchRoster {
    fn default() -> Self {
        Self {
            manager: 1,
            tellers: [2, 3],
            customers: [10, 11, 12],
        }
    }
}

/// Builds the branch community: "a bank branch consists of a bank
/// manager, some tellers, and some bank accounts; the branch provides
/// banking services to a geographical area".
pub fn branch_community(roster: &BranchRoster) -> Community {
    let mut c = Community::new(1, "toowong-branch", "provide banking services to Toowong");
    for role in ["manager", "teller", "customer"] {
        c.add_role(role).expect("fresh community");
    }
    c.assign(roster.manager, "manager").expect("fresh roster");
    for t in roster.tellers {
        c.assign(t, "teller").expect("fresh roster");
    }
    for cu in roster.customers {
        c.assign(cu, "customer").expect("fresh roster");
    }
    c
}

/// Adopts the paper's policies into an engine:
///
/// - *permission*: "money can be deposited into an open account";
/// - *prohibition*: "customers must not withdraw more than $500 per day";
/// - *obligation*: "the bank manager must advise customers when the
///   interest rate changes";
/// - plus the §5 structural rule that accounts are created only through
///   the manager interface.
pub fn branch_policies() -> PolicyEngine {
    let mut e = PolicyEngine::default();
    e.adopt(
        Policy::permission("deposit-open-account", "*", "deposit")
            .when("account_open")
            .expect("static predicate"),
    )
    .expect("fresh engine");
    e.adopt(
        Policy::permission("customer-withdraw", "customer", "withdraw")
            .when("amount > 0")
            .expect("static predicate"),
    )
    .expect("fresh engine");
    e.adopt(
        Policy::prohibition("daily-limit", "customer", "withdraw")
            .when(&format!("amount + withdrawn_today > {DAILY_LIMIT}"))
            .expect("static predicate"),
    )
    .expect("fresh engine");
    e.adopt(Policy::permission(
        "manager-creates-accounts",
        "manager",
        "create_account",
    ))
    .expect("fresh engine");
    e.adopt(Policy::obligation(
        "advise-rate-change",
        "manager",
        "notify_customer",
    ))
    .expect("fresh engine");
    e
}

/// Performs the paper's performative action: the interest rate changes,
/// creating one obligation on the manager per customer. Returns the
/// obligation instance ids.
pub fn change_interest_rate(
    engine: &mut PolicyEngine,
    roster: &BranchRoster,
    new_rate_percent: f64,
    deadline: Option<u64>,
) -> Vec<u64> {
    roster
        .customers
        .iter()
        .map(|customer| {
            engine
                .create_obligation(
                    "advise-rate-change",
                    roster.manager,
                    format!("advise customer {customer} of rate {new_rate_percent}%"),
                    deadline,
                )
                .expect("advise-rate-change is adopted")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::value::Value;

    fn withdraw_request(actor: u64, amount: i64, withdrawn_today: i64) -> ActionRequest {
        ActionRequest::new(actor, "withdraw").with_context(Value::record([
            ("amount", Value::Int(amount)),
            ("withdrawn_today", Value::Int(withdrawn_today)),
        ]))
    }

    #[test]
    fn community_has_papers_shape() {
        let roster = BranchRoster::default();
        let c = branch_community(&roster);
        let everyone = [roster.manager]
            .into_iter()
            .chain(roster.tellers)
            .chain(roster.customers);
        let filling = |role: &str| {
            everyone
                .clone()
                .filter(|&m| c.roles_of(m).contains(&role))
                .count()
        };
        assert_eq!(filling("teller"), 2);
        assert_eq!(filling("customer"), 3);
        assert_eq!(c.roles_of(roster.manager), ["manager"]);
    }

    #[test]
    fn daily_limit_prohibition_dominates() {
        let roster = BranchRoster::default();
        let community = branch_community(&roster);
        let mut engine = branch_policies();
        let ok = withdraw_request(roster.customers[0], 400, 0);
        assert!(engine.decide(&community, &ok).unwrap().is_allowed());
        // The paper's exact afternoon scenario at the policy level.
        let blocked = withdraw_request(roster.customers[0], 200, 400);
        let d = engine.decide(&community, &blocked).unwrap();
        assert_eq!(
            d,
            Decision::Denied {
                by: "daily-limit".into()
            }
        );
    }

    #[test]
    fn only_managers_create_accounts() {
        let roster = BranchRoster::default();
        let community = branch_community(&roster);
        let mut engine = branch_policies();
        let manager_req = ActionRequest::new(roster.manager, "create_account");
        assert!(engine
            .decide(&community, &manager_req)
            .unwrap()
            .is_allowed());
        let teller_req = ActionRequest::new(roster.tellers[0], "create_account");
        assert!(!engine.decide(&community, &teller_req).unwrap().is_allowed());
    }

    #[test]
    fn deposits_require_open_accounts() {
        let roster = BranchRoster::default();
        let community = branch_community(&roster);
        let mut engine = branch_policies();
        let open = ActionRequest::new(roster.customers[0], "deposit")
            .with_context(Value::record([("account_open", Value::Bool(true))]));
        assert!(engine.decide(&community, &open).unwrap().is_allowed());
        let closed = ActionRequest::new(roster.customers[0], "deposit")
            .with_context(Value::record([("account_open", Value::Bool(false))]));
        assert!(!engine.decide(&community, &closed).unwrap().is_allowed());
    }

    #[test]
    fn rate_change_is_performative() {
        let roster = BranchRoster::default();
        let mut engine = branch_policies();
        engine.tick(100);
        let obligations = change_interest_rate(&mut engine, &roster, 5.25, Some(200));
        assert_eq!(obligations.len(), 3);
        assert_eq!(engine.obligations_in(ObligationState::Outstanding).len(), 3);
        // The manager notifies two customers in time; the third lapses.
        engine.discharge(obligations[0]).unwrap();
        engine.discharge(obligations[1]).unwrap();
        engine.tick(300);
        assert_eq!(engine.obligations_in(ObligationState::Fulfilled).len(), 2);
        assert_eq!(engine.obligations_in(ObligationState::Violated).len(), 1);
    }

    #[test]
    fn balance_queries_are_not_performative() {
        // §3: obtaining an account balance is not a performative action —
        // the enterprise spec need not (and here does not) mention it; the
        // decision falls through to the default.
        let roster = BranchRoster::default();
        let community = branch_community(&roster);
        let mut engine = branch_policies();
        let req = ActionRequest::new(roster.customers[0], "get_balance");
        let d = engine.decide(&community, &req).unwrap();
        assert!(matches!(d, Decision::Allowed { by } | Decision::Denied { by } if by == "default"));
    }
}
