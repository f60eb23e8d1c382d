//! The branch's engineering deployment (§6): executable behaviour wired
//! into nodes, capsules, clusters and channels.

use rmodp_computational::signature::{InterfaceSignature, Invocation, Termination};
use rmodp_core::codec::SyntaxId;
use rmodp_core::id::{CapsuleId, ClusterId, NodeId, ObjectId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::ServerBehaviour;
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_engineering::structure::InterfaceRef;
use rmodp_information::schema::{DynamicSchema, InvariantSchema, SchemaError};
use rmodp_trader::Trader;
use rmodp_typerepo::TypeRepository;

use crate::computational::{bank_manager, bank_teller, loans_officer};
use crate::information::{
    account_invariants, deposit_schema, midnight_reset_schema, withdraw_schema, DAILY_LIMIT,
};

/// The information viewpoint's schemas the branch applies, parsed once
/// per process rather than on every invocation.
struct BranchSchemas {
    deposit: DynamicSchema,
    withdraw: DynamicSchema,
    midnight_reset: DynamicSchema,
    invariants: Vec<InvariantSchema>,
}

fn schemas() -> &'static BranchSchemas {
    static SCHEMAS: std::sync::OnceLock<BranchSchemas> = std::sync::OnceLock::new();
    SCHEMAS.get_or_init(|| BranchSchemas {
        deposit: deposit_schema(),
        withdraw: withdraw_schema(),
        midnight_reset: midnight_reset_schema(),
        invariants: account_invariants(),
    })
}

/// The executable behaviour of the bank branch object.
///
/// Every state change goes through the information viewpoint's dynamic
/// schemas, checked against the invariant schemas — the engineering
/// realisation *implements* the information specification rather than
/// duplicating it. Interface discipline (only the manager interface
/// offers `CreateAccount`) is enforced by the computational type system
/// at binding time: a client bound with the BankTeller signature cannot
/// even name the operation.
#[derive(Debug, Default)]
pub struct BranchBehaviour;

impl BranchBehaviour {
    /// The initial branch state.
    pub fn initial_state() -> Value {
        Value::record([
            ("accounts", Value::record::<&str, _>([])),
            ("next_account", Value::Int(1)),
            ("daily_limit", Value::Int(DAILY_LIMIT)),
        ])
    }

    fn account_key(a: i64) -> String {
        format!("acct{a}")
    }

    /// Steps account `a` where it lies in `state` by `schema` with
    /// amount `d`, checked against the account invariants.
    fn with_account(state: &mut Value, a: i64, schema: &DynamicSchema, d: i64) -> Termination {
        let key = Self::account_key(a);
        let Some(account) = state.field_mut("accounts").and_then(|r| r.field_mut(&key)) else {
            return Termination::error(format!("no such account {a}"));
        };
        let args = Value::record([("x", Value::Int(d))]);
        match schema.step(account, &args, &schemas().invariants) {
            Ok(()) => {
                let balance = account.field("balance").cloned().unwrap_or(Value::Null);
                Termination::ok(Value::record([("new_balance", balance)]))
            }
            Err(SchemaError::InvariantViolated { invariant }) if invariant == "DailyLimit" => {
                let today = account
                    .field("withdrawn_today")
                    .cloned()
                    .unwrap_or(Value::Int(0));
                Termination::new(
                    "NotToday",
                    Value::record([("today", today), ("daily_limit", Value::Int(DAILY_LIMIT))]),
                )
            }
            Err(SchemaError::InvariantViolated { invariant })
                if invariant == "NonNegativeBalance" =>
            {
                Termination::error("insufficient funds")
            }
            Err(SchemaError::GuardFailed { .. }) => Termination::error("invalid amount"),
            Err(other) => Termination::error(other.to_string()),
        }
    }

    fn int_arg(invocation: &Invocation, name: &str) -> Option<i64> {
        invocation.args.field(name).and_then(Value::as_int)
    }
}

impl ServerBehaviour for BranchBehaviour {
    fn invoke(&mut self, state: &mut Value, invocation: &Invocation) -> Termination {
        match invocation.operation.as_str() {
            "Deposit" => {
                let Some(a) = Self::int_arg(invocation, "a") else {
                    return Termination::error("Deposit requires account a");
                };
                let Some(d) = Self::int_arg(invocation, "d") else {
                    return Termination::error("Deposit requires amount d");
                };
                Self::with_account(state, a, &schemas().deposit, d)
            }
            "Withdraw" => {
                let Some(a) = Self::int_arg(invocation, "a") else {
                    return Termination::error("Withdraw requires account a");
                };
                let Some(d) = Self::int_arg(invocation, "d") else {
                    return Termination::error("Withdraw requires amount d");
                };
                Self::with_account(state, a, &schemas().withdraw, d)
            }
            "CreateAccount" => {
                let Some(c) = Self::int_arg(invocation, "c") else {
                    return Termination::error("CreateAccount requires customer c");
                };
                let opening = Self::int_arg(invocation, "opening").unwrap_or(0);
                if opening < 0 {
                    return Termination::error("opening balance cannot be negative");
                }
                let n = state
                    .field("next_account")
                    .and_then(Value::as_int)
                    .unwrap_or(1);
                state.set_field("next_account", Value::Int(n + 1));
                let account = Value::record([
                    ("balance", Value::Int(opening)),
                    ("withdrawn_today", Value::Int(0)),
                    ("owner", Value::Int(c)),
                ]);
                state
                    .field_mut("accounts")
                    .expect("state has accounts")
                    .set_field(Self::account_key(n), account);
                Termination::ok(Value::record([("a", Value::Int(n))]))
            }
            "GetBalance" => {
                let Some(a) = Self::int_arg(invocation, "a") else {
                    return Termination::error("GetBalance requires account a");
                };
                let key = Self::account_key(a);
                match state.path(&["accounts", &key, "balance"]) {
                    Some(balance) => Termination::ok(Value::record([("balance", balance.clone())])),
                    None => Termination::error(format!("no such account {a}")),
                }
            }
            "ResetDay" => {
                // The midnight performative: reset every account (one the
                // reset would leave inconsistent keeps its state).
                let (reset, no_args) = (&schemas().midnight_reset, Value::record::<&str, _>([]));
                if let Some(Value::Record(accounts)) = state.field_mut("accounts") {
                    for account in accounts.values_mut() {
                        let _ = reset.step(account, &no_args, &schemas().invariants);
                    }
                }
                Termination::ok(Value::record::<&str, _>([]))
            }
            other => Termination::error(format!("unknown operation {other}")),
        }
    }
}

/// A deployed branch: where everything landed.
#[derive(Debug, Clone, Copy)]
pub struct BankDeployment {
    /// The node hosting the branch.
    pub node: NodeId,
    /// Its capsule.
    pub capsule: CapsuleId,
    /// Its cluster.
    pub cluster: ClusterId,
    /// The branch object.
    pub object: ObjectId,
    /// The BankTeller interface (Figure 2's left interface).
    pub teller: InterfaceRef,
    /// The BankManager interface (Figure 2's right interface).
    pub manager: InterfaceRef,
}

/// Deploys a branch onto a fresh node of the engine: registers the
/// behaviour, builds node/capsule/cluster, and creates the branch object
/// with its two interfaces.
///
/// # Errors
///
/// Engineering failures (policy limits, unknown entities).
pub fn deploy_branch(engine: &mut Engine, native: SyntaxId) -> Result<BankDeployment, EngError> {
    if !engine.behaviours_mut().contains("bank-branch") {
        engine
            .behaviours_mut()
            .register("bank-branch", BranchBehaviour::default);
    }
    let node = engine.add_node(native);
    let capsule = engine.add_capsule(node)?;
    let cluster = engine.add_cluster(node, capsule)?;
    let (object, refs) = engine.create_object(
        node,
        capsule,
        cluster,
        "toowong-branch",
        "bank-branch",
        BranchBehaviour::initial_state(),
        2,
    )?;
    Ok(BankDeployment {
        node,
        capsule,
        cluster,
        object,
        teller: refs[0],
        manager: refs[1],
    })
}

/// Registers the bank's interface types with the type repository
/// (Figure 3's lattice emerges structurally).
///
/// # Errors
///
/// Duplicate registration.
pub fn register_types(repo: &mut TypeRepository) -> Result<(), rmodp_typerepo::TypeRepoError> {
    repo.register(InterfaceSignature::Operational(bank_teller()))?;
    repo.register(InterfaceSignature::Operational(bank_manager()))?;
    repo.register(InterfaceSignature::Operational(loans_officer()))?;
    Ok(())
}

/// Exports the deployed branch's interfaces to a trader with sensible
/// service properties.
///
/// # Errors
///
/// Trader failures.
pub fn export_to_trader(
    trader: &mut Trader,
    deployment: &BankDeployment,
) -> Result<(), rmodp_trader::TraderError> {
    trader.export(
        "BankTeller",
        deployment.teller.interface,
        Value::record([
            ("branch", Value::text("toowong")),
            ("daily_limit", Value::Int(DAILY_LIMIT)),
        ]),
    )?;
    trader.export(
        "BankManager",
        deployment.manager.interface,
        Value::record([("branch", Value::text("toowong"))]),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_engineering::channel::ChannelConfig;
    use rmodp_trader::ImportRequest;

    fn world() -> (Engine, BankDeployment, NodeId) {
        let mut engine = Engine::new(77);
        let deployment = deploy_branch(&mut engine, SyntaxId::Binary).unwrap();
        let client = engine.add_node(SyntaxId::Text);
        (engine, deployment, client)
    }

    fn dwa(c: i64, a: i64, d: i64) -> Value {
        Value::record([
            ("c", Value::Int(c)),
            ("a", Value::Int(a)),
            ("d", Value::Int(d)),
        ])
    }

    #[test]
    fn full_banking_day_through_real_channels() {
        let (mut e, dep, client) = world();
        let manager_ch = e
            .open_channel(client, dep.manager.interface, ChannelConfig::default())
            .unwrap();
        let teller_ch = e
            .open_channel(client, dep.teller.interface, ChannelConfig::default())
            .unwrap();

        // The manager opens an account for customer 10.
        let t = e
            .call(
                manager_ch,
                "CreateAccount",
                &Value::record([("c", Value::Int(10)), ("opening", Value::Int(1_000))]),
            )
            .unwrap();
        assert!(t.is_ok());
        let a = t.results.field("a").unwrap().as_int().unwrap();

        // Morning: $400 through the teller interface succeeds.
        let t = e.call(teller_ch, "Withdraw", &dwa(10, a, 400)).unwrap();
        assert_eq!(t.results.field("new_balance"), Some(&Value::Int(600)));

        // Afternoon: $200 more is refused with the paper's NotToday
        // termination carrying today's figure and the limit.
        let t = e.call(teller_ch, "Withdraw", &dwa(10, a, 200)).unwrap();
        assert_eq!(t.name, "NotToday");
        assert_eq!(t.results.field("today"), Some(&Value::Int(400)));
        assert_eq!(t.results.field("daily_limit"), Some(&Value::Int(500)));

        // Deposits still work, balance is intact.
        let t = e.call(teller_ch, "Deposit", &dwa(10, a, 50)).unwrap();
        assert_eq!(t.results.field("new_balance"), Some(&Value::Int(650)));

        // Midnight passes; the limit reopens.
        e.call(manager_ch, "ResetDay", &Value::record::<&str, _>([]))
            .unwrap();
        let t = e.call(teller_ch, "Withdraw", &dwa(10, a, 200)).unwrap();
        assert!(t.is_ok(), "{t:?}");
    }

    #[test]
    fn error_terminations() {
        let (mut e, dep, client) = world();
        let ch = e
            .open_channel(client, dep.teller.interface, ChannelConfig::default())
            .unwrap();
        let t = e.call(ch, "Withdraw", &dwa(1, 99, 10)).unwrap();
        assert_eq!(t.name, "Error");
        assert!(t
            .results
            .field("reason")
            .unwrap()
            .as_text()
            .unwrap()
            .contains("no such account"));
        let t = e
            .call(ch, "Deposit", &Value::record([("a", Value::Int(1))]))
            .unwrap();
        assert_eq!(t.name, "Error");
    }

    #[test]
    fn insufficient_funds_and_invalid_amounts() {
        let (mut e, dep, client) = world();
        let mch = e
            .open_channel(client, dep.manager.interface, ChannelConfig::default())
            .unwrap();
        let t = e
            .call(
                mch,
                "CreateAccount",
                &Value::record([("c", Value::Int(1)), ("opening", Value::Int(100))]),
            )
            .unwrap();
        let a = t.results.field("a").unwrap().as_int().unwrap();
        let t = e.call(mch, "Withdraw", &dwa(1, a, 400)).unwrap();
        assert_eq!(t.name, "Error");
        assert!(t
            .results
            .field("reason")
            .unwrap()
            .as_text()
            .unwrap()
            .contains("insufficient"));
        let t = e.call(mch, "Withdraw", &dwa(1, a, -5)).unwrap();
        assert_eq!(t.name, "Error");
        let t = e
            .call(
                mch,
                "CreateAccount",
                &Value::record([("c", Value::Int(1)), ("opening", Value::Int(-1))]),
            )
            .unwrap();
        assert_eq!(t.name, "Error");
    }

    #[test]
    fn get_balance_is_not_performative_but_works() {
        let (mut e, dep, client) = world();
        let mch = e
            .open_channel(client, dep.manager.interface, ChannelConfig::default())
            .unwrap();
        let t = e
            .call(
                mch,
                "CreateAccount",
                &Value::record([("c", Value::Int(2)), ("opening", Value::Int(77))]),
            )
            .unwrap();
        let a = t.results.field("a").unwrap().as_int().unwrap();
        let t = e
            .call(mch, "GetBalance", &Value::record([("a", Value::Int(a))]))
            .unwrap();
        assert_eq!(t.results.field("balance"), Some(&Value::Int(77)));
    }

    #[test]
    fn trader_and_typerepo_integration() {
        let (mut e, dep, _) = world();
        let mut repo = TypeRepository::new();
        register_types(&mut repo).unwrap();
        let mut trader = Trader::new("bank-district");
        export_to_trader(&mut trader, &dep).unwrap();
        // An importer needing a BankTeller finds both offers: the manager
        // offer matches by substitutability.
        let matches = trader.import(&ImportRequest::new("BankTeller"), Some(&repo));
        assert_eq!(matches.len(), 2);
        // An importer needing a BankManager gets exactly the manager.
        let matches = trader.import(&ImportRequest::new("BankManager"), Some(&repo));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].offer.interface, dep.manager.interface);
        let _ = e.run_until_idle();
    }

    #[test]
    fn accounts_are_isolated_from_each_other() {
        let (mut e, dep, client) = world();
        let mch = e
            .open_channel(client, dep.manager.interface, ChannelConfig::default())
            .unwrap();
        let mut accounts = Vec::new();
        for c in 0..3 {
            let t = e
                .call(
                    mch,
                    "CreateAccount",
                    &Value::record([("c", Value::Int(c)), ("opening", Value::Int(1_000))]),
                )
                .unwrap();
            accounts.push(t.results.field("a").unwrap().as_int().unwrap());
        }
        // Max out account 0's daily limit; others are unaffected.
        e.call(mch, "Withdraw", &dwa(0, accounts[0], 500)).unwrap();
        let t = e.call(mch, "Withdraw", &dwa(0, accounts[0], 1)).unwrap();
        assert_eq!(t.name, "NotToday");
        let t = e.call(mch, "Withdraw", &dwa(1, accounts[1], 500)).unwrap();
        assert!(t.is_ok());
    }
}
