//! The branch's computational specification (§5, Figures 2 and 3).

use rmodp_computational::binding::Causality;
use rmodp_computational::object::{InterfaceTemplate, ObjectTemplate};
use rmodp_computational::signature::{
    bank_teller_signature, InterfaceSignature, OperationKind, OperationalSignature,
    TerminationSignature,
};
use rmodp_core::dtype::DataType;
use rmodp_core::value::Value;

/// Extends a signature with every operation of another (the `subtype …`
/// notation of Figure 3).
fn extending(base: &OperationalSignature, name: &str) -> OperationalSignature {
    let mut out = OperationalSignature::new(name);
    for (op_name, op) in base.operations().clone() {
        out = match op.kind {
            OperationKind::Announcement => out.announcement(op_name, op.params),
            OperationKind::Interrogation { terminations } => {
                out.interrogation(op_name, op.params, terminations)
            }
        };
    }
    out
}

/// The BankTeller interface type of §5.1 (re-exported from the
/// computational crate, where it is the worked signature example).
pub fn bank_teller() -> OperationalSignature {
    bank_teller_signature()
}

/// The BankManager interface type: everything a teller does, plus
/// CreateAccount (Figure 3).
pub fn bank_manager() -> OperationalSignature {
    extending(&bank_teller(), "BankManager").interrogation(
        "CreateAccount",
        [("c", DataType::Int), ("opening", DataType::Int)],
        vec![
            TerminationSignature::new("OK", [("a", DataType::Int)]),
            TerminationSignature::new("Error", [("reason", DataType::Text)]),
        ],
    )
}

/// The LoansOfficer interface type: everything a teller does, plus
/// ApproveLoan (Figure 3).
pub fn loans_officer() -> OperationalSignature {
    extending(&bank_teller(), "LoansOfficer").interrogation(
        "ApproveLoan",
        [("c", DataType::Int), ("amount", DataType::Int)],
        vec![
            TerminationSignature::new("OK", [] as [(&str, DataType); 0]),
            TerminationSignature::new("Declined", [("reason", DataType::Text)]),
        ],
    )
}

/// Figure 2's bank branch object template: one object offering a
/// BankTeller interface and a BankManager interface, holding customer and
/// account information.
pub fn branch_template() -> ObjectTemplate {
    let teller = InterfaceTemplate::new(
        "teller",
        InterfaceSignature::Operational(bank_teller()),
        Causality::Server,
    )
    .expect("server causality fits operational signatures");
    let manager = InterfaceTemplate::new(
        "manager",
        InterfaceSignature::Operational(bank_manager()),
        Causality::Server,
    )
    .expect("server causality fits operational signatures");
    ObjectTemplate::new("BankBranch")
        .with_state(Value::record([
            ("accounts", Value::record::<&str, _>([])),
            ("next_account", Value::Int(1)),
            ("daily_limit", Value::Int(crate::information::DAILY_LIMIT)),
        ]))
        .with_interface(teller)
        .expect("fresh template")
        .with_interface(manager)
        .expect("fresh template")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_computational::subtype::is_operational_subtype;
    use rmodp_core::id::{IdGen, InterfaceId};

    #[test]
    fn figure3_subtype_lattice() {
        let teller = bank_teller();
        let manager = bank_manager();
        let officer = loans_officer();
        assert!(is_operational_subtype(&manager, &teller).is_ok());
        assert!(is_operational_subtype(&officer, &teller).is_ok());
        assert!(is_operational_subtype(&teller, &manager).is_err());
        assert!(is_operational_subtype(&officer, &manager).is_err());
        assert!(is_operational_subtype(&manager, &officer).is_err());
    }

    #[test]
    fn figure2_branch_offers_teller_and_manager() {
        let template = branch_template();
        let objects = IdGen::new();
        let interfaces = IdGen::new();
        let branch = template.instantiate(&objects, &interfaces);
        // Exactly two interfaces: instantiation drew ids 1 and 2 only.
        assert_eq!(interfaces.fresh(), InterfaceId::new(3));
        let teller = branch.interface("teller").unwrap();
        let manager = branch.interface("manager").unwrap();
        // Both can deposit and withdraw; only the manager creates
        // accounts.
        let signature = |name| &template.interface(name).unwrap().signature;
        let teller_sig = signature(&teller.template);
        let manager_sig = signature(&manager.template);
        match (teller_sig, manager_sig) {
            (InterfaceSignature::Operational(t), InterfaceSignature::Operational(m)) => {
                assert!(t.operation("Deposit").is_some());
                assert!(t.operation("Withdraw").is_some());
                assert!(t.operation("CreateAccount").is_none());
                assert!(m.operation("CreateAccount").is_some());
            }
            _ => panic!("expected operational signatures"),
        }
    }

    #[test]
    fn withdraw_declares_not_today_termination() {
        let teller = bank_teller();
        let w = teller.operation("Withdraw").unwrap();
        let OperationKind::Interrogation { terminations } = &w.kind else {
            panic!("Withdraw is an interrogation");
        };
        let nt = terminations.iter().find(|t| t.name == "NotToday").unwrap();
        let names: Vec<&str> = nt.results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["today", "daily_limit"]);
    }
}
