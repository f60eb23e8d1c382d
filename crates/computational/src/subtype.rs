//! Structural interface subtyping (§5.1.1).
//!
//! "Subtypes of an interface type are substitutable for the parent type
//! (or any supertype)." Substitutability dictates the variance rules:
//!
//! - **operations**: the subtype must offer every operation of the
//!   supertype (width), with the same kind (announcement vs
//!   interrogation);
//! - **parameters**: contravariant — the subtype must *accept* every
//!   argument record legal for the supertype, so each supertype parameter
//!   type must be a data subtype of the subtype's parameter type, and the
//!   subtype may not demand extra parameters;
//! - **terminations**: covariant — the subtype may only *emit*
//!   terminations the supertype declares, and each result record must be a
//!   data subtype of the supertype's;
//! - **flows**: produced flows are covariant, consumed flows are
//!   contravariant; the subtype must offer at least the supertype's flows;
//! - **signals**: initiated signals are covariant in their parameters,
//!   received signals contravariant.

use std::fmt;

use rmodp_core::dtype::DataType;

use crate::signature::{
    FlowDirection, InterfaceSignature, OperationKind, OperationalSignature, SignalDirection,
    SignalSignature, StreamSignature,
};

/// Why one signature is not a subtype of another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtypeViolation {
    /// Where in the signatures the problem lies (e.g.
    /// `"operation Withdraw, parameter d"`).
    pub at: String,
    /// What went wrong.
    pub reason: String,
}

impl SubtypeViolation {
    fn new(at: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            at: at.into(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SubtypeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a subtype at {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for SubtypeViolation {}

/// A hook resolving named interface-reference subtyping, normally backed
/// by the type repository. `resolver(a, b)` answers "is interface type `a`
/// a subtype of interface type `b`?".
pub type RefResolver<'a> = &'a dyn Fn(&str, &str) -> bool;

fn names_equal(a: &str, b: &str) -> bool {
    a == b
}

/// Checks whether `sub` is substitutable for `sup`.
///
/// # Errors
///
/// Returns the first [`SubtypeViolation`] found, with a path naming the
/// offending operation/flow/signal and parameter.
pub fn is_subtype(
    sub: &InterfaceSignature,
    sup: &InterfaceSignature,
) -> Result<(), SubtypeViolation> {
    is_subtype_with(sub, sup, &names_equal)
}

/// [`is_subtype`] with a resolver for nested interface references.
pub fn is_subtype_with(
    sub: &InterfaceSignature,
    sup: &InterfaceSignature,
    resolver: RefResolver<'_>,
) -> Result<(), SubtypeViolation> {
    match (sub, sup) {
        (InterfaceSignature::Operational(a), InterfaceSignature::Operational(b)) => {
            is_operational_subtype_with(a, b, resolver)
        }
        (InterfaceSignature::Stream(a), InterfaceSignature::Stream(b)) => {
            is_stream_subtype_with(a, b, resolver)
        }
        (InterfaceSignature::Signal(a), InterfaceSignature::Signal(b)) => {
            is_signal_subtype_with(a, b, resolver)
        }
        (a, b) => Err(SubtypeViolation::new(
            "signature kind",
            format!(
                "{} interface cannot substitute for {} interface",
                a.kind(),
                b.kind()
            ),
        )),
    }
}

/// Operational subtyping with name-equality reference resolution.
///
/// # Errors
///
/// See [`is_subtype`].
pub fn is_operational_subtype(
    sub: &OperationalSignature,
    sup: &OperationalSignature,
) -> Result<(), SubtypeViolation> {
    is_operational_subtype_with(sub, sup, &names_equal)
}

/// Operational subtyping with a custom reference resolver.
///
/// # Errors
///
/// See [`is_subtype`].
fn is_operational_subtype_with(
    sub: &OperationalSignature,
    sup: &OperationalSignature,
    resolver: RefResolver<'_>,
) -> Result<(), SubtypeViolation> {
    for (name, sup_op) in sup.operations() {
        let at = |detail: &str| format!("operation {name}{detail}");
        let sub_op = sub
            .operation(name)
            .ok_or_else(|| SubtypeViolation::new(at(""), "missing in subtype".to_owned()))?;

        // Parameters: contravariant. The subtype must accept every argument
        // record that is legal for the supertype, and must not demand
        // parameters the supertype does not supply.
        for (pname, sub_t) in &sub_op.params {
            match sup_op.params.iter().find(|(n, _)| n == pname) {
                Some((_, sup_t)) => {
                    if !sup_t.is_subtype_with(sub_t, resolver) {
                        return Err(SubtypeViolation::new(
                            at(&format!(", parameter {pname}")),
                            format!(
                                "subtype demands {sub_t} but supertype supplies {sup_t} \
                                 (parameters are contravariant)"
                            ),
                        ));
                    }
                }
                None => {
                    return Err(SubtypeViolation::new(
                        at(&format!(", parameter {pname}")),
                        "subtype demands a parameter the supertype does not declare".to_owned(),
                    ))
                }
            }
        }

        // Kind and terminations: covariant.
        match (&sub_op.kind, &sup_op.kind) {
            (OperationKind::Announcement, OperationKind::Announcement) => {}
            (
                OperationKind::Interrogation {
                    terminations: sub_terms,
                },
                OperationKind::Interrogation {
                    terminations: sup_terms,
                },
            ) => {
                for sub_term in sub_terms {
                    let sup_term = sup_terms
                        .iter()
                        .find(|t| t.name == sub_term.name)
                        .ok_or_else(|| {
                            SubtypeViolation::new(
                                at(&format!(", termination {}", sub_term.name)),
                                "subtype may emit a termination the supertype does not declare"
                                    .to_owned(),
                            )
                        })?;
                    let sub_rt = sub_term.result_type();
                    let sup_rt = sup_term.result_type();
                    if !sub_rt.is_subtype_with(&sup_rt, resolver) {
                        return Err(SubtypeViolation::new(
                            at(&format!(", termination {}", sub_term.name)),
                            format!(
                                "results {sub_rt} are not a subtype of {sup_rt} \
                                 (terminations are covariant)"
                            ),
                        ));
                    }
                }
            }
            (sub_k, sup_k) => {
                let label = |k: &OperationKind| match k {
                    OperationKind::Announcement => "announcement",
                    OperationKind::Interrogation { .. } => "interrogation",
                };
                return Err(SubtypeViolation::new(
                    at(""),
                    format!("{} cannot substitute for {}", label(sub_k), label(sup_k)),
                ));
            }
        }
    }
    Ok(())
}

/// Stream subtyping with a custom reference resolver.
///
/// # Errors
///
/// See [`is_subtype`].
fn is_stream_subtype_with(
    sub: &StreamSignature,
    sup: &StreamSignature,
    resolver: RefResolver<'_>,
) -> Result<(), SubtypeViolation> {
    for (name, sup_flow) in sup.flows() {
        let at = format!("flow {name}");
        let sub_flow = sub
            .flows()
            .get(name)
            .ok_or_else(|| SubtypeViolation::new(at.clone(), "missing in subtype".to_owned()))?;
        if sub_flow.direction != sup_flow.direction {
            return Err(SubtypeViolation::new(
                at,
                "flow direction differs".to_owned(),
            ));
        }
        let fits = match sup_flow.direction {
            FlowDirection::Produced => sub_flow
                .element
                .is_subtype_with(&sup_flow.element, resolver),
            FlowDirection::Consumed => sup_flow
                .element
                .is_subtype_with(&sub_flow.element, resolver),
        };
        if !fits {
            let variance = match sup_flow.direction {
                FlowDirection::Produced => "produced flows are covariant",
                FlowDirection::Consumed => "consumed flows are contravariant",
            };
            return Err(SubtypeViolation::new(
                at,
                format!(
                    "element {} does not fit {} ({variance})",
                    sub_flow.element, sup_flow.element
                ),
            ));
        }
    }
    Ok(())
}

/// Signal subtyping with a custom reference resolver.
///
/// # Errors
///
/// See [`is_subtype`].
fn is_signal_subtype_with(
    sub: &SignalSignature,
    sup: &SignalSignature,
    resolver: RefResolver<'_>,
) -> Result<(), SubtypeViolation> {
    for (name, sup_sig) in sup.signals() {
        let at = format!("signal {name}");
        let sub_sig = sub
            .signals()
            .get(name)
            .ok_or_else(|| SubtypeViolation::new(at.clone(), "missing in subtype".to_owned()))?;
        if sub_sig.direction != sup_sig.direction {
            return Err(SubtypeViolation::new(
                at,
                "signal direction differs".to_owned(),
            ));
        }
        let sub_pt = DataType::record(sub_sig.params.iter().map(|(n, t)| (n.clone(), t.clone())));
        let sup_pt = DataType::record(sup_sig.params.iter().map(|(n, t)| (n.clone(), t.clone())));
        let fits = match sup_sig.direction {
            SignalDirection::Initiated => sub_pt.is_subtype_with(&sup_pt, resolver),
            SignalDirection::Received => sup_pt.is_subtype_with(&sub_pt, resolver),
        };
        if !fits {
            return Err(SubtypeViolation::new(
                at,
                "signal parameters do not fit the required variance".to_owned(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{bank_teller_signature, TerminationSignature};
    use rmodp_core::dtype::DataType;

    fn no_params() -> [(&'static str, DataType); 0] {
        []
    }

    /// Figure 3's lattice: BankManager and LoansOfficer extend BankTeller.
    fn bank_manager() -> OperationalSignature {
        let mut sig = bank_teller_signature();
        // Rebuild under the BankManager name with the extra operation.
        let mut manager = OperationalSignature::new("BankManager");
        for (name, op) in sig.operations().clone() {
            manager = match op.kind {
                OperationKind::Announcement => manager.announcement(name, op.params),
                OperationKind::Interrogation { terminations } => {
                    manager.interrogation(name, op.params, terminations)
                }
            };
        }
        sig = manager.interrogation(
            "CreateAccount",
            [("c", DataType::Int)],
            vec![TerminationSignature::new("OK", [("a", DataType::Int)])],
        );
        sig
    }

    fn loans_officer() -> OperationalSignature {
        let mut officer = OperationalSignature::new("LoansOfficer");
        for (name, op) in bank_teller_signature().operations().clone() {
            officer = match op.kind {
                OperationKind::Announcement => officer.announcement(name, op.params),
                OperationKind::Interrogation { terminations } => {
                    officer.interrogation(name, op.params, terminations)
                }
            };
        }
        officer.interrogation(
            "ApproveLoan",
            [("c", DataType::Int), ("amount", DataType::Int)],
            vec![
                TerminationSignature::new("OK", no_params()),
                TerminationSignature::new("Declined", [("reason", DataType::Text)]),
            ],
        )
    }

    #[test]
    fn figure3_lattice_holds() {
        let teller = bank_teller_signature();
        let manager = bank_manager();
        let officer = loans_officer();
        // "either can substitute for a BankTeller".
        assert!(is_operational_subtype(&manager, &teller).is_ok());
        assert!(is_operational_subtype(&officer, &teller).is_ok());
        // "Neither a BankTeller nor a LoansOfficer can replace a
        // BankManager, as neither can provide the CreateAccount operation."
        let err = is_operational_subtype(&teller, &manager).unwrap_err();
        assert!(err.at.contains("CreateAccount"), "{err}");
        let err = is_operational_subtype(&officer, &manager).unwrap_err();
        assert!(err.at.contains("CreateAccount"), "{err}");
        // And a manager cannot replace a loans officer.
        assert!(is_operational_subtype(&manager, &officer).is_err());
        // Reflexivity.
        assert!(is_operational_subtype(&teller, &teller).is_ok());
    }

    #[test]
    fn parameters_are_contravariant() {
        // Supertype takes Int; a subtype accepting Float (wider) is fine.
        let sup = OperationalSignature::new("S").announcement("f", [("x", DataType::Int)]);
        let sub_wider = OperationalSignature::new("T").announcement("f", [("x", DataType::Float)]);
        assert!(is_operational_subtype(&sub_wider, &sup).is_ok());
        // A subtype demanding a *narrower* parameter is not substitutable.
        let sup_f = OperationalSignature::new("S").announcement("f", [("x", DataType::Float)]);
        let sub_narrow = OperationalSignature::new("T").announcement("f", [("x", DataType::Int)]);
        let err = is_operational_subtype(&sub_narrow, &sup_f).unwrap_err();
        assert!(err.reason.contains("contravariant"), "{err}");
    }

    #[test]
    fn extra_demanded_parameters_break_substitutability() {
        let sup = OperationalSignature::new("S").announcement("f", [("x", DataType::Int)]);
        let sub = OperationalSignature::new("T")
            .announcement("f", [("x", DataType::Int), ("y", DataType::Int)]);
        let err = is_operational_subtype(&sub, &sup).unwrap_err();
        assert!(err.at.contains("parameter y"), "{err}");
        // The subtype ignoring a supplied parameter is fine.
        let sub_fewer = OperationalSignature::new("T").announcement("f", no_params());
        assert!(is_operational_subtype(&sub_fewer, &sup).is_ok());
    }

    #[test]
    fn terminations_are_covariant() {
        let sup = OperationalSignature::new("S").interrogation(
            "f",
            no_params(),
            vec![
                TerminationSignature::new("OK", [("r", DataType::Float)]),
                TerminationSignature::new("Error", [("reason", DataType::Text)]),
            ],
        );
        // Subtype emits fewer terminations with narrower results: fine.
        let sub = OperationalSignature::new("T").interrogation(
            "f",
            no_params(),
            vec![TerminationSignature::new("OK", [("r", DataType::Int)])],
        );
        assert!(is_operational_subtype(&sub, &sup).is_ok());
        // Subtype emitting an undeclared termination: not substitutable.
        let sub_extra = OperationalSignature::new("T").interrogation(
            "f",
            no_params(),
            vec![TerminationSignature::new("Maybe", no_params())],
        );
        let err = is_operational_subtype(&sub_extra, &sup).unwrap_err();
        assert!(err.at.contains("Maybe"), "{err}");
        // Subtype widening a result: not substitutable.
        let sub_wide = OperationalSignature::new("T").interrogation(
            "f",
            no_params(),
            vec![TerminationSignature::new("OK", [("r", DataType::Text)])],
        );
        assert!(is_operational_subtype(&sub_wide, &sup).is_err());
    }

    #[test]
    fn announcement_and_interrogation_do_not_mix() {
        let ann = OperationalSignature::new("A").announcement("f", no_params());
        let int = OperationalSignature::new("I").interrogation(
            "f",
            no_params(),
            vec![TerminationSignature::new("OK", no_params())],
        );
        assert!(is_operational_subtype(&ann, &int).is_err());
        assert!(is_operational_subtype(&int, &ann).is_err());
    }

    #[test]
    fn stream_variance() {
        use crate::signature::FlowDirection::*;
        let sup = StreamSignature::new("S")
            .flow("out", DataType::Float, Produced)
            .flow("in", DataType::Int, Consumed);
        // Producing narrower, consuming wider: substitutable.
        let sub = StreamSignature::new("T")
            .flow("out", DataType::Int, Produced)
            .flow("in", DataType::Float, Consumed)
            .flow("extra", DataType::Blob, Produced);
        assert!(is_stream_subtype_with(&sub, &sup, &|a, b| a == b).is_ok());
        // Producing wider: not substitutable.
        let bad = StreamSignature::new("T")
            .flow("out", DataType::Text, Produced)
            .flow("in", DataType::Int, Consumed);
        assert!(is_stream_subtype_with(&bad, &sup, &|a, b| a == b).is_err());
        // Direction flip: not substitutable.
        let flipped = StreamSignature::new("T")
            .flow("out", DataType::Int, Consumed)
            .flow("in", DataType::Int, Consumed);
        let err = is_stream_subtype_with(&flipped, &sup, &|a, b| a == b).unwrap_err();
        assert!(err.reason.contains("direction"), "{err}");
    }

    #[test]
    fn signal_variance() {
        use crate::signature::SignalDirection::*;
        let sup = SignalSignature::new("S")
            .signal("req", [("x", DataType::Int)], Received)
            .signal("cnf", [("y", DataType::Int)], Initiated);
        let sub = SignalSignature::new("T")
            .signal("req", [("x", DataType::Float)], Received)
            .signal("cnf", [("y", DataType::Int)], Initiated);
        assert!(is_signal_subtype_with(&sub, &sup, &|a, b| a == b).is_ok());
        let bad = SignalSignature::new("T")
            .signal("req", [("x", DataType::Int)], Initiated)
            .signal("cnf", [("y", DataType::Int)], Initiated);
        assert!(is_signal_subtype_with(&bad, &sup, &|a, b| a == b).is_err());
    }

    #[test]
    fn kinds_do_not_cross() {
        let op = InterfaceSignature::Operational(bank_teller_signature());
        let st = InterfaceSignature::Stream(StreamSignature::new("S"));
        let err = is_subtype(&op, &st).unwrap_err();
        assert!(err.reason.contains("cannot substitute"), "{err}");
    }

    #[test]
    fn resolver_enables_nested_interface_refs() {
        // Parameter carries an interface reference; the resolver knows the
        // nested subtype relationship.
        let sup = OperationalSignature::new("S")
            .announcement("use", [("t", DataType::Ref(Some("BankManager".into())))]);
        let sub = OperationalSignature::new("T")
            .announcement("use", [("t", DataType::Ref(Some("BankTeller".into())))]);
        // Contravariant: sub accepts any BankTeller ref, sup supplies
        // BankManager refs; fine iff BankManager <: BankTeller.
        let resolver = |a: &str, b: &str| a == "BankManager" && b == "BankTeller";
        assert!(is_operational_subtype_with(&sub, &sup, &resolver).is_ok());
        assert!(is_operational_subtype(&sub, &sup).is_err());
    }
}
