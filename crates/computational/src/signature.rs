//! Interface signatures: operational, stream and signal (§5.1).

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::dtype::{DataType, TypeError};
use rmodp_core::value::Value;

/// A termination of an interrogation: a named outcome with typed results
/// — e.g. `returns OK (new_balance: Dollars)` or
/// `returns NotToday (today: Dollars, daily_limit: Dollars)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminationSignature {
    /// The termination name.
    pub name: String,
    /// The named, typed results it carries.
    pub results: Vec<(String, DataType)>,
}

impl TerminationSignature {
    /// Creates a termination signature.
    pub fn new<S: Into<String>, I: IntoIterator<Item = (S, DataType)>>(
        name: impl Into<String>,
        results: I,
    ) -> Self {
        Self {
            name: name.into(),
            results: results.into_iter().map(|(n, t)| (n.into(), t)).collect(),
        }
    }

    /// The result type as a record.
    pub fn result_type(&self) -> DataType {
        DataType::record(self.results.iter().map(|(n, t)| (n.clone(), t.clone())))
    }
}

/// Whether an operation returns a termination.
#[derive(Debug, Clone, PartialEq)]
pub enum OperationKind {
    /// Fire-and-forget: no termination is returned (§5.1).
    Announcement,
    /// Returns exactly one of the declared terminations.
    Interrogation {
        /// The possible terminations.
        terminations: Vec<TerminationSignature>,
    },
}

/// A named operation with typed parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationSignature {
    /// The operation name.
    pub name: String,
    /// The named, typed parameters.
    pub params: Vec<(String, DataType)>,
    /// Announcement or interrogation (with terminations).
    pub kind: OperationKind,
}

impl OperationSignature {
    /// The parameter type as a record.
    fn param_type(&self) -> DataType {
        DataType::record(self.params.iter().map(|(n, t)| (n.clone(), t.clone())))
    }

    /// Checks an argument record against the parameter list.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] for missing or ill-typed arguments.
    pub fn check_args(&self, args: &Value) -> Result<(), TypeError> {
        self.param_type().check(args)
    }

    /// Finds a termination by name (interrogations only).
    pub(crate) fn termination(&self, name: &str) -> Option<&TerminationSignature> {
        match &self.kind {
            OperationKind::Announcement => None,
            OperationKind::Interrogation { terminations } => {
                terminations.iter().find(|t| t.name == name)
            }
        }
    }

    /// Checks a termination value against the declared terminations.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the termination name is undeclared or the
    /// results are ill-typed.
    pub fn check_termination(&self, term: &Termination) -> Result<(), TypeError> {
        match self.termination(&term.name) {
            Some(sig) => sig.result_type().check(&term.results),
            None => Err(TypeError {
                path: String::new(),
                expected: format!("a declared termination of {}", self.name),
                got: format!("termination {:?}", term.name),
            }),
        }
    }
}

/// An operational interface signature: a named set of operations providing
/// the client–server (RPC) model of distributed computing.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationalSignature {
    name: String,
    operations: BTreeMap<String, OperationSignature>,
}

impl OperationalSignature {
    /// Creates an empty operational signature.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            operations: BTreeMap::new(),
        }
    }

    /// Adds an interrogation (builder style; replaces a same-named
    /// operation).
    pub fn interrogation<S: Into<String>, I: IntoIterator<Item = (S, DataType)>>(
        mut self,
        name: impl Into<String>,
        params: I,
        terminations: Vec<TerminationSignature>,
    ) -> Self {
        let name = name.into();
        self.operations.insert(
            name.clone(),
            OperationSignature {
                name,
                params: params.into_iter().map(|(n, t)| (n.into(), t)).collect(),
                kind: OperationKind::Interrogation { terminations },
            },
        );
        self
    }

    /// Adds an announcement (builder style; replaces a same-named
    /// operation).
    pub fn announcement<S: Into<String>, I: IntoIterator<Item = (S, DataType)>>(
        mut self,
        name: impl Into<String>,
        params: I,
    ) -> Self {
        let name = name.into();
        self.operations.insert(
            name.clone(),
            OperationSignature {
                name,
                params: params.into_iter().map(|(n, t)| (n.into(), t)).collect(),
                kind: OperationKind::Announcement,
            },
        );
        self
    }

    /// The signature name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operations, keyed by name.
    pub fn operations(&self) -> &BTreeMap<String, OperationSignature> {
        &self.operations
    }

    /// Looks up one operation.
    pub fn operation(&self, name: &str) -> Option<&OperationSignature> {
        self.operations.get(name)
    }
}

/// The direction of a stream flow, from the interface owner's point of
/// view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDirection {
    /// The owner produces this flow.
    Produced,
    /// The owner consumes this flow.
    Consumed,
}

/// One (logically continuous) flow in a stream interface.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSignature {
    /// The flow name (e.g. `"audio"`).
    pub name: String,
    /// The element type carried by the flow.
    pub element: DataType,
    /// Produced or consumed by the interface owner.
    pub direction: FlowDirection,
}

/// A stream interface signature: several flows can be grouped in a single
/// interface, e.g. an audio stream and a video stream (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSignature {
    name: String,
    flows: BTreeMap<String, FlowSignature>,
}

impl StreamSignature {
    /// Creates an empty stream signature.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            flows: BTreeMap::new(),
        }
    }

    /// Adds a flow (builder style; replaces a same-named flow).
    pub fn flow(
        mut self,
        name: impl Into<String>,
        element: DataType,
        direction: FlowDirection,
    ) -> Self {
        let name = name.into();
        self.flows.insert(
            name.clone(),
            FlowSignature {
                name,
                element,
                direction,
            },
        );
        self
    }

    /// The signature name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The flows, keyed by name.
    pub fn flows(&self) -> &BTreeMap<String, FlowSignature> {
        &self.flows
    }
}

/// The direction of a signal from the interface owner's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalDirection {
    /// The owner initiates (emits) this signal.
    Initiated,
    /// The owner responds to (receives) this signal.
    Received,
}

/// One low-level signal — the OSI service primitives (REQUEST, INDICATE,
/// RESPONSE, CONFIRM) are examples (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SignalDef {
    /// The signal name.
    pub name: String,
    /// The typed parameters carried by the signal.
    pub params: Vec<(String, DataType)>,
    /// Initiated or received by the interface owner.
    pub direction: SignalDirection,
}

/// A signal interface signature.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSignature {
    name: String,
    signals: BTreeMap<String, SignalDef>,
}

impl SignalSignature {
    /// Creates an empty signal signature.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            signals: BTreeMap::new(),
        }
    }

    /// Adds a signal (builder style; replaces a same-named signal).
    pub fn signal<S: Into<String>, I: IntoIterator<Item = (S, DataType)>>(
        mut self,
        name: impl Into<String>,
        params: I,
        direction: SignalDirection,
    ) -> Self {
        let name = name.into();
        self.signals.insert(
            name.clone(),
            SignalDef {
                name,
                params: params.into_iter().map(|(n, t)| (n.into(), t)).collect(),
                direction,
            },
        );
        self
    }

    /// The signature name.
    fn name(&self) -> &str {
        &self.name
    }

    /// The signals, keyed by name.
    pub fn signals(&self) -> &BTreeMap<String, SignalDef> {
        &self.signals
    }
}

/// An interface signature of any of the three kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum InterfaceSignature {
    /// Client–server operations.
    Operational(OperationalSignature),
    /// Producer–consumer flows.
    Stream(StreamSignature),
    /// Low-level signals.
    Signal(SignalSignature),
}

impl InterfaceSignature {
    /// The signature name.
    pub fn name(&self) -> &str {
        match self {
            InterfaceSignature::Operational(s) => s.name(),
            InterfaceSignature::Stream(s) => s.name(),
            InterfaceSignature::Signal(s) => s.name(),
        }
    }

    /// A short label for the signature kind.
    pub fn kind(&self) -> &'static str {
        match self {
            InterfaceSignature::Operational(_) => "operational",
            InterfaceSignature::Stream(_) => "stream",
            InterfaceSignature::Signal(_) => "signal",
        }
    }
}

impl fmt::Display for InterfaceSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} interface {}", self.kind(), self.name())
    }
}

/// A runtime invocation of an operation: the request side of an
/// interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The operation name.
    pub operation: String,
    /// The argument record.
    pub args: Value,
}

impl Invocation {
    /// Creates an invocation.
    pub fn new(operation: impl Into<String>, args: Value) -> Self {
        Self {
            operation: operation.into(),
            args,
        }
    }
}

/// A runtime termination: the reply side of an interrogation.
#[derive(Debug, Clone, PartialEq)]
pub struct Termination {
    /// The termination name (e.g. `"OK"`, `"NotToday"`, `"Error"`).
    pub name: String,
    /// The result record.
    pub results: Value,
}

impl Termination {
    /// Creates a termination.
    pub fn new(name: impl Into<String>, results: Value) -> Self {
        Self {
            name: name.into(),
            results,
        }
    }

    /// The conventional success termination.
    pub fn ok(results: Value) -> Self {
        Self::new("OK", results)
    }

    /// The conventional failure termination carrying a reason.
    pub fn error(reason: impl Into<String>) -> Self {
        Self::new(
            "Error",
            Value::record([("reason", Value::text(reason.into()))]),
        )
    }

    /// Whether this is the conventional success termination.
    pub fn is_ok(&self) -> bool {
        self.name == "OK"
    }
}

/// The paper's BankTeller signature (§5.1), used widely in tests and
/// benchmarks:
///
/// ```text
/// BankTeller = Interface Type {
///   operation Deposit  (c: Customer, a: Account, d: Dollars)
///     returns OK (new_balance: Dollars) | Error (reason: Text);
///   operation Withdraw (c: Customer, a: Account, d: Dollars)
///     returns OK (new_balance: Dollars)
///           | NotToday (today: Dollars, daily_limit: Dollars)
///           | Error (reason: Text);
/// }
/// ```
pub fn bank_teller_signature() -> OperationalSignature {
    let dollars = DataType::Int;
    let common_params = [
        ("c", DataType::Int),
        ("a", DataType::Int),
        ("d", dollars.clone()),
    ];
    OperationalSignature::new("BankTeller")
        .interrogation(
            "Deposit",
            common_params.clone(),
            vec![
                TerminationSignature::new("OK", [("new_balance", dollars.clone())]),
                TerminationSignature::new("Error", [("reason", DataType::Text)]),
            ],
        )
        .interrogation(
            "Withdraw",
            common_params,
            vec![
                TerminationSignature::new("OK", [("new_balance", dollars.clone())]),
                TerminationSignature::new(
                    "NotToday",
                    [("today", dollars.clone()), ("daily_limit", dollars)],
                ),
                TerminationSignature::new("Error", [("reason", DataType::Text)]),
            ],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_teller_has_papers_operations() {
        let sig = bank_teller_signature();
        assert_eq!(sig.name(), "BankTeller");
        assert_eq!(sig.operations().len(), 2);
        let withdraw = sig.operation("Withdraw").unwrap();
        match &withdraw.kind {
            OperationKind::Interrogation { terminations } => {
                let names: Vec<&str> = terminations.iter().map(|t| t.name.as_str()).collect();
                assert_eq!(names, ["OK", "NotToday", "Error"]);
            }
            _ => panic!("Withdraw must be an interrogation"),
        }
    }

    #[test]
    fn check_args_validates_parameter_record() {
        let sig = bank_teller_signature();
        let dep = sig.operation("Deposit").unwrap();
        let good = Value::record([
            ("c", Value::Int(1)),
            ("a", Value::Int(2)),
            ("d", Value::Int(100)),
        ]);
        assert!(dep.check_args(&good).is_ok());
        let missing = Value::record([("c", Value::Int(1))]);
        assert!(dep.check_args(&missing).is_err());
        let wrong = Value::record([
            ("c", Value::Int(1)),
            ("a", Value::Int(2)),
            ("d", Value::text("lots")),
        ]);
        assert!(dep.check_args(&wrong).is_err());
    }

    #[test]
    fn check_termination_validates_name_and_results() {
        let sig = bank_teller_signature();
        let w = sig.operation("Withdraw").unwrap();
        let ok = Termination::ok(Value::record([("new_balance", Value::Int(5))]));
        assert!(w.check_termination(&ok).is_ok());
        let not_today = Termination::new(
            "NotToday",
            Value::record([("today", Value::Int(400)), ("daily_limit", Value::Int(500))]),
        );
        assert!(w.check_termination(&not_today).is_ok());
        let undeclared = Termination::new("Maybe", Value::record::<&str, _>([]));
        assert!(w.check_termination(&undeclared).is_err());
        let bad_results = Termination::ok(Value::record::<&str, _>([]));
        assert!(w.check_termination(&bad_results).is_err());
    }

    #[test]
    fn announcements_have_no_terminations() {
        let sig =
            OperationalSignature::new("Logger").announcement("Log", [("line", DataType::Text)]);
        let op = sig.operation("Log").unwrap();
        assert_eq!(op.kind, OperationKind::Announcement);
        assert!(op.termination("OK").is_none());
    }

    #[test]
    fn stream_signature_groups_flows() {
        let av = StreamSignature::new("AudioVideo")
            .flow("audio", DataType::Blob, FlowDirection::Produced)
            .flow("video", DataType::Blob, FlowDirection::Produced)
            .flow("control", DataType::Text, FlowDirection::Consumed);
        assert_eq!(av.flows().len(), 3);
        assert_eq!(av.flows()["audio"].direction, FlowDirection::Produced);
    }

    #[test]
    fn signal_signature_models_osi_primitives() {
        let sig = SignalSignature::new("OsiService")
            .signal(
                "request",
                [("sdu", DataType::Blob)],
                SignalDirection::Received,
            )
            .signal(
                "indicate",
                [("sdu", DataType::Blob)],
                SignalDirection::Initiated,
            )
            .signal(
                "response",
                [("sdu", DataType::Blob)],
                SignalDirection::Received,
            )
            .signal(
                "confirm",
                [("sdu", DataType::Blob)],
                SignalDirection::Initiated,
            );
        assert_eq!(sig.signals().len(), 4);
    }

    #[test]
    fn interface_signature_kind_and_display() {
        let op = InterfaceSignature::Operational(bank_teller_signature());
        assert_eq!(op.kind(), "operational");
        assert_eq!(op.name(), "BankTeller");
        assert_eq!(op.to_string(), "operational interface BankTeller");
        let st = InterfaceSignature::Stream(StreamSignature::new("S"));
        assert_eq!(st.kind(), "stream");
        let si = InterfaceSignature::Signal(SignalSignature::new("G"));
        assert_eq!(si.kind(), "signal");
    }

    #[test]
    fn termination_helpers() {
        assert!(Termination::ok(Value::Null).is_ok());
        let e = Termination::error("no funds");
        assert!(!e.is_ok());
        assert_eq!(e.results.field("reason"), Some(&Value::text("no funds")));
    }
}
