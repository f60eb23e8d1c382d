//! Static, invariant and dynamic schemas.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::dtype::{DataType, TypeError};
use rmodp_core::expr::{Env, EvalError, Expr, ParseError};
use rmodp_core::value::{Record, Value};

/// An error raised while building or applying schemas.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// A predicate or effect failed to parse.
    Parse(ParseError),
    /// A predicate or effect failed to evaluate.
    Eval(EvalError),
    /// A value did not conform to a static schema's type.
    Type(TypeError),
    /// A dynamic schema's guard rejected the transition.
    GuardFailed { schema: String },
    /// The new state would violate an invariant schema.
    InvariantViolated { invariant: String },
    /// Arguments did not match the dynamic schema's parameters.
    BadArguments { schema: String, detail: String },
    /// An effect assigns to a field the state does not have.
    UnknownField { schema: String, field: String },
    /// The schema definition itself is inconsistent.
    BadDefinition { detail: String },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Parse(e) => write!(f, "schema parse error: {e}"),
            SchemaError::Eval(e) => write!(f, "schema evaluation error: {e}"),
            SchemaError::Type(e) => write!(f, "schema type error: {e}"),
            SchemaError::GuardFailed { schema } => {
                write!(
                    f,
                    "guard of dynamic schema {schema} rejected the transition"
                )
            }
            SchemaError::InvariantViolated { invariant } => {
                write!(f, "invariant schema {invariant} violated")
            }
            SchemaError::BadArguments { schema, detail } => {
                write!(f, "bad arguments for {schema}: {detail}")
            }
            SchemaError::UnknownField { schema, field } => {
                write!(f, "{schema} assigns unknown field {field}")
            }
            SchemaError::BadDefinition { detail } => write!(f, "bad schema definition: {detail}"),
        }
    }
}

impl std::error::Error for SchemaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchemaError::Parse(e) => Some(e),
            SchemaError::Eval(e) => Some(e),
            SchemaError::Type(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for SchemaError {
    fn from(e: ParseError) -> Self {
        SchemaError::Parse(e)
    }
}

impl From<EvalError> for SchemaError {
    fn from(e: EvalError) -> Self {
        SchemaError::Eval(e)
    }
}

impl From<TypeError> for SchemaError {
    fn from(e: TypeError) -> Self {
        SchemaError::Type(e)
    }
}

/// A static schema: the structure of an object's state (a record type) and
/// a conforming initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticSchema {
    name: String,
    dtype: DataType,
    initial: Value,
}

impl StaticSchema {
    /// Creates a static schema, validating that the initial state conforms
    /// to the type and that the type is a record.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::BadDefinition`] for non-record types and
    /// [`SchemaError::Type`] if the initial state does not conform.
    pub fn new(
        name: impl Into<String>,
        dtype: DataType,
        initial: Value,
    ) -> Result<Self, SchemaError> {
        if !matches!(dtype, DataType::Record(_)) {
            return Err(SchemaError::BadDefinition {
                detail: "static schema type must be a record".into(),
            });
        }
        dtype.check(&initial)?;
        Ok(Self {
            name: name.into(),
            dtype,
            initial,
        })
    }

    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state type.
    pub fn dtype(&self) -> &DataType {
        &self.dtype
    }

    /// The initial state.
    pub fn initial(&self) -> &Value {
        &self.initial
    }

    /// Checks a state against the schema's type.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::Type`] on mismatch.
    pub fn check(&self, state: &Value) -> Result<(), SchemaError> {
        Ok(self.dtype.check(state)?)
    }
}

/// An invariant schema: a predicate that must hold in every state.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantSchema {
    name: String,
    predicate: Expr,
}

impl InvariantSchema {
    /// Creates an invariant from an already-parsed predicate.
    fn new(name: impl Into<String>, predicate: Expr) -> Self {
        Self {
            name: name.into(),
            predicate,
        }
    }

    /// Parses the predicate from source text.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::Parse`] for malformed predicates.
    pub fn parse(name: impl Into<String>, predicate: &str) -> Result<Self, SchemaError> {
        Ok(Self::new(name, Expr::parse(predicate)?))
    }

    /// The invariant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The predicate.
    pub fn predicate(&self) -> &Expr {
        &self.predicate
    }

    /// Evaluates the invariant in a state (or any environment).
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::Eval`] if the predicate cannot be evaluated
    /// in this state (e.g. missing fields).
    pub fn holds(&self, state: &dyn Env) -> Result<bool, SchemaError> {
        Ok(self.predicate.eval_bool(state)?)
    }
}

/// A dynamic schema: a guarded, parameterised state transition.
///
/// Effects are *simultaneous assignments*: every right-hand side is
/// evaluated against the **old** state (plus parameters, plus `old.`-
/// prefixed paths), then all assignments are applied at once. The guard
/// and effects are parsed once, when the schema is built.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSchema {
    name: String,
    params: Vec<(String, DataType)>,
    guard: Option<Expr>,
    effects: Vec<(String, Expr)>,
}

impl DynamicSchema {
    /// Starts building a dynamic schema.
    pub fn builder(name: impl Into<String>) -> DynamicSchemaBuilder {
        DynamicSchemaBuilder {
            name: name.into(),
            params: Vec::new(),
            guard: None,
            effects: Vec::new(),
            error: None,
        }
    }

    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The argument record, once it has every declared parameter, with its
    /// type, and nothing else.
    fn checked_args<'a>(&self, args: &'a Value) -> Result<&'a Record, SchemaError> {
        let bad = |detail: String| SchemaError::BadArguments {
            schema: self.name.clone(),
            detail,
        };
        let record = args
            .as_record()
            .ok_or_else(|| bad(format!("arguments must be a record, got {}", args.kind())))?;
        for (name, dtype) in &self.params {
            let v = record
                .get(name)
                .ok_or_else(|| bad(format!("missing parameter {name}")))?;
            dtype
                .check(v)
                .map_err(|e| bad(format!("parameter {name}: {e}")))?;
        }
        for key in record.keys() {
            if !self.params.iter().any(|(n, _)| n == key) {
                return Err(bad(format!("unexpected argument {key}")));
            }
        }
        Ok(record)
    }

    /// Computes the successor state, without checking any invariants
    /// (callers that hold invariants use
    /// [`apply_checked`](Self::apply_checked)).
    ///
    /// # Errors
    ///
    /// Returns guard, argument or evaluation failures.
    pub fn apply(&self, state: &Value, args: &Value) -> Result<Value, SchemaError> {
        self.apply_checked(state, args, &[])
    }

    /// Computes the successor state and checks it against a set of
    /// invariants — "a dynamic schema is always constrained by the
    /// invariant schemas" (§4).
    ///
    /// # Errors
    ///
    /// As [`apply`](Self::apply), plus
    /// [`SchemaError::InvariantViolated`] naming the first failing
    /// invariant.
    pub fn apply_checked(
        &self,
        state: &Value,
        args: &Value,
        invariants: &[InvariantSchema],
    ) -> Result<Value, SchemaError> {
        let mut new_state = state.clone();
        self.step(&mut new_state, args, invariants)?;
        Ok(new_state)
    }

    /// [`apply_checked`](Self::apply_checked) in place: checks the
    /// arguments, the guard, each effect's field and value (computed from
    /// the old state), then each invariant over the successor, and writes
    /// the effects into `state` only once every check has passed. On an
    /// error `state` is untouched.
    ///
    /// # Errors
    ///
    /// As [`apply_checked`](Self::apply_checked).
    pub fn step(
        &self,
        state: &mut Value,
        args: &Value,
        invariants: &[InvariantSchema],
    ) -> Result<(), SchemaError> {
        let args = self.checked_args(args)?;
        let record = state
            .as_record()
            .ok_or_else(|| SchemaError::BadDefinition {
                detail: format!("state must be a record, got {}", state.kind()),
            })?;
        let old = Transition { args, state };
        if let Some(guard) = &self.guard {
            if !guard.eval_bool(&old)? {
                return Err(SchemaError::GuardFailed {
                    schema: self.name.clone(),
                });
            }
        }
        let mut new = Vec::with_capacity(self.effects.len());
        for (field, expr) in &self.effects {
            if record.get(field).is_none() {
                return Err(SchemaError::UnknownField {
                    schema: self.name.clone(),
                    field: field.clone(),
                });
            }
            let v = expr.eval(&old)?;
            new.push((field.as_str(), v));
        }
        let successor = Successor { new: &new, state };
        for inv in invariants {
            if !inv.holds(&successor)? {
                return Err(SchemaError::InvariantViolated {
                    invariant: inv.name().to_owned(),
                });
            }
        }
        for (field, v) in new {
            state.set_field(field, v);
        }
        Ok(())
    }
}

/// What a guard or an effect sees: parameters and state fields at top
/// level (parameters shadow state fields), and the whole pre-state under
/// `old`. Everything is read in place.
struct Transition<'a> {
    args: &'a Record,
    state: &'a Value,
}

impl Env for Transition<'_> {
    fn lookup(&self, path: &[String]) -> Option<&Value> {
        let (head, rest) = path.split_first()?;
        let root = if head == "old" {
            self.state
        } else {
            self.args.get(head).or_else(|| self.state.field(head))?
        };
        root.path(rest)
    }
}

/// What an invariant sees after a step, before it is written: each
/// effected field's new value, every other field as it was.
struct Successor<'a> {
    new: &'a [(&'a str, Value)],
    state: &'a Value,
}

impl Env for Successor<'_> {
    fn lookup(&self, path: &[String]) -> Option<&Value> {
        let (head, rest) = path.split_first()?;
        let root = match self.new.iter().find(|(field, _)| field == head) {
            Some((_, v)) => v,
            None => self.state.field(head)?,
        };
        root.path(rest)
    }
}

/// Builder for [`DynamicSchema`]; parse errors are deferred to
/// [`build`](Self::build) so construction can be written fluently.
#[derive(Debug)]
pub struct DynamicSchemaBuilder {
    name: String,
    params: Vec<(String, DataType)>,
    guard: Option<Expr>,
    effects: Vec<(String, Expr)>,
    error: Option<SchemaError>,
}

impl DynamicSchemaBuilder {
    /// Declares a parameter.
    pub fn param(mut self, name: impl Into<String>, dtype: DataType) -> Self {
        self.params.push((name.into(), dtype));
        self
    }

    /// Sets the guard predicate (source text).
    pub fn guard(mut self, predicate: &str) -> Self {
        match Expr::parse(predicate) {
            Ok(e) => self.guard = Some(e),
            Err(e) => self.error = self.error.or(Some(SchemaError::Parse(e))),
        }
        self
    }

    /// Adds an effect `field := expr` (source text).
    pub fn effect(mut self, field: impl Into<String>, expr: &str) -> Self {
        match Expr::parse(expr) {
            Ok(e) => self.effects.push((field.into(), e)),
            Err(e) => self.error = self.error.or(Some(SchemaError::Parse(e))),
        }
        self
    }

    /// Finishes the schema.
    ///
    /// # Errors
    ///
    /// Returns the first deferred parse error, or
    /// [`SchemaError::BadDefinition`] for duplicate parameters/effects, a
    /// parameter named `old` (that name reads the pre-state), or an
    /// effect-free schema.
    pub fn build(self) -> Result<DynamicSchema, SchemaError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.effects.is_empty() {
            return Err(SchemaError::BadDefinition {
                detail: format!("dynamic schema {} has no effects", self.name),
            });
        }
        let mut seen = BTreeMap::new();
        for (p, _) in &self.params {
            // `old` is declared already: it is the pre-state.
            if p == "old" || seen.insert(p.clone(), ()).is_some() {
                return Err(SchemaError::BadDefinition {
                    detail: format!("duplicate parameter {p}"),
                });
            }
        }
        let mut seen = BTreeMap::new();
        for (f, ..) in &self.effects {
            if seen.insert(f.clone(), ()).is_some() {
                return Err(SchemaError::BadDefinition {
                    detail: format!("duplicate effect on field {f}"),
                });
            }
        }
        Ok(DynamicSchema {
            name: self.name,
            params: self.params,
            guard: self.guard,
            effects: self.effects,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rmodp_core::expr::{BinOp, UnOp};

    fn account_schema() -> StaticSchema {
        StaticSchema::new(
            "Account",
            DataType::record([
                ("balance", DataType::Int),
                ("withdrawn_today", DataType::Int),
            ]),
            Value::record([
                ("balance", Value::Int(1_000)),
                ("withdrawn_today", Value::Int(0)),
            ]),
        )
        .unwrap()
    }

    fn withdraw() -> DynamicSchema {
        DynamicSchema::builder("Withdraw")
            .param("x", DataType::Int)
            .guard("x > 0 and balance - x >= 0")
            .effect("balance", "balance - x")
            .effect("withdrawn_today", "withdrawn_today + x")
            .build()
            .unwrap()
    }

    #[test]
    fn static_schema_validates_initial_state() {
        let err = StaticSchema::new(
            "Bad",
            DataType::record([("x", DataType::Int)]),
            Value::record([("x", Value::text("oops"))]),
        )
        .unwrap_err();
        assert!(matches!(err, SchemaError::Type(_)));
        let err = StaticSchema::new("Bad", DataType::Int, Value::Int(1)).unwrap_err();
        assert!(matches!(err, SchemaError::BadDefinition { .. }));
    }

    #[test]
    fn dynamic_schema_applies_simultaneously() {
        // swap(a, b) must read both old values.
        let swap = DynamicSchema::builder("Swap")
            .effect("a", "b")
            .effect("b", "a")
            .build()
            .unwrap();
        let state = Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let new = swap.apply(&state, &Value::record::<&str, _>([])).unwrap();
        assert_eq!(new.field("a"), Some(&Value::Int(2)));
        assert_eq!(new.field("b"), Some(&Value::Int(1)));
    }

    #[test]
    fn old_prefix_reads_pre_state_even_when_shadowed() {
        // Parameter `balance` shadows the state field; `old.balance` still
        // reaches the pre-state.
        let schema = DynamicSchema::builder("Set")
            .param("balance", DataType::Int)
            .effect("balance", "old.balance + balance")
            .build()
            .unwrap();
        let state = Value::record([("balance", Value::Int(10))]);
        let new = schema
            .apply(&state, &Value::record([("balance", Value::Int(5))]))
            .unwrap();
        assert_eq!(new.field("balance"), Some(&Value::Int(15)));
    }

    /// What guard and effects see, row by row: state fields, parameters
    /// shadowing them (whole, never merged with the field they hide), the
    /// pre-state under `old`, and the failures in the order `apply` meets
    /// them.
    #[test]
    fn transition_environment_table() {
        let state = Value::record([
            ("balance", Value::Int(10)),
            ("limit", Value::record([("daily", Value::Int(500))])),
            ("log", Value::seq([Value::Int(1)])),
        ]);
        let schema = |guard: Option<&str>, effects: &[(&str, &str)]| {
            let mut b = DynamicSchema::builder("T")
                .param("balance", DataType::Int)
                .param("limit", DataType::record([("extra", DataType::Int)]));
            if let Some(g) = guard {
                b = b.guard(g);
            }
            for (field, expr) in effects {
                b = b.effect(*field, expr);
            }
            b.build().unwrap()
        };
        let args = Value::record([
            ("balance", Value::Int(5)),
            ("limit", Value::record([("extra", Value::Int(7))])),
        ]);
        type Effects<'a> = &'a [(&'a str, &'a str)];
        let rows: [(Option<&str>, Effects<'_>, &str); 9] = [
            // Simultaneous assignment: both sides read the pre-state.
            (
                None,
                &[
                    ("balance", "old.balance + balance"),
                    ("log", "log + [old.balance]"),
                ],
                "Ok({balance: 15, limit: {daily: 500}, log: [1, 10]})",
            ),
            // `old` alone is the whole pre-state; a parameter record
            // replaces the field it shadows.
            (
                Some("old.limit.daily == 500 and limit.extra == 7"),
                &[("log", "[old, limit]")],
                "Ok({balance: 10, limit: {daily: 500}, \
                 log: [{balance: 10, limit: {daily: 500}, log: [1]}, {extra: 7}]})",
            ),
            // The shadowing parameter has no `daily`: unbound, not the
            // state's.
            (
                None,
                &[("balance", "limit.daily")],
                "Err(Eval(Undefined { path: \"limit.daily\" }))",
            ),
            (
                Some("exists(limit.daily) or exists(old.limit.extra)"),
                &[("balance", "0")],
                "Err(GuardFailed { schema: \"T\" })",
            ),
            (
                Some("balance > old.balance"),
                &[("balance", "0")],
                "Err(GuardFailed { schema: \"T\" })",
            ),
            (
                Some("log"),
                &[("balance", "0")],
                "Err(Eval(TypeMismatch { context: \"predicate result\", got: \"seq\" }))",
            ),
            // The guard runs before any effect is looked at.
            (
                Some("false"),
                &[("ghost", "1")],
                "Err(GuardFailed { schema: \"T\" })",
            ),
            // Effects are checked in order: the unknown field is met
            // before the failing expression, and after a good one.
            (
                None,
                &[("balance", "1"), ("ghost", "1 / 0")],
                "Err(UnknownField { schema: \"T\", field: \"ghost\" })",
            ),
            (
                None,
                &[("balance", "1 / 0"), ("ghost", "1")],
                "Err(Eval(DivideByZero))",
            ),
        ];
        for (guard, effects, expected) in rows {
            let got = match schema(guard, effects).apply(&state, &args) {
                Ok(s) => format!("Ok({s})"),
                Err(e) => format!("Err({e:?})"),
            };
            assert_eq!(got, expected, "{guard:?} {effects:?}");
        }
    }

    #[test]
    fn guard_rejects() {
        let state = account_schema().initial().clone();
        let err = withdraw()
            .apply(&state, &Value::record([("x", Value::Int(-5))]))
            .unwrap_err();
        assert!(matches!(err, SchemaError::GuardFailed { .. }));
        let err = withdraw()
            .apply(&state, &Value::record([("x", Value::Int(2_000))]))
            .unwrap_err();
        assert!(matches!(err, SchemaError::GuardFailed { .. }));
    }

    #[test]
    fn argument_validation() {
        let state = account_schema().initial().clone();
        let w = withdraw();
        for (args, expect) in [
            (Value::record::<&str, _>([]), "missing parameter"),
            (Value::record([("x", Value::text("9"))]), "parameter x"),
            (
                Value::record([("x", Value::Int(1)), ("y", Value::Int(2))]),
                "unexpected argument",
            ),
            (Value::Int(0), "must be a record"),
        ] {
            let err = w.apply(&state, &args).unwrap_err();
            match err {
                SchemaError::BadArguments { detail, .. } => {
                    assert!(detail.contains(expect), "{detail} !~ {expect}")
                }
                other => panic!("expected BadArguments, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_effect_field_is_rejected() {
        let schema = DynamicSchema::builder("Oops")
            .effect("ghost", "1")
            .build()
            .unwrap();
        let err = schema
            .apply(
                &Value::record([("x", Value::Int(1))]),
                &Value::record::<&str, _>([]),
            )
            .unwrap_err();
        assert!(matches!(err, SchemaError::UnknownField { .. }));
    }

    #[test]
    fn invariants_constrain_dynamic_schemas() {
        // The paper's exact scenario: $400 then $200 against a $500 limit.
        let limit = InvariantSchema::parse("DailyLimit", "withdrawn_today <= 500").unwrap();
        let invariants = vec![limit];
        let w = withdraw();
        let s0 = account_schema().initial().clone();
        let s1 = w
            .apply_checked(&s0, &Value::record([("x", Value::Int(400))]), &invariants)
            .unwrap();
        assert_eq!(s1.field("withdrawn_today"), Some(&Value::Int(400)));
        let err = w
            .apply_checked(&s1, &Value::record([("x", Value::Int(200))]), &invariants)
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::InvariantViolated {
                invariant: "DailyLimit".into()
            }
        );
    }

    #[test]
    fn builder_rejects_malformed_definitions() {
        assert!(matches!(
            DynamicSchema::builder("E").build(),
            Err(SchemaError::BadDefinition { .. })
        ));
        assert!(matches!(
            DynamicSchema::builder("E").effect("x", "1 +").build(),
            Err(SchemaError::Parse(_))
        ));
        assert!(matches!(
            DynamicSchema::builder("E")
                .guard("(")
                .effect("x", "1")
                .build(),
            Err(SchemaError::Parse(_))
        ));
        assert!(matches!(
            DynamicSchema::builder("E")
                .param("a", DataType::Int)
                .param("a", DataType::Int)
                .effect("x", "1")
                .build(),
            Err(SchemaError::BadDefinition { .. })
        ));
        assert!(matches!(
            DynamicSchema::builder("E")
                .effect("x", "1")
                .effect("x", "2")
                .build(),
            Err(SchemaError::BadDefinition { .. })
        ));
        // `old` names the pre-state, so a parameter of that name could
        // never be read.
        assert!(matches!(
            DynamicSchema::builder("E")
                .param("old", DataType::Int)
                .effect("x", "old")
                .build(),
            Err(SchemaError::BadDefinition { .. })
        ));
    }

    #[test]
    fn each_invariant_is_judged_on_its_own() {
        let invs = [
            InvariantSchema::parse("A", "x >= 0").unwrap(),
            InvariantSchema::parse("B", "x <= 10").unwrap(),
            InvariantSchema::parse("C", "x != 99").unwrap(),
        ];
        let holds = |x: i64| {
            invs.each_ref()
                .map(|i| i.holds(&Value::record([("x", Value::Int(x))])).unwrap())
        };
        assert_eq!(holds(99), [true, false, false]);
        assert_eq!(holds(5), [true, true, true]);
    }

    #[test]
    fn invariant_eval_errors_surface() {
        let inv = InvariantSchema::parse("Bad", "missing > 0").unwrap();
        let err = inv.holds(&Value::record::<&str, _>([])).unwrap_err();
        assert!(matches!(err, SchemaError::Eval(_)));
    }

    /// The copying transition the in-place [`DynamicSchema::step`] is
    /// held to: guard and effects evaluated over the pre-state, effects
    /// assigned into a copy, invariants evaluated over the copy. It
    /// evaluates through the same `eval_bool`/`eval` as the step, so what
    /// it checks is the order of the stages and the assignment in place;
    /// those two against the tree walker are `rmodp_core`'s
    /// `the_fast_paths_are_the_walker`.
    fn reference(
        schema: &DynamicSchema,
        state: &Value,
        args: &Value,
        invariants: &[InvariantSchema],
    ) -> Result<Value, SchemaError> {
        let args = schema.checked_args(args)?;
        let record = state
            .as_record()
            .ok_or_else(|| SchemaError::BadDefinition {
                detail: format!("state must be a record, got {}", state.kind()),
            })?;
        let scope = Transition { args, state };
        if let Some(guard) = &schema.guard {
            if !guard.eval_bool(&scope)? {
                return Err(SchemaError::GuardFailed {
                    schema: schema.name.clone(),
                });
            }
        }
        let mut new_state = state.clone();
        for (field, expr) in &schema.effects {
            if record.get(field).is_none() {
                return Err(SchemaError::UnknownField {
                    schema: schema.name.clone(),
                    field: field.clone(),
                });
            }
            let v = expr.eval(&scope)?;
            new_state.set_field(field.as_str(), v);
        }
        for inv in invariants {
            if !inv.predicate().eval_bool(&new_state)? {
                return Err(SchemaError::InvariantViolated {
                    invariant: inv.name().to_owned(),
                });
            }
        }
        Ok(new_state)
    }

    fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// What guards and effects read: the account's fields, the argument
    /// `x`, the parameter `balance` that may shadow its field, `old.`
    /// paths, the whole pre-state and unbound names (repeats weight the
    /// draw).
    const BEFORE: &[&str] = &[
        "balance",
        "balance",
        "withdrawn_today",
        "withdrawn_today",
        "x",
        "x",
        "old.balance",
        "old.withdrawn_today",
        "old",
        "ghost",
        "old.ghost",
    ];

    /// What invariants read: mostly the successor's fields.
    const AFTER: &[&str] = &[
        "balance",
        "balance",
        "balance",
        "withdrawn_today",
        "withdrawn_today",
        "withdrawn_today",
        "x",
    ];

    /// Arithmetic over `paths` and literals small enough that division by
    /// zero is common.
    fn arb_term(paths: &'static [&'static str]) -> BoxedStrategy<Expr> {
        const OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem];
        let leaf = prop_oneof![
            (-2i64..6).prop_map(|v| Expr::Lit(v.into())),
            (0..paths.len())
                .prop_map(|i| Expr::Var(paths[i].split('.').map(str::to_owned).collect())),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            (0..OPS.len(), inner.clone(), inner).prop_map(|(op, a, b)| binary(OPS[op], a, b))
        })
    }

    /// Comparisons of [`arb_term`]s under `and`, `or` and `not`, with the
    /// odd bare term or literal a predicate may not be.
    fn arb_test(paths: &'static [&'static str]) -> BoxedStrategy<Expr> {
        const OPS: [BinOp; 6] = [
            BinOp::Le,
            BinOp::Ge,
            BinOp::Lt,
            BinOp::Gt,
            BinOp::Eq,
            BinOp::Ne,
        ];
        let cmp = (0..OPS.len(), arb_term(paths), arb_term(paths))
            .prop_map(|(op, a, b)| binary(OPS[op], a, b));
        let leaf = prop_oneof![
            cmp.clone(),
            cmp.clone(),
            cmp.clone(),
            cmp,
            arb_term(paths),
            any::<bool>().prop_map(|v| Expr::Lit(v.into()))
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                inner
                    .clone()
                    .prop_map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
                (any::<bool>(), inner.clone(), inner).prop_map(|(and, a, b)| binary(
                    if and { BinOp::And } else { BinOp::Or },
                    a,
                    b
                )),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The step in place and the reference on a copy give the same
        /// `Ok` state or the same error, and an error leaves the state as
        /// it was.
        #[test]
        fn the_step_in_place_is_the_copying_reference(
            guard in proptest::option::of(arb_test(BEFORE)),
            effects in proptest::collection::vec((0..5usize, arb_term(BEFORE)), 1..3),
            invariants in proptest::collection::vec(arb_test(AFTER), 0..3),
            shadow in any::<bool>(),
            fields in (-2i64..6, -2i64..6),
            x in -2i64..6,
            odd in 0..16u32,
        ) {
            let mut b = DynamicSchema::builder("S").param("x", DataType::Int);
            if shadow {
                b = b.param("balance", DataType::Int);
            }
            if let Some(g) = &guard {
                b = b.guard(&g.to_string());
            }
            let mut assigned = Vec::new();
            for (field, e) in &effects {
                let field = ["balance", "withdrawn_today", "balance", "withdrawn_today", "ghost"][*field];
                if !assigned.contains(&field) {
                    assigned.push(field);
                    b = b.effect(field, &e.to_string());
                }
            }
            let schema = b.build().unwrap();
            let invariants: Vec<InvariantSchema> = invariants
                .into_iter()
                .enumerate()
                .map(|(i, e)| InvariantSchema::new(format!("I{i}"), e))
                .collect();
            // Now and then a state that is no record, a stray or missing
            // argument, an ill-typed one.
            let state = match odd {
                0 => Value::Int(fields.0),
                _ => Value::record([
                    ("balance", Value::Int(fields.0)),
                    ("withdrawn_today", Value::Int(fields.1)),
                ]),
            };
            let mut args = vec![("x", if odd == 1 { Value::text("x") } else { Value::Int(x) })];
            if shadow != (odd == 2) {
                args.push(("balance", Value::Int(x - 1)));
            }
            let args = Value::record(args);

            let want = reference(&schema, &state, &args, &invariants);
            let mut stepped = state.clone();
            let got = schema.step(&mut stepped, &args, &invariants).map(|()| stepped.clone());
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{:?} on {} with {} under {:?}",
                schema,
                state,
                args,
                invariants
            );
            if got.is_err() {
                prop_assert_eq!(&stepped, &state);
            }
        }
    }
}
