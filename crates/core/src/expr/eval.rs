//! Evaluator for the expression language: the tree walker ([`eval`]),
//! which alone builds an [`EvalError`], and two error-free fast paths
//! over the same tree ([`truth`] and [`operand`]) that
//! [`Expr::eval_bool`](super::Expr::eval_bool) and
//! [`Expr::eval`](super::Expr::eval) try first.

use std::borrow::Cow;
use std::cmp::Ordering::{self, Greater, Less};
use std::collections::BTreeMap;
use std::fmt;

use super::{BinOp, Expr, UnOp};
use crate::value::{Record, Value};

/// An environment binding variable paths to values.
///
/// Implemented for [`Value`] (records resolve dotted paths), for a
/// [`Record`] on its own, for `BTreeMap<String, Value>` and for `()` (the
/// empty environment).
pub trait Env {
    /// Resolves a dotted variable path, or `None` if unbound.
    ///
    /// The value is lent, not copied: an environment hands out what it
    /// (or the record it refers to) already owns, and the evaluator
    /// clones a variable only where an owned result needs it — a
    /// comparison reads its operands in place.
    fn lookup(&self, path: &[String]) -> Option<&Value>;
}

impl Env for Value {
    fn lookup(&self, path: &[String]) -> Option<&Value> {
        self.path(path)
    }
}

impl Env for Record {
    fn lookup(&self, path: &[String]) -> Option<&Value> {
        let (head, rest) = path.split_first()?;
        self.get(head)?.path(rest)
    }
}

impl Env for BTreeMap<String, Value> {
    fn lookup(&self, path: &[String]) -> Option<&Value> {
        let (head, rest) = path.split_first()?;
        self.get(head)?.path(rest)
    }
}

impl Env for () {
    fn lookup(&self, _path: &[String]) -> Option<&Value> {
        None
    }
}

/// An evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable path was not bound in the environment.
    Undefined { path: String },
    /// Operand or result types did not fit the operation.
    TypeMismatch { context: String, got: String },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A builtin was called with the wrong number of arguments.
    WrongArity {
        function: String,
        expected: usize,
        got: usize,
    },
    /// No builtin with this name exists.
    UnknownFunction { name: String },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Undefined { path } => write!(f, "undefined variable {path}"),
            EvalError::TypeMismatch { context, got } => {
                write!(f, "type mismatch in {context}: got {got}")
            }
            EvalError::DivideByZero => write!(f, "division by zero"),
            EvalError::WrongArity {
                function,
                expected,
                got,
            } => {
                write!(f, "{function} expects {expected} argument(s), got {got}")
            }
            EvalError::UnknownFunction { name } => write!(f, "unknown function {name}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates an expression in an environment. Literals and variables
/// are borrowed (from the expression and the environment); only computed
/// results are owned.
pub fn eval<'a>(expr: &'a Expr, env: &'a dyn Env) -> Result<Cow<'a, Value>, EvalError> {
    match expr {
        Expr::Lit(v) => Ok(Cow::Borrowed(v)),
        Expr::Var(path) => {
            env.lookup(path)
                .map(Cow::Borrowed)
                .ok_or_else(|| EvalError::Undefined {
                    path: path.join("."),
                })
        }
        Expr::SeqLit(items) => {
            let vals: Result<Vec<Value>, EvalError> = items
                .iter()
                .map(|e| eval(e, env).map(Cow::into_owned))
                .collect();
            owned(Value::Seq(vals?))
        }
        Expr::Unary(UnOp::Neg, e) => match &*eval(e, env)? {
            Value::Int(i) => owned(Value::Int(i.wrapping_neg())),
            Value::Float(x) => owned(Value::Float(-x)),
            other => Err(mismatch("negation", other)),
        },
        Expr::Unary(UnOp::Not, e) => match &*eval(e, env)? {
            Value::Bool(b) => owned(Value::Bool(!b)),
            other => Err(mismatch("logical not", other)),
        },
        Expr::Binary(BinOp::And, a, b) => {
            // Short-circuit: the right operand is not evaluated when the
            // left is false, so `exists(x) and x > 0` is safe.
            match &*eval(a, env)? {
                Value::Bool(false) => owned(Value::Bool(false)),
                Value::Bool(true) => expect_bool("and", eval(b, env)?),
                other => Err(mismatch("and", other)),
            }
        }
        Expr::Binary(BinOp::Or, a, b) => match &*eval(a, env)? {
            Value::Bool(true) => owned(Value::Bool(true)),
            Value::Bool(false) => expect_bool("or", eval(b, env)?),
            other => Err(mismatch("or", other)),
        },
        Expr::Binary(op, a, b) => {
            let va = eval(a, env)?;
            let vb = eval(b, env)?;
            apply_binary(*op, &va, &vb).map(Cow::Owned)
        }
        Expr::Call(name, args) => call(name, args, env),
    }
}

/// A computed (hence owned) result.
fn owned<'a>(v: Value) -> Result<Cow<'a, Value>, EvalError> {
    Ok(Cow::Owned(v))
}

fn expect_bool<'a>(context: &str, v: Cow<'a, Value>) -> Result<Cow<'a, Value>, EvalError> {
    match &*v {
        Value::Bool(_) => Ok(v),
        other => Err(mismatch(context, other)),
    }
}

fn mismatch(context: &str, got: &Value) -> EvalError {
    EvalError::TypeMismatch {
        context: context.to_owned(),
        got: got.kind().to_owned(),
    }
}

fn apply_binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Rem => arithmetic(op, a, b).map_err(|f| f.error(op, a, b)),
        Eq | Ne | Lt | Le | Gt | Ge => comparison(op, a, b)
            .map(Value::Bool)
            .map_err(|f| f.error(op, a, b)),
        In => match b {
            Value::Seq(items) => Ok(Value::Bool(items.iter().any(|v| loose_eq(v, a)))),
            Value::Text(hay) => match a {
                Value::Text(needle) => Ok(Value::Bool(hay.contains(needle.as_str()))),
                other => Err(mismatch("in (substring)", other)),
            },
            other => Err(mismatch("in (membership)", other)),
        },
        And | Or => unreachable!("short-circuit ops handled in eval"),
    }
}

/// Why an arithmetic step or a comparison has no result. It carries no
/// text: the tree walker renders it into an [`EvalError`] with
/// [`Fault::error`], the fast paths only need to know it failed.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// The operand kinds do not fit the operator.
    Kinds,
    /// A float comparison met NaN.
    NaN,
    /// Integer division or remainder by zero.
    DivideByZero,
}

impl Fault {
    fn error(self, op: BinOp, a: &Value, b: &Value) -> EvalError {
        let context = || format!("operator {}", op.symbol());
        match self {
            Fault::DivideByZero => EvalError::DivideByZero,
            Fault::NaN => EvalError::TypeMismatch {
                context: context(),
                got: "NaN".to_owned(),
            },
            Fault::Kinds => EvalError::TypeMismatch {
                context: context(),
                got: format!("{} and {}", a.kind(), b.kind()),
            },
        }
    }
}

/// A number as the one numeric kernel reads it, unboxed. The walker's
/// [`arithmetic`] and [`comparison`] hand it every pair of numbers, and
/// the fast paths run it without building a [`Value`], so the two share
/// one numeric semantics: wrapping on two ints, an int division by zero a
/// fault, a mixed pair widened to `f64`, `==` unifying `Int` with
/// `Float`, an ordering against NaN a fault.
#[derive(Debug, Clone, Copy)]
pub(super) enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    /// The number `v` holds, if it is an `Int` or a `Float`.
    #[inline]
    fn of(v: &Value) -> Option<Num> {
        match v {
            Value::Int(i) => Some(Num::Int(*i)),
            Value::Float(x) => Some(Num::Float(*x)),
            _ => None,
        }
    }

    /// The number as a value.
    #[inline]
    fn value(self) -> Value {
        match self {
            Num::Int(i) => Value::Int(i),
            Num::Float(x) => Value::Float(x),
        }
    }

    #[inline]
    fn widen(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(x) => x,
        }
    }

    /// `self op other` for `+ - * / %`.
    #[inline]
    fn arithmetic(self, op: BinOp, other: Num) -> Result<Num, Fault> {
        use BinOp::*;
        if let (Num::Int(x), Num::Int(y)) = (self, other) {
            return match op {
                Div | Rem if y == 0 => Err(Fault::DivideByZero),
                Add => Ok(Num::Int(x.wrapping_add(y))),
                Sub => Ok(Num::Int(x.wrapping_sub(y))),
                Mul => Ok(Num::Int(x.wrapping_mul(y))),
                Div => Ok(Num::Int(x.wrapping_div(y))),
                Rem => Ok(Num::Int(x.wrapping_rem(y))),
                _ => unreachable!("not an arithmetic operator: {op:?}"),
            };
        }
        let (x, y) = (self.widen(), other.widen());
        Ok(Num::Float(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Rem => x % y,
            _ => unreachable!("not an arithmetic operator: {op:?}"),
        }))
    }

    /// `self op other` for `== != < <= > >=`.
    #[inline]
    fn comparison(self, op: BinOp, other: Num) -> Result<bool, Fault> {
        decide(op, || self.equals(other), || self.order(other))
    }

    #[inline]
    fn equals(self, other: Num) -> bool {
        match (self, other) {
            (Num::Int(x), Num::Int(y)) => x == y,
            _ => self.widen() == other.widen(),
        }
    }

    #[inline]
    fn order(self, other: Num) -> Result<Ordering, Fault> {
        match (self, other) {
            (Num::Int(x), Num::Int(y)) => Ok(x.cmp(&y)),
            _ => self.widen().partial_cmp(&other.widen()).ok_or(Fault::NaN),
        }
    }
}

/// A comparison operator read off an equality and an ordering, each
/// asked only if the operator needs it.
#[inline]
fn decide(
    op: BinOp,
    equal: impl FnOnce() -> bool,
    order: impl FnOnce() -> Result<Ordering, Fault>,
) -> Result<bool, Fault> {
    use BinOp::*;
    Ok(match op {
        Eq => equal(),
        Ne => !equal(),
        Lt => order()? == Less,
        Le => order()? != Greater,
        Gt => order()? == Greater,
        Ge => order()? != Less,
        _ => unreachable!("not a comparison operator: {op:?}"),
    })
}

/// `a op b` for `+ - * / %`: the kernel on two numbers, concatenation of
/// two texts or two sequences under `+`.
fn arithmetic(op: BinOp, a: &Value, b: &Value) -> Result<Value, Fault> {
    if let (Some(x), Some(y)) = (Num::of(a), Num::of(b)) {
        return x.arithmetic(op, y).map(Num::value);
    }
    match (op, a, b) {
        (BinOp::Add, Value::Text(x), Value::Text(y)) => Ok(Value::Text([x.as_str(), y].concat())),
        (BinOp::Add, Value::Seq(x), Value::Seq(y)) => Ok(Value::Seq([x.as_slice(), y].concat())),
        _ => Err(Fault::Kinds),
    }
}

/// `a op b` for `== != < <= > >=`.
fn comparison(op: BinOp, a: &Value, b: &Value) -> Result<bool, Fault> {
    decide(op, || loose_eq(a, b), || compare(a, b))
}

/// Equality with Int/Float unification (`1 == 1.0` is true).
fn loose_eq(a: &Value, b: &Value) -> bool {
    match (Num::of(a), Num::of(b)) {
        (Some(x), Some(y)) => x.equals(y),
        _ => a == b,
    }
}

fn compare(a: &Value, b: &Value) -> Result<Ordering, Fault> {
    if let (Value::Text(x), Value::Text(y)) = (a, b) {
        return Ok(x.cmp(y));
    }
    match (Num::of(a), Num::of(b)) {
        (Some(x), Some(y)) => x.order(y),
        _ => Err(Fault::Kinds),
    }
}

fn call<'a>(name: &str, args: &'a [Expr], env: &'a dyn Env) -> Result<Cow<'a, Value>, EvalError> {
    // `exists` is a special form: its argument is a path, not a value.
    if name == "exists" {
        if args.len() != 1 {
            return Err(EvalError::WrongArity {
                function: "exists".into(),
                expected: 1,
                got: args.len(),
            });
        }
        return match &args[0] {
            Expr::Var(path) => owned(Value::Bool(env.lookup(path).is_some())),
            _ => Err(EvalError::TypeMismatch {
                context: "exists".into(),
                got: "non-variable argument".into(),
            }),
        };
    }

    let vals: Result<Vec<Cow<'a, Value>>, EvalError> = args.iter().map(|e| eval(e, env)).collect();
    let mut vals = vals?;
    let arity = |n: usize| -> Result<(), EvalError> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(EvalError::WrongArity {
                function: name.to_owned(),
                expected: n,
                got: vals.len(),
            })
        }
    };
    match name {
        "len" => {
            arity(1)?;
            match &*vals[0] {
                Value::Text(s) => owned(Value::Int(s.chars().count() as i64)),
                Value::Seq(items) => owned(Value::Int(items.len() as i64)),
                Value::Blob(b) => owned(Value::Int(b.len() as i64)),
                other => Err(mismatch("len", other)),
            }
        }
        "abs" => {
            arity(1)?;
            match &*vals[0] {
                Value::Int(i) => owned(Value::Int(i.wrapping_abs())),
                Value::Float(x) => owned(Value::Float(x.abs())),
                other => Err(mismatch("abs", other)),
            }
        }
        "min" | "max" => {
            arity(2)?;
            let take_first = {
                let (a, b) = (&*vals[0], &*vals[1]);
                let ord = compare(a, b).map_err(|f| f.error(BinOp::Lt, a, b))?;
                if name == "min" {
                    ord != Greater
                } else {
                    ord == Greater
                }
            };
            Ok(vals.swap_remove(if take_first { 0 } else { 1 }))
        }
        "contains" => {
            arity(2)?;
            match (&*vals[0], &*vals[1]) {
                (Value::Text(hay), Value::Text(needle)) => {
                    owned(Value::Bool(hay.contains(needle.as_str())))
                }
                (Value::Seq(items), v) => owned(Value::Bool(items.iter().any(|x| loose_eq(x, v)))),
                (other, _) => Err(mismatch("contains", other)),
            }
        }
        "starts_with" => {
            arity(2)?;
            match (&*vals[0], &*vals[1]) {
                (Value::Text(hay), Value::Text(prefix)) => {
                    owned(Value::Bool(hay.starts_with(prefix.as_str())))
                }
                (other, _) => Err(mismatch("starts_with", other)),
            }
        }
        _ => Err(EvalError::UnknownFunction {
            name: name.to_owned(),
        }),
    }
}

/// What a boolean expression comes to, building no error: `Some(b)`
/// exactly where the walker returns `Ok(Value::Bool(b))`, `None` where it
/// returns an error or a value of another kind. `and` and `or` stop where
/// the walker does, `not` keeps a failure, and a comparison reads each
/// operand once through [`operand`]; any other node is a leaf the walker
/// evaluates.
pub(super) fn truth(expr: &Expr, env: &dyn Env) -> Option<bool> {
    use BinOp::*;
    match expr {
        Expr::Binary(And, a, b) => match truth(a, env)? {
            true => truth(b, env),
            false => Some(false),
        },
        Expr::Binary(Or, a, b) => match truth(a, env)? {
            true => Some(true),
            false => truth(b, env),
        },
        Expr::Unary(UnOp::Not, a) => truth(a, env).map(|b| !b),
        Expr::Binary(op @ (Eq | Ne | Lt | Le | Gt | Ge), a, b) => {
            let decided = match (operand(a, env)?, operand(b, env)?) {
                (Val::Num(x), Val::Num(y)) => x.comparison(*op, y),
                (a, b) => comparison(*op, &a.value(), &b.value()),
            };
            decided.ok()
        }
        leaf => match eval(leaf, env).ok()?.as_ref() {
            Value::Bool(b) => Some(*b),
            _ => None,
        },
    }
}

/// What an expression evaluates to, building no error: the walker's
/// value, or `None` where it returns an error. A variable or a literal is
/// read in line, inside the comparison that inlines this; arithmetic,
/// which recurses, is one call to [`arith`], kept out of line so that
/// inlining stops there; any other node is a leaf the walker evaluates.
#[inline(always)]
pub(super) fn operand<'a>(expr: &'a Expr, env: &'a dyn Env) -> Option<Val<'a>> {
    use BinOp::*;
    match expr {
        Expr::Var(path) => env.lookup(path).map(Val::lent),
        Expr::Lit(v) => Some(Val::lent(v)),
        Expr::Binary(op @ (Add | Sub | Mul | Div | Rem), a, b) => arith(*op, a, b, env),
        leaf => match eval(leaf, env).ok()? {
            Cow::Borrowed(v) => Some(Val::lent(v)),
            Cow::Owned(v) => Some(Val::owned(v)),
        },
    }
}

#[inline(never)]
fn arith<'a>(op: BinOp, a: &'a Expr, b: &'a Expr, env: &'a dyn Env) -> Option<Val<'a>> {
    match (operand(a, env)?, operand(b, env)?) {
        (Val::Num(x), Val::Num(y)) => x.arithmetic(op, y).ok().map(Val::Num),
        (a, b) => arithmetic(op, &a.value(), &b.value()).ok().map(Val::owned),
    }
}

/// What an operand came to: a number, unboxed for the kernel, or any
/// other value, lent by the environment or the expression, or computed.
/// A computed one is boxed: it is rare (text or sequence arithmetic, a
/// walker leaf's non-number), and with it boxed an `Option<Val>` is two
/// words where an inline `Value` made it five — about a quarter of what
/// the fast path gains on an opaque `ppm + 0 >= 96` (EXPERIMENTS.md,
/// §E11).
pub(super) enum Val<'a> {
    Num(Num),
    Lent(&'a Value),
    Owned(Box<Value>),
}

impl<'a> Val<'a> {
    /// A `match`, not `Option::map_or`, which stayed a call inside the
    /// comparison that inlines this.
    #[inline]
    fn lent(v: &'a Value) -> Self {
        match Num::of(v) {
            Some(n) => Val::Num(n),
            None => Val::Lent(v),
        }
    }

    #[inline]
    fn owned(v: Value) -> Self {
        match Num::of(&v) {
            Some(n) => Val::Num(n),
            None => Val::Owned(Box::new(v)),
        }
    }

    /// The value itself: borrowed where the walker would borrow it, a
    /// number copied.
    pub(super) fn value(self) -> Cow<'a, Value> {
        match self {
            Val::Num(n) => Cow::Owned(n.value()),
            Val::Lent(v) => Cow::Borrowed(v),
            Val::Owned(v) => Cow::Owned(*v),
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::expr::Expr;

    fn run(src: &str, env: &dyn Env) -> Result<Value, EvalError> {
        Expr::parse(src).unwrap().eval(env)
    }

    fn ok(src: &str, env: &dyn Env) -> Value {
        run(src, env).unwrap()
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(ok("1 + 2 * 3", &()), Value::Int(7));
        assert_eq!(ok("7 / 2", &()), Value::Int(3));
        assert_eq!(ok("7 % 2", &()), Value::Int(1));
        assert_eq!(ok("-(3 - 5)", &()), Value::Int(2));
    }

    #[test]
    fn mixed_arithmetic_widens_to_float() {
        assert_eq!(ok("1 + 2.5", &()), Value::Float(3.5));
        assert_eq!(ok("5 / 2.0", &()), Value::Float(2.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(run("1 / 0", &()), Err(EvalError::DivideByZero));
        assert_eq!(run("1 % 0", &()), Err(EvalError::DivideByZero));
    }

    #[test]
    fn text_concatenation_and_comparison() {
        assert_eq!(ok("\"foo\" + \"bar\"", &()), Value::text("foobar"));
        assert_eq!(ok("\"abc\" < \"abd\"", &()), Value::Bool(true));
    }

    #[test]
    fn seq_concatenation_and_membership() {
        assert_eq!(
            ok("[1] + [2, 3]", &()),
            Value::seq([Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(ok("2 in [1, 2, 3]", &()), Value::Bool(true));
        assert_eq!(ok("9 in [1, 2, 3]", &()), Value::Bool(false));
        assert_eq!(ok("\"ell\" in \"hello\"", &()), Value::Bool(true));
    }

    #[test]
    fn loose_equality_unifies_int_and_float() {
        assert_eq!(ok("1 == 1.0", &()), Value::Bool(true));
        assert_eq!(ok("1 != 1.5", &()), Value::Bool(true));
        assert_eq!(ok("1 == \"1\"", &()), Value::Bool(false));
    }

    #[test]
    fn short_circuit_protects_right_operand() {
        // `x` is unbound; the guard prevents evaluation.
        assert_eq!(ok("exists(x) and x > 0", &()), Value::Bool(false));
        assert_eq!(ok("true or (1 / 0 == 0)", &()), Value::Bool(true));
        // Without short-circuiting this would be DivideByZero.
        assert_eq!(run("false and (1 / 0 == 0)", &()), Ok(Value::Bool(false)));
    }

    #[test]
    fn variables_resolve_through_records() {
        let env = Value::record([("acct", Value::record([("balance", Value::Int(42))]))]);
        assert_eq!(ok("acct.balance + 1", &env), Value::Int(43));
        assert_eq!(
            run("acct.missing", &env),
            Err(EvalError::Undefined {
                path: "acct.missing".into()
            })
        );
    }

    #[test]
    fn builtins() {
        assert_eq!(ok("len(\"héllo\")", &()), Value::Int(5));
        assert_eq!(ok("len([1, 2])", &()), Value::Int(2));
        assert_eq!(ok("abs(-4)", &()), Value::Int(4));
        assert_eq!(ok("abs(-4.5)", &()), Value::Float(4.5));
        assert_eq!(ok("min(3, 5)", &()), Value::Int(3));
        assert_eq!(ok("max(3, 5.5)", &()), Value::Float(5.5));
        assert_eq!(ok("contains(\"hello\", \"ell\")", &()), Value::Bool(true));
        assert_eq!(ok("contains([1, 2], 2)", &()), Value::Bool(true));
        assert_eq!(ok("starts_with(\"bank\", \"ba\")", &()), Value::Bool(true));
    }

    #[test]
    fn builtin_errors() {
        assert!(matches!(
            run("len(1)", &()),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert_eq!(
            run("len()", &()),
            Err(EvalError::WrongArity {
                function: "len".into(),
                expected: 1,
                got: 0
            })
        );
        assert_eq!(
            run("frobnicate(1)", &()),
            Err(EvalError::UnknownFunction {
                name: "frobnicate".into()
            })
        );
        assert!(matches!(
            run("exists(1 + 2)", &()),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn predicate_result_must_be_bool() {
        let e = Expr::parse("1 + 1").unwrap();
        assert!(e.eval_bool(&()).is_err());
        let e = Expr::parse("1 + 1 == 2").unwrap();
        assert_eq!(e.eval_bool(&()), Ok(true));
    }

    #[test]
    fn comparison_rejects_incomparable_kinds() {
        assert!(matches!(
            run("true < 1", &()),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            run("\"a\" < 1", &()),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    /// One row per operator family and per error text, pinned as rendered
    /// text: what the borrowing evaluator returns is what the cloning one
    /// returned.
    #[test]
    fn results_and_error_texts_are_pinned() {
        let env = Value::record([
            ("n", Value::Int(7)),
            ("x", Value::Float(2.5)),
            ("s", Value::text("bank")),
            ("q", Value::seq([Value::Int(1), Value::Float(2.0)])),
            ("r", Value::record([("y", Value::Int(3))])),
        ]);
        for (src, expected) in [
            // Arithmetic, wrapping and widening.
            ("n + 1 - 2 * 3", "2"),
            ("n / 2", "3"),
            ("n % 4", "3"),
            ("n / x", "2.8"),
            ("-n + -x", "-9.5"),
            ("9223372036854775807 + 1", "-9223372036854775808"),
            ("-(-9223372036854775807 - 1)", "-9223372036854775808"),
            // Concatenation leaves its operands alone.
            ("s + \"-\" + s", "\"bank-bank\""),
            ("q + [n] + q", "[1, 2.0, 7, 1, 2.0]"),
            ("q", "[1, 2.0]"),
            ("r", "{y: 3}"),
            // Membership and comparison.
            ("2 in q", "true"),
            ("r.y in [1, 2]", "false"),
            ("\"an\" in s", "true"),
            (
                "n == 7.0 and s != \"x\" and x < n and s >= \"bank\"",
                "true",
            ),
            ("not (n <= 6) or false", "true"),
            // Short-circuit: the unbound right operand is never read.
            ("false and ghost > 0", "false"),
            ("true or ghost > 0", "true"),
            ("exists(r.y) and not exists(r.z)", "true"),
            // Builtins hand back an operand or a fresh value.
            ("min(n, x)", "2.5"),
            ("max(s, \"a\")", "\"bank\""),
            ("len(s) + len(q) + abs(-2)", "8"),
            ("contains(q, 2) and starts_with(s, \"ba\")", "true"),
            // Every error text.
            ("ghost.y + 1", "undefined variable ghost.y"),
            ("true and ghost", "undefined variable ghost"),
            ("-s", "type mismatch in negation: got text"),
            ("not n", "type mismatch in logical not: got int"),
            ("n and true", "type mismatch in and: got int"),
            ("false or x", "type mismatch in or: got float"),
            ("true and s", "type mismatch in and: got text"),
            ("s + n", "type mismatch in operator +: got text and int"),
            ("q - q", "type mismatch in operator -: got seq and seq"),
            ("r < 1", "type mismatch in operator <: got record and int"),
            ("0.0 / 0.0 < 1", "type mismatch in operator <: got NaN"),
            ("n in s", "type mismatch in in (substring): got int"),
            ("n in r", "type mismatch in in (membership): got record"),
            ("n / 0", "division by zero"),
            ("n % 0", "division by zero"),
            ("len()", "len expects 1 argument(s), got 0"),
            ("min(n)", "min expects 2 argument(s), got 1"),
            ("exists(n, x)", "exists expects 1 argument(s), got 2"),
            (
                "exists(1)",
                "type mismatch in exists: got non-variable argument",
            ),
            ("len(n)", "type mismatch in len: got int"),
            ("abs(s)", "type mismatch in abs: got text"),
            ("contains(n, 1)", "type mismatch in contains: got int"),
            ("starts_with(q, s)", "type mismatch in starts_with: got seq"),
            ("frobnicate(n)", "unknown function frobnicate"),
            // Which error is reported: the walker's, in its order, though
            // it runs only after the fast path has failed.
            ("ghost + 1 / 0", "undefined variable ghost"),
            ("1 / 0 + ghost", "division by zero"),
            ("frobnicate(ghost)", "undefined variable ghost"),
            ("len(ghost, 1)", "undefined variable ghost"),
            ("min(s, n)", "type mismatch in operator <: got text and int"),
        ] {
            let got = match run(src, &env) {
                Ok(v) => v.to_string(),
                Err(e) => e.to_string(),
            };
            assert_eq!(got, expected, "{src}");
        }
        let err = Expr::parse("n + 1").unwrap().eval_bool(&env).unwrap_err();
        assert_eq!(
            err.to_string(),
            "type mismatch in predicate result: got int"
        );
    }

    /// One field of every kind, and the numbers where the kernel's rules
    /// show: `i64::MAX` (wrapping), NaN, ±inf, −0.0 and 2⁵³ + 1 (the
    /// first int whose widening to `f64` is lossy).
    fn edges() -> Value {
        Value::record([
            ("n", Value::Int(7)),
            ("x", Value::Float(f64::NAN)),
            ("s", Value::text("bank")),
            ("b", Value::Bool(false)),
            ("big", Value::Int(i64::MAX)),
            ("nan", Value::Float(f64::NAN)),
            ("inf", Value::Float(f64::INFINITY)),
            ("ninf", Value::Float(f64::NEG_INFINITY)),
            ("neg0", Value::Float(-0.0)),
            ("p53", Value::Int((1 << 53) + 1)),
        ])
    }

    /// [`truth`] against the walker, node by node, where `false` and an
    /// error part ways; each row pins whether the walker says true too,
    /// so a change to the numeric kernel both share (`>` for `>=`,
    /// checked arithmetic for wrapping, a quiet NaN ordering) fails here.
    #[test]
    fn every_node_holds_exactly_when_the_walker_says_true() {
        let env = edges();
        for (src, expected) in [
            ("n >= 7", true),
            ("n > 7", false),
            ("7 <= n", true),
            ("n <= 6", false),
            ("n < 8", true),
            ("n * 2 - 1 >= 13", true),
            ("n * 2 - 1 > 13", false),
            ("n + 0.5 > 7", true),
            ("n + 0.5 >= 7.5", true),
            ("n + 0.5 > 7.5", false),
            ("n / 0 == 0", false),
            ("n % 0 == 0", false),
            ("not (n / 0 == 0)", false),
            ("n / 2 == 3", true),
            ("n % 4 == 3", true),
            ("n / 0.0 > 0", true),
            ("n / 0.0 == inf", true),
            ("big + 1 < big", true),
            ("big * 2 == -2", true),
            ("big - big + 1 >= 1", true),
            ("big >= big", true),
            ("big > big", false),
            ("nan == nan", false),
            ("nan != nan", true),
            ("nan < 1", false),
            ("not (nan < 1)", false),
            ("not (nan == 1)", true),
            ("x < 1", false),
            ("not (x < 1)", false),
            ("inf - inf == 0", false),
            ("inf - inf != 0", true),
            ("ninf < inf", true),
            ("ninf * 0 >= 0", false),
            ("neg0 == 0", true),
            ("neg0 >= 0 and neg0 <= 0", true),
            ("neg0 < 0", false),
            ("p53 == 9007199254740992.0", true),
            ("p53 == 9007199254740992", false),
            ("p53 > 9007199254740992", true),
            ("p53 > 9007199254740992.0", false),
            ("not (n < 1)", true),
            ("s == \"bank\" and n > 1 and b == false", true),
            ("s == n", false),
            ("s != n", true),
            ("s < n", false),
            ("not (s < n)", false),
            ("s + n == s", false),
            ("n + s != s", false),
            ("s + \"!\" == \"bank!\"", true),
            ("s < \"bank!\"", true),
            ("n > 1 and ghost > 0", false),
            ("ghost > 0 or n > 1", false),
            ("n < 1 or ghost > 0", false),
            ("n > 1 or ghost > 0", true),
            ("not (n < 1 or b == true)", true),
            ("exists(ghost) or n > 1", true),
            ("b or n > 1", true),
            ("n or true", false),
            ("n", false),
            ("true", true),
            ("len(s) == 4 and n in [7]", true),
            ("abs(n) >= 7", true),
            ("-n < 0", true),
        ] {
            let e = Expr::parse(src).unwrap();
            let walker = match eval(&e, &env).as_deref() {
                Ok(Value::Bool(b)) => Some(*b),
                _ => None,
            };
            assert_eq!(walker == Some(true), expected, "walker: {src}");
            assert_eq!(truth(&e, &env), walker, "{src}");
        }
    }

    /// [`operand`] against the walker's value, pinned as text (NaN is not
    /// equal to itself).
    #[test]
    fn a_term_is_the_walker_value() {
        let env = edges();
        for (src, expected) in [
            ("n", Some("7")),
            ("n * 2 + 1", Some("15")),
            ("s + s", Some("\"bankbank\"")),
            ("n / 0", None),
            ("n % 0", None),
            ("n / 0.0", Some("inf")),
            ("ghost + 1", None),
            ("len(s)", Some("4")),
            ("3", Some("3")),
            ("big + 1", Some("-9223372036854775808")),
            ("big * 2", Some("-2")),
            ("nan", Some("NaN")),
            ("nan + 1", Some("NaN")),
            ("inf - inf", Some("NaN")),
            ("ninf * -1", Some("inf")),
            ("neg0", Some("-0.0")),
            ("neg0 * 1", Some("-0.0")),
            ("neg0 + 0", Some("0.0")),
            ("p53 + 0.0", Some("9007199254740992.0")),
            ("p53 - 1", Some("9007199254740992")),
            ("n + 0.5", Some("7.5")),
            ("s + n", None),
            ("n - s", None),
            ("b + 1", None),
        ] {
            let e = Expr::parse(src).unwrap();
            let walker = eval(&e, &env).ok().map(|v| v.to_string());
            assert_eq!(walker.as_deref(), expected, "walker: {src}");
            let fast = operand(&e, &env).map(|v| v.value().to_string());
            assert_eq!(fast, walker, "{src}");
        }
    }

    #[test]
    fn an_operand_result_is_two_words() {
        assert!(std::mem::size_of::<Option<Val<'_>>>() <= 16);
    }

    /// What the random expressions read: the environment's three fields,
    /// a record's field, a path through a non-record and an unbound name
    /// (repeats weight the draw).
    const PATHS: [&str; 12] = [
        "a", "a", "a", "b", "b", "b", "c", "c", "r.y", "r.y", "a.y", "ghost",
    ];

    /// A value of every kind, weighted to the numbers where the kernel's
    /// rules show (see [`edges`]).
    fn arb_value() -> BoxedStrategy<Value> {
        const FLOATS: [f64; 8] = [
            0.0,
            -0.0,
            0.5,
            2.0,
            9007199254740992.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        const INTS: [i64; 3] = [i64::MAX, i64::MIN, (1 << 53) + 1];
        const TEXTS: [&str; 3] = ["", "a", "bank"];
        prop_oneof![
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(Value::Int),
            (0..INTS.len()).prop_map(|i| Value::Int(INTS[i])),
            (0..FLOATS.len()).prop_map(|i| Value::Float(FLOATS[i])),
            (0..TEXTS.len()).prop_map(|i| Value::text(TEXTS[i])),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::seq([Value::Int(1), Value::Float(2.0)])),
        ]
    }

    fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Arithmetic, negation, builtin calls (some of the wrong arity or
    /// unknown) and sequence literals over [`PATHS`] and [`arb_value`]s:
    /// each node [`operand`] reads in line, computes, or hands the walker.
    fn arb_term() -> BoxedStrategy<Expr> {
        const OPS: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem];
        const CALLS: [&str; 5] = ["len", "abs", "min", "max", "frobnicate"];
        let leaf = prop_oneof![
            arb_value().prop_map(Expr::Lit),
            (0..PATHS.len())
                .prop_map(|i| Expr::Var(PATHS[i].split('.').map(str::to_owned).collect())),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            prop_oneof![
                (0..OPS.len(), inner.clone(), inner.clone())
                    .prop_map(|(op, a, b)| binary(OPS[op], a, b)),
                (0..OPS.len(), inner.clone(), inner.clone())
                    .prop_map(|(op, a, b)| binary(OPS[op], a, b)),
                inner
                    .clone()
                    .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
                (0..CALLS.len(), prop::collection::vec(inner.clone(), 1..3))
                    .prop_map(|(f, args)| Expr::Call(CALLS[f].to_owned(), args)),
                prop::collection::vec(inner, 0..3).prop_map(Expr::SeqLit),
            ]
        })
    }

    /// Comparisons and memberships of [`arb_term`]s, `exists`, bare terms
    /// and literals, under `and`, `or` and `not`: each node [`truth`]
    /// decides, and the leaves it hands the walker.
    fn arb_test() -> BoxedStrategy<Expr> {
        const OPS: [BinOp; 7] = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::In,
        ];
        let cmp =
            (0..OPS.len(), arb_term(), arb_term()).prop_map(|(op, a, b)| binary(OPS[op], a, b));
        let leaf = prop_oneof![
            cmp.clone(),
            cmp.clone(),
            cmp,
            (0..PATHS.len()).prop_map(|i| Expr::Call(
                "exists".to_owned(),
                vec![Expr::Var(PATHS[i].split('.').map(str::to_owned).collect())]
            )),
            arb_term(),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
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

    /// The fields of [`PATHS`], `c` now and then missing.
    fn arb_env() -> BoxedStrategy<Value> {
        (
            arb_value().prop_map(Some),
            arb_value().prop_map(Some),
            prop::option::of(arb_value()),
            arb_value(),
        )
            .prop_map(|(a, b, c, y)| {
                let fields = [
                    ("a", a),
                    ("b", b),
                    ("c", c),
                    ("r", Some(Value::record([("y", y)]))),
                ];
                Value::record(fields.into_iter().filter_map(|(k, v)| Some((k, v?))))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16384))]

        /// [`truth`] and [`operand`] against the walker over random
        /// expressions, and `Expr::eval_bool`/`eval` against the walker
        /// with its errors, all compared as `Debug` text (NaN is not equal
        /// to itself, and `==` would take `Int(2)` for `Float(2.0)`).
        #[test]
        fn the_fast_paths_are_the_walker(
            e in prop_oneof![arb_test(), arb_test(), arb_term()],
            env in arb_env(),
        ) {
            let walked = eval(&e, &env).map(Cow::into_owned);
            let walked_bool = match &walked {
                Ok(Value::Bool(b)) => Ok(*b),
                Ok(other) => Err(EvalError::TypeMismatch {
                    context: "predicate result".to_owned(),
                    got: other.kind().to_owned(),
                }),
                Err(err) => Err(err.clone()),
            };
            prop_assert_eq!(truth(&e, &env), walked_bool.clone().ok(), "truth: {} on {}", e, env);
            let fast = operand(&e, &env).map(|v| format!("{:?}", v.value()));
            let walker = walked.as_ref().ok().map(|v| format!("{v:?}"));
            prop_assert_eq!(fast, walker, "operand: {} on {}", e, env);
            prop_assert_eq!(
                format!("{:?}", e.eval_bool(&env)),
                format!("{walked_bool:?}"),
                "eval_bool: {} on {}",
                e,
                env
            );
            prop_assert_eq!(
                format!("{:?}", e.eval(&env)),
                format!("{walked:?}"),
                "eval: {} on {}",
                e,
                env
            );
        }
    }

    #[test]
    fn the_paper_daily_limit_predicate() {
        // §4: "the amount-withdrawn-today is less than or equal to $500".
        let invariant = Expr::parse("withdrawn_today <= 500").unwrap();
        let morning = Value::record([("withdrawn_today", Value::Int(400))]);
        let afternoon = Value::record([("withdrawn_today", Value::Int(600))]);
        assert_eq!(invariant.eval_bool(&morning), Ok(true));
        assert_eq!(invariant.eval_bool(&afternoon), Ok(false));
    }
}
