//! Expressions compiled once and run many times.
//!
//! The trader (§8.3.2) evaluates one importer constraint against every
//! candidate offer of an import. The tree walker ([`Expr::eval`]) pays,
//! per offer, for the recursion, for a `Result<Cow<Value>>` at every
//! node and for an owned `Bool` at every comparison. A [`Predicate`] is
//! the constraint's shape decided once: `and` chains flattened into one
//! list, comparisons holding their operands as a borrowed variable path,
//! a borrowed literal or arithmetic over those. Whatever the compiler
//! does not know — calls, sequences, `in`, negation, a bare variable —
//! stays a leaf the tree walker evaluates, and the comparison and
//! arithmetic themselves are the walker's own helpers, so the two cannot
//! drift apart.

use std::borrow::Cow;

use super::eval::{arithmetic, comparison, eval, Env};
use super::{BinOp, Expr, UnOp};
use crate::value::Value;

/// What a boolean expression came to, with `false` kept apart from an
/// error or a non-boolean result: `not` and the left operand of `or`
/// need the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    True,
    False,
    Fail,
}

/// A compiled operand: the value an expression evaluates to, or `None`
/// where the walker returns an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Term<'e>(Operand<'e>);

#[derive(Debug, Clone, PartialEq)]
enum Operand<'e> {
    Var(Cow<'e, [String]>),
    Lit(Cow<'e, Value>),
    Arith(BinOp, Box<Operand<'e>>, Box<Operand<'e>>),
    Walk(Cow<'e, Expr>),
}

impl<'e> Operand<'e> {
    fn compile(expr: &'e Expr) -> Self {
        match expr {
            Expr::Var(path) => Operand::Var(Cow::Borrowed(path)),
            Expr::Lit(v) => Operand::Lit(Cow::Borrowed(v)),
            Expr::Binary(
                op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem),
                a,
                b,
            ) => Operand::Arith(
                *op,
                Box::new(Operand::compile(a)),
                Box::new(Operand::compile(b)),
            ),
            other => Operand::Walk(Cow::Borrowed(other)),
        }
    }

    fn into_owned(self) -> Operand<'static> {
        let owned = |o: Box<Operand<'e>>| Box::new(o.into_owned());
        match self {
            Operand::Var(path) => Operand::Var(Cow::Owned(path.into_owned())),
            Operand::Lit(v) => Operand::Lit(Cow::Owned(v.into_owned())),
            Operand::Arith(op, a, b) => Operand::Arith(op, owned(a), owned(b)),
            Operand::Walk(expr) => Operand::Walk(Cow::Owned(expr.into_owned())),
        }
    }

    fn value<'a>(&'a self, env: &'a dyn Env) -> Option<Cow<'a, Value>> {
        match self {
            Operand::Var(path) => env.lookup(path).map(Cow::Borrowed),
            Operand::Lit(v) => Some(Cow::Borrowed(v)),
            Operand::Arith(op, a, b) => {
                let a = a.value(env)?;
                let b = b.value(env)?;
                arithmetic(*op, &a, &b).ok().map(Cow::Owned)
            }
            Operand::Walk(expr) => eval(expr, env).ok(),
        }
    }

    /// The variables every successful evaluation has read.
    fn read(&self, out: &mut Vec<Cow<'e, [String]>>) {
        match self {
            Operand::Var(path) => out.push(path.clone()),
            Operand::Arith(_, a, b) => {
                a.read(out);
                b.read(out);
            }
            Operand::Lit(_) | Operand::Walk(_) => {}
        }
    }
}

impl<'e> Term<'e> {
    /// Compiles an expression for repeated evaluation.
    pub fn compile(expr: &'e Expr) -> Self {
        Term(Operand::compile(expr))
    }

    /// The same term, owning what it borrowed from the expression.
    pub fn into_owned(self) -> Term<'static> {
        Term(self.0.into_owned())
    }

    /// The expression's value in `env`: `eval(env).ok()`, borrowed where
    /// the walker would borrow it.
    pub fn value<'a>(&'a self, env: &'a dyn Env) -> Option<Cow<'a, Value>> {
        self.0.value(env)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Test<'e> {
    /// Every test true, tried in order; the first that is not decides.
    All(Vec<Test<'e>>),
    Or(Box<Test<'e>>, Box<Test<'e>>),
    Not(Box<Test<'e>>),
    Cmp(BinOp, Operand<'e>, Operand<'e>),
    Walk(Cow<'e, Expr>),
}

impl<'e> Test<'e> {
    fn compile(expr: &'e Expr) -> Self {
        match expr {
            Expr::Binary(BinOp::And, ..) => {
                Test::All(expr.conjuncts().into_iter().map(Test::compile).collect())
            }
            Expr::Binary(BinOp::Or, a, b) => {
                Test::Or(Box::new(Test::compile(a)), Box::new(Test::compile(b)))
            }
            Expr::Unary(UnOp::Not, a) => Test::Not(Box::new(Test::compile(a))),
            Expr::Binary(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                a,
                b,
            ) => Test::Cmp(*op, Operand::compile(a), Operand::compile(b)),
            other => Test::Walk(Cow::Borrowed(other)),
        }
    }

    fn into_owned(self) -> Test<'static> {
        let owned = |t: Box<Test<'e>>| Box::new(t.into_owned());
        match self {
            Test::All(tests) => Test::All(tests.into_iter().map(Test::into_owned).collect()),
            Test::Or(a, b) => Test::Or(owned(a), owned(b)),
            Test::Not(a) => Test::Not(owned(a)),
            Test::Cmp(op, a, b) => Test::Cmp(op, a.into_owned(), b.into_owned()),
            Test::Walk(expr) => Test::Walk(Cow::Owned(expr.into_owned())),
        }
    }

    fn truth(&self, env: &dyn Env) -> Truth {
        match self {
            Test::All(tests) => tests
                .iter()
                .map(|t| t.truth(env))
                .find(|t| *t != Truth::True)
                .unwrap_or(Truth::True),
            Test::Or(a, b) => match a.truth(env) {
                Truth::False => b.truth(env),
                decided => decided,
            },
            Test::Not(a) => match a.truth(env) {
                Truth::True => Truth::False,
                Truth::False => Truth::True,
                Truth::Fail => Truth::Fail,
            },
            Test::Cmp(op, a, b) => {
                let (Some(a), Some(b)) = (a.value(env), b.value(env)) else {
                    return Truth::Fail;
                };
                match comparison(*op, &a, &b) {
                    Ok(true) => Truth::True,
                    Ok(false) => Truth::False,
                    Err(_) => Truth::Fail,
                }
            }
            Test::Walk(expr) => match eval(expr, env).as_deref() {
                Ok(Value::Bool(true)) => Truth::True,
                Ok(Value::Bool(false)) => Truth::False,
                _ => Truth::Fail,
            },
        }
    }

    /// The variables bound whenever the test comes to `True`, or, with
    /// `either`, to either boolean. Only what is read on
    /// every such evaluation counts: an `or`'s left operand, not its
    /// right; an `and`'s first test when it may have stopped there; never
    /// what a walker leaf reads (`exists(x)` holds with `x` unbound).
    fn bound(&self, either: bool, out: &mut Vec<Cow<'e, [String]>>) {
        match self {
            Test::All(tests) if either => tests[0].bound(true, out),
            Test::All(tests) => tests.iter().for_each(|t| t.bound(false, out)),
            Test::Or(a, _) | Test::Not(a) => a.bound(true, out),
            Test::Cmp(_, a, b) => {
                a.read(out);
                b.read(out);
            }
            Test::Walk(_) => {}
        }
    }
}

/// A boolean expression compiled for repeated evaluation: it
/// [holds](Self::holds) in an environment exactly when
/// [`Expr::eval_bool`] returns `Ok(true)` there.
///
/// # Example
///
/// ```
/// use rmodp_core::expr::{Expr, Predicate};
/// use rmodp_core::value::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let e = Expr::parse("ppm >= 40 and region == \"bne\"")?;
/// let fast = Predicate::compile(&e);
/// let offer = Value::record([("ppm", Value::Int(55)), ("region", Value::text("bne"))]);
/// assert!(fast.holds(&offer));
/// assert!(!fast.holds(&Value::record([("ppm", Value::Int(55))])));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate<'e> {
    test: Test<'e>,
    required: Vec<Cow<'e, [String]>>,
}

impl<'e> Predicate<'e> {
    /// Compiles a boolean expression.
    pub fn compile(expr: &'e Expr) -> Self {
        Predicate::new(Test::compile(expr))
    }

    /// Compiles the conjunction of `conjuncts`, in order: it holds
    /// exactly when each of them evaluates to `true`, as the `and` of
    /// them would. The planner's residual is the conjuncts of a
    /// constraint its indexes did not answer exactly.
    pub fn all(conjuncts: &[&'e Expr]) -> Self {
        Predicate::new(match conjuncts {
            [one] => Test::compile(one),
            _ => Test::All(conjuncts.iter().map(|c| Test::compile(c)).collect()),
        })
    }

    /// The same predicate, owning what it borrowed from the expression.
    pub fn into_owned(self) -> Predicate<'static> {
        Predicate::new(self.test.into_owned())
    }

    fn new(test: Test<'e>) -> Self {
        let mut required = Vec::new();
        test.bound(false, &mut required);
        Predicate { test, required }
    }

    /// Whether `expr.eval_bool(env) == Ok(true)`.
    pub fn holds(&self, env: &dyn Env) -> bool {
        self.test.truth(env) == Truth::True
    }

    /// Whether every environment the predicate holds in binds `path`.
    pub fn requires(&self, path: &[String]) -> bool {
        self.required.iter().any(|r| **r == *path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Value {
        Value::record([
            ("n", Value::Int(7)),
            ("x", Value::Float(f64::NAN)),
            ("s", Value::text("bank")),
            ("b", Value::Bool(false)),
        ])
    }

    /// Each compiled node against the walker, where `false` and an error
    /// part ways.
    #[test]
    fn every_node_holds_exactly_when_the_walker_says_true() {
        let env = env();
        for src in [
            "n >= 7",
            "7 <= n",
            "n * 2 - 1 >= 13",
            "n + 0.5 > 7",
            "n / 0 == 0",
            "x < 1",
            "not (x < 1)",
            "not (n < 1)",
            "s == \"bank\" and n > 1 and b == false",
            "n > 1 and ghost > 0",
            "ghost > 0 or n > 1",
            "n < 1 or ghost > 0",
            "n > 1 or ghost > 0",
            "not (n < 1 or b == true)",
            "exists(ghost) or n > 1",
            "b or n > 1",
            "n or true",
            "n",
            "true",
            "s + \"!\" == \"bank!\"",
            "len(s) == 4 and n in [7]",
            "-n < 0",
        ] {
            let e = Expr::parse(src).unwrap();
            let walker = e.eval_bool(&env) == Ok(true);
            assert_eq!(Predicate::compile(&e).holds(&env), walker, "{src}");
        }
    }

    #[test]
    fn required_variables_are_those_every_true_result_read() {
        let path = |s: &str| s.split('.').map(str::to_owned).collect::<Vec<_>>();
        for (src, required, not_required) in [
            ("a >= 1 and b.c == 2", &["a", "b.c"][..], &[][..]),
            ("a * 2 - c >= t", &["a", "c", "t"], &[]),
            ("a >= 1 or g > 0", &["a"], &["g"]),
            ("not (a >= 1 or g == true)", &["a"], &["g"]),
            ("not (a >= 1 and g == true)", &["a"], &["g"]),
            ("exists(g) or a >= 1", &[], &["g", "a"]),
            ("len(g) > 0", &[], &["g"]),
        ] {
            let e = Expr::parse(src).unwrap();
            let p = Predicate::compile(&e);
            for r in required {
                assert!(p.requires(&path(r)), "{src} requires {r}");
            }
            for r in not_required {
                assert!(!p.requires(&path(r)), "{src} does not require {r}");
            }
        }
    }

    #[test]
    fn a_term_is_the_walker_value() {
        let env = env();
        for src in [
            "n",
            "n * 2 + 1",
            "s + s",
            "n / 0",
            "ghost + 1",
            "len(s)",
            "3",
        ] {
            let e = Expr::parse(src).unwrap();
            let term = Term::compile(&e);
            assert_eq!(
                term.value(&env).map(Cow::into_owned),
                e.eval(&env).ok(),
                "{src}"
            );
        }
    }
}
