//! Expressions compiled once and run many times.
//!
//! The trader (§8.3.2) evaluates one importer constraint against every
//! candidate offer of an import. The tree walker ([`Expr::eval`]) pays,
//! per offer, for the recursion, for a `Result<Cow<Value>>` at every
//! node and for a `Value` at every arithmetic step and comparison. A
//! [`Predicate`] is the constraint's shape decided once: `and` chains
//! flattened into one list, comparisons holding their operands as a
//! borrowed variable path, a borrowed literal or arithmetic over those.
//! Each operand evaluates once, to a number where it holds one: two
//! numbers go through the evaluator's numeric kernel unboxed, building
//! no `Value`, and anything else (text, sequences, bools) takes the
//! walker's own comparison and arithmetic with the values already in
//! hand. Whatever the compiler does not know — calls, sequences, `in`,
//! negation, a bare variable — stays a leaf the tree walker evaluates.
//! No numeric rule is written here: the kernel is the walker's, so the
//! two cannot drift apart.

use std::borrow::Cow;

use super::eval::{arithmetic, comparison, eval, Env, Num};
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

/// What an operand came to: a number, unboxed for the kernel, or any
/// other value, lent by the environment or the expression, or computed.
/// A computed one is boxed: it is rare (text or sequence arithmetic, a
/// walker leaf's non-number), and with it boxed an `Option<Val>` is two
/// words where an inline `Value` made it five — about a quarter of what
/// the compiled form gains on an opaque `ppm + 0 >= 96` (EXPERIMENTS.md,
/// §E11).
enum Val<'a> {
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

    /// The value itself, for the walker's route and for a [`Term`].
    fn value(self) -> Cow<'a, Value> {
        match self {
            Val::Num(n) => Cow::Owned(n.value()),
            Val::Lent(v) => Cow::Borrowed(v),
            Val::Owned(v) => Cow::Owned(*v),
        }
    }
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

    /// What the operand comes to in `env`, evaluated once; `None` where
    /// the walker returns an error. A variable or a literal is read in
    /// line, inside the comparison; arithmetic, which recurses, is one
    /// call to [`Self::arith`], kept out of line so that inlining stops
    /// there.
    #[inline(always)]
    fn eval<'a>(&'a self, env: &'a dyn Env) -> Option<Val<'a>> {
        match self {
            Operand::Var(path) => env.lookup(path).map(Val::lent),
            Operand::Lit(v) => Some(Val::lent(v)),
            Operand::Arith(op, a, b) => Operand::arith(*op, a, b, env),
            Operand::Walk(expr) => match eval(expr, env).ok()? {
                Cow::Borrowed(v) => Some(Val::lent(v)),
                Cow::Owned(v) => Some(Val::owned(v)),
            },
        }
    }

    #[inline(never)]
    fn arith<'a>(op: BinOp, a: &'a Self, b: &'a Self, env: &'a dyn Env) -> Option<Val<'a>> {
        match (a.eval(env)?, b.eval(env)?) {
            (Val::Num(x), Val::Num(y)) => x.arithmetic(op, y).ok().map(Val::Num),
            (a, b) => arithmetic(op, &a.value(), &b.value()).ok().map(Val::owned),
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
    /// the walker would borrow it, a number copied.
    pub fn value<'a>(&'a self, env: &'a dyn Env) -> Option<Cow<'a, Value>> {
        self.0.eval(env).map(Val::value)
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
                let (Some(a), Some(b)) = (a.eval(env), b.eval(env)) else {
                    return Truth::Fail;
                };
                let decided = match (a, b) {
                    (Val::Num(x), Val::Num(y)) => x.comparison(*op, y),
                    (a, b) => comparison(*op, &a.value(), &b.value()),
                };
                match decided {
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

    /// One field of every kind, and the numbers where the kernel's rules
    /// show: `i64::MAX` (wrapping), NaN, ±inf, −0.0 and 2⁵³ + 1 (the
    /// first int whose widening to `f64` is lossy).
    fn env() -> Value {
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

    /// Each compiled node against the walker, where `false` and an error
    /// part ways; each row pins the walker's answer too, so a change to
    /// the numeric kernel both share (`>` for `>=`, checked arithmetic
    /// for wrapping, a quiet NaN ordering) fails here.
    #[test]
    fn every_node_holds_exactly_when_the_walker_says_true() {
        let env = env();
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
            let walker = e.eval_bool(&env) == Ok(true);
            assert_eq!(walker, expected, "walker: {src}");
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
    fn an_operand_result_is_two_words() {
        assert!(std::mem::size_of::<Option<Val<'_>>>() <= 16);
    }

    /// Each compiled term against the walker, and the walker's value
    /// pinned as text (NaN is not equal to itself).
    #[test]
    fn a_term_is_the_walker_value() {
        let env = env();
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
            let walker = e.eval(&env).ok().map(|v| v.to_string());
            assert_eq!(walker.as_deref(), expected, "walker: {src}");
            let term = Term::compile(&e).value(&env).map(|v| v.to_string());
            assert_eq!(term, walker, "{src}");
        }
    }
}
