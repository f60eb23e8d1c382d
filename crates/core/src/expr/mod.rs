//! A small, total expression language over [`Value`]s.
//!
//! One language serves three corners of the reference model:
//!
//! - **information viewpoint** (§4): invariant and dynamic schemas are
//!   predicates over object state — e.g. `withdrawn_today <= 500`;
//! - **enterprise viewpoint** (§3): policy conditions — e.g.
//!   `role == "manager" or amount < 500`;
//! - **trading function** (§8.3.2): importer constraints over service
//!   properties — e.g. `latency_ms <= 20 and region == "bne"`.
//!
//! The pipeline is conventional: lex → [`parse`](Expr::parse)
//! → [`eval`](Expr::eval) with optional static [`infer`](Expr::infer)ence
//! against a record [`DataType`](crate::dtype::DataType). There is one
//! tree and one semantics. [`Expr::eval_bool`] and [`Expr::eval`] first
//! run an error-free fast path over the tree, which compares and
//! computes numbers unboxed and builds no error, and walk the tree for
//! an [`EvalError`] only where that path fails, so a `false` is never
//! evaluated twice. A caller that needs no error — the trader, judging
//! every candidate offer of an import — asks [`Expr::holds`] and
//! [`Expr::value`], the fast paths alone.
//!
//! # Grammar
//!
//! ```text
//! expr    := or
//! or      := and  (("or"  | "||") and)*
//! and     := cmp  (("and" | "&&") cmp)*
//! cmp     := add  (("=="|"!="|"<"|"<="|">"|">="|"in") add)?
//! add     := mul  (("+"|"-") mul)*
//! mul     := unary (("*"|"/"|"%") unary)*
//! unary   := ("-"|"!"|"not") unary | primary
//! primary := literal | path | func "(" args ")" | "(" expr ")" | "[" args "]"
//! path    := ident ("." ident)*
//! ```

mod analyze;
mod eval;
mod infer;
mod parser;
mod token;

use std::borrow::Cow;
use std::fmt;

use crate::value::Value;

pub use analyze::{required, Atom, Comparison};
pub use eval::{Env, EvalError};
pub use infer::InferError;
pub use parser::ParseError;

/// A parsed expression.
///
/// # Example
///
/// ```
/// use rmodp_core::expr::Expr;
/// use rmodp_core::value::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let e = Expr::parse("balance - amount >= 0")?;
/// let env = Value::record([
///     ("balance", Value::Int(300)),
///     ("amount", Value::Int(120)),
/// ]);
/// assert_eq!(e.eval(&env)?, Value::Bool(true));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A (possibly dotted) variable reference, e.g. `old.balance`.
    Var(Vec<String>),
    /// A unary operator application.
    Unary(UnOp, Box<Expr>),
    /// A binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A builtin function call.
    Call(String, Vec<Expr>),
    /// A sequence literal, e.g. `[1, 2, 3]`.
    SeqLit(Vec<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation (`!` or `not`).
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition; concatenation on `Text` and `Seq`.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer on two `Int`s).
    Div,
    /// Remainder.
    Rem,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Short-circuit conjunction.
    And,
    /// Short-circuit disjunction.
    Or,
    /// Membership: element in sequence, or substring in text.
    In,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::In => "in",
        }
    }
}

impl Expr {
    /// Parses an expression from source text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] locating the offending character or token,
    /// or the first of more than 128 nested levels.
    pub fn parse(src: &str) -> Result<Expr, ParseError> {
        parser::parse(src)
    }

    /// Evaluates the expression against an environment.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for unbound variables, operand type
    /// mismatches, division by zero, or bad builtin arity.
    pub fn eval(&self, env: &dyn Env) -> Result<Value, EvalError> {
        match self.value(env) {
            Some(v) => Ok(v.into_owned()),
            None => eval::eval(self, env).map(Cow::into_owned),
        }
    }

    /// Evaluates and requires a boolean result — the common case for
    /// schema and policy predicates.
    ///
    /// # Errors
    ///
    /// As [`Self::eval`], plus a type mismatch if the result is not a bool.
    pub fn eval_bool(&self, env: &dyn Env) -> Result<bool, EvalError> {
        if let Some(b) = eval::truth(self, env) {
            return Ok(b);
        }
        match &*eval::eval(self, env)? {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::TypeMismatch {
                context: "predicate result".to_owned(),
                got: other.kind().to_owned(),
            }),
        }
    }

    /// Whether `self.eval_bool(env) == Ok(true)`, building no error.
    pub fn holds(&self, env: &dyn Env) -> bool {
        eval::truth(self, env) == Some(true)
    }

    /// `self.eval(env).ok()`, building no error: borrowed where the
    /// value is a literal of the expression or a binding of `env`.
    pub fn value<'a>(&'a self, env: &'a dyn Env) -> Option<Cow<'a, Value>> {
        eval::operand(self, env).map(eval::Val::value)
    }

    /// Infers the result type of the expression against a typed environment
    /// (a record type mapping variable names to their types).
    ///
    /// # Errors
    ///
    /// Returns an [`InferError`] if a variable is unknown or operand types
    /// cannot be reconciled.
    pub fn infer(
        &self,
        env: &crate::dtype::DataType,
    ) -> Result<crate::dtype::DataType, InferError> {
        infer::infer(self, env)
    }

    /// All variable paths mentioned by the expression, in first-appearance
    /// order (used by the trader to reject constraints over absent
    /// properties before evaluation).
    pub fn variables(&self) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Vec<String>>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Var(path) => {
                if !out.contains(path) {
                    out.push(path.clone());
                }
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Call(_, args) | Expr::SeqLit(args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Var(path) => write!(f, "{}", path.join(".")),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(not {e})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::SeqLit(items) => {
                write!(f, "[")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_parse() {
        let srcs = [
            "a + b * c",
            "not (x == 1) or y in [1, 2, 3]",
            "len(name) > 3 and starts_with(name, \"ba\")",
            "old.balance - amount >= 0",
        ];
        for src in srcs {
            let e = Expr::parse(src).unwrap();
            let printed = e.to_string();
            let e2 = Expr::parse(&printed).unwrap();
            assert_eq!(e, e2, "{src} -> {printed}");
        }
    }

    #[test]
    fn variables_lists_paths_once_in_order() {
        let e = Expr::parse("a.b + c * a.b - d").unwrap();
        assert_eq!(
            e.variables(),
            vec![
                vec!["a".to_owned(), "b".to_owned()],
                vec!["c".to_owned()],
                vec!["d".to_owned()],
            ]
        );
    }
}
