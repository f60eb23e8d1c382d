//! Static analysis of expressions for query planning.
//!
//! The trader (§8.3.2) compiles importer constraints into index-backed
//! query plans. The planner needs two syntactic facts about a
//! constraint, both provided here:
//!
//! - its **conjuncts**: the operands of the top-level `and` tree
//!   ([`Expr::conjuncts`]). An offer matches the whole constraint only
//!   if every conjunct evaluates to `true` on it (a conjunct that
//!   evaluates to `false` or to an error makes the whole constraint
//!   false-or-error — either way, no match), so any single conjunct is
//!   a sound pre-filter, and a conjunct known to be true on an offer
//!   can be left out of what is evaluated there;
//! - which conjuncts are **sargable atoms**: comparisons of one
//!   property path against one scalar literal ([`Atom::of`]), the
//!   shapes a secondary index can serve;
//! - which variables a list of conjuncts **requires** ([`required`]):
//!   those bound wherever every conjunct is `true`, which the residual
//!   filter need not check are bound.
//!
//! The analysis is purely syntactic and err on the side of returning
//! *fewer* atoms: anything it cannot classify simply stays in the
//! residual predicate and is evaluated per candidate, so planning can
//! never change a query's meaning. An atom borrows its path and
//! literals from the conjunct it was read from.

use super::{BinOp, Expr, UnOp};
use crate::value::Value;

/// One index-servable comparison: `path op rhs`, normalised so the
/// variable path is always on the left (`10 <= ppm` becomes
/// `ppm >= 10`).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison<'e> {
    /// The (dotted) property path being constrained.
    pub path: &'e [String],
    /// The comparison operator, variable on the left.
    pub op: BinOp,
    /// The scalar literal on the right.
    pub rhs: &'e Value,
}

/// A sargable atom: one conjunct of an index-servable shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom<'e> {
    /// `path op literal` for `==`, `<`, `<=`, `>`, `>=`.
    Cmp(Comparison<'e>),
    /// `path in [lit, lit, …]`: a disjunction of point lookups.
    InSet {
        /// The constrained property path.
        path: &'e [String],
        /// The literal members, in source order.
        values: Vec<&'e Value>,
    },
}

impl<'e> Atom<'e> {
    /// The property path the atom constrains.
    pub fn path(&self) -> &'e [String] {
        match self {
            Atom::Cmp(c) => c.path,
            Atom::InSet { path, .. } => path,
        }
    }

    /// The atom a conjunct (see [`Expr::conjuncts`]) is, if it has the
    /// shape `path op scalar-literal` (either side) or
    /// `path in [literals]`. Everything else is planner-opaque and must
    /// be handled by residual evaluation.
    pub fn of(conjunct: &'e Expr) -> Option<Self> {
        let Expr::Binary(op, lhs, rhs) = conjunct else {
            return None;
        };
        match op {
            BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (path, op, rhs) = match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Var(path), Expr::Lit(lit)) => (path, *op, lit),
                    (Expr::Lit(lit), Expr::Var(path)) => (path, flip(*op), lit),
                    _ => return None,
                };
                scalar(rhs).then_some(Atom::Cmp(Comparison { path, op, rhs }))
            }
            BinOp::In => {
                let (Expr::Var(path), Expr::SeqLit(items)) = (lhs.as_ref(), rhs.as_ref()) else {
                    return None;
                };
                let values = items
                    .iter()
                    .map(|item| match item {
                        Expr::Lit(v) if scalar(v) => Some(v),
                        _ => None,
                    })
                    .collect::<Option<_>>()?;
                Some(Atom::InSet { path, values })
            }
            _ => None,
        }
    }
}

/// Whether a literal is an indexable scalar (bool, int, float, text).
fn scalar(v: &Value) -> bool {
    matches!(
        v,
        Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Text(_)
    )
}

/// Mirrors an operator across `==` / inequalities when the literal was
/// written on the left: `lit < path` means `path > lit`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

impl Expr {
    /// The operands of the top-level `and` tree, left to right. An
    /// expression that is not a conjunction is its own single conjunct.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary(BinOp::And, a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// The variable paths bound in every environment where each of
/// `conjuncts` evaluates to `true`. Only what is read on every such
/// evaluation counts: each comparison's operands, through arithmetic;
/// an `or`'s left operand, not its right; under `or` and `not`, which
/// also pass a `false`, only an `and`'s first operand; never what a call,
/// a sequence or `in` reads (`exists(x)` holds with `x` unbound).
pub fn required<'e>(conjuncts: &[&'e Expr]) -> Vec<&'e [String]> {
    let mut out = Vec::new();
    for conjunct in conjuncts {
        bound(conjunct, false, &mut out);
    }
    out
}

/// The variables bound whenever `e` comes to `true`, or, with `either`,
/// to either boolean.
fn bound<'e>(e: &'e Expr, either: bool, out: &mut Vec<&'e [String]>) {
    use BinOp::*;
    match e {
        Expr::Binary(And, a, b) => {
            bound(a, either, out);
            if !either {
                bound(b, false, out);
            }
        }
        Expr::Binary(Or, a, _) | Expr::Unary(UnOp::Not, a) => bound(a, true, out),
        Expr::Binary(Eq | Ne | Lt | Le | Gt | Ge, a, b) => {
            read(a, out);
            read(b, out);
        }
        _ => {}
    }
}

/// The variables an operand reads on every evaluation that succeeds.
fn read<'e>(e: &'e Expr, out: &mut Vec<&'e [String]>) {
    match e {
        Expr::Var(path) => out.push(path),
        Expr::Binary(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem, a, b) => {
            read(a, out);
            read(b, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Expr {
        Expr::parse(src).unwrap()
    }

    /// The atoms among an expression's conjuncts, in order.
    fn atoms(e: &Expr) -> Vec<Atom<'_>> {
        e.conjuncts().into_iter().filter_map(Atom::of).collect()
    }

    #[test]
    fn conjuncts_flatten_the_and_tree() {
        let e = parse("a > 1 and (b == 2 and c < 3) and d");
        let texts: Vec<String> = e.conjuncts().iter().map(|c| c.to_string()).collect();
        assert_eq!(texts, vec!["(a > 1)", "(b == 2)", "(c < 3)", "d"]);
        // A disjunction is one opaque conjunct.
        assert_eq!(parse("a > 1 or b > 2").conjuncts().len(), 1);
    }

    #[test]
    fn atoms_extract_simple_comparisons() {
        let e = parse("ppm >= 40 and region == \"bne\" and colour == true");
        let atoms = atoms(&e);
        assert_eq!(atoms.len(), 3);
        assert_eq!(
            atoms[0],
            Atom::Cmp(Comparison {
                path: &["ppm".into()],
                op: BinOp::Ge,
                rhs: &Value::Int(40),
            })
        );
        assert_eq!(atoms[1].path(), ["region".to_owned()]);
    }

    #[test]
    fn flipped_literals_normalise() {
        let e = parse("10 <= ppm");
        assert_eq!(
            atoms(&e),
            vec![Atom::Cmp(Comparison {
                path: &["ppm".into()],
                op: BinOp::Ge,
                rhs: &Value::Int(10),
            })]
        );
        // Symmetric equality keeps ==.
        let e = parse("\"x\" == region");
        let atoms = atoms(&e);
        assert!(matches!(&atoms[0], Atom::Cmp(c) if c.op == BinOp::Eq));
    }

    #[test]
    fn in_sets_of_literals_are_atoms() {
        let e = parse("floor in [1, 2, 3]");
        assert_eq!(
            atoms(&e),
            vec![Atom::InSet {
                path: &["floor".into()],
                values: vec![&Value::Int(1), &Value::Int(2), &Value::Int(3)],
            }]
        );
        // Non-literal members disqualify the atom.
        assert!(atoms(&parse("floor in [1, x]")).is_empty());
    }

    #[test]
    fn opaque_shapes_yield_no_atoms() {
        for src in [
            "ppm + 1 >= 40",  // computed lhs
            "ppm >= limit",   // variable rhs
            "ppm != 40",      // != cannot drive an index
            "a > 1 or b > 2", // disjunction
            "exists(ppm)",    // builtin
            "not (ppm < 40)", // negation is opaque
            "tags == [1, 2]", // non-scalar literal (SeqLit rhs)
            "starts_with(n, \"a\")",
        ] {
            assert!(atoms(&parse(src)).is_empty(), "{src}");
        }
        // Mixed: the sargable half still surfaces.
        let e = parse("(a > 1 or b > 2) and ppm >= 40");
        let atoms = atoms(&e);
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].path(), ["ppm".to_owned()]);
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
            let e = parse(src);
            let found = super::required(&[&e]);
            let requires = |r: &str| found.contains(&path(r).as_slice());
            for r in required {
                assert!(requires(r), "{src} requires {r}");
            }
            for r in not_required {
                assert!(!requires(r), "{src} does not require {r}");
            }
            // A conjunction's conjuncts require what the conjunction does.
            assert_eq!(super::required(&e.conjuncts()), found, "{src}");
        }
    }

    #[test]
    fn dotted_paths_survive_extraction() {
        let e = parse("qos.latency_ms <= 20");
        let atoms = atoms(&e);
        assert_eq!(atoms[0].path(), ["qos".to_owned(), "latency_ms".to_owned()]);
    }
}
