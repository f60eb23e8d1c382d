//! Recursive-descent parser for the expression language.

use std::fmt;

use super::token::{lex, LexError, Spanned, Token};
use super::{BinOp, Expr, UnOp};
use crate::value::Value;

/// A syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source (source length for "unexpected end").
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            offset: e.offset,
            message: e.message,
        }
    }
}

/// How deep a parsed expression may be: brackets, calls and unary operators
/// open around any token, and operator, call or sequence nodes on any path
/// from the root. The parser, evaluator and `Drop` recurse once per
/// level, so deeper text is a [`ParseError`], never a stack overflow.
const MAX_DEPTH: usize = 128;

/// The binary operators by precedence, loosest first.
const LEVELS: [&[(Token, BinOp)]; 5] = [
    &[(Token::Or, BinOp::Or)],
    &[(Token::And, BinOp::And)],
    &[
        (Token::EqEq, BinOp::Eq),
        (Token::Ne, BinOp::Ne),
        (Token::Lt, BinOp::Lt),
        (Token::Le, BinOp::Le),
        (Token::Gt, BinOp::Gt),
        (Token::Ge, BinOp::Ge),
        (Token::In, BinOp::In),
    ],
    &[(Token::Plus, BinOp::Add), (Token::Minus, BinOp::Sub)],
    &[
        (Token::Star, BinOp::Mul),
        (Token::Slash, BinOp::Div),
        (Token::Percent, BinOp::Rem),
    ],
];

/// The comparisons' level: they do not chain.
const COMPARISONS: usize = 2;

/// Parses a complete expression; trailing tokens are an error.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        end: src.len(),
        open: 0,
    };
    let (e, _) = p.binary(0)?;
    if let Some(t) = p.peek() {
        return Err(ParseError {
            offset: t.offset,
            message: format!("unexpected trailing token {}", t.token),
        });
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    end: usize,
    /// Brackets, calls and unary operators open around the current token.
    open: usize,
}

/// A parsed expression and its height: the nodes on its longest path
/// from the root down to a leaf, not counting the leaf.
type Parsed = Result<(Expr, usize), ParseError>;

/// One level deeper than `depth`, gone to by the token at `offset`.
fn deeper(depth: usize, offset: usize) -> Result<usize, ParseError> {
    (depth < MAX_DEPTH)
        .then_some(depth + 1)
        .ok_or_else(|| ParseError {
            offset,
            message: format!("expression nested deeper than {MAX_DEPTH} levels"),
        })
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek().map(|s| &s.token) == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(s) if &s.token == want => Ok(()),
            Some(s) => Err(ParseError {
                offset: s.offset,
                message: format!("expected {want}, found {}", s.token),
            }),
            None => Err(self.unexpected_end(&want.to_string())),
        }
    }

    fn unexpected_end(&self, what: &str) -> ParseError {
        ParseError {
            offset: self.end,
            message: format!("expected {what}, found end of input"),
        }
    }

    /// What `inner` parses one bracket further in, opened at `offset`.
    fn nested(&mut self, offset: usize, inner: impl FnOnce(&mut Self) -> Parsed) -> Parsed {
        self.open = deeper(self.open, offset)?;
        let parsed = inner(self);
        self.open -= 1;
        parsed
    }

    /// `operand (op operand)*` for the operators of [`LEVELS`]`[level]`,
    /// associating to the left; an operand is the next level's.
    fn binary(&mut self, level: usize) -> Parsed {
        let Some(ops) = LEVELS.get(level) else {
            return self.unary_expr();
        };
        let (mut lhs, mut height) = self.binary(level + 1)?;
        while let Some((op, offset)) = self.peek().and_then(|s| {
            let (_, op) = ops.iter().find(|(t, _)| *t == s.token)?;
            Some((*op, s.offset))
        }) {
            self.pos += 1;
            let (rhs, h) = self.binary(level + 1)?;
            height = deeper(height.max(h), offset)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            if level == COMPARISONS {
                break;
            }
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Parsed {
        let (op, offset) = match self.peek() {
            Some(s) if s.token == Token::Minus => (UnOp::Neg, s.offset),
            Some(s) if s.token == Token::Not => (UnOp::Not, s.offset),
            _ => return self.primary(),
        };
        self.pos += 1;
        let (e, height) = self.nested(offset, Self::unary_expr)?;
        Ok((Expr::Unary(op, Box::new(e)), deeper(height, offset)?))
    }

    fn primary(&mut self) -> Parsed {
        let t = self
            .next()
            .ok_or_else(|| self.unexpected_end("expression"))?;
        let leaf = |e| Ok((e, 0));
        match t.token {
            Token::Int(i) => leaf(Expr::Lit(Value::Int(i))),
            Token::Float(x) => leaf(Expr::Lit(Value::Float(x))),
            Token::Str(s) => leaf(Expr::Lit(Value::Text(s))),
            Token::True => leaf(Expr::Lit(Value::Bool(true))),
            Token::False => leaf(Expr::Lit(Value::Bool(false))),
            Token::Null => leaf(Expr::Lit(Value::Null)),
            Token::LParen => self.nested(t.offset, |p| {
                let e = p.binary(0)?;
                p.expect(&Token::RParen).map(|()| e)
            }),
            Token::LBracket => self.list(t.offset, &Token::RBracket, Expr::SeqLit),
            Token::Ident(name) => {
                if self.eat(&Token::LParen) {
                    return self.list(t.offset, &Token::RParen, |args| Expr::Call(name, args));
                }
                let mut path = vec![name];
                while self.eat(&Token::Dot) {
                    match self.next() {
                        Some(Spanned {
                            token: Token::Ident(seg),
                            ..
                        }) => path.push(seg),
                        Some(s) => {
                            return Err(ParseError {
                                offset: s.offset,
                                message: format!(
                                    "expected field name after '.', found {}",
                                    s.token
                                ),
                            })
                        }
                        None => return Err(self.unexpected_end("field name after '.'")),
                    }
                }
                leaf(Expr::Var(path))
            }
            other => Err(ParseError {
                offset: t.offset,
                message: format!("unexpected token {other}"),
            }),
        }
    }

    /// What `build` makes of a comma-separated list, possibly empty, opened
    /// at `offset` and ended by `close`.
    fn list(
        &mut self,
        offset: usize,
        close: &Token,
        build: impl FnOnce(Vec<Expr>) -> Expr,
    ) -> Parsed {
        self.nested(offset, |p| {
            let (mut items, mut height) = (Vec::new(), 0);
            if !p.eat(close) {
                loop {
                    let (item, h) = p.binary(0)?;
                    items.push(item);
                    height = height.max(h);
                    if !p.eat(&Token::Comma) {
                        break;
                    }
                }
                p.expect(close)?;
            }
            Ok((build(items), deeper(height, offset)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_mul_over_add_over_cmp_over_and_over_or() {
        let e = parse("a or b and c == d + e * f").unwrap();
        assert_eq!(e.to_string(), "(a or (b and (c == (d + (e * f)))))");
    }

    #[test]
    fn unary_binds_tighter_than_binary() {
        let e = parse("-a + b").unwrap();
        assert_eq!(e.to_string(), "((-a) + b)");
        let e = parse("not a and b").unwrap();
        assert_eq!(e.to_string(), "((not a) and b)");
    }

    #[test]
    fn parens_override_precedence() {
        let e = parse("(a or b) and c").unwrap();
        assert_eq!(e.to_string(), "((a or b) and c)");
    }

    #[test]
    fn parses_calls_paths_and_seq_literals() {
        let e = parse("min(a.b, 3) in [1, 2, 3]").unwrap();
        assert_eq!(e.to_string(), "(min(a.b, 3) in [1, 2, 3])");
        let e = parse("f()").unwrap();
        assert_eq!(e, Expr::Call("f".into(), vec![]));
        let e = parse("[]").unwrap();
        assert_eq!(e, Expr::SeqLit(vec![]));
    }

    #[test]
    fn subtraction_is_left_associative() {
        let e = parse("a - b - c").unwrap();
        assert_eq!(e.to_string(), "((a - b) - c)");
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = parse("a b").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_dangling_operators() {
        assert!(parse("a +").is_err());
        assert!(parse("* a").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("a.").is_err());
        assert!(parse("a.1").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn comparison_does_not_chain() {
        // `a < b < c` is rejected — the second `<` is a trailing token.
        assert!(parse("a < b < c").is_err());
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse("a + + b").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    /// Each way of nesting, at the bound, one past it (the error at the
    /// level that goes too far) and ten times past it: text that once
    /// overflowed the stack is an error, and what parses also evaluates.
    #[test]
    fn nesting_is_bounded() {
        type Shape = fn(usize) -> String;
        // The last column is where the level past the bound starts.
        let rows: [(&str, Shape, usize); 7] = [
            (
                "parentheses",
                |n| format!("{}1{}", "(".repeat(n), ")".repeat(n)),
                128,
            ),
            (
                "sequences",
                |n| format!("{}1{}", "[".repeat(n), "]".repeat(n)),
                128,
            ),
            (
                "calls",
                |n| format!("{}1{}", "abs(".repeat(n), ")".repeat(n)),
                512,
            ),
            ("not", |n| format!("{}true", "not ".repeat(n)), 512),
            ("negation", |n| format!("{}1", "-".repeat(n)), 128),
            ("sums", |n| format!("1{}", " + 1".repeat(n)), 514),
            (
                "conjunctions",
                |n| format!("true{}", " and true".repeat(n)),
                1157,
            ),
        ];
        for (shape, text, offending) in rows {
            let at_bound = parse(&text(MAX_DEPTH)).unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert!(at_bound.eval(&()).is_ok(), "{shape}");
            let err = parse(&text(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.offset, offending, "{shape}");
            assert_eq!(err.message, "expression nested deeper than 128 levels");
            assert!(parse(&text(10 * MAX_DEPTH)).is_err(), "{shape}");
        }
        for text in [
            format!("{}1{}", "(".repeat(10_000), ")".repeat(10_000)),
            format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000)),
            format!("{}true", "not ".repeat(100_000)),
            format!("{}1", "-".repeat(100_000)),
        ] {
            assert!(parse(&text).is_err());
        }
    }
}
