//! A parser for the paper's interface-type notation (§5.1).
//!
//! The tutorial writes interface types like this (noting "the notation…
//! is merely illustrative; RM-ODP does not prescribe any particular
//! notation"):
//!
//! ```text
//! BankTeller = Interface Type {
//!   operation Deposit (c: Customer, a: Account, d: Dollars)
//!     returns OK (new_balance: Dollars)
//!     returns Error (reason: Text);
//!   operation Withdraw (c: Customer, a: Account, d: Dollars)
//!     returns OK (new_balance: Dollars)
//!     returns NotToday (today: Dollars, daily_limit: Dollars)
//!     returns Error (reason: Text);
//! }
//! ```
//!
//! [`parse_interface_type`] accepts exactly this notation (plus
//! `announcement` for operations without terminations) and produces an
//! [`OperationalSignature`]. Type names map to data types: `Int`/
//! `Dollars`/`Customer`/`Account` are integers, `Float`/`Rate` floats,
//! `Text`/`String` text, `Bool` booleans, `Bytes` blobs, and `ref<T>` an
//! interface reference to `T`.

use std::fmt;

use rmodp_core::dtype::DataType;

use crate::signature::{OperationalSignature, TerminationSignature};

/// A notation parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotationError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for NotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "notation error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for NotationError {}

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> NotationError {
        NotationError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let before = self.pos;
            while self.rest().starts_with([' ', '\t', '\n', '\r']) {
                self.pos += 1;
            }
            // Line comments, which may hold any UTF-8: skip to the newline
            // whole, never a byte at a time into a character.
            if self.rest().starts_with("//") {
                self.pos = self
                    .rest()
                    .find('\n')
                    .map_or(self.src.len(), |n| self.pos + n);
            }
            if self.pos == before {
                return;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), NotationError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    /// Eats a keyword: like `eat`, but the next char must not continue an
    /// identifier.
    fn eat_keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(word) {
            let next = self.rest()[word.len()..].chars().next();
            if !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                self.pos += word.len();
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String, NotationError> {
        self.skip_ws();
        let start = self.pos;
        let mut chars = self.rest().chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                self.pos += 1;
            }
            _ => return Err(self.err("expected identifier")),
        }
        while self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.pos += 1;
        }
        Ok(self.src[start..self.pos].to_owned())
    }

    fn data_type(&mut self) -> Result<DataType, NotationError> {
        if self.eat_keyword("ref") {
            self.expect("<")?;
            let name = self.ident()?;
            self.expect(">")?;
            return Ok(DataType::Ref(Some(name)));
        }
        let name = self.ident()?;
        Ok(match name.as_str() {
            "Int" | "Dollars" | "Customer" | "Account" | "Count" => DataType::Int,
            "Float" | "Rate" | "Real" => DataType::Float,
            "Text" | "String" => DataType::Text,
            "Bool" | "Boolean" => DataType::Bool,
            "Bytes" | "Blob" => DataType::Blob,
            "Any" => DataType::Any,
            other => {
                // Unknown names are treated as opaque interface refs —
                // matching the paper's loose use of domain names.
                DataType::Ref(Some(other.to_owned()))
            }
        })
    }

    /// `( name: Type, name: Type, ... )` — possibly empty.
    fn param_list(&mut self) -> Result<Vec<(String, DataType)>, NotationError> {
        self.expect("(")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(")") {
            return Ok(out);
        }
        loop {
            let name = self.ident()?;
            self.expect(":")?;
            let dt = self.data_type()?;
            if out.iter().any(|(n, _)| *n == name) {
                return Err(self.err(format!("duplicate parameter {name}")));
            }
            out.push((name, dt));
            if self.eat(",") {
                continue;
            }
            self.expect(")")?;
            return Ok(out);
        }
    }
}

/// Parses one interface type written in the §5.1 notation into an
/// [`OperationalSignature`].
///
/// # Errors
///
/// Returns a [`NotationError`] with a byte offset on malformed input.
pub fn parse_interface_type(src: &str) -> Result<OperationalSignature, NotationError> {
    let mut p = P { src, pos: 0 };
    let name = p.ident()?;
    p.expect("=")?;
    if !p.eat_keyword("Interface") {
        return Err(p.err("expected 'Interface'"));
    }
    if !p.eat_keyword("Type") {
        return Err(p.err("expected 'Type'"));
    }
    p.expect("{")?;

    let mut sig = OperationalSignature::new(name);
    loop {
        p.skip_ws();
        if p.eat("}") {
            break;
        }
        let is_announcement = if p.eat_keyword("operation") {
            false
        } else if p.eat_keyword("announcement") {
            true
        } else {
            return Err(p.err("expected 'operation', 'announcement' or '}'"));
        };
        let op_name = p.ident()?;
        if sig.operation(&op_name).is_some() {
            return Err(p.err(format!("duplicate operation {op_name}")));
        }
        let params = p.param_list()?;
        if is_announcement {
            p.expect(";")?;
            sig = sig.announcement(op_name, params);
            continue;
        }
        let mut terminations = Vec::new();
        while p.eat_keyword("returns") {
            let term_name = p.ident()?;
            if terminations
                .iter()
                .any(|t: &TerminationSignature| t.name == term_name)
            {
                return Err(p.err(format!("duplicate termination {term_name}")));
            }
            let results = p.param_list()?;
            terminations.push(TerminationSignature::new(term_name, results));
        }
        if terminations.is_empty() {
            return Err(p.err(
                "an operation needs at least one 'returns' clause \
                              (use 'announcement' for none)",
            ));
        }
        p.expect(";")?;
        sig = sig.interrogation(op_name, params, terminations);
    }
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input after interface type"));
    }
    Ok(sig)
}

/// The paper's BankTeller definition, verbatim.
pub const BANK_TELLER_NOTATION: &str = r#"
BankTeller = Interface Type {
  operation Deposit (c: Customer, a: Account, d: Dollars)
    returns OK (new_balance: Dollars)
    returns Error (reason: Text);
  operation Withdraw (c: Customer, a: Account, d: Dollars)
    returns OK (new_balance: Dollars)
    returns NotToday (today: Dollars, daily_limit: Dollars)
    returns Error (reason: Text);
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{bank_teller_signature, OperationKind};
    use crate::subtype::is_operational_subtype;

    #[test]
    fn parses_the_papers_bank_teller_verbatim() {
        let parsed = parse_interface_type(BANK_TELLER_NOTATION).unwrap();
        // The parsed notation and the hand-built signature are mutually
        // substitutable (structurally equivalent).
        let built = bank_teller_signature();
        assert!(is_operational_subtype(&parsed, &built).is_ok());
        assert!(is_operational_subtype(&built, &parsed).is_ok());
        assert_eq!(parsed.name(), "BankTeller");
        assert_eq!(parsed.operations().len(), 2);
        let withdraw = parsed.operation("Withdraw").unwrap();
        match &withdraw.kind {
            OperationKind::Interrogation { terminations } => {
                let names: Vec<&str> = terminations.iter().map(|t| t.name.as_str()).collect();
                assert_eq!(names, ["OK", "NotToday", "Error"]);
            }
            _ => panic!("interrogation expected"),
        }
    }

    #[test]
    fn announcements_and_empty_params() {
        let sig = parse_interface_type(
            "Logger = Interface Type {
               announcement Log (line: Text);
               operation Flush ()
                 returns OK ();
             }",
        )
        .unwrap();
        assert_eq!(
            sig.operation("Log").unwrap().kind,
            OperationKind::Announcement
        );
        assert!(sig.operation("Flush").unwrap().termination("OK").is_some());
    }

    #[test]
    fn ref_types_and_domain_names() {
        let sig = parse_interface_type(
            "Factory = Interface Type {
               operation Make (kind: Text)
                 returns OK (made: ref<BankTeller>)
                 returns Error (reason: Text);
             }",
        )
        .unwrap();
        let ok = sig.operation("Make").unwrap().termination("OK").unwrap();
        assert_eq!(ok.results[0].1, DataType::Ref(Some("BankTeller".into())));
        // Unknown bare names also become interface refs.
        let sig =
            parse_interface_type("T = Interface Type { announcement F (x: Widget); }").unwrap();
        assert_eq!(
            sig.operation("F").unwrap().params[0].1,
            DataType::Ref(Some("Widget".into()))
        );
    }

    #[test]
    fn comments_are_tolerated() {
        let sig = parse_interface_type(
            "// the teller
             T = Interface Type {
               // deposits only
               announcement Deposit (d: Dollars); // money in
             }",
        )
        .unwrap();
        assert_eq!(sig.operations().len(), 1);
    }

    #[test]
    fn errors_carry_offsets() {
        for (src, expect) in [
            ("", "identifier"),
            ("X = Interface {", "'Type'"),
            ("X = Interface Type { operation f () ; }", "returns"),
            ("X = Interface Type { operation f (a: Int, a: Int) returns OK (); }", "duplicate parameter"),
            (
                "X = Interface Type { operation f () returns OK () returns OK (); }",
                "duplicate termination",
            ),
            ("X = Interface Type { operation f () returns OK (); } trailing", "trailing"),
            ("X = Interface Type { banana }", "expected 'operation'"),
            (
                "X = Interface Type { operation f () returns OK (); operation f () returns OK (); }",
                "duplicate operation",
            ),
        ] {
            let err = parse_interface_type(src).unwrap_err();
            assert!(err.message.contains(expect), "{src:?}: {err}");
        }
    }

    #[test]
    fn identifier_prefix_keywords_do_not_confuse() {
        // "operations" as a parameter name must not be read as the
        // keyword "operation".
        let sig = parse_interface_type("T = Interface Type { announcement F (operations: Int); }")
            .unwrap();
        assert_eq!(sig.operation("F").unwrap().params[0].0, "operations");
    }
}
