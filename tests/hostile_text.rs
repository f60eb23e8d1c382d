//! Hostile text for the two text parsers, the §5.1 interface notation
//! (`parse_interface_type`) and the expression language (`Expr::parse`).
//! From valid inputs, one table derives every prefix, every ASCII byte
//! replaced by each character of a punctuation alphabet, a multi-byte
//! character inserted at every character boundary (inside comments and
//! string literals too), and nesting 100,000 deep. Each case must come
//! back `Ok` or as the parser's typed error, with an offset inside the
//! input; a panic fails the test and names the case.

use std::panic::catch_unwind;

use rmodp::computational::notation::{parse_interface_type, BANK_TELLER_NOTATION};
use rmodp::core::expr::Expr;

/// What a substituted byte is drawn from.
const PUNCTUATION: &str = "(){}<>[];:,.=!&|+-*/%\"'\\#@_ \t\n";

/// One character each of two, three and four UTF-8 bytes.
const WIDE: [char; 3] = ['é', '€', '🦀'];

const DEEP: usize = 100_000;

/// Every prefix of `src`, every ASCII byte of it replaced by each
/// [`PUNCTUATION`] character, and each [`WIDE`] character inserted at
/// every character boundary.
fn hostile(src: &str) -> Vec<String> {
    let boundaries: Vec<usize> = (0..=src.len())
        .filter(|&at| src.is_char_boundary(at))
        .collect();
    let mut cases: Vec<String> = boundaries.iter().map(|&at| src[..at].to_owned()).collect();
    for (at, _) in src.char_indices().filter(|(_, c)| c.is_ascii()) {
        for p in PUNCTUATION.chars() {
            cases.push(format!("{}{p}{}", &src[..at], &src[at + 1..]));
        }
    }
    for &at in &boundaries {
        for wide in WIDE {
            cases.push(format!("{}{wide}{}", &src[..at], &src[at..]));
        }
    }
    cases
}

/// The cases on which `error_offset` (a parse that returns its error's
/// offset, if any) panics or names an offset past the input.
fn failures(cases: &[String], error_offset: fn(&str) -> Option<usize>) -> Vec<&str> {
    let failed = |case: &&String| match catch_unwind(|| error_offset(case)) {
        Ok(offset) => offset.is_some_and(|offset| offset > case.len()),
        Err(_) => true,
    };
    cases.iter().filter(failed).map(String::as_str).collect()
}

fn assert_no_failures(cases: &[String], error_offset: fn(&str) -> Option<usize>) {
    let failed = failures(cases, error_offset);
    assert!(
        failed.is_empty(),
        "{} of {} cases panicked or misplaced their error; the first: {:?}",
        failed.len(),
        cases.len(),
        failed[0]
    );
}

#[test]
fn the_notation_parser_types_every_hostile_error() {
    let commented = format!("// the paper's teller\n{BANK_TELLER_NOTATION}  // end\n");
    let mut cases = hostile(BANK_TELLER_NOTATION);
    cases.extend(hostile(&commented));
    cases.extend([
        format!("T = Interface Type {{ operation F {}", "(".repeat(DEEP)),
        format!(
            "T = Interface Type {{ announcement F (x: {}Int); }}",
            "ref<".repeat(DEEP)
        ),
        "{".repeat(DEEP),
    ]);
    assert!(cases.len() > 20_000, "{} cases", cases.len());
    assert_no_failures(&cases, |src| {
        parse_interface_type(src).err().map(|e| e.offset)
    });
}

#[test]
fn the_expression_parser_types_every_hostile_error() {
    let mut cases: Vec<String> = [
        r#"balance - amount >= 0 and owner == "alice""#,
        r#"region in ["bne", "syd"] || !(ppm > 30.5)"#,
        "abs(a.b - c) * (d % 2) != -1 && not done",
    ]
    .into_iter()
    .flat_map(hostile)
    .collect();
    cases.extend([
        format!("{}1{}", "(".repeat(DEEP), ")".repeat(DEEP)),
        format!("{}1{}", "[".repeat(DEEP), "]".repeat(DEEP)),
        format!("{}1{}", "abs(".repeat(DEEP), ")".repeat(DEEP)),
        format!("{}1", "-".repeat(DEEP)),
        format!("1{}", " + 1".repeat(DEEP)),
        format!("a{}", ".b".repeat(DEEP)),
    ]);
    assert!(cases.len() > 3_000, "{} cases", cases.len());
    assert_no_failures(&cases, |src| Expr::parse(src).err().map(|e| e.offset));
}
