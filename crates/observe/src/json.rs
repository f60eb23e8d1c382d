//! The one JSON writer. Every JSON byte this workspace publishes — the
//! `BENCH_*.json` artifacts, the report documents, the JSONL trace and
//! the population export — is written through this module, so JSON's
//! syntax is known here and nowhere else.
//!
//! A value is anything [`ToJson`]. An object or array of a fixed shape
//! is spelled with [`json!`](crate::json!) (a new `String`) or
//! [`json_into!`](crate::json_into!) (appended to one):
//!
//! ```
//! use rmodp_observe::json;
//! use rmodp_observe::json::Fixed;
//!
//! let ops = [("get", 3u64), ("put", 1)];
//! let doc = json!({
//!     "note"?: None::<&str>,
//!     "name": "bank \"a\"",
//!     "mean": Fixed::<3>(0.5),
//!     "ops": [for (op, n) in ops => {"op": op, "n": n}],
//!     "p": {"max": u64::MAX, "lost": f64::NAN.is_nan()},
//! });
//! let want = r#"{"name":"bank \"a\"","mean":0.500,"ops":[{"op":"get","n":3},{"op":"put","n":1}],"p":{"max":18446744073709551615,"lost":true}}"#;
//! assert_eq!(doc, want);
//! ```
//!
//! What the writer decides (DESIGN.md, "One JSON writer"):
//!
//! - fields are written in source order, keys as their literal spells
//!   them, with no whitespace anywhere;
//! - `"k"?: opt` leaves the field out when `opt` is `None`; a plain
//!   `None` value is `null`;
//! - integers are written two digits at a time from a table, without
//!   `fmt`;
//! - a float is only ever [`Fixed<N>`]: `N` decimals, and `null` when it
//!   is not finite (`NaN` and `inf` are not JSON);
//! - strings are escaped by `escape_into`: quote, backslash and the
//!   control characters, nothing else.

use std::fmt::{self, Write as _};

/// A value that renders itself as JSON.
pub trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);

    /// The value's JSON text.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Whether a byte cannot stand in a JSON string as it is.
#[inline]
fn needs_escape(byte: u8) -> bool {
    (byte < 0x20) | (byte == b'"') | (byte == b'\\')
}

/// Appends `s` to `out` as the body of a JSON string: quote, backslash
/// and control characters escaped, everything else verbatim. The only
/// escaper: every string the writer renders goes through it.
#[inline]
fn escape_into(out: &mut String, s: &str) {
    // Most strings need nothing: one pass without early exit, one copy.
    if s.bytes().fold(false, |any, byte| any | needs_escape(byte)) {
        escape_each(out, s);
    } else {
        out.push_str(s);
    }
}

/// [`escape_into`] for a string that holds a byte to escape.
fn escape_each(out: &mut String, s: &str) {
    let mut start = 0;
    // Every byte that needs escaping is ASCII, so `at` is always a char
    // boundary.
    for (at, byte) in s
        .bytes()
        .enumerate()
        .filter(|&(_, byte)| needs_escape(byte))
    {
        out.push_str(&s[start..at]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
        start = at + 1;
    }
    out.push_str(&s[start..]);
}

/// The two-digit decimals `00` to `99`, back to back.
const PAIRS: &str = "\
    00010203040506070809101112131415161718192021222324\
    25262728293031323334353637383940414243444546474849\
    50515253545556575859606162636465666768697071727374\
    75767778798081828384858687888990919293949596979899";

/// Appends `v` in decimal, the digits `{}` formats it with, two at a time
/// from a table (no `fmt`, no UTF-8 check).
#[inline]
fn push_decimal(out: &mut String, mut v: u64) {
    let pair = |p: u8| &PAIRS[usize::from(p) * 2..][..2];
    // Least significant pair first; at most nine below the leading digits.
    let mut low = [0u8; 9];
    let mut n = 0;
    while v >= 100 {
        low[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    let lead = pair(v as u8);
    out.push_str(if v < 10 { &lead[1..] } else { lead });
    for &p in low[..n].iter().rev() {
        out.push_str(pair(p));
    }
}

macro_rules! unsigned_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[inline]
            fn write_json(&self, out: &mut String) {
                push_decimal(out, *self as u64);
            }
        }
    )*};
}

macro_rules! signed_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            #[inline]
            fn write_json(&self, out: &mut String) {
                if *self < 0 {
                    out.push('-');
                }
                push_decimal(out, (*self as i64).unsigned_abs());
            }
        }
    )*};
}

unsigned_to_json!(u8, u16, u32, u64, usize);
signed_to_json!(i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    #[inline]
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    #[inline]
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    #[inline]
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, value) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            value.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A float written with `N` decimals: `null` in JSON when it is not
/// finite, and as `format!("{:.N$}")` writes it when displayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed<const N: usize>(pub f64);

impl<const N: usize> fmt::Display for Fixed<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.*}", N, self.0)
    }
}

impl<const N: usize> ToJson for Fixed<N> {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            write!(out, "{self}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }
}

/// A value whose JSON is whatever `write` appends: how a function
/// returns a part of a document for its caller to place.
pub fn from_fn<F: Fn(&mut String)>(write: F) -> FromFn<F> {
    FromFn(write)
}

/// See [`from_fn`].
pub struct FromFn<F>(F);

impl<F: Fn(&mut String)> ToJson for FromFn<F> {
    fn write_json(&self, out: &mut String) {
        (self.0)(out);
    }
}

/// Renders a JSON value into a new `String`; see the [module
/// docs](mod@crate::json) for the syntax.
#[macro_export]
macro_rules! json {
    ($($value:tt)+) => {{
        let mut out = ::std::string::String::new();
        $crate::json_into!(&mut out, $($value)+);
        out
    }};
}

/// Appends a JSON value to a `&mut String`: `json_into!(out, {…})`.
/// A value is an object `{"key": value, "key"?: option, …}`, an array
/// `[for PATTERN in ITERATOR => value]`, or any [`ToJson`] expression.
#[macro_export]
macro_rules! json_into {
    ($out:expr, $($value:tt)+) => {{
        let out: &mut ::std::string::String = $out;
        $crate::__json_value!(out, $($value)+);
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_value {
    ($out:ident, { $($fields:tt)* }) => {{
        $out.push('{');
        $crate::__json_fields!($out, false; $($fields)*);
        $out.push('}');
    }};
    ($out:ident, [for $pat:pat in $iter:expr => $($element:tt)+]) => {{
        $out.push('[');
        let mut first = true;
        for $pat in $iter {
            if !first {
                $out.push(',');
            }
            first = false;
            $crate::__json_value!($out, $($element)+);
        }
        $out.push(']');
    }};
    ($out:ident, $value:expr) => {
        $crate::json::ToJson::write_json(&$value, $out)
    };
}

/// Writes an object's fields. The token after `$out` says whether a
/// field has been written before this one: `false`, `true`, or — after
/// a `?:` field — a `(bool)` only known when the object is written.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_fields {
    ($out:ident, $wrote:tt;) => {
        let _ = $wrote;
    };
    ($out:ident, $wrote:tt; $key:literal ?: $value:expr $(, $($rest:tt)*)?) => {
        let wrote = match &$value {
            Some(value) => {
                $crate::__json_key!($out, $wrote, $key);
                $crate::json::ToJson::write_json(value, $out);
                true
            }
            None => $wrote,
        };
        $crate::__json_fields!($out, (wrote); $($($rest)*)?);
    };
    ($out:ident, $wrote:tt; $key:literal : { $($fields:tt)* } $(, $($rest:tt)*)?) => {
        $crate::__json_key!($out, $wrote, $key);
        $crate::__json_value!($out, { $($fields)* });
        $crate::__json_fields!($out, true; $($($rest)*)?);
    };
    ($out:ident, $wrote:tt; $key:literal : [for $($array:tt)+] $(, $($rest:tt)*)?) => {
        $crate::__json_key!($out, $wrote, $key);
        $crate::__json_value!($out, [for $($array)+]);
        $crate::__json_fields!($out, true; $($($rest)*)?);
    };
    ($out:ident, $wrote:tt; $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::__json_key!($out, $wrote, $key);
        $crate::json::ToJson::write_json(&$value, $out);
        $crate::__json_fields!($out, true; $($($rest)*)?);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($out:ident, false, $key:literal) => {
        $out.push_str(concat!("\"", $key, "\":"))
    };
    ($out:ident, true, $key:literal) => {
        $out.push_str(concat!(",\"", $key, "\":"))
    };
    ($out:ident, $wrote:tt, $key:literal) => {
        if $wrote {
            $out.push(',');
        }
        $out.push_str(concat!("\"", $key, "\":"));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn every_control_character_is_escaped_and_nothing_else() {
        for c in (0u8..0x20).map(char::from) {
            let want = match c {
                '\n' => r"\n".to_owned(),
                '\r' => r"\r".to_owned(),
                '\t' => r"\t".to_owned(),
                c => format!(r"\u{:04x}", c as u32),
            };
            assert_eq!(escaped(&c.to_string()), want, "{:?}", c);
        }
        let table = [
            ("", ""),
            ("plain", "plain"),
            ("\"", r#"\""#),
            ("\\", r"\\"),
            ("say \"hi\"\nline2\\", r#"say \"hi\"\nline2\\"#),
            ("cut \"a\"\tb", r#"cut \"a\"\tb"#),
            ("a\u{7}\"b\u{200b}", "a\\u0007\\\"b\u{200b}"),
            // Legal in JSON as it stands: written verbatim.
            ("\u{2028}\u{2029}\u{7f}", "\u{2028}\u{2029}\u{7f}"),
            ("Zürich €5 日本 🦀", "Zürich €5 日本 🦀"),
            ("\u{1f}é\u{0}", "\\u001fé\\u0000"),
        ];
        for (text, want) in table {
            assert_eq!(escaped(text), want, "{text:?}");
            assert_eq!(text.to_json(), format!("\"{want}\""));
        }
    }

    #[test]
    fn integers_are_their_decimal_digits() {
        assert_eq!(0u64.to_json(), "0");
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(i64::MIN.to_json(), "-9223372036854775808");
        assert_eq!((-7i32).to_json(), "-7");
        assert_eq!(10usize.to_json(), "10");
        let powers = (0..20).map(|k| 10u64.pow(k));
        let edges = powers.flat_map(|p| [p - 1, p, p + 1]).chain([u64::MAX - 1]);
        for v in (0..=10_000).chain(edges) {
            assert_eq!(v.to_json(), v.to_string());
        }
    }

    #[test]
    fn a_fixed_float_has_its_decimals_and_is_null_when_not_finite() {
        assert_eq!(Fixed::<3>(2.0).to_json(), "2.000");
        assert_eq!(Fixed::<1>(0.25).to_json(), "0.2");
        assert_eq!(Fixed::<3>(-1.5).to_string(), "-1.500");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Fixed::<3>(x).to_json(), "null");
        }
        // Text reports display what `{:.3}` displays, even when not finite.
        assert_eq!(Fixed::<3>(f64::NAN).to_string(), "NaN");
    }

    #[test]
    fn options_slices_and_booleans() {
        assert_eq!(None::<u64>.to_json(), "null");
        assert_eq!(Some("x").to_json(), r#""x""#);
        assert_eq!(Vec::<u64>::new().to_json(), "[]");
        assert_eq!([1u8, 2].to_json(), "[1,2]");
        assert_eq!(vec![Some(true), None].to_json(), "[true,null]");
    }

    #[test]
    fn optional_fields_leave_no_stray_comma() {
        let (none, some) = (None::<u64>, Some(5u64));
        assert_eq!(json!({"a"?: none, "b": 1}), r#"{"b":1}"#);
        assert_eq!(json!({"a"?: some, "b": 1}), r#"{"a":5,"b":1}"#);
        assert_eq!(json!({"a"?: none, "b"?: none}), "{}");
        assert_eq!(json!({"a"?: none, "b"?: some, "c"?: none}), r#"{"b":5}"#);
        assert_eq!(json!({"a": 1, "b"?: none, "c": 2,}), r#"{"a":1,"c":2}"#);
        assert_eq!(json!({}), "{}");
    }

    #[test]
    fn nested_objects_arrays_and_parts() {
        let rows = [(1u64, "x"), (2, "y")];
        let part = from_fn(|out: &mut String| json_into!(out, {"k": [1u8]}));
        let doc = json!({
            "rows": [for (n, name) in rows => {"n": n, "name": name}],
            "names": [for (_, name) in rows => name],
            "empty": [for n in Vec::<u8>::new() => n],
            "part": part,
            "deep": {"a": {"b": {}}},
        });
        assert_eq!(
            doc,
            r#"{"rows":[{"n":1,"name":"x"},{"n":2,"name":"y"}],"names":["x","y"],"empty":[],"part":{"k":[1]},"deep":{"a":{"b":{}}}}"#
        );
        let mut out = String::from("[");
        json_into!(&mut out, [for n in 1..=3u8 => n]);
        assert_eq!(out, "[[1,2,3]");
    }
}
