//! Data types and the structural subtype relation.
//!
//! RM-ODP's computational interfaces are strongly typed and subtyping gives
//! substitutability (§5.1.1). Interface subtyping (in `rmodp-computational`)
//! bottoms out in the subtype relation between the *data types* of operation
//! parameters and results defined here.
//!
//! The relation is structural:
//!
//! - every type is a subtype of [`DataType::Any`];
//! - `Int <: Float` (lossless widening on read);
//! - records use width + depth subtyping (a record with *more* fields, each
//!   a subtype, substitutes for one with fewer);
//! - sequences are covariant;
//! - enumerations are subtypes when their label set shrinks;
//! - interface references are compared by type name, optionally delegated to
//!   a resolver (the type repository) for structural comparison.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// The type of an ODP data value.
///
/// # Example
///
/// ```
/// use rmodp_core::dtype::DataType;
/// use rmodp_core::value::Value;
///
/// let account = DataType::record([
///     ("balance", DataType::Int),
///     ("owner", DataType::Text),
/// ]);
/// let v = Value::record([
///     ("balance", Value::Int(10)),
///     ("owner", Value::text("alice")),
/// ]);
/// assert!(account.check(&v).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    /// The top type: any value conforms.
    Any,
    /// Only `Value::Null`.
    Null,
    /// Booleans.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats (an `Int` value also conforms, by widening).
    Float,
    /// UTF-8 text.
    Text,
    /// Opaque bytes.
    Blob,
    /// A homogeneous sequence.
    Seq(Box<DataType>),
    /// A record with the given named fields.
    Record(BTreeMap<String, DataType>),
    /// A closed set of text labels.
    Enum(Vec<String>),
    /// A reference to an interface of the named type; `None` means a
    /// reference to an interface of any type.
    Ref(Option<String>),
    /// A value that is either of the inner type or `Null`.
    Optional(Box<DataType>),
}

impl DataType {
    /// Convenience constructor for a record type.
    pub fn record<K: Into<String>, I: IntoIterator<Item = (K, DataType)>>(fields: I) -> Self {
        DataType::Record(fields.into_iter().map(|(k, t)| (k.into(), t)).collect())
    }

    /// Convenience constructor for a sequence type.
    pub fn seq(elem: DataType) -> Self {
        DataType::Seq(Box::new(elem))
    }

    /// Checks a value against this type.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] naming the path at which the value failed to
    /// conform.
    pub fn check(&self, value: &Value) -> Result<(), TypeError> {
        self.check_at(value, &Path::Root)
    }

    /// [`check`](Self::check) of the value found at `path`. The path is
    /// borrowed segments on the stack: a check that passes allocates
    /// nothing, and one that fails renders its path once.
    fn check_at(&self, value: &Value, path: &Path<'_>) -> Result<(), TypeError> {
        let fail = |expected: String, got: String| {
            Err(TypeError {
                path: path.to_string(),
                expected,
                got,
            })
        };
        match (self, value) {
            (DataType::Any, _) => Ok(()),
            (DataType::Null, Value::Null) => Ok(()),
            (DataType::Bool, Value::Bool(_)) => Ok(()),
            (DataType::Int, Value::Int(_)) => Ok(()),
            (DataType::Float, Value::Float(_) | Value::Int(_)) => Ok(()),
            (DataType::Text, Value::Text(_)) => Ok(()),
            (DataType::Blob, Value::Blob(_)) => Ok(()),
            (DataType::Ref(_), Value::Ref(_)) => Ok(()),
            (DataType::Optional(inner), v) => {
                if v.is_null() {
                    Ok(())
                } else {
                    inner.check_at(v, path)
                }
            }
            (DataType::Enum(labels), Value::Text(s)) => {
                if labels.iter().any(|l| l == s) {
                    Ok(())
                } else {
                    fail(self.to_string(), format!("label {s:?}"))
                }
            }
            (DataType::Seq(elem), Value::Seq(items)) => {
                for (i, item) in items.iter().enumerate() {
                    elem.check_at(item, &Path::Item(path, i))?;
                }
                Ok(())
            }
            (DataType::Record(fields), Value::Record(values)) => {
                for (name, ftype) in fields {
                    match values.get(name) {
                        Some(v) => ftype.check_at(v, &Path::Field(path, name))?,
                        None if matches!(ftype, DataType::Optional(_)) => {}
                        None => return fail(format!("field {name:?}"), "missing".to_owned()),
                    }
                }
                Ok(())
            }
            (expected, got) => fail(expected.to_string(), got.kind().to_owned()),
        }
    }

    /// Whether `self` is a (structural) subtype of `other` — i.e. whether a
    /// value of `self` can be used where `other` is expected.
    ///
    /// Interface-reference names are compared with `resolver`, allowing the
    /// type repository to substitute its structural interface-subtype check.
    pub fn is_subtype_with(&self, other: &DataType, resolver: &dyn Fn(&str, &str) -> bool) -> bool {
        use DataType::*;
        match (self, other) {
            (_, Any) => true,
            (Null, Null) => true,
            (Bool, Bool) => true,
            (Int, Int) => true,
            (Int, Float) => true,
            (Float, Float) => true,
            (Text, Text) => true,
            (Blob, Blob) => true,
            (Enum(a), Enum(b)) => a.iter().all(|l| b.contains(l)),
            (Enum(_), Text) => true,
            (Seq(a), Seq(b)) => a.is_subtype_with(b, resolver),
            (Record(sub), Record(sup)) => sup.iter().all(|(name, sup_t)| match sub.get(name) {
                Some(sub_t) => sub_t.is_subtype_with(sup_t, resolver),
                None => matches!(sup_t, Optional(_)),
            }),
            (Ref(_), Ref(None)) => true,
            (Ref(Some(a)), Ref(Some(b))) => a == b || resolver(a, b),
            (Null, Optional(_)) => true,
            (Optional(a), Optional(b)) => a.is_subtype_with(b, resolver),
            (a, Optional(b)) => a.is_subtype_with(b, resolver),
            _ => false,
        }
    }

    /// [`Self::is_subtype_with`] using name equality for interface refs.
    pub fn is_subtype_of(&self, other: &DataType) -> bool {
        self.is_subtype_with(other, &|a, b| a == b)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Any => write!(f, "any"),
            DataType::Null => write!(f, "null"),
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
            DataType::Blob => write!(f, "blob"),
            DataType::Seq(e) => write!(f, "seq<{e}>"),
            DataType::Record(fields) => {
                write!(f, "{{")?;
                for (i, (k, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {t}")?;
                }
                write!(f, "}}")
            }
            DataType::Enum(labels) => {
                write!(f, "enum(")?;
                for (i, l) in labels.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, ")")
            }
            DataType::Ref(None) => write!(f, "interface"),
            DataType::Ref(Some(n)) => write!(f, "interface<{n}>"),
            DataType::Optional(t) => write!(f, "optional<{t}>"),
        }
    }
}

/// Where a check stands in the value it was given: the value itself, or
/// a field or item of a place. It renders as [`TypeError::path`] does.
enum Path<'a> {
    Root,
    Field(&'a Path<'a>, &'a str),
    Item(&'a Path<'a>, usize),
}

/// The segments from the root, joined by `.`: `tags.[0]`.
impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parent = match self {
            Path::Root => return Ok(()),
            Path::Field(parent, _) | Path::Item(parent, _) => parent,
        };
        if !matches!(parent, Path::Root) {
            write!(f, "{parent}.")?;
        }
        match self {
            Path::Field(_, name) => f.write_str(name),
            Path::Item(_, i) => write!(f, "[{i}]"),
            Path::Root => Ok(()),
        }
    }
}

/// A value failed to conform to a [`DataType`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Dotted path into the value where the mismatch occurred ("" for root).
    pub path: String,
    /// Human-readable description of the expected type.
    pub expected: String,
    /// Human-readable description of what was found.
    pub got: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "expected {}, got {}", self.expected, self.got)
        } else {
            write!(
                f,
                "at {}: expected {}, got {}",
                self.path, self.expected, self.got
            )
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn account_type() -> DataType {
        DataType::record([
            ("balance", DataType::Int),
            ("owner", DataType::Text),
            ("tags", DataType::seq(DataType::Text)),
        ])
    }

    fn account_value() -> Value {
        Value::record([
            ("balance", Value::Int(100)),
            ("owner", Value::text("alice")),
            ("tags", Value::seq([Value::text("vip")])),
        ])
    }

    #[test]
    fn check_accepts_conforming_record() {
        assert!(account_type().check(&account_value()).is_ok());
    }

    #[test]
    fn check_reports_path_of_mismatch() {
        let mut v = account_value();
        v.set_field("tags", Value::seq([Value::Int(3)]));
        let err = account_type().check(&v).unwrap_err();
        assert_eq!(err.path, "tags.[0]");
        assert_eq!(err.got, "int");
    }

    #[test]
    fn check_renders_the_path_it_failed_at() {
        let t = DataType::record([(
            "a",
            DataType::seq(DataType::record([(
                "",
                DataType::record([("b", DataType::Int)]),
            )])),
        )]);
        let item = |b: Value| Value::record([("", Value::record([("b", b)]))]);
        let v = Value::record([("a", Value::seq([item(Value::Int(1)), item(Value::Null)]))]);
        let err = t.check(&v).unwrap_err();
        // An empty name is still a segment, as `join(".")` made it.
        assert_eq!(err.path, "a.[1]..b");
        assert_eq!(err.to_string(), "at a.[1]..b: expected int, got null");
        let err = t
            .check(&Value::record([("a", Value::seq([Value::Int(1)]))]))
            .unwrap_err();
        assert_eq!((err.path.as_str(), err.got.as_str()), ("a.[0]", "int"));
        assert_eq!(DataType::Int.check(&Value::Null).unwrap_err().path, "");
        let missing = t.check(&Value::record([(
            "a",
            Value::seq([Value::record::<&str, _>([])]),
        )]));
        assert_eq!(
            missing.unwrap_err().to_string(),
            "at a.[0]: expected field \"\", got missing"
        );
    }

    #[test]
    fn check_reports_missing_field() {
        let v = Value::record([("balance", Value::Int(1))]);
        let err = account_type().check(&v).unwrap_err();
        assert!(err.expected.contains("owner"), "{err}");
        assert_eq!(err.got, "missing");
    }

    #[test]
    fn extra_value_fields_are_allowed() {
        // Width subtyping at the value level: providers may supply more.
        let mut v = account_value();
        v.set_field("extra", Value::Bool(true));
        assert!(account_type().check(&v).is_ok());
    }

    #[test]
    fn optional_fields_may_be_absent_or_null() {
        let t = DataType::record([("note", DataType::Optional(Box::new(DataType::Text)))]);
        assert!(t.check(&Value::record::<&str, _>([])).is_ok());
        assert!(t.check(&Value::record([("note", Value::Null)])).is_ok());
        assert!(t
            .check(&Value::record([("note", Value::text("x"))]))
            .is_ok());
        assert!(t.check(&Value::record([("note", Value::Int(1))])).is_err());
    }

    #[test]
    fn int_conforms_to_float() {
        assert!(DataType::Float.check(&Value::Int(3)).is_ok());
        assert!(DataType::Int.check(&Value::Float(3.0)).is_err());
    }

    #[test]
    fn enum_checks_labels() {
        let t = DataType::Enum(vec!["error".into(), "ok".into()]);
        assert!(t.check(&Value::text("ok")).is_ok());
        let err = t.check(&Value::text("warn")).unwrap_err();
        assert!(err.got.contains("warn"));
    }

    #[test]
    fn subtype_int_float_any() {
        assert!(DataType::Int.is_subtype_of(&DataType::Float));
        assert!(!DataType::Float.is_subtype_of(&DataType::Int));
        assert!(DataType::Blob.is_subtype_of(&DataType::Any));
        assert!(!DataType::Any.is_subtype_of(&DataType::Blob));
    }

    #[test]
    fn record_width_and_depth_subtyping() {
        let wide = DataType::record([("a", DataType::Int), ("b", DataType::Text)]);
        let narrow = DataType::record([("a", DataType::Float)]);
        assert!(wide.is_subtype_of(&narrow));
        assert!(!narrow.is_subtype_of(&wide));
    }

    #[test]
    fn record_with_optional_sup_field_absent_in_sub() {
        let sup = DataType::record([
            ("a", DataType::Int),
            ("note", DataType::Optional(Box::new(DataType::Text))),
        ]);
        let sub = DataType::record([("a", DataType::Int)]);
        assert!(sub.is_subtype_of(&sup));
    }

    #[test]
    fn seq_is_covariant() {
        assert!(DataType::seq(DataType::Int).is_subtype_of(&DataType::seq(DataType::Float)));
        assert!(!DataType::seq(DataType::Float).is_subtype_of(&DataType::seq(DataType::Int)));
    }

    #[test]
    fn enum_subtyping_by_label_subset() {
        let small = DataType::Enum(vec!["ok".into()]);
        let big = DataType::Enum(vec!["error".into(), "ok".into()]);
        assert!(small.is_subtype_of(&big));
        assert!(!big.is_subtype_of(&small));
        assert!(big.is_subtype_of(&DataType::Text));
    }

    #[test]
    fn ref_subtyping_uses_resolver() {
        let teller = DataType::Ref(Some("BankTeller".into()));
        let manager = DataType::Ref(Some("BankManager".into()));
        assert!(manager.is_subtype_of(&DataType::Ref(None)));
        assert!(!manager.is_subtype_of(&teller));
        // With a resolver that knows BankManager <: BankTeller:
        let resolver = |a: &str, b: &str| a == "BankManager" && b == "BankTeller";
        assert!(manager.is_subtype_with(&teller, &resolver));
        assert!(!teller.is_subtype_with(&manager, &resolver));
    }

    #[test]
    fn optional_subtyping() {
        let t = DataType::Optional(Box::new(DataType::Int));
        assert!(DataType::Null.is_subtype_of(&t));
        assert!(DataType::Int.is_subtype_of(&t));
        assert!(DataType::Optional(Box::new(DataType::Int))
            .is_subtype_of(&DataType::Optional(Box::new(DataType::Float))));
        assert!(!t.is_subtype_of(&DataType::Int));
    }

    #[test]
    fn display_formats_compound_types() {
        let t = DataType::record([("xs", DataType::seq(DataType::Int))]);
        assert_eq!(t.to_string(), "{xs: seq<int>}");
        assert_eq!(
            DataType::Enum(vec!["a".into(), "b".into()]).to_string(),
            "enum(a|b)"
        );
        assert_eq!(DataType::Ref(Some("T".into())).to_string(), "interface<T>");
    }
}
