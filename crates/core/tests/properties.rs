//! Property-based tests for the core data model, codecs and expression
//! language.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rmodp_core::codec::{transcode, BinarySyntax, SyntaxId, TextSyntax, TransferSyntax};
use rmodp_core::dtype::DataType;
use rmodp_core::expr::{required, BinOp, Expr, UnOp};
use rmodp_core::naming::{BindingTarget, Name, NamingContext};
use rmodp_core::value::{Record, Value};

/// Strategy for arbitrary values, with bounded depth and width.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks equality-based round-trip checks.
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-./\"\\\\\n]{0,12}".prop_map(Value::text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Blob),
        any::<u64>().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::btree_map("[a-z_][a-z0-9_]{0,6}", inner, 0..4)
                .prop_map(|m| Value::Record(m.into())),
        ]
    })
}

/// One step of the record-against-map model test.
#[derive(Debug, Clone)]
enum RecordOp {
    Insert(String, i64),
    SetField(String, i64),
    Remove(String),
    Get(String),
    Bump(String),
}

/// A record name either side of the 22 bytes a name holds in place: 0,
/// 1, 21, 22, 23 and 300 bytes, and a two-byte `é` that ends at byte 22
/// (20 ASCII bytes before it: in place) or straddles it (21: on the heap).
fn boundary_name(i: usize) -> String {
    match i {
        0 => String::new(),
        1 => "a".to_owned(),
        2 => "a".repeat(21),
        3 => "a".repeat(22),
        4 => "a".repeat(23),
        5 => "a".repeat(300),
        6 => format!("{}é", "a".repeat(20)),
        _ => format!("{}é", "a".repeat(21)),
    }
}

/// Strategy for [`RecordOp`]s over names few enough that they collide —
/// replacing, removing and missing all happen — and the boundary names.
fn arb_record_op() -> impl Strategy<Value = RecordOp> {
    let name = prop_oneof!["[a-d]{1,2}", (0..8usize).prop_map(boundary_name)];
    (name, 0..5usize, any::<i64>()).prop_map(|(name, op, n)| match op {
        0 => RecordOp::Insert(name, n),
        1 => RecordOp::SetField(name, n),
        2 => RecordOp::Remove(name),
        3 => RecordOp::Get(name),
        _ => RecordOp::Bump(name),
    })
}

/// Strategy for arbitrary data types.
fn arb_dtype() -> impl Strategy<Value = DataType> {
    let leaf = prop_oneof![
        Just(DataType::Any),
        Just(DataType::Null),
        Just(DataType::Bool),
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Text),
        Just(DataType::Blob),
        proptest::collection::vec("[a-z]{1,4}", 1..3).prop_map(|mut labels| {
            labels.sort();
            labels.dedup();
            DataType::Enum(labels)
        }),
        proptest::option::of("[A-Z][a-z]{0,5}").prop_map(DataType::Ref),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(DataType::seq),
            inner.clone().prop_map(|t| DataType::Optional(Box::new(t))),
            proptest::collection::btree_map("[a-z]{1,4}", inner, 0..3).prop_map(DataType::Record),
        ]
    })
}

/// Small ints, and the ints where the numeric kernel's rules show:
/// `i64::MIN`/`MAX` (wrapping) and 2⁵³ + 1 (the first whose widening to
/// `f64` is lossy).
fn arb_int() -> impl Strategy<Value = i64> {
    (0u8..9, -3i64..4).prop_map(|(pick, small)| match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => (1 << 53) + 1,
        _ => small,
    })
}

/// Halves in [−1, 1], and NaN, ±inf and −0.0.
fn arb_float() -> impl Strategy<Value = f64> {
    (0u8..10, -2i32..3).prop_map(|(pick, halves)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => f64::from(halves) / 2.0,
    })
}

/// Strategy for a record environment with one field of every shape the
/// evaluator treats differently.
fn arb_env() -> impl Strategy<Value = Value> {
    (
        arb_int(),
        arb_float(),
        "[ab]{0,2}",
        proptest::collection::vec(arb_int(), 0..3),
        arb_int(),
    )
        .prop_map(|(n, x, s, q, y)| {
            Value::record([
                ("n", Value::Int(n)),
                ("x", Value::Float(x)),
                ("s", Value::text(s)),
                ("q", Value::from(q)),
                ("r", Value::record([("y", Value::Int(y))])),
            ])
        })
}

/// Strategy for expressions over [`arb_env`]'s fields: every operator,
/// every builtin (and an unknown one, at any arity), every literal kind,
/// bound, nested and unbound paths.
fn arb_expr() -> impl Strategy<Value = Expr> {
    const PATHS: [&[&str]; 7] = [
        &["n"],
        &["x"],
        &["s"],
        &["q"],
        &["r"],
        &["r", "y"],
        &["ghost"],
    ];
    const OPS: [BinOp; 14] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::In,
    ];
    const FUNCTIONS: [&str; 8] = [
        "exists",
        "len",
        "abs",
        "min",
        "max",
        "contains",
        "starts_with",
        "frobnicate",
    ];
    let leaf = prop_oneof![
        arb_int().prop_map(|v| Expr::Lit(v.into())),
        arb_float().prop_map(|v| Expr::Lit(v.into())),
        any::<bool>().prop_map(|v| Expr::Lit(v.into())),
        "[ab]{0,2}".prop_map(|s: String| Expr::Lit(Value::from(s))),
        (0..PATHS.len())
            .prop_map(|i| Expr::Var(PATHS[i].iter().map(|seg| (*seg).to_owned()).collect())),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (any::<bool>(), inner.clone()).prop_map(|(neg, e)| {
                Expr::Unary(if neg { UnOp::Neg } else { UnOp::Not }, Box::new(e))
            }),
            (0..OPS.len(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Binary(
                OPS[op],
                Box::new(a),
                Box::new(b)
            )),
            (
                0..FUNCTIONS.len(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(f, args)| Expr::Call(FUNCTIONS[f].to_owned(), args)),
            proptest::collection::vec(inner, 0..3).prop_map(Expr::SeqLit),
        ]
    })
}

proptest! {
    #[test]
    fn environments_agree_on_every_expression(e in arb_expr(), record in arb_env()) {
        // The same bindings behind the three environments that resolve
        // paths: a record value, its fields alone, a map. Results are
        // compared as text (NaN is a legitimate result and is not equal to
        // itself).
        let fields = record.as_record().unwrap();
        let map: BTreeMap<String, Value> = fields.clone().into_iter().collect();
        let by_record = e.eval(&record);
        let rendered = format!("{by_record:?}");
        prop_assert_eq!(format!("{:?}", e.eval(fields)), rendered.clone(), "fields: {}", e);
        prop_assert_eq!(format!("{:?}", e.eval(&map)), rendered, "map: {}", e);
        // `eval_bool` is `eval` plus the result check.
        let as_bool = e.eval_bool(&record);
        // The error-free entry points are the fallible ones less their
        // errors: the expression holds iff `eval_bool` is `Ok(true)` (and
        // then binds every variable it requires), its value is
        // `eval(..).ok()`. Both sides run the same fast paths; those
        // against the tree walker are `the_fast_paths_are_the_walker`, in
        // the evaluator's own tests, where the walker is visible.
        let holds = e.holds(&record);
        prop_assert_eq!(holds, as_bool == Ok(true), "holds: {}", e);
        let conjuncts = e.conjuncts();
        for path in required(&conjuncts).into_iter().filter(|_| holds) {
            prop_assert!(record.path(path).is_some(), "{} requires {:?}", e, path);
        }
        // Its conjuncts judged one by one, in order, are the expression
        // (the trader's residual is such a list, less the conjuncts an
        // index answered).
        let every = conjuncts.iter().all(|c| c.holds(&record));
        prop_assert_eq!(every, holds, "conjunction: {}", e);
        let value = e.value(&record).map(|v| v.into_owned());
        prop_assert_eq!(format!("{value:?}"), format!("{:?}", by_record.as_ref().ok()), "value: {}", e);
        match by_record {
            Ok(Value::Bool(b)) => prop_assert_eq!(as_bool, Ok(b)),
            Ok(_) => prop_assert!(as_bool.is_err(), "{}", e),
            Err(err) => prop_assert_eq!(as_bool, Err(err)),
        }
    }

    #[test]
    fn a_record_is_the_map_it_stands_for(ops in proptest::collection::vec(arb_record_op(), 0..40)) {
        let mut record = Value::Record(Record::new());
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        for op in ops {
            let Value::Record(fields) = &mut record else { unreachable!() };
            match op.clone() {
                RecordOp::Insert(name, n) => prop_assert_eq!(
                    fields.insert(name.as_str(), Value::Int(n)),
                    model.insert(name, Value::Int(n))
                ),
                RecordOp::SetField(name, n) => prop_assert_eq!(
                    record.set_field(&name, Value::Int(n)),
                    model.insert(name, Value::Int(n))
                ),
                RecordOp::Remove(name) => {
                    prop_assert_eq!(fields.remove(&name), model.remove(&name));
                }
                RecordOp::Get(name) => {
                    prop_assert_eq!(fields.get(&name), model.get(&name));
                    prop_assert_eq!(fields.contains_key(&name), model.contains_key(&name));
                    prop_assert_eq!(record.field(&name), model.get(&name));
                }
                RecordOp::Bump(name) => {
                    let (ours, theirs) = (fields.get_mut(&name), model.get_mut(&name));
                    prop_assert_eq!(&ours, &theirs);
                    for slot in ours.into_iter().chain(theirs) {
                        *slot = Value::seq([slot.clone()]);
                    }
                }
            }
            // After every step the record is the map: size, order,
            // equality, `{:?}`, and the bytes of both syntaxes, which
            // decode and transcode back to it.
            let fields = record.as_record().unwrap();
            let rebuilt = Value::Record(model.clone().into());
            let by_str = model.iter().map(|(k, v)| (k.as_str(), v));
            prop_assert_eq!(fields.len(), model.len(), "after {:?}", op);
            prop_assert_eq!(fields.is_empty(), model.is_empty());
            prop_assert!(fields.iter().eq(by_str), "order after {:?}", op);
            prop_assert!(fields.keys().eq(model.keys()) && fields.values().eq(model.values()));
            prop_assert_eq!(&record, &rebuilt);
            prop_assert_eq!(format!("{fields:?}"), format!("{model:?}"));
            prop_assert_eq!(format!("{fields:#?}"), format!("{model:#?}"));
            let binary = BinarySyntax.encode(&record);
            let text = TextSyntax.encode(&record);
            prop_assert_eq!(&binary, &BinarySyntax.encode(&rebuilt));
            prop_assert_eq!(&text, &TextSyntax.encode(&rebuilt));
            prop_assert_eq!(&BinarySyntax.decode(&binary).unwrap(), &record);
            prop_assert_eq!(&TextSyntax.decode(&text).unwrap(), &record);
            for (from, to, bytes, expected) in [
                (SyntaxId::Binary, SyntaxId::Text, &binary, &text),
                (SyntaxId::Text, SyntaxId::Binary, &text, &binary),
            ] {
                let mut out = Vec::new();
                transcode(from, to, bytes, &mut out).unwrap();
                prop_assert_eq!(&out, expected, "{} -> {}", from, to);
            }
        }
    }

    #[test]
    fn pairs_in_any_order_build_the_record_a_map_would(
        pairs in proptest::collection::vec(("[a-e]{1,2}", any::<i64>()), 0..24),
    ) {
        // Unsorted, with repeats: the later duplicate wins, as on insertion.
        let pairs: Vec<(String, Value)> =
            pairs.into_iter().map(|(k, n)| (k, Value::Int(n))).collect();
        let model: BTreeMap<String, Value> = pairs.iter().cloned().collect();
        let by_map = Value::Record(model.clone().into());
        prop_assert_eq!(&Value::record(pairs.clone()), &by_map);
        prop_assert_eq!(&Value::Record(pairs.iter().cloned().collect()), &by_map);
        let by_str = model.iter().map(|(k, v)| (k.as_str(), v));
        prop_assert!(by_map.as_record().unwrap().iter().eq(by_str));
    }

    #[test]
    fn binary_codec_round_trips(v in arb_value()) {
        let bytes = BinarySyntax.encode(&v);
        let back = BinarySyntax.decode(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn text_codec_round_trips(v in arb_value()) {
        let bytes = TextSyntax.encode(&v);
        let back = TextSyntax.decode(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn binary_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = BinarySyntax.decode(&bytes);
    }

    #[test]
    fn text_decode_never_panics_on_garbage(s in "\\PC{0,64}") {
        let _ = TextSyntax.decode(s.as_bytes());
    }

    #[test]
    fn subtyping_is_reflexive(t in arb_dtype()) {
        prop_assert!(t.is_subtype_of(&t), "{t} should be a subtype of itself");
    }

    #[test]
    fn subtyping_is_transitive(a in arb_dtype(), b in arb_dtype(), c in arb_dtype()) {
        if a.is_subtype_of(&b) && b.is_subtype_of(&c) {
            prop_assert!(a.is_subtype_of(&c), "{a} <: {b} <: {c} but not {a} <: {c}");
        }
    }

    #[test]
    fn conforming_values_still_conform_at_supertype(v in arb_value(), a in arb_dtype(), b in arb_dtype()) {
        // Substitutability: if v : a and a <: b then v : b.
        if a.check(&v).is_ok() && a.is_subtype_of(&b) {
            prop_assert!(b.check(&v).is_ok(), "v={v} a={a} b={b}");
        }
    }

    #[test]
    fn expr_display_parse_round_trip(
        x in -1000i64..1000,
        y in -1000i64..1000,
    ) {
        // Build expressions programmatically and check print→parse fidelity.
        let e = Expr::Binary(
            rmodp_core::expr::BinOp::Add,
            Box::new(Expr::Lit(Value::from(x))),
            Box::new(Expr::Binary(
                rmodp_core::expr::BinOp::Mul,
                Box::new(Expr::Lit(Value::from(y))),
                Box::new(Expr::Var(vec!["k".to_owned()])),
            )),
        );
        let printed = e.to_string();
        let parsed = Expr::parse(&printed).unwrap();
        // Negative literals re-parse as unary negation, so compare by
        // evaluation rather than AST equality.
        let env = Value::record([("k", Value::Int(3))]);
        prop_assert_eq!(parsed.eval(&env).unwrap(), e.eval(&env).unwrap());
    }

    #[test]
    fn arithmetic_expressions_agree_with_rust(
        a in -10_000i64..10_000,
        b in -10_000i64..10_000,
        c in 1i64..100,
    ) {
        let env = Value::record([
            ("a", Value::Int(a)),
            ("b", Value::Int(b)),
            ("c", Value::Int(c)),
        ]);
        let e = Expr::parse("(a + b) * c - a / c").unwrap();
        let expected = (a.wrapping_add(b)).wrapping_mul(c).wrapping_sub(a / c);
        prop_assert_eq!(e.eval(&env).unwrap(), Value::Int(expected));
    }

    #[test]
    fn comparison_total_on_ints(a in any::<i64>(), b in any::<i64>()) {
        let env = Value::record([("a", Value::Int(a)), ("b", Value::Int(b))]);
        let lt = Expr::parse("a < b").unwrap().eval_bool(&env).unwrap();
        let ge = Expr::parse("a >= b").unwrap().eval_bool(&env).unwrap();
        prop_assert_eq!(lt, !ge);
    }

    #[test]
    fn naming_bind_then_resolve(
        segs in proptest::collection::vec("[a-z]{1,6}", 1..4),
        id in any::<u64>(),
    ) {
        let name = segs.join("/").parse::<Name>().unwrap();
        let mut ctx = NamingContext::default();
        ctx.bind(&name, BindingTarget { id, kind: "t".into() }).unwrap();
        prop_assert_eq!(ctx.resolve(&name).map(|t| t.id), Some(id));
        prop_assert_eq!(ctx.unbind(&name).map(|t| t.id), Some(id));
        prop_assert!(ctx.resolve(&name).is_none());
    }

    #[test]
    fn dtype_check_never_panics(v in arb_value(), t in arb_dtype()) {
        let _ = t.check(&v);
    }
}
