//! `codec::transcode` against what it replaces: for any bytes at all,
//! `transcode(from, to, bytes, out)` appends what
//! `encode_to(decode_from(bytes))` returns, or fails with the very
//! `CodecError` `decode_from` gives and leaves `out` alone.

use proptest::prelude::*;

use rmodp_core::codec::{binary, syntax_for, transcode, CodecError, SyntaxId, MAX_NESTING};
use rmodp_core::value::Value;

const SYNTAXES: [SyntaxId; 2] = [SyntaxId::Binary, SyntaxId::Text];

/// The long way round, which `transcode` must be indistinguishable from.
fn by_way_of_the_value(from: SyntaxId, to: SyntaxId, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let value = syntax_for(from).decode(bytes)?;
    Ok(syntax_for(to).encode(&value))
}

/// Holds `transcode` to the reference on `bytes`, into both syntaxes and
/// behind bytes the caller's buffer already held.
fn check(from: SyntaxId, bytes: &[u8]) {
    for to in SYNTAXES {
        let mut out = b"kept".to_vec();
        let got = transcode(from, to, bytes, &mut out);
        let expected = by_way_of_the_value(from, to, bytes);
        assert_eq!(
            got.as_ref().err(),
            expected.as_ref().err(),
            "{from} -> {to} of {bytes:?}"
        );
        // Refused, the buffer is as it was.
        let tail = expected.unwrap_or_default();
        assert_eq!(
            out,
            [b"kept", tail.as_slice()].concat(),
            "{from} -> {to} of {bytes:?}"
        );
    }
}

/// Record keys of every kind the text syntax treats differently: bare
/// identifiers, the keywords that must be quoted, and keys with spaces,
/// quotes, escapes, two-byte characters or nothing in them.
fn arb_key() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z_][a-z0-9_]{0,6}",
        (0..6usize).prop_map(|i| ["null", "true", "false", "nan", "inf", "ref"][i].to_owned()),
        "[a-z0-9 :,\"\\\\\n\t\ré{}-]{0,5}",
    ]
}

/// Every variant, with the floats a round trip through `Value` equality
/// cannot check (`NaN` payloads, `-0.0`, infinities), texts that need
/// escaping and empty containers.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits | 0x7ff0_0000_0000_0000))),
        Just(Value::Float(-0.0)),
        "[a-zA-Z0-9 _./\"\\\\\n\t\ré-]{0,12}".prop_map(Value::text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Blob),
        any::<u64>().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::btree_map(arb_key(), inner, 0..4)
                .prop_map(|m| Value::Record(m.into())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn a_transcoded_encoding_is_the_other_encoding(value in arb_value()) {
        for from in SYNTAXES {
            let bytes = syntax_for(from).encode(&value);
            check(from, &bytes);
            // The reference refuses none of these: an encoding decodes,
            // and is what its own syntax makes of the value again.
            prop_assert_eq!(by_way_of_the_value(from, from, &bytes), Ok(bytes));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn damaged_encodings_are_answered_as_decode_answers(value in arb_value()) {
        for from in SYNTAXES {
            let bytes = syntax_for(from).encode(&value);
            for cut in 0..bytes.len() {
                check(from, &bytes[..cut]);
            }
            for at in 0..bytes.len() {
                for mask in [0x01, 0x20, 0x80, 0xff] {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= mask;
                    check(from, &flipped);
                }
            }
            // Every four bytes that could be a length or a count, claiming
            // one more than there is and as much as a `u32` can.
            for at in 0..bytes.len().saturating_sub(3) {
                let field: [u8; 4] = bytes[at..at + 4].try_into().expect("four bytes");
                for inflated in [u32::from_le_bytes(field).wrapping_add(1), u32::MAX] {
                    let mut longer = bytes.clone();
                    longer[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
                    check(from, &longer);
                }
            }
        }
    }
}

/// A binary record header and its pairs, keys in the order given.
fn binary_record(pairs: &[(&str, &Value)]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = binary::Writer::new(&mut out);
    w.record_header(pairs.len());
    for (key, value) in pairs {
        w.key(key);
        w.value(value);
    }
    out
}

#[test]
fn records_out_of_order_come_out_canonical() {
    let (one, two, three) = (Value::Int(1), Value::Int(2), Value::Int(3));
    let inner = Value::record([("y", two.clone()), ("z", three.clone())]);
    let cases: [(Vec<u8>, &str, Value); 5] = [
        (
            binary_record(&[("b", &one), ("a", &two)]),
            "{b: 1, a: 2}",
            Value::record([("a", two.clone()), ("b", one.clone())]),
        ),
        (
            binary_record(&[("a", &one), ("a", &two)]),
            "{a: 1, \"a\": 2}",
            Value::record([("a", two.clone())]),
        ),
        (
            binary_record(&[("a", &one), ("b", &two), ("a", &three)]),
            "{a: 1, b: 2, a: 3}",
            Value::record([("a", three.clone()), ("b", two.clone())]),
        ),
        // Out of order two levels down, behind fields that are in order.
        (
            binary_record(&[
                ("a", &one),
                ("c", &Value::seq([Value::Null, inner.clone()])),
            ]),
            "{a: 1, c: [null, {z: 3, y: 2}]}",
            Value::record([
                ("a", one.clone()),
                ("c", Value::seq([Value::Null, inner.clone()])),
            ]),
        ),
        // An escaped key is compared as the name it spells, not as written.
        (
            binary_record(&[("a\nb", &one), ("a", &two)]),
            "{\"a\\nb\": 1, a: 2}",
            Value::record([("a", two.clone()), ("a\nb", one.clone())]),
        ),
    ];
    for (binary, text, value) in cases {
        // The fourth binary case is canonical as written; its text is not.
        for (from, bytes) in [
            (SyntaxId::Binary, binary.as_slice()),
            (SyntaxId::Text, text.as_bytes()),
        ] {
            for to in SYNTAXES {
                let mut out = Vec::new();
                transcode(from, to, bytes, &mut out).unwrap();
                assert_eq!(out, syntax_for(to).encode(&value), "{from} -> {to}: {text}");
            }
            check(from, bytes);
        }
    }
    // Out of order *and* malformed further on: the refusal is decode's.
    for text in ["{b: 1, a: 2", "{b: 1, a: }", "[{b: 1, a: 2}, tru]"] {
        check(SyntaxId::Text, text.as_bytes());
        assert!(transcode(
            SyntaxId::Text,
            SyntaxId::Binary,
            text.as_bytes(),
            &mut vec![]
        )
        .is_err());
    }
    let mut cut = binary_record(&[("b", &one), ("a", &two)]);
    cut.pop();
    check(SyntaxId::Binary, &cut);
}

/// `levels` sequences inside one another around a `null`, in each syntax.
fn nested_sequences(levels: usize) -> [(SyntaxId, Vec<u8>); 2] {
    let mut binary = [0x06, 1, 0, 0, 0].repeat(levels);
    binary.push(0x00);
    let text = format!("{}null{}", "[".repeat(levels), "]".repeat(levels));
    [
        (SyntaxId::Binary, binary),
        (SyntaxId::Text, text.into_bytes()),
    ]
}

#[test]
fn the_nesting_bound_is_the_decoders() {
    let fits = nested_sequences(MAX_NESTING);
    for (from, bytes) in &fits {
        for (to, expected) in &fits {
            let mut out = Vec::new();
            transcode(*from, *to, bytes, &mut out).unwrap();
            assert_eq!(&out, expected, "{from} -> {to}");
        }
    }
    // One level more, or a megabyte of openers, is refused where decode
    // refuses it: at the opener that goes too far.
    for levels in [MAX_NESTING + 1, 200_000] {
        for (from, bytes) in nested_sequences(levels) {
            let opener = match from {
                SyntaxId::Binary => 5 * MAX_NESTING,
                SyntaxId::Text => MAX_NESTING,
            };
            for to in SYNTAXES {
                let err = transcode(from, to, &bytes, &mut Vec::new()).unwrap_err();
                assert_eq!(err.offset, opener, "{from} -> {to}");
                assert_eq!(
                    err.message,
                    format!("nesting deeper than {MAX_NESTING} levels")
                );
            }
            check(from, &bytes);
        }
    }
}
