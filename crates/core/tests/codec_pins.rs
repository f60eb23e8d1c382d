//! Pins on what the two decoders answer for bytes no encoder here would
//! write: every error the text decoder can give (message *and* offset),
//! the quirks it accepts, records whose keys arrive out of order or
//! repeated, and nesting past the limit. The tables were read off the
//! decoders before they were rewritten and must not move.

use rmodp_core::codec::binary::Reader;
use rmodp_core::codec::{
    syntax_for, transcode, BinarySyntax, CodecError, SyntaxId, TextSyntax, TransferSyntax,
    MAX_NESTING,
};
use rmodp_core::value::Value;

/// One of every kind of value, a quoted key, a two-byte character and a
/// blob with inner whitespace.
const SAMPLE: &str = "{a: [1, -2.5e3, \"x\\n\u{e9}\"], \"b c\": b\"00 ff\", r: ref(7), n: null}";

/// `(cut, offset, message)`: what decoding the first `cut` bytes of
/// [`SAMPLE`] answers.
const TRUNCATIONS: &[(usize, usize, &str)] = &[
    (0, 0, "unexpected end of input"),
    (1, 1, "expected record key"),
    (2, 2, "expected \":\""),
    (3, 3, "unexpected end of input"),
    (4, 4, "unexpected end of input"),
    (5, 5, "unexpected end of input"),
    (6, 6, "expected \"]\""),
    (7, 7, "unexpected end of input"),
    (8, 8, "unexpected end of input"),
    (9, 9, "malformed int \"-\""),
    (10, 10, "expected \"]\""),
    (11, 11, "expected \"]\""),
    (12, 12, "expected \"]\""),
    (13, 13, "malformed float \"-2.5e\""),
    (14, 14, "expected \"]\""),
    (15, 15, "unexpected end of input"),
    (16, 16, "unexpected end of input"),
    (17, 17, "unterminated string"),
    (18, 18, "unterminated string"),
    (19, 19, "dangling escape"),
    (20, 20, "unterminated string"),
    (21, 20, "encoding is not utf-8"),
    (22, 22, "unterminated string"),
    (23, 23, "expected \"]\""),
    (24, 24, "expected \"}\""),
    (25, 25, "expected record key"),
    (26, 26, "expected record key"),
    (27, 27, "unterminated string"),
    (28, 28, "unterminated string"),
    (29, 29, "unterminated string"),
    (30, 30, "unterminated string"),
    (31, 31, "expected \":\""),
    (32, 32, "unexpected end of input"),
    (33, 33, "unexpected end of input"),
    (34, 33, "unexpected character 'b'"),
    (35, 35, "unterminated blob"),
    (36, 35, "unterminated blob"),
    (37, 37, "unterminated blob"),
    (38, 38, "unterminated blob"),
    (39, 38, "unterminated blob"),
    (40, 40, "unterminated blob"),
    (41, 41, "expected \"}\""),
    (42, 42, "expected record key"),
    (43, 43, "expected record key"),
    (44, 44, "expected \":\""),
    (45, 45, "unexpected end of input"),
    (46, 46, "unexpected end of input"),
    (47, 46, "unexpected character 'r'"),
    (48, 46, "unexpected character 'r'"),
    (49, 46, "unexpected character 'r'"),
    (50, 50, "expected unsigned integer"),
    (51, 51, "expected \")\""),
    (52, 52, "expected \"}\""),
    (53, 53, "expected record key"),
    (54, 54, "expected record key"),
    (55, 55, "expected \":\""),
    (56, 56, "unexpected end of input"),
    (57, 57, "unexpected end of input"),
    (58, 57, "unexpected character 'n'"),
    (59, 57, "unexpected character 'n'"),
    (60, 57, "unexpected character 'n'"),
    (61, 61, "expected \"}\""),
];

/// `(input, offset, message)` for every refusal the text decoder has.
const REFUSALS: &[(&[u8], usize, &str)] = &[
    (b"", 0, "unexpected end of input"),
    (b"   ", 3, "unexpected end of input"),
    (b"x", 0, "unexpected character 'x'"),
    (b"b", 0, "unexpected character 'b'"),
    (b"b'", 0, "unexpected character 'b'"),
    (b"-", 1, "malformed int \"-\""),
    (b"-x", 1, "malformed int \"-\""),
    (b"--1", 1, "malformed int \"-\""),
    (b"1-", 1, "trailing characters after value"),
    (b"1.5.2", 5, "malformed float \"1.5.2\""),
    (b"1e", 2, "malformed float \"1e\""),
    (b"1e+", 3, "malformed float \"1e+\""),
    (b"+1", 0, "unexpected character '+'"),
    (b".5", 0, "unexpected character '.'"),
    (
        b"99999999999999999999",
        20,
        "malformed int \"99999999999999999999\"",
    ),
    (
        b"-9223372036854775809",
        20,
        "malformed int \"-9223372036854775809\"",
    ),
    (b"1 2", 2, "trailing characters after value"),
    (b"nullx", 4, "trailing characters after value"),
    (b"null null", 5, "trailing characters after value"),
    (b"tru", 0, "unexpected character 't'"),
    (b"truex", 4, "trailing characters after value"),
    (b"fals", 0, "unexpected character 'f'"),
    (b"na", 0, "unexpected character 'n'"),
    (b"in", 0, "unexpected character 'i'"),
    (b"-in", 1, "malformed int \"-\""),
    (b"-inf1", 4, "trailing characters after value"),
    (b"ref", 0, "unexpected character 'r'"),
    (b"ref(", 4, "expected unsigned integer"),
    (b"ref()", 4, "expected unsigned integer"),
    (b"ref(x)", 4, "expected unsigned integer"),
    (b"ref(7", 5, "expected \")\""),
    (b"ref(7 )", 5, "expected \")\""),
    (b"ref( 7)", 4, "expected unsigned integer"),
    (b"ref(-1)", 4, "expected unsigned integer"),
    (
        b"ref(18446744073709551616)",
        24,
        "expected unsigned integer",
    ),
    (b"ref(7))", 6, "trailing characters after value"),
    (b"\"", 1, "unterminated string"),
    (b"\"abc", 4, "unterminated string"),
    (b"\"a\\", 3, "dangling escape"),
    (b"\"a\\q\"", 4, "unknown escape \\q"),
    (b"\"a\\u0041\"", 4, "unknown escape \\u"),
    (b"\"a\\\xc3\xa9\"", 5, "unknown escape \\é"),
    (b"\"a\" \"b\"", 4, "trailing characters after value"),
    (b"\"\xc3\xa9\\x\"", 5, "unknown escape \\x"),
    (b"b\"", 2, "unterminated blob"),
    (b"b\"0", 2, "unterminated blob"),
    (b"b\"0\"", 2, "bad hex pair \"0\\\"\""),
    (b"b\"0g\"", 2, "bad hex pair \"0g\""),
    (b"b\"zz\"", 2, "bad hex pair \"zz\""),
    (b"b\"00", 4, "unterminated blob"),
    (b"b\"00 f", 5, "unterminated blob"),
    (b"b\"0\xc3\xa9\"", 2, "unterminated blob"),
    (b"b\"\xc3\xa9\"", 2, "bad hex pair \"é\""),
    (b"b\"0 0\"", 2, "bad hex pair \"0 \""),
    (b"b\"00\"x", 5, "trailing characters after value"),
    (b"[", 1, "unexpected end of input"),
    (b"[1", 2, "expected \"]\""),
    (b"[1,", 3, "unexpected end of input"),
    (b"[1,]", 3, "unexpected character ']'"),
    (b"[,]", 1, "unexpected character ','"),
    (b"[1 2]", 3, "expected \"]\""),
    (b"[1}", 2, "expected \"]\""),
    (b"[1, 2", 5, "expected \"]\""),
    (b"[[1]", 4, "expected \"]\""),
    (b"]", 0, "unexpected character ']'"),
    (b"{", 1, "expected record key"),
    (b"{a", 2, "expected \":\""),
    (b"{a:", 3, "unexpected end of input"),
    (b"{a: 1", 5, "expected \"}\""),
    (b"{a: 1,", 6, "expected record key"),
    (b"{a: 1,}", 6, "expected record key"),
    (b"{a 1}", 3, "expected \":\""),
    (b"{a: 1 b: 2}", 6, "expected \"}\""),
    (b"{a: 1]", 5, "expected \"}\""),
    (b"{: 1}", 1, "expected record key"),
    (b"{,}", 1, "expected record key"),
    (b"{\"a: 1}", 7, "unterminated string"),
    (b"{\"a\\q\": 1}", 5, "unknown escape \\q"),
    (b"{\"a\" 1}", 5, "expected \":\""),
    (b"{a:}", 3, "unexpected character '}'"),
    (b"{a: 1}}", 6, "trailing characters after value"),
    (b"{-: 1}", 1, "expected record key"),
    (b"{a-b: 1}", 2, "expected \":\""),
    (b"{\xc3\xa9: 1}", 1, "expected record key"),
    (b"}", 0, "unexpected character '}'"),
    (b"\xff\xfe", 0, "encoding is not utf-8"),
    (b"{a: \"\xff\"}", 5, "encoding is not utf-8"),
    (b"\"ab\xc3", 3, "encoding is not utf-8"),
    (b"[1, \xe2\x82", 4, "encoding is not utf-8"),
    (b"(", 0, "unexpected character '('"),
    (b"\xc3\xa9", 0, "unexpected character 'é'"),
    (b"@", 0, "unexpected character '@'"),
    (b"\t\n1\r x", 5, "trailing characters after value"),
];

#[test]
fn text_decoder_errors_keep_their_messages_and_offsets() {
    let sample = SAMPLE.as_bytes();
    assert_eq!(TRUNCATIONS.len(), sample.len(), "one row per proper prefix");
    for &(cut, offset, message) in TRUNCATIONS {
        let err = TextSyntax.decode(&sample[..cut]).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (offset, message),
            "cut {cut}"
        );
    }
    assert_eq!(
        TextSyntax.decode(sample).unwrap(),
        Value::record([
            (
                "a",
                Value::seq([
                    Value::Int(1),
                    Value::Float(-2500.0),
                    Value::text("x\n\u{e9}")
                ]),
            ),
            ("b c", Value::Blob(vec![0x00, 0xff])),
            ("n", Value::Null),
            ("r", Value::Ref(7)),
        ])
    );
    for &(input, offset, message) in REFUSALS {
        let shown = String::from_utf8_lossy(input);
        let err = TextSyntax.decode(input).expect_err(&shown);
        assert_eq!(
            (err.offset, err.message.as_str()),
            (offset, message),
            "{shown:?}"
        );
    }
}

#[test]
fn text_decoder_keeps_accepting_what_it_accepted() {
    let accepted: [(&str, Value); 9] = [
        ("1.", Value::Float(1.0)),
        ("1e999", Value::Float(f64::INFINITY)),
        ("-0", Value::Int(0)),
        ("b\"+f\"", Value::Blob(vec![0x0f])),
        ("b\" 0a\t0B \"", Value::Blob(vec![0x0a, 0x0b])),
        (
            "{9a: 1, _: 2}",
            Value::record([("9a", Value::Int(1)), ("_", Value::Int(2))]),
        ),
        ("{null: 1}", Value::record([("null", Value::Int(1))])),
        (
            "{\"\": \"\\\"\\\\\\n\\t\\r\"}",
            Value::record([("", Value::text("\"\\\n\t\r"))]),
        ),
        (" [ ] ", Value::seq([])),
    ];
    for (input, value) in accepted {
        assert_eq!(
            TextSyntax.decode(input.as_bytes()).unwrap(),
            value,
            "{input:?}"
        );
    }
}

/// `(syntax, input, offset, message)`: record names no encoder writes —
/// invalid UTF-8 inside one, a length that overruns the input, a length
/// of 2³² − 1 — and what either decoder answers, `transcode` and the
/// binary checking reader included. The names sit on both sides of the
/// 22 bytes a decoded name holds in place.
const NAME_REFUSALS: &[(SyntaxId, &[u8], usize, &str)] = &[
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\x02\0\0\0a\xff\0",
        9,
        "invalid utf-8 in text",
    ),
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\x16\0\0\0aaaaaaaaaaaaaaaaaaaaa\xc3\0",
        9,
        "invalid utf-8 in text",
    ),
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\x17\0\0\0aaaaaaaaaaaaaaaaaaaaaa\xff\0",
        9,
        "invalid utf-8 in text",
    ),
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\x17\0\0\0\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\0",
        9,
        "invalid utf-8 in text",
    ),
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\x16\0\0\0\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xc3\xa9\xa9\xc3\0",
        9,
        "invalid utf-8 in text",
    ),
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\x17\0\0\0aaaaaaaaaaaaaaaaaaaaaa",
        9,
        "need 23 bytes, only 22 remain",
    ),
    (
        SyntaxId::Binary,
        b"\x07\x01\0\0\0\xff\xff\xff\xffa",
        9,
        "need 4294967295 bytes, only 1 remain",
    ),
    (
        SyntaxId::Binary,
        b"\x07\xff\xff\xff\xff\x01\0\0\0a\0",
        11,
        "need 4 bytes, only 0 remain",
    ),
    (
        SyntaxId::Text,
        b"{\"a\xff\": 1}",
        3,
        "encoding is not utf-8",
    ),
    (
        SyntaxId::Text,
        b"{\"aaaaaaaaaaaaaaaaaaaa\xc3\xa9\xc3\": 1}",
        24,
        "encoding is not utf-8",
    ),
    (
        SyntaxId::Text,
        b"{\"aaaaaaaaaaaaaaaaaaaaaaa",
        25,
        "unterminated string",
    ),
    (SyntaxId::Text, b"{a\xc3\xa9: 1}", 2, "expected \":\""),
];

#[test]
fn hostile_record_names_keep_their_errors() {
    for &(syntax, input, offset, message) in NAME_REFUSALS {
        let err = syntax_for(syntax).decode(input).expect_err(message);
        let expected = CodecError {
            syntax,
            offset,
            message: message.to_owned(),
        };
        assert_eq!(err, expected, "{syntax}: {input:?}");
        for to in [SyntaxId::Binary, SyntaxId::Text] {
            let mut out = b"kept".to_vec();
            let err = transcode(syntax, to, input, &mut out).unwrap_err();
            assert_eq!(err, expected, "{syntax} -> {to}: {input:?}");
            assert_eq!(out, b"kept");
        }
        if syntax == SyntaxId::Binary {
            let err = Reader::new(input).value_span().unwrap_err();
            assert_eq!(err, expected, "checked: {input:?}");
        }
    }
}

/// Well-formed names on both sides of the 22 bytes held in place, ASCII
/// and not: each reads back as itself through `decode`, `transcode` and
/// the checking reader, which finds the bytes canonical.
#[test]
fn record_names_of_any_width_read_alike_everywhere() {
    let names = [
        "a".repeat(22),
        "a".repeat(23),
        "é".repeat(11),
        format!("{}a", "é".repeat(11)),
        "ключ".to_owned(),
        "日本".to_owned(),
    ];
    for name in &names {
        let value = Value::record([(name.as_str(), Value::Int(1))]);
        let binary = binary_record(&[(name, &binary_int(1))]);
        let text = TextSyntax.encode(&value);
        assert_eq!(BinarySyntax.encode(&value), binary, "{name}");
        assert_eq!(BinarySyntax.decode(&binary).unwrap(), value, "{name}");
        assert_eq!(TextSyntax.decode(&text).unwrap(), value, "{name}");
        for (from, bytes) in [(SyntaxId::Binary, &binary), (SyntaxId::Text, &text)] {
            for (to, want) in [(SyntaxId::Binary, &binary), (SyntaxId::Text, &text)] {
                let mut out = Vec::new();
                transcode(from, to, bytes, &mut out).unwrap();
                assert_eq!(&out, want, "{name}: {from} -> {to}");
            }
        }
        let mut reader = Reader::new(&binary);
        assert_eq!(reader.value_span(), Ok((&binary[..], true)), "{name}");
        assert!(reader.at_end());
    }
}

/// What a reader expecting one key says of another, whatever its width
/// or alphabet: the text and the offset it has always had.
#[test]
fn expect_key_names_the_key_it_found() {
    for (found, message) in [
        ("b", "expected key `a`, found `b`"),
        ("é", "expected key `a`, found `é`"),
        ("ééééééééééééa", "expected key `a`, found `ééééééééééééa`"),
    ] {
        let binary = binary_record(&[(found, &binary_int(1))]);
        let mut reader = Reader::new(&binary);
        assert_eq!(reader.record_header(), Ok(1));
        let err = reader.expect_key("a").unwrap_err();
        let expected = CodecError {
            syntax: SyntaxId::Binary,
            offset: 9 + found.len(),
            message: message.to_owned(),
        };
        assert_eq!(err, expected);
    }
    let invalid = b"\x07\x01\0\0\0\x02\0\0\0\xc3a\0";
    let mut reader = Reader::new(invalid);
    reader.record_header().unwrap();
    let err = reader.expect_key("a").unwrap_err();
    assert_eq!(
        (err.offset, err.message.as_str()),
        (9, "invalid utf-8 in text")
    );
}

/// A binary record header and its pairs, keys in the order given.
fn binary_record(pairs: &[(&str, &[u8])]) -> Vec<u8> {
    let mut out = vec![0x07];
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (key, value) in pairs {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(value);
    }
    out
}

fn binary_int(i: i64) -> Vec<u8> {
    [&[0x02][..], &i.to_le_bytes()].concat()
}

#[test]
fn non_canonical_records_decode_to_the_canonical_value() {
    let (one, two, three, four) = (binary_int(1), binary_int(2), binary_int(3), binary_int(4));
    let inner = binary_record(&[("z", &one), ("y", &two), ("z", &three)]);
    let cases: [(Vec<u8>, &str, Value); 4] = [
        (
            binary_record(&[("b", &one), ("a", &two)]),
            "{b: 1, a: 2}",
            Value::record([("a", Value::Int(2)), ("b", Value::Int(1))]),
        ),
        (
            binary_record(&[("a", &one), ("a", &two)]),
            "{a: 1, a: 2}",
            Value::record([("a", Value::Int(2))]),
        ),
        (
            binary_record(&[("a", &one), ("a", &two), ("b", &three), ("a", &four)]),
            "{\"a\": 1, a: 2, b: 3, \"a\": 4}",
            Value::record([("a", Value::Int(4)), ("b", Value::Int(3))]),
        ),
        (
            binary_record(&[("c", &inner), ("b", &one), ("c", &inner)]),
            "{c: {z: 1, y: 2, z: 3}, b: 1, c: {z: 1, y: 2, z: 3}}",
            Value::record([
                ("b", Value::Int(1)),
                (
                    "c",
                    Value::record([("y", Value::Int(2)), ("z", Value::Int(3))]),
                ),
            ]),
        ),
    ];
    for (binary, text, value) in cases {
        let from_binary = BinarySyntax.decode(&binary).unwrap();
        let from_text = TextSyntax.decode(text.as_bytes()).unwrap();
        assert_eq!(from_binary, value, "{text}");
        assert_eq!(from_text, value, "{text}");
        // Decoded, the record is as canonical as one built in order:
        // same rendering, same bytes out.
        assert_eq!(format!("{from_binary:?}"), format!("{value:?}"));
        assert_eq!(from_text.to_string(), value.to_string());
        assert_eq!(
            BinarySyntax.encode(&from_binary),
            BinarySyntax.encode(&value)
        );
        assert_eq!(TextSyntax.encode(&from_text), TextSyntax.encode(&value));
    }
}

#[test]
fn a_record_of_keys_in_descending_order_is_sorted_once() {
    // 100,000 keys, each arriving in front of all before it. Inserting
    // them one at a time into a sorted vector would move ~10¹¹ bytes;
    // appending and sorting at the closing brace is a few milliseconds.
    const KEYS: usize = 100_000;
    let null = [0x00];
    let names: Vec<String> = (0..KEYS).rev().map(|i| format!("k{i:06}")).collect();
    let pairs: Vec<(&str, &[u8])> = names.iter().map(|k| (k.as_str(), &null[..])).collect();
    let binary = binary_record(&pairs);
    let text = format!(
        "{{{}}}",
        names
            .iter()
            .map(|k| format!("{k}: null"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let started = std::time::Instant::now();
    let from_binary = BinarySyntax.decode(&binary).unwrap();
    let from_text = TextSyntax.decode(text.as_bytes()).unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs_f64() < 1.0, "decoding took {elapsed:?}");
    assert_eq!(from_binary, from_text);
    let fields = from_binary.as_record().unwrap();
    assert_eq!(fields.len(), KEYS);
    assert!(fields.keys().eq(names.iter().rev()));
}

/// `levels` sequences inside one another around a `null`, in each syntax.
fn nested_sequences(levels: usize) -> (Vec<u8>, Vec<u8>) {
    let mut binary = [0x06, 1, 0, 0, 0].repeat(levels);
    binary.push(0x00);
    let text = format!("{}null{}", "[".repeat(levels), "]".repeat(levels));
    (binary, text.into_bytes())
}

#[test]
fn nesting_is_bounded_in_both_syntaxes() {
    for levels in [MAX_NESTING - 1, MAX_NESTING] {
        let (binary, text) = nested_sequences(levels);
        let value = BinarySyntax.decode(&binary).unwrap();
        assert_eq!(TextSyntax.decode(&text).unwrap(), value);
        assert_eq!(BinarySyntax.encode(&value), binary);
        assert_eq!(TextSyntax.encode(&value), text);
    }
    // One level more, or a megabyte of nothing but openers (which used to
    // end the process with a stack overflow): a typed refusal at the
    // opener that goes too far. This runs on a test thread's 2 MB stack.
    let message = format!("nesting deeper than {MAX_NESTING} levels");
    for levels in [MAX_NESTING + 1, 200_000] {
        let (binary, text) = nested_sequences(levels);
        let err = BinarySyntax.decode(&binary).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (5 * MAX_NESTING, message.as_str())
        );
        let err = TextSyntax.decode(&text).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (MAX_NESTING, message.as_str())
        );
        // Unclosed, the refusal comes before the missing brackets matter.
        let err = TextSyntax.decode(&text[..levels]).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (MAX_NESTING, message.as_str())
        );
    }
    // Records count as levels exactly as sequences do, in any mixture.
    let open = "{a: [".repeat(MAX_NESTING / 2);
    let close = "]}".repeat(MAX_NESTING / 2);
    let fits = TextSyntax
        .decode(format!("{open}1{close}").as_bytes())
        .unwrap();
    assert_eq!(
        BinarySyntax.decode(&BinarySyntax.encode(&fits)).unwrap(),
        fits
    );
    let deeper = Value::seq([fits.clone()]);
    assert!(BinarySyntax.decode(&BinarySyntax.encode(&deeper)).is_err());
    for one_more in ["[1]", "{b: 1}"] {
        let err = TextSyntax
            .decode(format!("{open}{one_more}{close}").as_bytes())
            .unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (open.len(), message.as_str())
        );
    }
}
