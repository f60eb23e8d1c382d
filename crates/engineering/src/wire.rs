//! The invocation wire records: what an [`Envelope`]'s payload holds.
//!
//! A request or announcement carries an *invocation record*
//! `{op: Text, args: Value}`; a reply carries a *termination record*
//! `{name: Text, results: Value}`, both in the transfer syntax the
//! envelope names. This module is the only place that knows those field
//! names: the engine, the nucleus, the audit stub and the population
//! workload's client hubs all encode and decode through it. (Flow items
//! are not records: the payload is the item itself.)
//!
//! Decoding takes bytes from the network, so every malformed input —
//! truncated, not a record, wrong field type — comes back as a typed
//! refusal, never a panic.

use rmodp_computational::signature::{Invocation, Termination};
use rmodp_core::codec::{binary, syntax_for, text, CodecError, SyntaxId, TYPICAL_ENCODING};
use rmodp_core::id::{ChannelId, InterfaceId};
use rmodp_core::value::Value;
use rmodp_kernel::payload::Payload;

use crate::engine::CallError;
use crate::envelope::{Envelope, ReplyStatus};

/// One field of a wire record, borrowed from whoever holds it.
enum Field<'a> {
    Text(&'a str),
    Value(&'a Value),
}

/// Appends the two-field record `fields` — names in ascending order — to
/// `out`, a piece at a time: the bytes the whole-document encoder gives
/// for the same record, without the record ever being built.
fn append(syntax: SyntaxId, fields: [(&str, Field<'_>); 2], out: &mut Vec<u8>) {
    debug_assert!(fields[0].0 < fields[1].0);
    if out.capacity() == 0 {
        out.reserve(TYPICAL_ENCODING);
    }
    match syntax {
        SyntaxId::Binary => {
            let mut w = binary::Writer::new(out);
            w.record_header(fields.len());
            for (name, field) in fields {
                w.key(name);
                match field {
                    Field::Text(text) => w.text(text),
                    Field::Value(value) => w.value(value),
                }
            }
        }
        SyntaxId::Text => {
            let mut w = text::Writer::new(out);
            w.record_open();
            for (name, field) in fields {
                w.key(name);
                match field {
                    Field::Text(text) => w.text(text),
                    Field::Value(value) => w.value(value),
                }
            }
            w.record_close();
        }
    }
}

/// Appends the invocation record for `op(args)` to `out`.
pub fn encode_invocation_into(syntax: SyntaxId, op: &str, args: &Value, out: &mut Vec<u8>) {
    let fields = [("args", Field::Value(args)), ("op", Field::Text(op))];
    append(syntax, fields, out);
}

/// Decodes an invocation record, moving `op` and `args` out of it. A
/// missing `args` reads as `Null`; anything that is not a record with a
/// text `op` is `None`.
pub fn decode_invocation(syntax: SyntaxId, payload: &[u8]) -> Option<Invocation> {
    let Value::Record(mut fields) = syntax_for(syntax).decode(payload).ok()? else {
        return None;
    };
    let Value::Text(op) = fields.remove("op")? else {
        return None;
    };
    let args = fields.remove("args").unwrap_or(Value::Null);
    Some(Invocation::new(op, args))
}

/// The operation an invocation record names (`<unknown>` when it names
/// none), for components that log it and pass the payload on untouched.
///
/// # Errors
///
/// The payload does not decode in `syntax`.
pub fn operation_name(syntax: SyntaxId, payload: &[u8]) -> Result<String, CodecError> {
    let record = syntax_for(syntax).decode(payload)?;
    let op = record.field("op").and_then(Value::as_text);
    Ok(op.unwrap_or("<unknown>").to_owned())
}

/// Appends the termination record to `out`.
pub fn encode_termination_into(syntax: SyntaxId, termination: &Termination, out: &mut Vec<u8>) {
    let fields = [
        ("name", Field::Text(&termination.name)),
        ("results", Field::Value(&termination.results)),
    ];
    append(syntax, fields, out);
}

/// Decodes a termination record, moving `name` and `results` out of it.
/// A missing `results` reads as `Null`.
///
/// # Errors
///
/// [`CallError::BadReply`] when the bytes do not decode or the record
/// has no text `name`.
pub fn decode_termination(syntax: SyntaxId, payload: &[u8]) -> Result<Termination, CallError> {
    let value = syntax_for(syntax)
        .decode(payload)
        .map_err(|e| CallError::BadReply {
            detail: e.to_string(),
        })?;
    let mut fields = match value {
        Value::Record(fields) => fields,
        _ => Default::default(),
    };
    let Some(Value::Text(name)) = fields.remove("name") else {
        return Err(CallError::BadReply {
            detail: "termination has no name".into(),
        });
    };
    let results = fields.remove("results").unwrap_or(Value::Null);
    Ok(Termination::new(name, results))
}

/// The frame of a request nothing else needs the payload of: the
/// invocation record is encoded straight behind the header, in the
/// frame's own buffer. Equal to
/// `Envelope::request(.., payload).to_bytes()` built whole.
pub fn request_frame(
    channel: ChannelId,
    request: u64,
    target: InterfaceId,
    syntax: SyntaxId,
    op: &str,
    args: &Value,
) -> Vec<u8> {
    Envelope::request(channel, request, target, syntax, Payload::empty())
        .to_bytes_with(|out| encode_invocation_into(syntax, op, args, out))
}

/// The reply-side counterpart of [`request_frame`]: the termination
/// record encoded straight behind the reply header.
pub fn reply_frame(
    req: &Envelope,
    status: ReplyStatus,
    syntax: SyntaxId,
    termination: &Termination,
) -> Vec<u8> {
    Envelope::reply_to(req, status, syntax, Payload::empty())
        .to_bytes_with(|out| encode_termination_into(syntax, termination, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the move-out decoder and the piecewise encoders are
    /// held to: copy `op`/`args` out of the decoded record, copy the parts
    /// into a fresh record and encode that whole.
    fn decode_by_copying(syntax: SyntaxId, payload: &[u8]) -> Option<Invocation> {
        let value = syntax_for(syntax).decode(payload).ok()?;
        let op = value.field("op")?.as_text()?.to_owned();
        let args = value.field("args").cloned().unwrap_or(Value::Null);
        Some(Invocation::new(op, args))
    }

    fn encode_by_copying(syntax: SyntaxId, termination: &Termination) -> Vec<u8> {
        let value = Value::record([
            ("name", Value::text(termination.name.clone())),
            ("results", termination.results.clone()),
        ]);
        syntax_for(syntax).encode(&value)
    }

    fn invocation_by_copying(syntax: SyntaxId, op: &str, args: &Value) -> Vec<u8> {
        let value = Value::record([("op", Value::text(op)), ("args", args.clone())]);
        syntax_for(syntax).encode(&value)
    }

    fn invocation_bytes(syntax: SyntaxId, op: &str, args: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_invocation_into(syntax, op, args, &mut out);
        assert_eq!(out, invocation_by_copying(syntax, op, args), "{op}");
        out
    }

    fn bad_reply(syntax: SyntaxId, bytes: &[u8]) -> String {
        match decode_termination(syntax, bytes) {
            Err(CallError::BadReply { detail }) => detail,
            other => panic!("expected BadReply, got {other:?}"),
        }
    }

    #[test]
    fn records_round_trip_and_hostile_bytes_get_a_typed_answer() {
        let deposit = Value::record([("amount", Value::Int(25))]);
        for syntax in [SyntaxId::Binary, SyntaxId::Text] {
            let codec = syntax_for(syntax);
            for (op, args) in [("Deposit", deposit.clone()), ("Audit", Value::Null)] {
                let bytes = invocation_bytes(syntax, op, &args);
                let decoded = decode_invocation(syntax, &bytes);
                assert_eq!(decoded, Some(Invocation::new(op, args)));
                assert_eq!(decoded, decode_by_copying(syntax, &bytes));
                assert_eq!(operation_name(syntax, &bytes).unwrap(), op);
                for cut in 0..bytes.len() {
                    assert_eq!(decode_invocation(syntax, &bytes[..cut]), None, "cut {cut}");
                }
            }
            // A missing `args` is `Null`; a non-text `op`, no `op` and a
            // non-record are refused — exactly as the reference does.
            let hostile = [
                (Value::record([("op", Value::text("Audit"))]), true),
                (Value::record([("op", Value::Int(3))]), false),
                (Value::record([("args", Value::Null)]), false),
                (Value::text("not a record"), false),
            ];
            for (record, accepted) in hostile {
                let bytes = codec.encode(&record);
                let decoded = decode_invocation(syntax, &bytes);
                assert_eq!(decoded, decode_by_copying(syntax, &bytes), "{record}");
                assert_eq!(decoded.is_some(), accepted, "{record}");
            }
            assert_eq!(decode_invocation(syntax, &[0xff, 0xfe]), None);
            assert!(operation_name(syntax, &[0xff, 0xfe]).is_err());
            let opless = codec.encode(&Value::Null);
            assert_eq!(operation_name(syntax, &opless).unwrap(), "<unknown>");

            for t in [
                Termination::ok(deposit.clone()),
                Termination::error("amount must be an integer"),
                Termination::new("NotToday", Value::Null),
            ] {
                let mut bytes = Vec::new();
                encode_termination_into(syntax, &t, &mut bytes);
                assert_eq!(bytes, encode_by_copying(syntax, &t), "{}", t.name);
                assert_eq!(decode_termination(syntax, &bytes), Ok(t));
                for cut in 0..bytes.len() {
                    assert!(!bad_reply(syntax, &bytes[..cut]).is_empty(), "cut {cut}");
                }
            }
            for nameless in [
                Value::record([("results", Value::Int(1))]),
                Value::record([("name", Value::Int(1))]),
                Value::Int(7),
            ] {
                let bytes = codec.encode(&nameless);
                assert_eq!(bad_reply(syntax, &bytes), "termination has no name");
            }
            assert_eq!(
                bad_reply(syntax, &[0xff, 0xfe]),
                codec.decode(&[0xff, 0xfe]).unwrap_err().to_string()
            );
        }
    }

    #[test]
    fn a_payload_nested_past_the_limit_is_refused_like_any_malformed_record() {
        // A megabyte of sequence openers, whole and wrapped as `args`: the
        // decoders refuse it, so the record decoders answer as they do
        // for a truncated payload. (Unbounded, this ended the process.)
        let binary = [0x06, 1, 0, 0, 0].repeat(200_000);
        let mut wrapped = vec![0x07, 1, 0, 0, 0, 4, 0, 0, 0];
        wrapped.extend_from_slice(b"args");
        wrapped.extend_from_slice(&binary);
        let text = "[".repeat(200_000).into_bytes();
        let wrapped_text = [b"{args: ".as_slice(), &text].concat();
        for (syntax, payload) in [
            (SyntaxId::Binary, &binary),
            (SyntaxId::Binary, &wrapped),
            (SyntaxId::Text, &text),
            (SyntaxId::Text, &wrapped_text),
        ] {
            assert_eq!(decode_invocation(syntax, payload), None);
            let refusal = operation_name(syntax, payload).unwrap_err();
            assert!(refusal.message.contains("nesting deeper"), "{refusal}");
            assert_eq!(bad_reply(syntax, payload), refusal.to_string());
            let env = Envelope::request(
                ChannelId::new(0),
                1,
                InterfaceId::new(3),
                syntax,
                payload.clone(),
            );
            let arrived = Envelope::from_payload(&env.to_bytes().into()).unwrap();
            assert_eq!(decode_invocation(arrived.syntax, &arrived.payload), None);
        }
    }

    #[test]
    fn frames_written_in_place_equal_the_envelope_built_whole() {
        let args = Value::record([("amount", Value::Int(25))]);
        let (channel, target) = (ChannelId::new(0), InterfaceId::new(3));
        for syntax in [SyntaxId::Binary, SyntaxId::Text] {
            let payload = invocation_bytes(syntax, "Deposit", &args);
            let whole = Envelope::request(channel, 77, target, syntax, payload);
            let frame = request_frame(channel, 77, target, syntax, "Deposit", &args);
            assert_eq!(frame, whole.to_bytes());

            let refusal = Termination::error("overdrawn");
            let payload = encode_by_copying(syntax, &refusal);
            let reply = Envelope::reply_to(&whole, ReplyStatus::Rejected, syntax, payload);
            let frame = reply_frame(&whole, ReplyStatus::Rejected, syntax, &refusal);
            assert_eq!(frame, reply.to_bytes());
        }
    }
}
