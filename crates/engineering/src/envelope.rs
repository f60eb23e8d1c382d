//! The engineering wire format: envelopes exchanged between protocol
//! objects over the communications interface (§6.1).

use bytes::{Buf, BufMut};
use rmodp_core::codec::{SyntaxId, TYPICAL_ENCODING};
use rmodp_core::id::{ChannelId, InterfaceId};
use rmodp_kernel::payload::Payload;
use std::fmt;

/// What an envelope carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeKind {
    /// An interrogation: a reply is expected.
    Request,
    /// The reply to an interrogation.
    Reply,
    /// An announcement: no reply.
    Announce,
    /// One item of a stream flow.
    Flow,
}

/// Transport-level status of a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The payload is the operation's termination.
    Ok,
    /// The target interface is not at this node (stale interface
    /// reference; triggers relocation transparency, §9.2).
    NotHere,
    /// The channel rejected the message (e.g. replay detected by a
    /// sequence binder, §6.1).
    Rejected,
}

/// A message travelling through a channel: produced by stubs, transformed
/// by binders, carried by protocol objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The envelope kind.
    pub kind: EnvelopeKind,
    /// Which channel this envelope belongs to (0 = the ephemeral default
    /// channel).
    pub channel: ChannelId,
    /// Correlates a reply with its request.
    pub request: u64,
    /// Sequence number stamped by a sequence binder (0 = unstamped).
    pub seq: u64,
    /// The target interface (requests, announcements and flows).
    pub target: InterfaceId,
    /// Reply status (replies only).
    pub status: ReplyStatus,
    /// The transfer syntax the payload is currently encoded in.
    pub syntax: SyntaxId,
    /// The encoded payload (an invocation or termination record, or a
    /// flow item). Shared bytes: cloning an envelope, caching a reply,
    /// or retransmitting shares one buffer.
    pub payload: Payload,
    /// The flow name (flows only; empty otherwise).
    pub flow: String,
}

impl Envelope {
    /// Creates a request envelope.
    pub fn request(
        channel: ChannelId,
        request: u64,
        target: InterfaceId,
        syntax: SyntaxId,
        payload: impl Into<Payload>,
    ) -> Self {
        Self {
            kind: EnvelopeKind::Request,
            channel,
            request,
            seq: 0,
            target,
            status: ReplyStatus::Ok,
            syntax,
            payload: payload.into(),
            flow: String::new(),
        }
    }

    /// Creates the reply to a request envelope.
    pub fn reply_to(
        req: &Envelope,
        status: ReplyStatus,
        syntax: SyntaxId,
        payload: impl Into<Payload>,
    ) -> Self {
        Self {
            kind: EnvelopeKind::Reply,
            channel: req.channel,
            request: req.request,
            seq: 0,
            target: req.target,
            status,
            syntax,
            payload: payload.into(),
            flow: String::new(),
        }
    }

    /// Creates an announcement envelope.
    pub fn announce(
        channel: ChannelId,
        target: InterfaceId,
        syntax: SyntaxId,
        payload: impl Into<Payload>,
    ) -> Self {
        Self {
            kind: EnvelopeKind::Announce,
            channel,
            request: 0,
            seq: 0,
            target,
            status: ReplyStatus::Ok,
            syntax,
            payload: payload.into(),
            flow: String::new(),
        }
    }

    /// Creates a flow-item envelope.
    pub fn flow_item(
        channel: ChannelId,
        target: InterfaceId,
        flow: impl Into<String>,
        syntax: SyntaxId,
        payload: impl Into<Payload>,
    ) -> Self {
        Self {
            kind: EnvelopeKind::Flow,
            channel,
            request: 0,
            seq: 0,
            target,
            status: ReplyStatus::Ok,
            syntax,
            payload: payload.into(),
            flow: flow.into(),
        }
    }

    /// Serialises the envelope for the network.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with(|out| out.put_slice(&self.payload))
    }

    /// Serialises the envelope with the payload `write_payload` appends,
    /// in place of `self.payload`: a sender that needs the payload
    /// nowhere else encodes it straight into the frame, behind the
    /// header, instead of into a buffer of its own first.
    pub fn to_bytes_with(&self, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        // Room for the payload held, or for a typical invocation or
        // termination record when it is still to be written.
        let payload_room = self.payload.len().max(TYPICAL_ENCODING);
        let mut out = Vec::with_capacity(43 + self.flow.len() + payload_room);
        out.put_u8(match self.kind {
            EnvelopeKind::Request => 0,
            EnvelopeKind::Reply => 1,
            EnvelopeKind::Announce => 2,
            EnvelopeKind::Flow => 3,
        });
        out.put_u8(match self.status {
            ReplyStatus::Ok => 0,
            ReplyStatus::NotHere => 1,
            ReplyStatus::Rejected => 2,
        });
        out.put_u8(match self.syntax {
            SyntaxId::Binary => 0,
            SyntaxId::Text => 1,
        });
        out.put_u64_le(self.channel.raw());
        out.put_u64_le(self.request);
        out.put_u64_le(self.seq);
        out.put_u64_le(self.target.raw());
        out.put_u32_le(self.flow.len() as u32);
        out.put_slice(self.flow.as_bytes());
        let len_at = out.len();
        out.put_u32_le(0);
        write_payload(&mut out);
        let payload_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
        out
    }

    /// Deserialises an envelope from a shared frame: the returned
    /// envelope's payload is a zero-copy slice of `frame`'s buffer.
    ///
    /// # Errors
    ///
    /// Returns an [`EnvelopeError`] on truncation or bad discriminants.
    pub fn from_payload(frame: &Payload) -> Result<Self, EnvelopeError> {
        let (mut env, off, len) = Self::parse_frame(frame)?;
        env.payload = frame.slice(off, off + len);
        Ok(env)
    }

    /// Parses everything but the payload bytes, returning the envelope
    /// (payload empty) plus the payload's offset and length in `full`.
    fn parse_frame(full: &[u8]) -> Result<(Self, usize, usize), EnvelopeError> {
        let mut bytes = full;
        let need = |b: &&[u8], n: usize| -> Result<(), EnvelopeError> {
            if b.remaining() < n {
                Err(EnvelopeError {
                    message: format!("truncated envelope: need {n} more bytes"),
                })
            } else {
                Ok(())
            }
        };
        need(&bytes, 3)?;
        let kind = match bytes.get_u8() {
            0 => EnvelopeKind::Request,
            1 => EnvelopeKind::Reply,
            2 => EnvelopeKind::Announce,
            3 => EnvelopeKind::Flow,
            k => {
                return Err(EnvelopeError {
                    message: format!("bad envelope kind {k}"),
                })
            }
        };
        let status = match bytes.get_u8() {
            0 => ReplyStatus::Ok,
            1 => ReplyStatus::NotHere,
            2 => ReplyStatus::Rejected,
            s => {
                return Err(EnvelopeError {
                    message: format!("bad reply status {s}"),
                })
            }
        };
        let syntax = match bytes.get_u8() {
            0 => SyntaxId::Binary,
            1 => SyntaxId::Text,
            s => {
                return Err(EnvelopeError {
                    message: format!("bad syntax id {s}"),
                })
            }
        };
        need(&bytes, 32)?;
        let channel = ChannelId::new(bytes.get_u64_le());
        let request = bytes.get_u64_le();
        let seq = bytes.get_u64_le();
        let target = InterfaceId::new(bytes.get_u64_le());
        need(&bytes, 4)?;
        let flow_len = bytes.get_u32_le() as usize;
        need(&bytes, flow_len)?;
        // Validated in place and copied only when there is a name: every
        // envelope that is not a flow item has none.
        let flow = std::str::from_utf8(&bytes[..flow_len])
            .map_err(|_| EnvelopeError {
                message: "flow name is not utf-8".into(),
            })?
            .to_owned();
        bytes.advance(flow_len);
        need(&bytes, 4)?;
        let payload_len = bytes.get_u32_le() as usize;
        need(&bytes, payload_len)?;
        let payload_off = full.len() - bytes.remaining();
        bytes.advance(payload_len);
        if bytes.has_remaining() {
            return Err(EnvelopeError {
                message: "trailing bytes after envelope".into(),
            });
        }
        Ok((
            Self {
                kind,
                channel,
                request,
                seq,
                target,
                status,
                syntax,
                payload: Payload::empty(),
                flow,
            },
            payload_off,
            payload_len,
        ))
    }
}

/// A malformed envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "envelope error: {}", self.message)
    }
}

impl std::error::Error for EnvelopeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::value::Value;

    /// The copying decode the shared-buffer one must agree with.
    fn from_bytes(bytes: &[u8]) -> Result<Envelope, EnvelopeError> {
        let (mut env, off, len) = Envelope::parse_frame(bytes)?;
        env.payload = Payload::from(&bytes[off..off + len]);
        Ok(env)
    }

    fn sample() -> Envelope {
        let mut e = Envelope::request(
            ChannelId::new(7),
            42,
            InterfaceId::new(9),
            SyntaxId::Binary,
            vec![1, 2, 3],
        );
        e.seq = 5;
        e
    }

    #[test]
    fn round_trips_all_kinds() {
        let req = sample();
        let reply = Envelope::reply_to(&req, ReplyStatus::NotHere, SyntaxId::Text, vec![9]);
        let ann = Envelope::announce(
            ChannelId::new(1),
            InterfaceId::new(2),
            SyntaxId::Text,
            vec![],
        );
        let flow = Envelope::flow_item(
            ChannelId::new(1),
            InterfaceId::new(2),
            "audio",
            SyntaxId::Binary,
            vec![0; 100],
        );
        for e in [req, reply, ann, flow] {
            let bytes = e.to_bytes();
            assert_eq!(from_bytes(&bytes).unwrap(), e);
        }
    }

    #[test]
    fn to_bytes_with_writes_the_frame_to_bytes_would() {
        let whole = sample();
        let mut header = whole.clone();
        header.payload = Payload::empty();
        assert_eq!(
            header.to_bytes_with(|out| out.extend_from_slice(&[1, 2, 3])),
            whole.to_bytes()
        );
        assert_eq!(header.to_bytes_with(|_| {}), header.to_bytes());
    }

    #[test]
    fn bad_flow_name_is_rejected() {
        let flow = Envelope::flow_item(
            ChannelId::new(1),
            InterfaceId::new(2),
            "ab",
            SyntaxId::Binary,
            vec![7],
        );
        let mut bytes = flow.to_bytes();
        bytes[39] = 0xff; // first byte of the two-byte flow name
        assert!(from_bytes(&bytes).unwrap_err().message.contains("utf-8"));
    }

    #[test]
    fn reply_correlates_with_request() {
        let req = sample();
        let reply = Envelope::reply_to(&req, ReplyStatus::Ok, SyntaxId::Binary, vec![]);
        assert_eq!(reply.request, req.request);
        assert_eq!(reply.channel, req.channel);
        assert_eq!(reply.kind, EnvelopeKind::Reply);
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_discriminants_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 9;
        assert!(from_bytes(&bytes).unwrap_err().message.contains("kind"));
        let mut bytes = sample().to_bytes();
        bytes[1] = 9;
        assert!(from_bytes(&bytes).unwrap_err().message.contains("status"));
        let mut bytes = sample().to_bytes();
        bytes[2] = 9;
        assert!(from_bytes(&bytes).unwrap_err().message.contains("syntax"));
    }

    #[test]
    fn from_payload_slices_without_copying() {
        rmodp_observe::bus::reset();
        let frame = Payload::new(sample().to_bytes());
        let env = Envelope::from_payload(&frame).unwrap();
        assert_eq!(env, sample());
        assert!(env.payload.shares_buffer_with(&frame));
        assert_eq!(rmodp_observe::bus::counter("kernel.payload.copies"), 0);
    }

    /// Every truncation, every single-bit flip, each length word at
    /// `u32::MAX` and one trailing byte, of a request frame and a flow
    /// frame: each is refused or parses to an envelope that writes back
    /// the very bytes it came from, and the wire records of whatever
    /// parses decode or are refused without a panic.
    #[test]
    fn hostile_frames_are_refused_or_parse_whole() {
        let args = Value::record([("amount", Value::Int(25))]);
        let (channel, target) = (ChannelId::new(3), InterfaceId::new(9));
        let request =
            crate::wire::request_frame(channel, 42, target, SyntaxId::Binary, "Deposit", &args);
        let flow = Envelope::flow_item(channel, target, "audio", SyntaxId::Binary, vec![1, 2, 3]);
        let mut cases = Vec::new();
        for frame in [request, flow.to_bytes()] {
            // Three discriminant bytes and four u64s, then the flow name's
            // length word, the name, and the payload's length word.
            let mut rest = &frame[35..];
            let payload_len_at = 39 + rest.get_u32_le() as usize;
            for at in [35, payload_len_at] {
                let mut inflated = frame.clone();
                inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                cases.push(inflated);
            }
            cases.extend((0..frame.len()).map(|cut| frame[..cut].to_vec()));
            for bit in 0..8 * frame.len() {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                cases.push(flipped);
            }
            cases.push([frame.as_slice(), &[0]].concat());
        }
        let mut parsed = 0;
        for case in &cases {
            let copied = from_bytes(case);
            let shared = Envelope::from_payload(&Payload::from(case.as_slice()));
            assert_eq!(copied, shared);
            let Ok(env) = copied else { continue };
            parsed += 1;
            assert_eq!(&env.to_bytes(), case);
            let _ = crate::wire::decode_invocation(env.syntax, &env.payload);
            let _ = crate::wire::decode_termination(env.syntax, &env.payload);
        }
        assert!(
            cases.len() > 1_000 && parsed > 100,
            "{parsed} of {}",
            cases.len()
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(from_bytes(&bytes).unwrap_err().message.contains("trailing"));
    }
}
