//! The one frame every durable byte string is wrapped in.
//!
//! ```text
//! [len | 1 << 31: u32 LE] [word_checksum(payload): u64 LE] [payload]
//! ```
//!
//! Bit 31 of the length word is the version flag. Every frame written
//! now sets it and carries the word-at-a-time [`word_checksum`]. A frame without
//! it is one written before that checksum existed, whose second field is
//! FNV-1a over the payload: [`unframe`] still verifies and accepts those,
//! so old media opens, and a log that starts in the old form and goes on
//! in the new one reads back whole. The header stays 12 bytes and the
//! length 31 bits (no frame this program ever wrote came near 2 GiB), so
//! no medium changes size.
//!
//! This module is the only place that knows the header layout. WAL
//! records ([`encode_frame`](super::encode_frame)) and the store's
//! snapshots both go through [`frame_into`] / [`unframe`], so a length that
//! points past the end, a checksum that does not match and a header cut
//! short are each detected once, the same way, for both.

use std::fmt;

use rmodp_observe::hash::{fnv1a, word_checksum};

/// Bytes in front of every payload: the length and the checksum.
pub const HEADER_LEN: usize = 12;

/// The length word's version flag: set, the checksum is
/// [`word_checksum`]; clear, FNV-1a (media written before the flag).
pub const WORD_CHECKSUM_FLAG: u32 = 1 << 31;

/// Why a byte string does not start with a whole, intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than [`HEADER_LEN`] bytes.
    ShortHeader,
    /// The header's length reaches past the end of the bytes.
    TruncatedPayload,
    /// The payload does not hash to the header's checksum.
    ChecksumMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FrameError::ShortHeader => "shorter than its header",
            FrameError::TruncatedPayload => "payload truncated",
            FrameError::ChecksumMismatch => "checksum mismatch",
        })
    }
}

impl std::error::Error for FrameError {}

/// Appends one checksummed frame to `out`, the payload being whatever
/// `write_payload` appends: the header is reserved first and its flagged
/// length and checksum filled in afterwards, so a frame is built in the
/// buffer it is handed to the medium from.
///
/// # Panics
///
/// If the payload is longer than 2³¹ − 1 bytes — no record or snapshot
/// this program writes comes near.
pub fn frame_into(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    write_payload(out);
    let payload = header + HEADER_LEN;
    let len = u32::try_from(out.len() - payload)
        .ok()
        .filter(|len| len & WORD_CHECKSUM_FLAG == 0)
        .expect("frame payload fits a 31-bit length");
    let checksum = word_checksum(&out[payload..]);
    out[header..header + 4].copy_from_slice(&(len | WORD_CHECKSUM_FLAG).to_le_bytes());
    out[header + 4..payload].copy_from_slice(&checksum.to_le_bytes());
}

/// Splits the first frame off `bytes`: its verified payload, and
/// whatever follows the frame. A flagged frame is verified with
/// [`word_checksum`], an unflagged one with FNV-1a.
///
/// # Errors
///
/// A [`FrameError`] when `bytes` does not begin with a whole frame whose
/// checksum holds. Nothing is allocated for a length the bytes cannot
/// back.
pub fn unframe(bytes: &[u8]) -> Result<(&[u8], &[u8]), FrameError> {
    let (header, body) = bytes
        .split_at_checked(HEADER_LEN)
        .ok_or(FrameError::ShortHeader)?;
    let word = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    let (payload, rest) = body
        .split_at_checked((word & !WORD_CHECKSUM_FLAG) as usize)
        .ok_or(FrameError::TruncatedPayload)?;
    let sum = if word & WORD_CHECKSUM_FLAG != 0 {
        word_checksum(payload)
    } else {
        fnv1a(payload)
    };
    if sum != crc {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((payload, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, |out| out.extend_from_slice(payload));
        out
    }

    /// The frame a medium written before the flag holds.
    fn legacy_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn frames_split_back_into_payload_and_rest() {
        let mut bytes = frame(b"first");
        bytes.extend_from_slice(&frame(b""));
        bytes.extend_from_slice(b"tail");
        let (payload, rest) = unframe(&bytes).unwrap();
        assert_eq!(payload, b"first");
        let (payload, rest) = unframe(rest).unwrap();
        assert_eq!(payload, b"");
        assert_eq!(rest, b"tail");
        assert_eq!(unframe(rest), Err(FrameError::ShortHeader));
    }

    #[test]
    fn a_frame_is_built_behind_whatever_the_buffer_holds() {
        let mut image = frame(b"first");
        frame_into(&mut image, |payload| {
            assert!(payload.ends_with(&[0; HEADER_LEN]), "header reserved");
            payload.extend_from_slice(b"sec");
            payload.extend_from_slice(b"ond");
        });
        assert_eq!(image, [frame(b"first"), frame(b"second")].concat());
    }

    #[test]
    fn a_frame_is_flagged_and_word_checksummed() {
        let whole = frame(b"payload");
        assert_eq!(whole[..4], (7 | WORD_CHECKSUM_FLAG).to_le_bytes());
        assert_eq!(
            whole[4..HEADER_LEN],
            word_checksum(b"payload").to_le_bytes()
        );
        assert_eq!(whole.len(), legacy_frame(b"payload").len());
    }

    #[test]
    fn legacy_frames_still_open_beside_flagged_ones() {
        let bytes = [legacy_frame(b"old"), frame(b"new"), legacy_frame(b"")].concat();
        let (payload, rest) = unframe(&bytes).unwrap();
        assert_eq!(payload, b"old");
        let (payload, rest) = unframe(rest).unwrap();
        assert_eq!(payload, b"new");
        assert_eq!(unframe(rest), Ok((&b""[..], &b""[..])));
    }

    #[test]
    fn every_kind_of_damage_has_its_error() {
        for whole in [frame(b"payload"), legacy_frame(b"payload")] {
            for cut in 0..HEADER_LEN {
                assert_eq!(unframe(&whole[..cut]), Err(FrameError::ShortHeader));
            }
            for cut in HEADER_LEN..whole.len() {
                assert_eq!(unframe(&whole[..cut]), Err(FrameError::TruncatedPayload));
            }
            for byte in 4..whole.len() {
                let mut damaged = whole.clone();
                damaged[byte] ^= 0x40;
                assert_eq!(unframe(&damaged), Err(FrameError::ChecksumMismatch));
            }
            // The longest length, flagged and not.
            for word in [u32::MAX, u32::MAX >> 1] {
                let mut huge = whole.clone();
                huge[..4].copy_from_slice(&word.to_le_bytes());
                assert_eq!(unframe(&huge), Err(FrameError::TruncatedPayload));
            }
        }
    }
}
