//! Frame encoding for the durable write-ahead log.
//!
//! The in-memory redo/undo machinery lives in
//! [`rmodp_transactions::log`]; this module gives its [`LogRecord`]s a
//! byte form safe to read back after an arbitrary crash point. Each
//! record is framed as
//!
//! ```text
//! [len: u32 LE] [fnv1a(payload): u64 LE] [payload: binary-syntax Value]
//! ```
//!
//! and decoding stops at the first frame that is incomplete or fails its
//! checksum: whatever a crash left beyond the last fully-synced frame is
//! discarded, never misread. That is exactly the property the
//! crash-at-every-prefix test pins — the decoded stream equals the
//! longest valid frame prefix, byte-truncation anywhere included.

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_transactions::log::LogRecord;

/// The per-frame checksum: FNV-1a over the payload.
pub use rmodp_observe::hash::fnv1a;

/// Encodes one record as a checksummed frame.
pub fn encode_frame(record: &LogRecord) -> Vec<u8> {
    let payload = syntax_for(SyntaxId::Binary).encode(&record.to_value());
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The outcome of scanning a WAL image.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedWal {
    /// Every record recovered, in log order.
    pub records: Vec<LogRecord>,
    /// How many leading bytes formed valid frames.
    pub valid_len: usize,
    /// Whether trailing bytes were discarded (torn frame, bad checksum,
    /// or undecodable payload).
    pub truncated_tail: bool,
}

/// Scans a WAL image, returning the longest valid frame prefix.
pub fn decode_frames(bytes: &[u8]) -> DecodedWal {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 12) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
            break;
        };
        if fnv1a(payload) != crc {
            break;
        }
        let Ok(value) = syntax_for(SyntaxId::Binary).decode(payload) else {
            break;
        };
        let Ok(record) = LogRecord::from_value(&value) else {
            break;
        };
        records.push(record);
        pos += 12 + len;
    }
    DecodedWal {
        records,
        valid_len: pos,
        truncated_tail: pos != bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::id::TxId;
    use rmodp_core::value::Value;

    fn sample() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { tx: TxId::new(1) },
            LogRecord::Write {
                tx: TxId::new(1),
                item: "oo7/atomic/3".to_owned(),
                before: None,
                after: Value::record([("x", Value::Int(9))]),
            },
            LogRecord::Commit { tx: TxId::new(1) },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut image = Vec::new();
        for r in sample() {
            image.extend_from_slice(&encode_frame(&r));
        }
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records, sample());
        assert_eq!(decoded.valid_len, image.len());
        assert!(!decoded.truncated_tail);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_frame_prefix() {
        let mut image = Vec::new();
        let mut boundaries = vec![0usize];
        for r in sample() {
            image.extend_from_slice(&encode_frame(&r));
            boundaries.push(image.len());
        }
        for cut in 0..=image.len() {
            let decoded = decode_frames(&image[..cut]);
            let frames_complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                decoded.records.len(),
                frames_complete,
                "cut at byte {cut} must recover exactly the whole frames before it"
            );
            assert_eq!(decoded.records, sample()[..frames_complete]);
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut image = Vec::new();
        for r in sample() {
            image.extend_from_slice(&encode_frame(&r));
        }
        // Flip one payload byte of the second frame.
        let first = encode_frame(&sample()[0]).len();
        image[first + 13] ^= 0xff;
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records.len(), 1, "scan stops at the bad frame");
        assert!(decoded.truncated_tail);
        assert_eq!(decoded.valid_len, first);
    }
}
