//! Media as they were written before frames carried the version flag:
//! the length word without bit 31, and FNV-1a over the payload.

use rmodp_observe::hash::fnv1a;
use rmodp_transactions::log::frame::{unframe, HEADER_LEN};

/// `image`, a run of whole frames, with every header rewritten to the
/// legacy form: the bytes an older build wrote for the same history.
pub fn to_legacy(image: &[u8]) -> Vec<u8> {
    let mut legacy = image.to_vec();
    let (mut header, mut rest) = (0, image);
    while !rest.is_empty() {
        let (payload, next) = unframe(rest).expect("a run of whole frames");
        let len = u32::try_from(payload.len()).expect("a test payload");
        legacy[header..header + 4].copy_from_slice(&len.to_le_bytes());
        legacy[header + 4..header + HEADER_LEN].copy_from_slice(&fnv1a(payload).to_le_bytes());
        header += HEADER_LEN + payload.len();
        rest = next;
    }
    legacy
}
