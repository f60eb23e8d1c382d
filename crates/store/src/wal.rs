//! The WAL's byte form, under the path it has always had here. The
//! codec itself sits beside [`LogRecord`](rmodp_transactions::log::LogRecord)
//! in [`rmodp_transactions::log`].

pub use rmodp_transactions::log::{decode_frames, encode_frame};
