//! The wire protocol: length-prefixed JSON frames.
//!
//! Every frame is a 4-byte big-endian length followed by that many
//! bytes of UTF-8, one flat JSON object per frame (no nesting — the
//! shape [`greenhetero_core::telemetry::JsonObject`] renders and
//! [`greenhetero_core::telemetry::EventLine`] parses).
//! Frames above the configured maximum, empty frames, and non-UTF-8
//! payloads are *malformed*: the daemon answers with an error frame
//! when it can and closes only the offending connection.

use std::fmt;
use std::io::{Read, Write};

use greenhetero_core::telemetry::JsonObject;

/// Default upper bound on a frame's payload, in bytes.
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 * 1024;

/// Why reading or writing a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer violated the framing protocol; the connection should be
    /// dropped.
    Malformed(String),
    /// The read or write timed out (the socket's configured timeout).
    TimedOut,
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
            FrameError::TimedOut => write!(f, "frame I/O timed out"),
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Classifies an I/O error from a blocking socket read/write.
fn classify(e: std::io::Error) -> FrameError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e),
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// [`FrameError::Malformed`] when the payload exceeds
/// [`DEFAULT_MAX_FRAME_LEN`]; otherwise the classified I/O failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), FrameError> {
    let bytes = payload.as_bytes();
    if bytes.is_empty() || bytes.len() > DEFAULT_MAX_FRAME_LEN {
        return Err(FrameError::Malformed(format!(
            "outgoing frame of {} bytes outside 1..={DEFAULT_MAX_FRAME_LEN}",
            bytes.len()
        )));
    }
    let len = bytes.len() as u32;
    w.write_all(&len.to_be_bytes()).map_err(classify)?;
    w.write_all(bytes).map_err(classify)?;
    w.flush().map_err(classify)
}

/// Reads one frame of at most `max_len` payload bytes.
///
/// # Errors
///
/// [`FrameError::Closed`] when the peer hung up before the length
/// prefix; [`FrameError::Malformed`] for a zero/oversized length, a
/// truncated payload, or non-UTF-8 bytes; [`FrameError::TimedOut`] when
/// the socket's read timeout expired; [`FrameError::Io`] otherwise.
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> Result<String, FrameError> {
    let mut len_buf = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len_buf) {
        return Err(match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Closed,
            _ => classify(e),
        });
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 || len > max_len {
        return Err(FrameError::Malformed(format!(
            "frame length {len} outside 1..={max_len}"
        )));
    }
    let mut payload = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                FrameError::Malformed("frame truncated mid-payload".into())
            }
            _ => classify(e),
        });
    }
    String::from_utf8(payload).map_err(|_| FrameError::Malformed("frame is not UTF-8".into()))
}

/// Shorthand for the daemon's error responses: `{"ok":false,...}` with
/// a machine-readable `reason` tag and a human-readable `error`.
#[must_use]
pub fn error_frame(reason: &str, detail: &str) -> String {
    let mut o = JsonObject::new();
    o.bool("ok", false)
        .str("reason", reason)
        .str("error", detail);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"cmd":"status"}"#).unwrap();
        write_frame(&mut buf, "x").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(),
            r#"{"cmd":"status"}"#
        );
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(), "x");
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_and_zero_lengths_are_malformed() {
        let mut oversized = Vec::from(u32::MAX.to_be_bytes());
        oversized.extend_from_slice(b"xxxx");
        assert!(matches!(
            read_frame(&mut &oversized[..], 1024),
            Err(FrameError::Malformed(_))
        ));
        let zero = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..], 1024),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_payload_is_malformed_not_closed() {
        let mut buf = Vec::from(10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn non_utf8_payload_is_malformed() {
        let mut buf = Vec::from(2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn error_frames_parse_as_event_lines() {
        let frame = error_frame("backpressure", "tick queue full");
        let line = greenhetero_core::telemetry::EventLine::parse(&frame).expect("parses");
        assert_eq!(line.flag("ok"), Some(false));
        assert_eq!(line.text("reason"), Some("backpressure"));
    }
}
