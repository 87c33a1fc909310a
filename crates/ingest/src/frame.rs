//! Wire framing: the length-prefixed binary frame and its CSV line
//! fallback.
//!
//! ## Binary frame format (little-endian throughout)
//!
//! ```text
//! frame := len:u32  body
//! body  := stream_id:u64  value:f64 ...      (len = 8 + 8·channels bytes)
//! ```
//!
//! `len` counts the body only (the 4-byte prefix excluded), must be a
//! multiple of 8, at least 16 (id + one channel), and at most
//! `8 + 8 ·`[`MAX_FRAME_CHANNELS`] — the decoder rejects anything else
//! *before* sizing a buffer, so a corrupt or hostile prefix can never
//! drive an allocation. `f64` values travel as IEEE-754 bit patterns, so
//! a decode(encode(x)) round trip is bitwise exact — the foundation of
//! the serve-mode parity proof.
//!
//! ## CSV line fallback
//!
//! ```text
//! stream_id,v0,v1,…\n
//! ```
//!
//! One sample per line, decimal floats. Lossy for pathological values
//! (encoding uses shortest-round-trip formatting, which *is* value-exact
//! for finite `f64`s) and ~3× the bytes of the binary frame, but writable
//! from anything that can print. Blank lines are skipped.
//!
//! A line is at most [`MAX_CSV_LINE_BYTES`] bytes before its newline: the
//! longest line the encoder writes. The decoder reads no further than
//! that before it rejects a line, so an unterminated or oversized line
//! cannot grow its buffer without bound, and error messages quote only a
//! short prefix of the offending field.

use std::io::{self, ErrorKind};

/// Hard upper bound on channels per frame. Caps the decoder's buffer at
/// ~32 KiB so a corrupt length prefix cannot drive an allocation.
pub const MAX_FRAME_CHANNELS: usize = 4096;

/// Smallest legal body: stream id + one channel.
const MIN_BODY_BYTES: usize = 16;

/// Longest CSV line [`encode_csv_line_into`] writes, newline excluded
/// (1,343,508 bytes): a 20-digit id and [`MAX_FRAME_CHANNELS`] fields,
/// each a comma and at most 327 bytes. `{}` prints an `f64` without an
/// exponent, so a subnormal such as `-5e-324` takes 327 bytes.
pub(crate) const MAX_CSV_LINE_BYTES: usize = 20 + MAX_FRAME_CHANNELS * (1 + 327);

/// Longest prefix of a wire field or line that an error message quotes.
const QUOTED_BYTES: usize = 32;

/// One decoded sample: which stream it belongs to and its channel values.
/// Reused across [`crate::Transport::next`] calls — steady-state decoding
/// writes into the existing capacity and never allocates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    /// Wire stream identifier (an entity key, not a fleet index).
    pub stream: u64,
    /// Channel values `s_t ∈ R^N`.
    pub values: Vec<f64>,
}

/// Appends one binary frame to `out`.
///
/// # Panics
/// Panics on an empty or over-[`MAX_FRAME_CHANNELS`] value slice.
pub fn encode_frame_into(stream: u64, values: &[f64], out: &mut Vec<u8>) {
    assert!(
        !values.is_empty() && values.len() <= MAX_FRAME_CHANNELS,
        "frame needs 1..={MAX_FRAME_CHANNELS} channels, got {}",
        values.len()
    );
    let len = (8 + 8 * values.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&stream.to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends one CSV line (including the trailing newline) to `out`.
///
/// # Panics
/// Panics on an empty or over-[`MAX_FRAME_CHANNELS`] value slice.
pub fn encode_csv_line_into(stream: u64, values: &[f64], out: &mut String) {
    use std::fmt::Write as _;
    assert!(
        !values.is_empty() && values.len() <= MAX_FRAME_CHANNELS,
        "frame needs 1..={MAX_FRAME_CHANNELS} channels, got {}",
        values.len()
    );
    let _ = write!(out, "{stream}");
    for v in values {
        let _ = write!(out, ",{v}");
    }
    out.push('\n');
}

pub(crate) fn bad_data(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

/// `s` quoted for an error message, cut to its first [`QUOTED_BYTES`]
/// bytes (on a char boundary) with a trailing `…` when longer.
fn quoted(s: &str) -> String {
    let mut end = s.len().min(QUOTED_BYTES);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let more = if end < s.len() { "…" } else { "" };
    format!("{:?}{more}", &s[..end])
}

/// Validates a binary length prefix and returns the body length in bytes.
pub(crate) fn check_body_len(len: u32) -> io::Result<usize> {
    let len = len as usize;
    if len < MIN_BODY_BYTES || !len.is_multiple_of(8) {
        return Err(bad_data(format!(
            "frame body of {len} bytes (want a multiple of 8, at least {MIN_BODY_BYTES})"
        )));
    }
    if len > 8 + 8 * MAX_FRAME_CHANNELS {
        return Err(bad_data(format!(
            "frame body of {len} bytes exceeds the {MAX_FRAME_CHANNELS}-channel cap"
        )));
    }
    Ok(len)
}

/// Decodes a validated body (stream id + values) into `frame`.
pub(crate) fn decode_body(body: &[u8], frame: &mut Frame) {
    debug_assert!(body.len() >= MIN_BODY_BYTES && body.len().is_multiple_of(8));
    frame.stream = u64::from_le_bytes(body[..8].try_into().expect("8-byte id"));
    frame.values.clear();
    frame
        .values
        .extend(body[8..].chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte value"))));
}

/// Parses one CSV line (no trailing newline) into `frame`.
pub(crate) fn decode_csv_line(line: &str, frame: &mut Frame) -> io::Result<()> {
    let mut fields = line.split(',');
    let id = fields.next().unwrap_or("");
    frame.stream = id
        .trim()
        .parse()
        .map_err(|e| bad_data(format!("CSV stream id {}: {e}", quoted(id))))?;
    frame.values.clear();
    for field in fields {
        if frame.values.len() == MAX_FRAME_CHANNELS {
            return Err(bad_data(format!("CSV line exceeds the {MAX_FRAME_CHANNELS}-channel cap")));
        }
        let v: f64 = field
            .trim()
            .parse()
            .map_err(|e| bad_data(format!("CSV value {}: {e}", quoted(field))))?;
        frame.values.push(v);
    }
    if frame.values.is_empty() {
        return Err(bad_data(format!("CSV line {} carries no channel values", quoted(line))));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_round_trip_is_bitwise() {
        let values = [1.5, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, 2e300];
        let mut buf = Vec::new();
        encode_frame_into(42, &values, &mut buf);
        assert_eq!(buf.len(), 4 + 8 + 8 * values.len());
        let len = check_body_len(u32::from_le_bytes(buf[..4].try_into().unwrap())).unwrap();
        let mut frame = Frame::default();
        decode_body(&buf[4..4 + len], &mut frame);
        assert_eq!(frame.stream, 42);
        for (a, b) in frame.values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn csv_round_trip_is_value_exact() {
        let values = [1.5, -2.25, 1.0 / 3.0, 1e-17];
        let mut line = String::new();
        encode_csv_line_into(7, &values, &mut line);
        assert!(line.ends_with('\n'));
        let mut frame = Frame::default();
        decode_csv_line(line.trim_end(), &mut frame).unwrap();
        assert_eq!(frame.stream, 7);
        // Shortest-round-trip formatting: exact for finite doubles.
        for (a, b) in frame.values.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_length_prefixes_are_rejected_before_allocation() {
        assert!(check_body_len(0).is_err(), "empty body");
        assert!(check_body_len(8).is_err(), "id only, no channels");
        assert!(check_body_len(17).is_err(), "not a multiple of 8");
        assert!(check_body_len(u32::MAX / 2).is_err(), "hostile length");
        assert_eq!(check_body_len(16).unwrap(), 16);
        assert_eq!(check_body_len((8 + 8 * MAX_FRAME_CHANNELS) as u32).unwrap(), 8 + 8 * MAX_FRAME_CHANNELS);
    }

    #[test]
    fn csv_parse_errors_name_the_field() {
        let mut frame = Frame::default();
        assert!(decode_csv_line("x,1.0", &mut frame).is_err(), "bad id");
        assert!(decode_csv_line("3,1.0,zap", &mut frame).is_err(), "bad value");
        assert!(decode_csv_line("3", &mut frame).is_err(), "no values");
        assert!(decode_csv_line("3, 1.0 , 2.5", &mut frame).is_ok(), "whitespace tolerated");
        assert_eq!(frame.values, vec![1.0, 2.5]);
    }
}
