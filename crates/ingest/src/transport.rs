//! Pluggable stream sources ([`Transport`]) and the matching writers.
//!
//! A transport turns *some byte source* into a sequence of [`Frame`]s.
//! Two implementations cover every wire the CLI serves:
//!
//! * [`FramedTransport`] — the length-prefixed binary protocol over any
//!   `Read` (a `TcpStream`, a locked stdin, an in-memory `Cursor` for the
//!   loopback bench/tests).
//! * [`CsvTransport`] — the `stream_id,v0,v1,…` line fallback over any
//!   `Read`.
//!
//! Both decode into caller-owned reusable buffers: after the first few
//! frames have stretched every buffer to its steady-state capacity, a
//! `next` call performs **zero heap allocations**
//! (`tests/zero_alloc.rs` pins this under the counting allocator).
//!
//! The writing side mirrors the reading side: [`FrameWriter`] encodes in
//! either framing over any `Write`, and [`replay_series`] /
//! [`replay_interleaved`] stream a [`LabeledSeries`] through one — the
//! shared replay client used by the parity suite, the CLI smoke test,
//! the `serve_client` example and the `ingest_throughput` bench.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};

use sad_data::LabeledSeries;

use crate::frame::{
    bad_data, check_body_len, decode_body, decode_csv_line, encode_csv_line_into, encode_frame_into,
    Frame, MAX_CSV_LINE_BYTES,
};

/// A source of frames. `next` fills the caller's reusable [`Frame`] and
/// reports `Ok(true)`, or `Ok(false)` on clean end-of-stream. Transport
/// and protocol failures surface as `Err` — a length prefix cut short
/// mid-frame is an error, not an EOF.
pub trait Transport {
    /// Decodes the next frame into `frame`.
    fn next(&mut self, frame: &mut Frame) -> io::Result<bool>;

    /// Total payload bytes consumed so far (for throughput accounting).
    fn bytes_read(&self) -> u64 {
        0
    }
}

/// Binary framed protocol over any `Read` (buffered internally).
pub struct FramedTransport<R: Read> {
    r: BufReader<R>,
    /// Reusable body buffer — sized once, reused every frame.
    body: Vec<u8>,
    bytes: u64,
}

impl<R: Read> FramedTransport<R> {
    /// Wraps a byte source in the binary frame decoder.
    pub fn new(r: R) -> Self {
        Self { r: BufReader::new(r), body: Vec::new(), bytes: 0 }
    }

    /// Unwraps the underlying reader.
    pub fn into_inner(self) -> R {
        self.r.into_inner()
    }
}

impl<R: Read> Transport for FramedTransport<R> {
    fn next(&mut self, frame: &mut Frame) -> io::Result<bool> {
        let mut prefix = [0u8; 4];
        // Distinguish clean EOF (no bytes at a frame boundary) from a
        // truncated frame (EOF inside the prefix or body).
        let first = self.r.read(&mut prefix[..1])?;
        if first == 0 {
            return Ok(false);
        }
        self.r.read_exact(&mut prefix[1..]).map_err(truncated)?;
        let len = check_body_len(u32::from_le_bytes(prefix))?;
        self.body.resize(len, 0);
        self.r.read_exact(&mut self.body).map_err(truncated)?;
        decode_body(&self.body, frame);
        self.bytes += (4 + len) as u64;
        Ok(true)
    }

    fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

fn truncated(e: io::Error) -> io::Error {
    if e.kind() == ErrorKind::UnexpectedEof {
        io::Error::new(ErrorKind::UnexpectedEof, "stream ended inside a frame")
    } else {
        e
    }
}

/// CSV line fallback over any `Read` (buffered internally). Blank lines
/// are skipped; malformed lines, and lines longer than the encoder ever
/// writes, are errors.
pub struct CsvTransport<R: Read> {
    r: BufReader<R>,
    /// Reusable line buffer.
    line: String,
    bytes: u64,
}

impl<R: Read> CsvTransport<R> {
    /// Wraps a byte source in the CSV line decoder.
    pub fn new(r: R) -> Self {
        Self { r: BufReader::new(r), line: String::new(), bytes: 0 }
    }

    /// Unwraps the underlying reader.
    pub fn into_inner(self) -> R {
        self.r.into_inner()
    }
}

impl<R: Read> Transport for CsvTransport<R> {
    fn next(&mut self, frame: &mut Frame) -> io::Result<bool> {
        // The longest legal line and its newline: one byte more is over.
        let limit = MAX_CSV_LINE_BYTES as u64 + 1;
        loop {
            self.line.clear();
            let n = (&mut self.r).take(limit).read_line(&mut self.line)?;
            if n == 0 {
                return Ok(false);
            }
            self.bytes += n as u64;
            if n as u64 == limit && !self.line.ends_with('\n') {
                return Err(bad_data(format!("CSV line exceeds {MAX_CSV_LINE_BYTES} bytes")));
            }
            let line = self.line.trim_end_matches(['\n', '\r']);
            if line.is_empty() {
                continue;
            }
            decode_csv_line(line, frame)?;
            return Ok(true);
        }
    }

    fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

/// Which framing a [`FrameWriter`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Length-prefixed binary frames (bitwise-exact, compact).
    Binary,
    /// `stream_id,v0,v1,…` lines (printable, value-exact).
    Csv,
}

/// Frame encoder over any `Write` — the replay-client building block.
/// The encode buffer is reused across `send` calls.
pub struct FrameWriter<W: Write> {
    w: W,
    framing: Framing,
    buf: Vec<u8>,
    line: String,
    frames: u64,
}

impl<W: Write> FrameWriter<W> {
    /// A writer emitting `framing` onto `w`.
    pub fn new(w: W, framing: Framing) -> Self {
        Self { w, framing, buf: Vec::new(), line: String::new(), frames: 0 }
    }

    /// Encodes and writes one frame.
    pub fn send(&mut self, stream: u64, values: &[f64]) -> io::Result<()> {
        match self.framing {
            Framing::Binary => {
                self.buf.clear();
                encode_frame_into(stream, values, &mut self.buf);
                self.w.write_all(&self.buf)?;
            }
            Framing::Csv => {
                self.line.clear();
                encode_csv_line_into(stream, values, &mut self.line);
                self.w.write_all(self.line.as_bytes())?;
            }
        }
        self.frames += 1;
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Frames written so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Replays one [`LabeledSeries`] as wire stream `stream`, one frame per
/// step, in time order. Returns the frame count.
pub fn replay_series<W: Write>(
    writer: &mut FrameWriter<W>,
    stream: u64,
    series: &LabeledSeries,
) -> io::Result<usize> {
    for s in &series.data {
        writer.send(stream, s)?;
    }
    Ok(series.len())
}

/// Replays several series round-robin (at each step, one frame per
/// stream that still has data) — the arrival order a fleet of concurrent
/// entities produces, and the cadence [`crate::IngestEngine`] turns back
/// into one-step-per-stream fleet rounds. Returns the frame count.
pub fn replay_interleaved<W: Write>(
    writer: &mut FrameWriter<W>,
    streams: &[(u64, &LabeledSeries)],
) -> io::Result<usize> {
    let longest = streams.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut frames = 0;
    for t in 0..longest {
        for (id, series) in streams {
            if let Some(s) = series.data.get(t) {
                writer.send(*id, s)?;
                frames += 1;
            }
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_FRAME_CHANNELS;
    use std::io::Cursor;

    fn series(name: &str, len: usize, phase: f64) -> LabeledSeries {
        let data: Vec<Vec<f64>> =
            (0..len).map(|t| vec![(t as f64 * 0.1 + phase).sin(), t as f64]).collect();
        let labels = vec![false; len];
        LabeledSeries::new(name, data, labels)
    }

    #[test]
    fn framed_transport_round_trips_a_replay() {
        let a = series("a", 5, 0.0);
        let b = series("b", 3, 1.0);
        let mut writer = FrameWriter::new(Vec::new(), Framing::Binary);
        let frames = replay_interleaved(&mut writer, &[(10, &a), (20, &b)]).unwrap();
        assert_eq!(frames, 8);
        let buf = writer.into_inner();

        let mut t = FramedTransport::new(Cursor::new(&buf));
        let mut frame = Frame::default();
        let mut seen = Vec::new();
        while t.next(&mut frame).unwrap() {
            seen.push((frame.stream, frame.values.clone()));
        }
        assert_eq!(seen.len(), 8);
        assert_eq!(t.bytes_read(), buf.len() as u64);
        // Round-robin order: a, b, a, b, a, b, a, a.
        let ids: Vec<u64> = seen.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![10, 20, 10, 20, 10, 20, 10, 10]);
        for (i, (_, values)) in seen.iter().enumerate().take(6) {
            let src = if i % 2 == 0 { &a } else { &b };
            let step = i / 2;
            for (got, want) in values.iter().zip(&src.data[step]) {
                assert_eq!(got.to_bits(), want.to_bits(), "bitwise replay");
            }
        }
    }

    #[test]
    fn csv_transport_round_trips_and_skips_blank_lines() {
        let a = series("a", 4, 0.3);
        let mut writer = FrameWriter::new(Vec::new(), Framing::Csv);
        replay_series(&mut writer, 3, &a).unwrap();
        let mut text = String::from_utf8(writer.into_inner()).unwrap();
        text.push('\n'); // trailing blank line must be tolerated
        let mut t = CsvTransport::new(Cursor::new(text.as_bytes()));
        let mut frame = Frame::default();
        let mut n = 0;
        while t.next(&mut frame).unwrap() {
            assert_eq!(frame.stream, 3);
            for (got, want) in frame.values.iter().zip(&a.data[n]) {
                assert_eq!(got.to_bits(), want.to_bits(), "value-exact CSV replay");
            }
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn truncated_binary_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        encode_frame_into(1, &[2.0, 3.0], &mut buf);
        buf.truncate(buf.len() - 3);
        let mut t = FramedTransport::new(Cursor::new(&buf));
        let mut frame = Frame::default();
        let err = t.next(&mut frame).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_csv_line_is_an_error() {
        let mut t = CsvTransport::new(Cursor::new(b"1,2.0\nbogus line\n".as_slice()));
        let mut frame = Frame::default();
        assert!(t.next(&mut frame).unwrap());
        assert!(t.next(&mut frame).is_err());
    }

    /// The longest line the encoder can write: id `u64::MAX` and every
    /// channel the longest-printing value, a negative subnormal.
    fn longest_csv_line() -> String {
        let mut line = String::new();
        encode_csv_line_into(u64::MAX, &[-5e-324; MAX_FRAME_CHANNELS], &mut line);
        line
    }

    #[test]
    fn longest_encodable_csv_line_round_trips() {
        let line = longest_csv_line();
        assert_eq!(line.len(), MAX_CSV_LINE_BYTES + 1, "the bound is the encoder's longest line");
        let mut t = CsvTransport::new(Cursor::new(line.as_bytes()));
        let mut frame = Frame::default();
        assert!(t.next(&mut frame).unwrap());
        assert_eq!(frame.stream, u64::MAX);
        assert_eq!(frame.values.len(), MAX_FRAME_CHANNELS);
        assert!(frame.values.iter().all(|v| v.to_bits() == (-5e-324f64).to_bits()));
        assert!(!t.next(&mut frame).unwrap());
    }

    #[test]
    fn csv_line_one_byte_past_the_bound_is_an_error_read_no_further() {
        // One more zero in the first value: still a number, one byte too long.
        let mut line = longest_csv_line();
        let first_value = line.find(",-0.").expect("a subnormal field") + 4;
        line.insert(first_value, '0');
        line.push_str("1,2.0\n");
        let mut t = CsvTransport::new(Cursor::new(line.as_bytes()));
        let mut frame = Frame::default();
        let err = t.next(&mut frame).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().len() < 100, "short message: {err}");
        assert_eq!(t.bytes_read(), MAX_CSV_LINE_BYTES as u64 + 1, "read stopped at the bound");
        assert!(t.line.len() <= MAX_CSV_LINE_BYTES + 1, "line buffer held {}", t.line.len());
    }

    #[test]
    fn csv_parse_error_on_a_huge_field_quotes_a_short_prefix() {
        let mut line = String::from("1,");
        line.extend(std::iter::repeat_n('7', 1 << 20));
        line.push_str("z\n");
        let mut t = CsvTransport::new(Cursor::new(line.as_bytes()));
        let err = t.next(&mut Frame::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(message.len() < 200, "{} bytes: {}", message.len(), &message[..200.min(message.len())]);
        assert!(message.starts_with("CSV value \"7777"), "names the field: {message}");
    }
}
