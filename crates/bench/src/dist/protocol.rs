//! The fleet's wire protocol: the [`Message`] frames, how each one looks
//! on the wire, and the one transport that reads and writes them.
//!
//! Every frame except [`Message::Result`] is a single-line JSON document
//! (externally tagged, like every spec type in the workspace) ended by
//! `\n`. Those frames are tiny, and keeping them readable keeps the
//! protocol debuggable with a terminal. `Result` frames carry the
//! accumulators — hex-encoded `f64` bit patterns and decimal counters
//! would inflate them several-fold in JSON — so they travel binary:
//!
//! ```text
//! 0x00  varint(payload_len)  payload
//! ```
//!
//! where the payload is `varint(start) varint(end) varint(cell_count)`
//! followed by each cell in [`Wire::encode_binary`] form (`f64` as raw
//! little-endian bits, `u64` as a varint). The `0x00` marker byte never
//! begins a JSON document, so the reader demultiplexes the two forms on
//! the first byte of each frame. Both forms carry the same
//! exact bits; the journal keeps storing JSON, because binary is a
//! transport encoding, not a storage format.
//!
//! A connection runs:
//!
//! ```text
//! worker → Join{protocol}
//! coord  → SpecHash{hash}
//! worker → NeedSpec{hash}      (only when the spec is not cached)
//! coord  → Spec{hash, text}
//! worker → Ready{hash}
//! coord  → Lease{start, end}   … worker → Progress… Result   (repeated)
//! coord  → Done                (or Abort from either side)
//! ```
//!
//! A peer whose `Join` names another [`PROTOCOL_VERSION`] is refused at
//! the handshake.
//!
//! Every decoder here returns `Err` on malformed input — truncated or
//! oversized binary frames, invalid UTF-8, JSON nested past the parser's
//! depth cap — and never panics: a frame is outside input.

use divrel_numerics::wire::{read_varint, write_varint, Wire, WireError};
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// The protocol revision this build speaks, announced in
/// [`Message::Join`]; a peer on any other revision is refused.
pub const PROTOCOL_VERSION: u64 = 3;

/// First byte of every binary frame. JSON frames start with a printable
/// character, so this byte is an unambiguous demultiplexer.
const BINARY_FRAME_MARKER: u8 = 0x00;

/// Hard cap on a binary frame's payload length (64 MiB). A corrupt or
/// hostile length prefix fails here instead of driving the receive
/// buffer to OOM.
const MAX_BINARY_PAYLOAD: u64 = 64 << 20;

/// One protocol frame, exchanged over any ordered byte stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator: first frame after connecting.
    Join {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Coordinator → worker: the committed spec, verbatim, plus its
    /// hash. The worker re-hashes the text and refuses a mismatch.
    Spec {
        /// [`spec_hash`](super::spec_hash) of `text`.
        hash: String,
        /// Canonical spec text (TOML).
        text: String,
    },
    /// Coordinator → worker: just the spec fingerprint. A worker that
    /// has already compiled this spec answers [`Message::Ready`] straight
    /// away; otherwise it answers [`Message::NeedSpec`] and the full
    /// [`Message::Spec`] follows — so a persistent worker parses and
    /// compiles each spec once per hash, not once per connection.
    SpecHash {
        /// [`spec_hash`](super::spec_hash) of the committed spec.
        hash: String,
    },
    /// Worker → coordinator: the spec behind `hash` is not cached; send
    /// the full [`Message::Spec`].
    NeedSpec {
        /// Echo of the requested hash.
        hash: String,
    },
    /// Worker → coordinator: spec parsed, validated and hash-checked;
    /// ready for leases.
    Ready {
        /// Echo of the verified hash.
        hash: String,
    },
    /// Coordinator → worker: evaluate cells `[start, end)`.
    Lease {
        /// First cell index of the lease.
        start: u64,
        /// One past the last cell index.
        end: u64,
    },
    /// Worker → coordinator: heartbeat while a lease runs — `done` of
    /// the lease's cells are evaluated so far. Resets the lease
    /// deadline; carries no data.
    Progress {
        /// Echo of the lease start.
        start: u64,
        /// Echo of the lease end.
        end: u64,
        /// Cells of the lease evaluated so far.
        done: u64,
    },
    /// Worker → coordinator: the lease's per-cell accumulators, in
    /// ascending cell order. The only binary frame.
    Result {
        /// Echo of the lease start.
        start: u64,
        /// Echo of the lease end.
        end: u64,
        /// One wire accumulator per cell of the lease.
        cells: Vec<Wire>,
    },
    /// Coordinator → worker: no more work; disconnect cleanly.
    Done,
    /// Either direction: a fatal error (spec mismatch, cell failure).
    /// Unlike a dropped connection, an abort is **not** retried — it
    /// means the work itself is broken, not the worker.
    Abort {
        /// Human-readable reason.
        reason: String,
    },
}

/// Encodes one frame exactly as it goes on the wire: a binary frame for
/// [`Message::Result`], a `\n`-terminated JSON line for everything else.
///
/// # Errors
///
/// `InvalidData` if the message cannot be rendered as JSON.
pub fn encode_frame(msg: &Message) -> std::io::Result<Vec<u8>> {
    if let Message::Result { start, end, cells } = msg {
        return Ok(encode_result_frame(*start, *end, cells));
    }
    let mut line = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?
        .into_bytes();
    line.push(b'\n');
    Ok(line)
}

/// Encodes a `Result` frame in the binary form, marker and length
/// prefix included.
fn encode_result_frame(start: u64, end: u64, cells: &[Wire]) -> Vec<u8> {
    let mut payload = Vec::new();
    write_varint(&mut payload, start);
    write_varint(&mut payload, end);
    write_varint(&mut payload, cells.len() as u64);
    for cell in cells {
        cell.encode_binary(&mut payload);
    }
    let mut frame = Vec::with_capacity(payload.len() + 11);
    frame.push(BINARY_FRAME_MARKER);
    write_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes a binary payload (marker and length prefix already stripped)
/// into its [`Message::Result`].
fn decode_result_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut pos = 0;
    let start = read_varint(payload, &mut pos)?;
    let end = read_varint(payload, &mut pos)?;
    let count = read_varint(payload, &mut pos)?;
    let remaining = (payload.len() - pos) as u64;
    if count > remaining {
        return Err(WireError(format!(
            "result frame claims {count} cells but only {remaining} bytes remain"
        )));
    }
    let mut cells = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (cell, used) = Wire::from_bytes_prefix(&payload[pos..])?;
        pos += used;
        cells.push(cell);
    }
    if pos != payload.len() {
        return Err(WireError(format!(
            "{} trailing bytes in binary result frame",
            payload.len() - pos
        )));
    }
    Ok(Message::Result { start, end, cells })
}

/// Like [`read_varint`] but distinguishes "buffer ended mid-varint"
/// (`None`) from a genuinely malformed varint (`Some(Err)`).
fn read_varint_partial(bytes: &[u8], pos: &mut usize) -> Option<Result<u64, WireError>> {
    let tail = &bytes[*pos..];
    let mut probe = 0usize;
    match read_varint(tail, &mut probe) {
        Ok(v) => {
            *pos += probe;
            Some(Ok(v))
        }
        // A u64 varint is at most 10 bytes; if the buffer ends before a
        // terminating byte within that window, we need more data.
        Err(_) if tail.len() < 10 && tail.iter().all(|b| b & 0x80 != 0) => None,
        Err(e) => Some(Err(e)),
    }
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// The writing half of [`JsonLines`]: one frame per call, flushed.
pub(crate) struct FrameWriter {
    inner: Box<dyn Write + Send>,
}

impl FrameWriter {
    pub(crate) fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.inner.write_all(&encode_frame(msg)?)?;
        self.inner.flush()
    }
}

/// The reading half of [`JsonLines`]. Unlike a plain `BufReader`
/// `read_line` loop, partially read frames survive a socket read
/// timeout: bytes accumulate in an internal buffer and a
/// `TimedOut`/`WouldBlock` error simply surfaces to the caller, who may
/// retry `recv` without losing framing.
pub(crate) struct FrameReader {
    inner: Box<dyn Read + Send>,
    pending: Vec<u8>,
}

impl FrameReader {
    pub(crate) fn recv(&mut self) -> std::io::Result<Option<Message>> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(Some(msg));
            }
            if !self.fill()? {
                if self.pending.is_empty() {
                    return Ok(None);
                }
                return Err(invalid("connection closed mid-frame"));
            }
        }
    }

    /// One read into the pending buffer. `Ok(false)` means clean EOF.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.pending.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Extracts one complete frame from the head of the pending buffer,
    /// or `None` if more bytes are needed.
    fn take_frame(&mut self) -> std::io::Result<Option<Message>> {
        loop {
            match self.pending.first() {
                // Blank-line noise between JSON frames.
                Some(b'\n') | Some(b'\r') => {
                    self.pending.remove(0);
                }
                Some(&BINARY_FRAME_MARKER) => return self.take_binary_frame(),
                Some(_) => {
                    let Some(pos) = self.pending.iter().position(|&b| b == b'\n') else {
                        return Ok(None);
                    };
                    let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                    line.pop();
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let line = String::from_utf8(line).map_err(|e| invalid(e.to_string()))?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    return serde_json::from_str(&line)
                        .map(Some)
                        .map_err(|e| invalid(e.to_string()));
                }
                None => return Ok(None),
            }
        }
    }

    /// Extracts the binary frame at the head of the pending buffer, or
    /// `None` while it is still incomplete (the length prefix itself may
    /// be split across reads).
    fn take_binary_frame(&mut self) -> std::io::Result<Option<Message>> {
        let mut pos = 1usize;
        let len = match read_varint_partial(&self.pending, &mut pos) {
            Some(Ok(len)) => len,
            Some(Err(e)) => return Err(invalid(e.0)),
            None => return Ok(None),
        };
        if len > MAX_BINARY_PAYLOAD {
            return Err(invalid(format!(
                "binary frame claims {len} bytes (cap {MAX_BINARY_PAYLOAD})"
            )));
        }
        let end = pos + len as usize;
        let Some(payload) = self.pending.get(pos..end) else {
            return Ok(None);
        };
        let msg = decode_result_payload(payload).map_err(|e| invalid(e.0))?;
        self.pending.drain(..end);
        Ok(Some(msg))
    }
}

/// The one transport a coordinator and a worker talk over: JSON-line
/// control frames and binary `Result` frames on any `(Read, Write)` pair
/// — a child process's stdout/stdin, a TCP stream cloned for reading, an
/// in-memory pipe in tests.
pub struct JsonLines {
    rx: FrameReader,
    tx: FrameWriter,
}

impl JsonLines {
    /// Wraps a read/write pair.
    pub fn new<R, W>(reader: R, writer: W) -> Self
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        JsonLines {
            rx: FrameReader {
                inner: Box::new(reader),
                pending: Vec::new(),
            },
            tx: FrameWriter {
                inner: Box::new(writer),
            },
        }
    }

    /// Sends one frame in its wire form (see [`encode_frame`]) and
    /// flushes it.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying stream.
    pub fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.tx.send(msg)
    }

    /// Receives the next frame; `None` on a cleanly closed stream.
    ///
    /// # Errors
    ///
    /// I/O errors (a `TimedOut`/`WouldBlock` error is retryable, with no
    /// partial frame lost); `InvalidData` for a malformed frame or a
    /// stream that closes mid-frame, after which the stream can no
    /// longer be trusted.
    pub fn recv(&mut self) -> std::io::Result<Option<Message>> {
        self.rx.recv()
    }

    /// Splits the transport into independently owned halves, so a
    /// reader thread can pump frames while the driver writes — the shape
    /// the coordinator's deadline machinery needs.
    pub(crate) fn split(self) -> (FrameWriter, FrameReader) {
        (self.tx, self.rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<Wire> {
        vec![
            Wire::record([("n", Wire::U64(u64::MAX)), ("mean", Wire::F64(1.0 / 3.0))]),
            Wire::record([("tag", Wire::Text("mc".into()))]),
        ]
    }

    fn reader(bytes: Vec<u8>) -> JsonLines {
        JsonLines::new(std::io::Cursor::new(bytes), std::io::sink())
    }

    #[test]
    fn messages_frame_and_round_trip() {
        let msgs = vec![
            Message::Join {
                protocol: PROTOCOL_VERSION,
            },
            Message::SpecHash {
                hash: "fnv1a:00".into(),
            },
            Message::NeedSpec {
                hash: "fnv1a:00".into(),
            },
            Message::Spec {
                hash: "fnv1a:00".into(),
                text: "name = \"x\"\n[seed]\nseed = 7\n".into(),
            },
            Message::Ready {
                hash: "fnv1a:00".into(),
            },
            Message::Lease { start: 3, end: 9 },
            Message::Progress {
                start: 3,
                end: 9,
                done: 4,
            },
            Message::Result {
                start: 3,
                end: 5,
                cells: sample_cells(),
            },
            Message::Done,
            Message::Abort {
                reason: "multi\nline\treason".into(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            let frame = encode_frame(m).unwrap();
            // Result is the one binary frame; every other frame is one
            // JSON line, newline-framed even with embedded \n.
            if matches!(m, Message::Result { .. }) {
                assert_eq!(frame[0], BINARY_FRAME_MARKER);
            } else {
                assert_eq!(frame.iter().filter(|&&b| b == b'\n').count(), 1);
                assert_eq!(frame.last(), Some(&b'\n'));
            }
            buf.extend(frame);
        }
        let mut t = reader(buf);
        for want in &msgs {
            assert_eq!(&t.recv().unwrap().unwrap(), want);
        }
        assert!(t.recv().unwrap().is_none());
    }

    /// A reader that alternates between yielding a few bytes and a
    /// `WouldBlock` error — the shape of a TCP stream with a read
    /// timeout.
    struct ChoppyReader {
        data: Vec<u8>,
        at: usize,
        step: usize,
        block_next: bool,
    }

    impl Read for ChoppyReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "try again"));
            }
            self.block_next = true;
            let n = self.step.min(self.data.len() - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_preserves_partial_frames_across_read_timeouts() {
        let msgs = [
            Message::Lease { start: 0, end: 100 },
            Message::Result {
                start: 0,
                end: 2,
                cells: sample_cells(),
            },
            Message::Progress {
                start: 0,
                end: 100,
                done: 42,
            },
        ];
        let data = msgs.iter().flat_map(|m| encode_frame(m).unwrap()).collect();
        let mut rx = JsonLines::new(
            ChoppyReader {
                data,
                at: 0,
                step: 3,
                block_next: false,
            },
            std::io::sink(),
        );
        let mut got = Vec::new();
        let mut blocks = 0;
        loop {
            match rx.recv() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock => blocks += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, msgs);
        assert!(blocks > 10, "choppy reader should have blocked repeatedly");
    }

    #[test]
    fn partial_binary_frames_wait_for_more_bytes() {
        let frame = encode_result_frame(0, 2, &sample_cells());
        for cut in 1..frame.len() {
            let err = reader(frame[..cut].to_vec()).recv().unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}");
            assert!(err.to_string().contains("mid-frame"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn corrupt_binary_frames_are_invalid_data() {
        // Oversized length prefix.
        let mut huge = vec![BINARY_FRAME_MARKER];
        write_varint(&mut huge, MAX_BINARY_PAYLOAD + 1);
        // Garbage payload of the declared length.
        let garbage = vec![BINARY_FRAME_MARKER, 4, 0xee, 0xee, 0xee, 0xee];
        // A bogus node tag inside an otherwise well-formed frame:
        // marker, 1-byte length, varints 0/1/1, then the first cell's
        // record tag at offset 5.
        let mut bad_tag = encode_result_frame(0, 1, &sample_cells()[..1]);
        assert_eq!(bad_tag[5], 0x05);
        bad_tag[5] = 0xff;
        for bytes in [huge, garbage, bad_tag] {
            let err = reader(bytes).recv().unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData);
        }
    }
}
