//! Decoders of outside input return `Err`, never panic or overflow the
//! stack.
//!
//! Protocol frames, scenario specs (JSON and TOML) and journal lines all
//! arrive from outside the process. Each is fed hostile input here: a
//! value nested 200,000 levels deep (which used to abort the process
//! with a stack overflow), arbitrary bytes, and valid frame streams cut
//! at arbitrary read boundaries or with a corrupted byte.

use divrel::devsim::sweep::CellRange;
use divrel::numerics::wire::Wire;
use divrel_bench::dist::protocol::encode_frame;
use divrel_bench::dist::{Journal, JsonLines, Message};
use divrel_bench::Scenario;
use proptest::prelude::*;
use std::io::{ErrorKind, Read};

/// Nesting far past every parser's depth cap.
const DEEP: usize = 200_000;

fn transport(bytes: Vec<u8>) -> JsonLines {
    JsonLines::new(std::io::Cursor::new(bytes), std::io::sink())
}

#[test]
fn a_deeply_nested_json_frame_is_invalid_data() {
    let mut frame = "[".repeat(DEEP).into_bytes();
    frame.push(b'\n');
    let err = transport(frame).recv().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("nesting deeper"), "{err}");
}

#[test]
fn deeply_nested_specs_are_rejected_in_both_formats() {
    let json = format!("{{\"name\": {}", "[".repeat(DEEP));
    let toml = format!("name = {}", "[".repeat(DEEP));
    for spec in [json, toml] {
        let err = Scenario::from_spec_text(&spec).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }
}

#[test]
fn spec_shape_errors_claim_no_byte_offset() {
    // A well-formed document of the wrong shape has no position in the
    // text to point at; it must not claim byte 0.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/tree_2oo3.toml");
    let text = std::fs::read_to_string(path).expect("committed spec exists");
    assert!(text.contains("\nseed = 4242\n"));
    let shape = text.replace("\nseed = 4242\n", "\nseed = \"x\"\n");
    let err = Scenario::from_spec_text(&shape).unwrap_err().to_string();
    assert!(err.contains("expected number"), "{err}");
    assert!(!err.contains("at byte"), "{err}");
    // Syntax errors still say where parsing stopped.
    let syntax = text.replace("\nseed = 4242\n", "\nseed = \n");
    let err = Scenario::from_spec_text(&syntax).unwrap_err().to_string();
    assert!(err.contains("at byte"), "{err}");
}

#[test]
fn a_deeply_nested_journal_line_is_an_error_or_a_torn_tail() {
    let path =
        std::env::temp_dir().join(format!("divrel-deep-journal-{}.ndjson", std::process::id()));
    let hash = "fnv1a:0000000000000001";
    let cell = Wire::record([("n", Wire::U64(1))]);
    let mut j = Journal::create(&path, hash, 4).unwrap();
    for start in 0..2 {
        j.append(
            CellRange::new(start, start + 1),
            std::slice::from_ref(&cell),
        )
        .unwrap();
    }
    drop(j);
    let valid = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = valid.lines().collect();
    let deep = format!("{{\"range\": {}", "[".repeat(DEEP));
    let write = |deep_at_end: bool| {
        let mut text = vec![lines[0], lines[1], &deep];
        if !deep_at_end {
            text.push(lines[2]);
        }
        std::fs::write(&path, text.join("\n") + "\n").unwrap();
    };

    // Mid-file, the deep line is a corrupt record.
    write(false);
    let err = Journal::resume(&path, hash, 4).unwrap_err();
    assert!(err.to_string().contains("nesting deeper"), "{err}");

    // As the last line it is indistinguishable from a torn write: dropped.
    write(true);
    let (_, load) = Journal::resume(&path, hash, 4).unwrap();
    assert!(load.torn_tail);
    assert_eq!(load.records, 1);
    let _ = std::fs::remove_file(&path);
}

/// Hands out the stream in the chunk sizes of `splits`, cycling.
struct SplitReader {
    data: Vec<u8>,
    at: usize,
    splits: Vec<usize>,
    next: usize,
}

impl Read for SplitReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.splits[self.next % self.splits.len()];
        self.next += 1;
        let n = step.min(self.data.len() - self.at).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

fn split_transport(data: Vec<u8>, splits: Vec<usize>) -> JsonLines {
    JsonLines::new(
        SplitReader {
            data,
            at: 0,
            splits,
            next: 0,
        },
        std::io::sink(),
    )
}

/// Receives until EOF or the first error, the way the coordinator's
/// frame pump does. Every call must return; the count bounds a reader
/// that stops making progress.
fn drain(t: &mut JsonLines) -> (Vec<Message>, Option<std::io::Error>) {
    let mut got = Vec::new();
    for _ in 0..10_000 {
        match t.recv() {
            Ok(Some(msg)) => got.push(msg),
            Ok(None) => return (got, None),
            Err(e) => return (got, Some(e)),
        }
    }
    panic!("recv neither reached EOF nor failed after 10000 frames");
}

/// One message of every shape, drawn from `(kind, a, b)`: JSON control
/// frames interleaved with binary `Result` frames.
fn message((kind, a, b): (u32, u64, u64)) -> Message {
    match kind {
        0 => Message::Lease { start: a, end: b },
        1 => Message::Progress {
            start: a,
            end: b,
            done: a ^ b,
        },
        2 => Message::Ready {
            hash: format!("fnv1a:{a:016x}"),
        },
        3 => Message::Abort {
            reason: format!("cell {a} failed:\n\t«{b}»"),
        },
        4 => Message::Spec {
            hash: format!("fnv1a:{b:016x}"),
            text: format!("name = \"x\"\n[seed]\nseed = {a}\n"),
        },
        5 => Message::Done,
        _ => Message::Result {
            start: a,
            end: b,
            cells: (0..b % 4)
                .map(|i| {
                    Wire::record([
                        ("n", Wire::U64(a.wrapping_add(i))),
                        // With the lowest exponent bit cleared the
                        // exponent is never all ones: no NaN, so `==`
                        // compares the exact bits.
                        ("x", Wire::F64(f64::from_bits(b & 0x7fef_ffff_ffff_ffff))),
                        (
                            "tags",
                            Wire::List(vec![Wire::Text("mc".into()); i as usize]),
                        ),
                    ])
                })
                .collect(),
        },
    }
}

fn stream(msgs: &[Message]) -> Vec<u8> {
    msgs.iter().flat_map(|m| encode_frame(m).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        splits in proptest::collection::vec(1usize..64, 1..8),
    ) {
        drain(&mut split_transport(bytes, splits));
    }

    #[test]
    fn valid_mixed_streams_survive_any_read_split(
        parts in proptest::collection::vec((0u32..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..12),
        splits in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let msgs: Vec<Message> = parts.into_iter().map(message).collect();
        let (got, err) = drain(&mut split_transport(stream(&msgs), splits));
        prop_assert!(err.is_none(), "valid stream failed: {:?}", err);
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn corrupted_or_truncated_streams_never_panic_the_reader(
        parts in proptest::collection::vec((0u32..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..8),
        (flip_at, flip_to, cut) in (0usize..4096, 0u8..=255, 0usize..4096),
        splits in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let msgs: Vec<Message> = parts.into_iter().map(message).collect();
        let mut bytes = stream(&msgs);
        let len = bytes.len();
        bytes[flip_at % len] = flip_to;
        bytes.truncate(cut % (len + 1));
        drain(&mut split_transport(bytes, splits));
    }
}
