//! Untrusted bytes: every format the engine reads back from a disk or a
//! socket, fed mutants of bytes the engine itself wrote, decodes to `Ok` or
//! to that format's typed error — never a panic, never an abort.
//!
//! The inputs are captured from the encoders: a WAL from a short history
//! whose `Checkpoint` carries deltas, a chunk file, one compressed block per
//! scheme, a DXchg message over I32/I64/F64/Str columns, the front door's
//! `RowBatch`, `Done` and `ErrorFrame` payloads, and a transport frame. The
//! mutants of each: single-bit flips (every bit of a small input, a seeded
//! sample of a large one), seeded byte sets, truncation at every length,
//! every four-byte window set to 0 and to `u32::MAX` (which covers every
//! length and count field wherever it sits), and zero-filled tails.
//!
//! WAL frames carry a CRC32 of their body, so on the WAL two more things
//! hold: every single-bit flip is caught (an error, or the records before
//! the flipped frame as a torn tail, never a record that was not written),
//! and a zero-filled tail replays every record. A red case prints the
//! input, the seed, the mutant and its bytes.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{ColumnData, DataType, Schema, StrVec, Value, VhError};
use vectorh_compress::{decode_column, encode_column, Scheme};
use vectorh_exec::Batch;
use vectorh_net::buffer::{deserialize, serialize};
use vectorh_server::wire;
use vectorh_storage::chunk::{encode_chunk, parse_header};
use vectorh_transport::frame::{encode, read_frame, Frame, FrameKind};
use vectorh_txn::{LogRecord, Wal};

/// Seeded bit flips on an input with more bits than this.
const MAX_FLIPS: usize = 4096;
/// Seeded byte sets per input.
const BYTE_SETS: usize = 256;
/// Longest zero-filled tail.
const MAX_ZERO_TAIL: usize = 16;

/// Every mutant of `bytes`, with a name that says where it came from;
/// `flip` says whether it is a single-bit flip.
fn for_each_mutant(bytes: &[u8], seed: u64, mut check: impl FnMut(&str, &[u8], bool)) {
    let mut rng = SplitMix64::new(seed);
    let mut m = bytes.to_vec();
    let bits = bytes.len() * 8;
    let flips: Vec<usize> = if bits <= MAX_FLIPS {
        (0..bits).collect()
    } else {
        (0..MAX_FLIPS)
            .map(|_| rng.next_bounded(bits as u64) as usize)
            .collect()
    };
    for bit in flips {
        m[bit / 8] ^= 1 << (bit % 8);
        check(&format!("bit {bit} flipped"), &m, true);
        m[bit / 8] ^= 1 << (bit % 8);
    }
    for _ in 0..BYTE_SETS.min(bytes.len()) {
        let at = rng.next_bounded(bytes.len() as u64) as usize;
        let v = rng.next_u64() as u8;
        m[at] = v;
        check(&format!("byte {at} set to {v:#04x}"), &m, false);
        m[at] = bytes[at];
    }
    for len in 0..bytes.len() {
        check(&format!("truncated to {len} bytes"), &bytes[..len], false);
    }
    for at in 0..bytes.len().saturating_sub(3) {
        for v in [0u32, u32::MAX] {
            m[at..at + 4].copy_from_slice(&v.to_le_bytes());
            check(&format!("u32 at {at} set to {v:#x}"), &m, false);
        }
        m[at..at + 4].copy_from_slice(&bytes[at..at + 4]);
    }
    for k in 1..=MAX_ZERO_TAIL.min(bytes.len()) {
        let mut tail = bytes.to_vec();
        tail.extend(std::iter::repeat_n(0, k));
        check(&format!("{k} zero bytes appended"), &tail, false);
        let mut zeroed = bytes.to_vec();
        let n = zeroed.len();
        zeroed[n - k..].fill(0);
        check(&format!("last {k} bytes zeroed"), &zeroed, false);
    }
}

/// Run `decode` on every mutant of `bytes`; it returns a description of
/// what it found wrong, if anything. A panic is wrong too.
fn fuzz(input: &str, bytes: &[u8], seed: u64, decode: impl Fn(&[u8], bool) -> Option<String>) {
    let mut cases = 0;
    for_each_mutant(bytes, seed, |what, mutant, flip| {
        cases += 1;
        let wrong = catch_unwind(AssertUnwindSafe(|| decode(mutant, flip)))
            .unwrap_or_else(|_| Some("panicked".into()));
        if let Some(wrong) = wrong {
            panic!("{input}, seed {seed:#x}, mutant \"{what}\": {wrong}\nbytes: {mutant:02x?}");
        }
    });
    assert!(cases > bytes.len(), "{input}: only {cases} mutants");
}

/// `Some` unless `got` is `Ok` or an error of the variant `typed` accepts.
fn typed<T>(got: Result<T, VhError>, typed: fn(&VhError) -> bool) -> Option<String> {
    match got {
        Err(e) if !typed(&e) => Some(format!("untyped error {e:?}")),
        _ => None,
    }
}

fn is_storage(e: &VhError) -> bool {
    matches!(e, VhError::Storage(_))
}

fn is_codec(e: &VhError) -> bool {
    matches!(e, VhError::Codec(_))
}

fn is_net(e: &VhError) -> bool {
    matches!(e, VhError::Net(_))
}

fn store() -> StoreRef {
    Arc::new(SimHdfs::new(
        3,
        BlockStoreConfig {
            block_size: 128,
            default_replication: 2,
        },
        Arc::new(DefaultPolicy::new(5)),
    ))
}

/// A short partition history: a transaction's deltas, its 2PC records, a
/// propagation (chunk rewrite, then a `Checkpoint` that carries deltas),
/// and a transaction after it.
fn history() -> Vec<Vec<LogRecord>> {
    let row = |n: i64| {
        vec![
            Value::I32(n as i32),
            Value::I64(n << 33),
            Value::Decimal(n * 100 + 7, 2),
            Value::Date(9000 + n as i32),
            Value::F64(n as f64 / 3.0),
            Value::Str(format!("row-{n}-é")),
            Value::Null,
        ]
    };
    vec![
        vec![
            LogRecord::TxnBegin { txn: 7 },
            LogRecord::Insert {
                txn: 7,
                rid: 3,
                tag: 1,
                values: row(1),
            },
            LogRecord::Modify {
                txn: 7,
                rid: 1,
                col: 5,
                value: Value::Str("changed".into()),
            },
            LogRecord::Delete { txn: 7, rid: 2 },
            LogRecord::Prepare { txn: 7 },
        ],
        vec![LogRecord::Commit { txn: 7, seq: 1 }],
        vec![
            LogRecord::ChunkRewriteBegin {
                chunk: 0,
                path: "/db/t/p0/chunk-00000001".into(),
            },
            LogRecord::ChunkRewritten { chunk: 0, rows: 64 },
            LogRecord::MinMax {
                chunk: 0,
                col: 1,
                min: Value::I64(-5),
                max: Value::I64(99),
            },
            LogRecord::Checkpoint {
                stable_rows: 64,
                carried: vec![
                    LogRecord::Delete { txn: 0, rid: 4 },
                    LogRecord::Modify {
                        txn: 0,
                        rid: 9,
                        col: 0,
                        value: Value::I32(-1),
                    },
                    LogRecord::Insert {
                        txn: 0,
                        rid: 64,
                        tag: 2,
                        values: row(2),
                    },
                ],
            },
        ],
        vec![
            LogRecord::TxnBegin { txn: 8 },
            LogRecord::Delete { txn: 8, rid: 0 },
            LogRecord::Abort { txn: 8 },
        ],
    ]
}

#[test]
fn wal_mutants_are_typed_and_every_bit_flip_is_caught() {
    let wal = Wal::new(store(), "/vectorh/wal/t0-p0.wal", None);
    let written: Vec<LogRecord> = history().concat();
    for batch in history() {
        wal.append(&batch).unwrap();
    }
    assert_eq!(wal.read_all().unwrap(), written);
    let bytes = wal.fs().read_all(wal.path(), None).unwrap();
    fuzz("WAL", &bytes, 0x3a1_0001, |mutant, flip| {
        wal.truncate().unwrap();
        wal.fs().append(wal.path(), mutant, None).unwrap();
        let read = wal.read_all();
        if let Some(wrong) = typed(wal.repair(), is_storage) {
            return Some(format!("repair: {wrong}"));
        }
        match read {
            Err(e) if !is_storage(&e) => Some(format!("untyped error {e:?}")),
            Ok(got) if flip && !(got.len() < written.len() && written.starts_with(&got)) => {
                Some(format!("a flipped bit read back as {got:?}"))
            }
            Ok(got) if mutant.starts_with(&bytes) && got != written => {
                Some(format!("a zero-filled tail lost records: {got:?}"))
            }
            _ => None,
        }
    });
}

#[test]
fn chunk_file_mutants_are_typed() {
    let columns = vec![
        ColumnData::I64((0..300).map(|i| i * 7 + 1_000).collect()),
        ColumnData::I32((0..300).map(|i| i % 5).collect()),
        ColumnData::F64((0..300).map(|i| i as f64 / 8.0).collect()),
        ColumnData::Str((0..300).map(|i| format!("s{}", i % 4)).collect()),
    ];
    let (bytes, _) = encode_chunk(&columns).unwrap();
    fuzz("chunk file", &bytes, 0x3a1_0002, |mutant, _| {
        let (_, offsets) = match parse_header(mutant, mutant.len() as u64) {
            Ok(parsed) => parsed,
            Err(e) => return typed(Err::<(), _>(e), is_storage),
        };
        offsets.windows(2).find_map(|w| {
            typed(
                decode_column(&mutant[w[0] as usize..w[1] as usize]),
                is_codec,
            )
        })
    });
}

#[test]
fn compressed_block_mutants_are_typed() {
    let mut rng = SplitMix64::new(0x3a1_0003);
    let blocks = [
        (
            Scheme::Pfor,
            ColumnData::I64((0..200).map(|_| rng.range_i64(0, 1_000)).collect()),
        ),
        (
            Scheme::PforDelta,
            ColumnData::I64((0..200).map(|i| 1_000_000 + i * 7).collect()),
        ),
        (
            Scheme::PdictI64,
            ColumnData::I64((0..200).map(|i| [0, 1 << 60, -42][i % 3]).collect()),
        ),
        (
            Scheme::PdictStr,
            ColumnData::Str(
                (0..200)
                    .map(|_| format!("category-{}", rng.next_bounded(5)))
                    .collect(),
            ),
        ),
        (
            Scheme::LzStr,
            ColumnData::Str((0..100).map(|i| format!("comment-{i:06}")).collect()),
        ),
        (
            Scheme::PlainF64,
            ColumnData::F64((0..100).map(|i| i as f64 * 0.25).collect()),
        ),
    ];
    for (i, (scheme, column)) in blocks.iter().enumerate() {
        let block = encode_column(column);
        assert_eq!(block.scheme, *scheme);
        fuzz(
            scheme.name(),
            &block.bytes,
            0x3a1_0010 + i as u64,
            |mutant, _| typed(decode_column(mutant), is_codec),
        );
    }
}

#[test]
fn dxchg_message_mutants_are_typed() {
    let schema = Arc::new(Schema::of(&[
        ("a", DataType::I32),
        ("b", DataType::I64),
        ("c", DataType::F64),
        ("d", DataType::Str),
    ]));
    let strs: StrVec = ["x", "", "héllo", "日本"].into();
    let batch = Batch::new(
        schema.clone(),
        vec![
            ColumnData::I32(vec![1, -2, 3, 4]),
            ColumnData::I64(vec![1 << 40, 0, -1, 9]),
            ColumnData::F64(vec![0.5, -1.5, 2.5, 0.0]),
            ColumnData::Str(strs),
        ],
    )
    .unwrap();
    let bytes = serialize(&batch);
    fuzz("DXchg message", &bytes, 0x3a1_0004, |mutant, _| {
        typed(deserialize(mutant, schema.clone()), is_net)
    });
}

#[test]
fn wire_payload_mutants_are_typed() {
    let rows = vec![
        vec![
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::Decimal(12345, 2),
            Value::Date(9000),
            Value::F64(2.5),
            Value::Str("héllo".into()),
            Value::Null,
        ],
        vec![],
        vec![Value::Str(String::new())],
    ];
    fuzz("RowBatch", &wire::encode_rows(&rows), 0x3a1_0005, |m, _| {
        typed(wire::decode_rows(m), is_net)
    });
    fuzz("Done", &wire::encode_done(42, 3), 0x3a1_0006, |m, _| {
        typed(wire::decode_done(m), is_net)
    });
    let busy = VhError::ServerBusy("queue full".into());
    fuzz(
        "ErrorFrame",
        &wire::encode_error(&busy, 37),
        0x3a1_0007,
        |m, _| typed(wire::decode_error(m), is_net),
    );
}

#[test]
fn transport_frame_mutants_are_refused_or_read() {
    let frame = Frame {
        kind: FrameKind::Data,
        from: 3,
        channel: 17,
        seq: 42,
        epoch: 7,
        payload: (0..64).collect(),
    };
    let bytes = encode(&frame);
    fuzz("transport frame", &bytes, 0x3a1_0008, |mutant, flip| {
        // A `DecodeError` is the frame's typed error; every flipped bit
        // fails the length check or the CRC.
        match read_frame(&mut Cursor::new(mutant)) {
            Ok(got) if flip => Some(format!("a flipped bit read back as {got:?}")),
            _ => None,
        }
    });
}
