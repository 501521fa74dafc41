//! Write-ahead logging on the (append-only) simulated HDFS.
//!
//! Vectorwise used one global WAL; VectorH splits it (§6): each table
//! partition gets its own WAL, read at startup and written at commit only by
//! the partition's responsible node, so PDT memory is distributed. A small
//! global WAL holds 2PC decisions and DDL; each decision also carries the
//! participants' update records, so it is the one record a commit forces
//! (see `twophase`). HDFS being append-only is no obstacle — a log only
//! ever appends. The WAL also persists MinMax summaries, which VectorH
//! deliberately stores *away* from the data files.

use vectorh_blockstore::{BlockStore, StoreRef};
use vectorh_common::bytes::{crc32, put_bytes, put_value, Format, Reader};
use vectorh_common::fault::{FaultAction, FaultSite};
use vectorh_common::{NodeId, PartitionId, Result, Value, VhError};

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A transaction's update batch for this partition begins.
    TxnBegin {
        txn: u64,
    },
    Insert {
        txn: u64,
        rid: u64,
        tag: u64,
        values: Vec<Value>,
    },
    Delete {
        txn: u64,
        rid: u64,
    },
    Modify {
        txn: u64,
        rid: u64,
        col: u32,
        value: Value,
    },
    /// Direct bulk append of `rows` rows (bypassing PDTs).
    Append {
        txn: u64,
        rows: u64,
    },
    /// Local commit mark (participant side of 2PC).
    Commit {
        txn: u64,
        seq: u64,
    },
    Abort {
        txn: u64,
    },
    /// 2PC participant prepared.
    Prepare {
        txn: u64,
    },
    /// 2PC coordinator decision (global WAL only), the commit point. It
    /// carries each participant's update records, keyed by partition in
    /// `PartitionId` order, because the partition WALs are not forced at
    /// commit: recovery restores a partition tail a power loss cut from
    /// here.
    GlobalCommit {
        txn: u64,
        payload: Vec<(PartitionId, Vec<LogRecord>)>,
    },
    /// Propagation's commit point: the stable image now holds
    /// `stable_rows` rows, and records before this one are obsolete. The
    /// deltas the run left pending (chunks too sparse to fold) travel inside
    /// the record as positional `Insert`/`Delete`/`Modify` records in the
    /// new image's coordinates, so one append commits the image and the
    /// deltas that sit on it.
    Checkpoint {
        stable_rows: u64,
        carried: Vec<LogRecord>,
    },
    /// MinMax summary for (chunk, column) — stored in the WAL, not the data.
    MinMax {
        chunk: u32,
        col: u32,
        min: Value,
        max: Value,
    },
    /// Opaque DDL statement (global WAL).
    Ddl {
        statement: String,
    },
    /// Session-master election result (global WAL only): `node` holds the
    /// master role as of `epoch`. Commits at earlier epochs are fenced.
    MasterEpoch {
        epoch: u64,
        node: u64,
    },
    /// Chunk-level propagation: a rewrite of `chunk` is about to write its
    /// replacement image at `path`. Until the matching `ChunkRewritten`
    /// lands, `path` may hold a partial image — recovery treats the old
    /// chunk file (still present, never deleted before the `Checkpoint`)
    /// as the authoritative one.
    ChunkRewriteBegin {
        chunk: u32,
        path: String,
    },
    /// Chunk-level propagation: the replacement image for `chunk` is fully
    /// written (`rows` rows). The swap still only takes effect at the
    /// propagation's closing `Checkpoint` — without it, recovery keeps the
    /// old image and replays the PDT on top.
    ChunkRewritten {
        chunk: u32,
        rows: u64,
    },
}

/// How a WAL reports bytes it cannot read.
const WAL: Format = Format {
    error: VhError::Storage,
    truncated: "truncated WAL record",
};

/// A record tag, then little-endian `u64` fields.
fn put_u64s(out: &mut Vec<u8>, tag: u8, fields: &[u64]) {
    out.push(tag);
    for f in fields {
        out.extend(f.to_le_bytes());
    }
}

impl LogRecord {
    /// A positional update (`Insert`, `Delete`, `Modify`): what replay
    /// applies to a PDT.
    pub fn is_delta(&self) -> bool {
        matches!(
            self,
            LogRecord::Insert { .. } | LogRecord::Delete { .. } | LogRecord::Modify { .. }
        )
    }

    /// A record of a transaction's update batch (`TxnBegin`, a delta, or
    /// `Append`): what a participant logs before its `Prepare`, and what a
    /// decision may carry.
    pub fn is_update(&self) -> bool {
        self.is_delta() || matches!(self, LogRecord::TxnBegin { .. } | LogRecord::Append { .. })
    }

    /// Serialize one record (without the length frame).
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::TxnBegin { txn } => put_u64s(out, 0, &[*txn]),
            LogRecord::Insert {
                txn,
                rid,
                tag,
                values,
            } => {
                put_u64s(out, 1, &[*txn, *rid, *tag]);
                out.extend((values.len() as u32).to_le_bytes());
                for v in values {
                    put_value(out, v);
                }
            }
            LogRecord::Delete { txn, rid } => put_u64s(out, 2, &[*txn, *rid]),
            LogRecord::Modify {
                txn,
                rid,
                col,
                value,
            } => {
                put_u64s(out, 3, &[*txn, *rid]);
                out.extend(col.to_le_bytes());
                put_value(out, value);
            }
            LogRecord::Append { txn, rows } => put_u64s(out, 4, &[*txn, *rows]),
            LogRecord::Commit { txn, seq } => put_u64s(out, 5, &[*txn, *seq]),
            LogRecord::Abort { txn } => put_u64s(out, 6, &[*txn]),
            LogRecord::Prepare { txn } => put_u64s(out, 7, &[*txn]),
            LogRecord::GlobalCommit { txn, payload } => {
                put_u64s(out, 8, &[*txn]);
                out.extend((payload.len() as u32).to_le_bytes());
                for (pid, records) in payload {
                    out.extend(pid.0.to_le_bytes());
                    put_records(out, records);
                }
            }
            LogRecord::Checkpoint {
                stable_rows,
                carried,
            } => {
                put_u64s(out, 9, &[*stable_rows]);
                put_records(out, carried);
            }
            LogRecord::MinMax {
                chunk,
                col,
                min,
                max,
            } => {
                out.push(10);
                out.extend(chunk.to_le_bytes());
                out.extend(col.to_le_bytes());
                put_value(out, min);
                put_value(out, max);
            }
            LogRecord::Ddl { statement } => {
                out.push(11);
                put_bytes(out, statement.as_bytes());
            }
            LogRecord::MasterEpoch { epoch, node } => put_u64s(out, 12, &[*epoch, *node]),
            LogRecord::ChunkRewriteBegin { chunk, path } => {
                out.push(13);
                out.extend(chunk.to_le_bytes());
                put_bytes(out, path.as_bytes());
            }
            LogRecord::ChunkRewritten { chunk, rows } => {
                out.push(14);
                out.extend(chunk.to_le_bytes());
                out.extend(rows.to_le_bytes());
            }
        }
    }

    fn decode(rd: &mut Reader) -> Result<LogRecord> {
        Ok(match rd.u8()? {
            0 => LogRecord::TxnBegin { txn: rd.u64()? },
            1 => {
                let txn = rd.u64()?;
                let rid = rd.u64()?;
                let tag = rd.u64()?;
                // A value takes at least its tag byte.
                let n = rd.u32()? as usize;
                let n = rd.count(n, 1)?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(rd.value()?);
                }
                LogRecord::Insert {
                    txn,
                    rid,
                    tag,
                    values,
                }
            }
            2 => LogRecord::Delete {
                txn: rd.u64()?,
                rid: rd.u64()?,
            },
            3 => LogRecord::Modify {
                txn: rd.u64()?,
                rid: rd.u64()?,
                col: rd.u32()?,
                value: rd.value()?,
            },
            4 => LogRecord::Append {
                txn: rd.u64()?,
                rows: rd.u64()?,
            },
            5 => LogRecord::Commit {
                txn: rd.u64()?,
                seq: rd.u64()?,
            },
            6 => LogRecord::Abort { txn: rd.u64()? },
            7 => LogRecord::Prepare { txn: rd.u64()? },
            8 => {
                let txn = rd.u64()?;
                // A participant takes at least its id and its record count.
                let n = rd.u32()? as usize;
                let n = rd.count(n, 8)?;
                let mut payload = Vec::with_capacity(n);
                for _ in 0..n {
                    let pid = PartitionId(rd.u32()?);
                    let records = get_records(rd, LogRecord::is_update, "a non-update")?;
                    payload.push((pid, records));
                }
                LogRecord::GlobalCommit { txn, payload }
            }
            9 => LogRecord::Checkpoint {
                stable_rows: rd.u64()?,
                carried: get_records(rd, LogRecord::is_delta, "a non-delta")?,
            },
            10 => LogRecord::MinMax {
                chunk: rd.u32()?,
                col: rd.u32()?,
                min: rd.value()?,
                max: rd.value()?,
            },
            11 => LogRecord::Ddl {
                statement: rd.str()?.to_string(),
            },
            12 => LogRecord::MasterEpoch {
                epoch: rd.u64()?,
                node: rd.u64()?,
            },
            13 => LogRecord::ChunkRewriteBegin {
                chunk: rd.u32()?,
                path: rd.str()?.to_string(),
            },
            14 => LogRecord::ChunkRewritten {
                chunk: rd.u32()?,
                rows: rd.u64()?,
            },
            t => return Err(VhError::Storage(format!("bad WAL record tag {t}"))),
        })
    }
}

/// Frame `r` in place at the end of `out`: a `u32` length, patched once the
/// body is encoded behind it. Returns where the body starts.
fn put_framed(out: &mut Vec<u8>, r: &LogRecord) -> usize {
    let at = out.len();
    out.extend([0; 4]);
    r.encode(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    at + 4
}

/// Records nested in another record: a `u32` count, then each framed.
fn put_records(out: &mut Vec<u8>, records: &[LogRecord]) {
    out.extend((records.len() as u32).to_le_bytes());
    for r in records {
        put_framed(out, r);
    }
}

/// The inverse of `put_records`; a nested record `allowed` refuses (one
/// `kind` of record) is corruption.
fn get_records(
    rd: &mut Reader,
    allowed: fn(&LogRecord) -> bool,
    kind: &str,
) -> Result<Vec<LogRecord>> {
    // A nested record takes at least its length and its tag.
    let n = rd.u32()? as usize;
    let n = rd.count(n, 5)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let r = LogRecord::decode(&mut Reader::new(rd.bytes()?, &WAL))?;
        if !allowed(&r) {
            return Err(VhError::Storage(format!("carried {kind} record {r:?}")));
        }
        records.push(r);
    }
    Ok(records)
}

/// Encode a record in the on-disk WAL format for network shipping —
/// §6: "the log actions sent over the network use the same format as in
/// the on-disk transaction log".
pub fn encode_for_shipping(record: &LogRecord, out: &mut Vec<u8>) {
    record.encode(out);
}

/// A partition log as recovery reads it: the last checkpoint's stable row
/// count and carried deltas, then every record after it, in log order.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    pub stable_rows: u64,
    pub carried: Vec<LogRecord>,
    pub tail: Vec<LogRecord>,
}

/// A write-ahead log backed by one append-only block-store file.
pub struct Wal {
    fs: StoreRef,
    path: String,
    /// The responsible node: all WAL IO is issued from here. Interior-mutable
    /// so failover can move a shared (`Arc`'d) WAL to its new owner.
    home: vectorh_common::sync::RwLock<Option<NodeId>>,
}

/// Is this a record that recovery cannot rebuild from other forced
/// records? A batch holding one gets an fsync before the append returns:
///
/// * `GlobalCommit` — the 2PC commit point (§6), carrying the
///   participants' update records;
/// * `Checkpoint` — propagation swaps chunk images on the strength of it;
/// * `MasterEpoch` — the fence a new master promises to honour.
///
/// Everything else is flushed to the OS and becomes durable with the next
/// forced record on the same file. That includes a participant's update
/// records and its `Prepare` vote: the decision holds a copy of the records
/// (the coordinator log of Stamos & Cristian), and recovery re-appends from
/// it what a power loss cut from a partition WAL. It includes the phase-2
/// verdicts, `Commit` and `Abort`, too: recovery rebuilds each from the
/// presence or absence of the transaction's `GlobalCommit` in the global
/// WAL (presumed commit, R\*).
///
/// The invariant this rests on: every `Prepare` and `Commit` the engine
/// writes for a committed transaction follows a durable `GlobalCommit` that
/// carries the same records, and the global WAL keeps that payload until a
/// later forced `Checkpoint` of every partition it names has made it
/// garbage (`GlobalWal::checkpointed`). Anything that ever persists another
/// record as its own commit point must `sync` itself.
fn has_commit_point(record: &LogRecord) -> bool {
    matches!(
        record,
        LogRecord::GlobalCommit { .. }
            | LogRecord::Checkpoint { .. }
            | LogRecord::MasterEpoch { .. }
    )
}

/// The one walk over a log's frames, `[len u32][body][crc32 u32]` each:
/// every good frame's body, in order, and the byte offset where they end.
///
/// A frame fails when its length is 0, it runs past the end of the file,
/// or its CRC does not match its body. One that runs past the end, or after
/// whose end only zero bytes follow, is a torn tail (a crash mid-append, or
/// a file system that extended the file before its data landed) and ends
/// the walk; any other is corruption.
fn frames<'a>(path: &str, bytes: &'a [u8]) -> Result<(Vec<&'a [u8]>, usize)> {
    let mut bodies = Vec::new();
    let mut end = 0;
    while end < bytes.len() {
        let mut r = Reader::new(&bytes[end..], &WAL);
        let (Ok(body), Ok(crc)) = (r.bytes(), r.u32()) else {
            break;
        };
        if body.is_empty() || crc32(body) != crc {
            if bytes[end + r.pos()..].iter().any(|&b| b != 0) {
                return Err(VhError::Storage(format!(
                    "corrupt WAL frame at byte {end} of {path}"
                )));
            }
            break;
        }
        bodies.push(body);
        end += r.pos();
    }
    Ok((bodies, end))
}

impl Wal {
    pub fn new(fs: StoreRef, path: impl Into<String>, home: Option<NodeId>) -> Wal {
        Wal {
            fs,
            path: path.into(),
            home: vectorh_common::sync::RwLock::new(home),
        }
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// The filesystem this WAL writes through (carries the fault hook).
    pub fn fs(&self) -> &StoreRef {
        &self.fs
    }

    /// The node currently issuing this WAL's IO.
    pub fn home(&self) -> Option<NodeId> {
        *self.home.read()
    }

    pub fn set_home(&self, home: Option<NodeId>) {
        *self.home.write() = home;
    }

    /// Append records (length-framed) and flush to HDFS. Each frame is
    /// encoded in place in one buffer for the whole batch, its length and
    /// CRC written behind it.
    ///
    /// Consults the filesystem's fault hook at [`FaultSite::WalAppend`]:
    /// `CrashBefore` loses the whole batch, `CrashMid` persists a torn final
    /// frame (dropping the last byte cuts the final frame's CRC short, so
    /// exactly one record tears), `CrashAfter` persists everything. All
    /// three surface as `Err` — the "process" died before acknowledging.
    ///
    /// Durability: if the batch carries a record recovery cannot rebuild
    /// (`GlobalCommit`, `Checkpoint`, `MasterEpoch`; see
    /// `has_commit_point`), the file is [`sync`](BlockStore::sync)ed after
    /// the append, so the promise survives an OS crash before anyone acts on
    /// it. Any other batch — a participant's records and `Prepare`, the
    /// phase-2 `Commit` and `Abort` — is flushed to the OS only: a power
    /// loss may cut the log back to the last forced record, and recovery
    /// restores what it cut from the global decision. Crash injections skip
    /// the sync — a process that died mid-append never reached its fsync,
    /// which is exactly the torn-tail state recovery must repair.
    pub fn append<'a>(&self, records: impl IntoIterator<Item = &'a LogRecord>) -> Result<()> {
        let mut buf = Vec::new();
        let mut forced = false;
        for r in records {
            let body = put_framed(&mut buf, r);
            let crc = crc32(&buf[body..]);
            buf.extend(crc.to_le_bytes());
            forced |= has_commit_point(r);
        }
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(hook) = self.fs.fault_hook() {
            let crashed = |what: &str| {
                Err(VhError::Storage(format!(
                    "injected crash {what} WAL append to {}",
                    self.path
                )))
            };
            match hook.decide(FaultSite::WalAppend, &self.path, 0) {
                FaultAction::CrashBefore => return crashed("before"),
                FaultAction::CrashMid => {
                    self.fs
                        .append(&self.path, &buf[..buf.len() - 1], self.home())?;
                    return crashed("during");
                }
                FaultAction::CrashAfter => {
                    self.fs.append(&self.path, &buf, self.home())?;
                    return crashed("after");
                }
                _ => {}
            }
        }
        self.fs.append(&self.path, &buf, self.home())?;
        if forced {
            self.sync()?;
        }
        Ok(())
    }

    /// Make everything appended so far survive an OS crash.
    pub fn sync(&self) -> Result<()> {
        self.fs.sync(&self.path)
    }

    /// Read the whole log back (recovery/startup).
    ///
    /// A torn final frame (crash mid-append) is truncated away, not an
    /// error: the record was never acknowledged, so discarding it is the
    /// correct recovery semantics. A failing frame with non-zero bytes after it
    /// is corruption, a `VhError::Storage` naming the file and the byte
    /// offset (see `frames`). Replay itself is a fault site
    /// ([`FaultSite::WalReplay`]) so recovery-time IO failures are testable.
    pub fn read_all(&self) -> Result<Vec<LogRecord>> {
        if !self.fs.exists(&self.path) {
            return Ok(vec![]);
        }
        self.fs.consult_fault(FaultSite::WalReplay, &self.path)?;
        let bytes = self.fs.read_all(&self.path, self.home())?;
        let (bodies, _) = frames(&self.path, &bytes)?;
        bodies
            .into_iter()
            .map(|body| LogRecord::decode(&mut Reader::new(body, &WAL)))
            .collect()
    }

    /// Crash-recovery log repair: scan the frame structure and cut away a
    /// torn tail left by a crash mid-append. [`read_all`](Self::read_all)
    /// tolerates a torn *final* frame, but appending again after one would
    /// shift every later frame boundary — so recovery must repair the log
    /// before it is written to again. Returns the number of bytes trimmed;
    /// a corrupt log (see `frames`) is an error, and nothing is cut.
    ///
    /// The cut is made in place ([`BlockStore::truncate`]) and then synced,
    /// so no step of the repair ever holds less than the good prefix.
    pub fn repair(&self) -> Result<u64> {
        if !self.fs.exists(&self.path) {
            return Ok(0);
        }
        let bytes = self.fs.read_all(&self.path, self.home())?;
        let (_, end) = frames(&self.path, &bytes)?;
        let torn = (bytes.len() - end) as u64;
        if torn > 0 {
            self.fs.truncate(&self.path, end as u64)?;
            self.sync()?;
        }
        Ok(torn)
    }

    /// The last checkpoint and the records after it: what recovery
    /// replays.
    pub fn read_replay(&self) -> Result<Replay> {
        let mut all = self.read_all()?;
        let Some(at) = all
            .iter()
            .rposition(|r| matches!(r, LogRecord::Checkpoint { .. }))
        else {
            return Ok(Replay {
                stable_rows: 0,
                carried: Vec::new(),
                tail: all,
            });
        };
        let tail = all.split_off(at + 1);
        let Some(LogRecord::Checkpoint {
            stable_rows,
            carried,
        }) = all.pop()
        else {
            unreachable!("rposition found a checkpoint at {at}")
        };
        Ok(Replay {
            stable_rows,
            carried,
            tail,
        })
    }

    /// Records after the last checkpoint, plus the checkpointed stable row
    /// count.
    pub fn read_since_checkpoint(&self) -> Result<(u64, Vec<LogRecord>)> {
        let r = self.read_replay()?;
        Ok((r.stable_rows, r.tail))
    }

    /// Delete the backing file (after a destructive checkpoint rewrite).
    pub fn truncate(&self) -> Result<()> {
        if self.fs.exists(&self.path) {
            self.fs.delete(&self.path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs};

    fn wal() -> Wal {
        let fs: StoreRef = Arc::new(SimHdfs::new(
            3,
            BlockStoreConfig {
                block_size: 128,
                default_replication: 2,
            },
            Arc::new(DefaultPolicy::new(5)),
        ));
        Wal::new(fs, "/vectorh/wal/t0-p0.wal", Some(NodeId(1)))
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin { txn: 7 },
            LogRecord::Insert {
                txn: 7,
                rid: 3,
                tag: 100,
                values: vec![
                    Value::I64(5),
                    Value::Str("hello".into()),
                    Value::Decimal(125, 2),
                    Value::Date(9000),
                    Value::F64(1.5),
                    Value::Null,
                ],
            },
            LogRecord::Delete { txn: 7, rid: 9 },
            LogRecord::Modify {
                txn: 7,
                rid: 2,
                col: 1,
                value: Value::Str("x".into()),
            },
            LogRecord::Append { txn: 7, rows: 500 },
            LogRecord::Prepare { txn: 7 },
            LogRecord::Commit { txn: 7, seq: 42 },
            LogRecord::GlobalCommit {
                txn: 7,
                payload: vec![
                    (
                        PartitionId(3),
                        vec![
                            LogRecord::TxnBegin { txn: 7 },
                            LogRecord::Delete { txn: 7, rid: 9 },
                            LogRecord::Modify {
                                txn: 7,
                                rid: 2,
                                col: 1,
                                value: Value::Str("x".into()),
                            },
                        ],
                    ),
                    (PartitionId(8), vec![LogRecord::Append { txn: 7, rows: 2 }]),
                ],
            },
            LogRecord::Abort { txn: 8 },
            LogRecord::MinMax {
                chunk: 1,
                col: 2,
                min: Value::I64(-5),
                max: Value::I64(99),
            },
            LogRecord::Ddl {
                statement: "CREATE TABLE t (x int)".into(),
            },
            LogRecord::MasterEpoch { epoch: 3, node: 2 },
            LogRecord::ChunkRewriteBegin {
                chunk: 2,
                path: "/db/t/p0/chunk-00000007".into(),
            },
            LogRecord::ChunkRewritten {
                chunk: 2,
                rows: 256,
            },
            LogRecord::Checkpoint {
                stable_rows: 1234,
                carried: vec![],
            },
            LogRecord::Checkpoint {
                stable_rows: 77,
                carried: vec![
                    LogRecord::Delete { txn: 0, rid: 4 },
                    LogRecord::Modify {
                        txn: 0,
                        rid: 9,
                        col: 0,
                        value: Value::Str("carried".into()),
                    },
                    LogRecord::Insert {
                        txn: 0,
                        rid: 76,
                        tag: 31,
                        values: vec![Value::I64(-1), Value::Null],
                    },
                ],
            },
        ]
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let w = wal();
        let records = sample_records();
        w.append(&records).unwrap();
        assert_eq!(w.read_all().unwrap(), records);
    }

    #[test]
    fn a_checkpoint_carries_only_deltas() {
        let w = wal();
        w.append(&[LogRecord::Checkpoint {
            stable_rows: 3,
            carried: vec![LogRecord::TxnBegin { txn: 1 }],
        }])
        .unwrap();
        let err = w.read_all().unwrap_err();
        assert!(err.to_string().contains("non-delta"), "got {err}");
    }

    #[test]
    fn a_decision_carries_only_update_records() {
        let w = wal();
        w.append(&[LogRecord::GlobalCommit {
            txn: 1,
            payload: vec![(PartitionId(0), vec![LogRecord::Prepare { txn: 1 }])],
        }])
        .unwrap();
        let err = w.read_all().unwrap_err();
        assert!(err.to_string().contains("non-update"), "got {err}");
    }

    #[test]
    fn only_commit_points_are_forced() {
        let w = wal();
        let fsyncs = || w.fs().stats().snapshot().fsync_ops;
        let before = fsyncs();
        // A participant's records and vote, and the phase-2 verdicts.
        w.append(&sample_records()[..7]).unwrap();
        w.append(&[LogRecord::Abort { txn: 8 }]).unwrap();
        assert_eq!(fsyncs(), before);
        for forced in [
            LogRecord::GlobalCommit {
                txn: 7,
                payload: vec![],
            },
            LogRecord::Checkpoint {
                stable_rows: 1,
                carried: vec![],
            },
            LogRecord::MasterEpoch { epoch: 2, node: 1 },
        ] {
            let n = fsyncs();
            w.append(&[LogRecord::TxnBegin { txn: 9 }, forced]).unwrap();
            assert_eq!(fsyncs(), n + 1);
        }
    }

    #[test]
    fn an_insert_value_count_past_its_record_is_refused_before_allocation() {
        let mut body = vec![1];
        for field in [7u64, 3, 100] {
            body.extend(field.to_le_bytes());
        }
        body.extend(u32::MAX.to_le_bytes());
        body.push(6); // one Null where four billion values were promised
        let err = LogRecord::decode(&mut Reader::new(&body, &WAL)).err();
        assert!(matches!(err, Some(VhError::Storage(_))), "{err:?}");
    }

    #[test]
    fn multiple_appends_accumulate() {
        let w = wal();
        w.append(&[LogRecord::TxnBegin { txn: 1 }]).unwrap();
        w.append(&[LogRecord::Commit { txn: 1, seq: 1 }]).unwrap();
        let all = w.read_all().unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn empty_wal_reads_empty() {
        let w = wal();
        assert!(w.read_all().unwrap().is_empty());
        assert_eq!(w.read_since_checkpoint().unwrap(), (0, vec![]));
    }

    #[test]
    fn checkpoint_splits_replay_tail() {
        let w = wal();
        w.append(&[
            LogRecord::TxnBegin { txn: 1 },
            LogRecord::Commit { txn: 1, seq: 1 },
            LogRecord::Checkpoint {
                stable_rows: 100,
                carried: vec![],
            },
            LogRecord::TxnBegin { txn: 2 },
        ])
        .unwrap();
        let (stable, tail) = w.read_since_checkpoint().unwrap();
        assert_eq!(stable, 100);
        assert_eq!(tail, vec![LogRecord::TxnBegin { txn: 2 }]);
    }

    #[test]
    fn truncate_removes_log() {
        let w = wal();
        w.append(&[LogRecord::TxnBegin { txn: 1 }]).unwrap();
        w.truncate().unwrap();
        assert!(w.read_all().unwrap().is_empty());
        w.truncate().unwrap(); // idempotent
    }

    #[test]
    fn wal_io_is_local_to_home_node() {
        let w = wal();
        w.append(&sample_records()).unwrap();
        {
            // fresh reader from home node: all reads short-circuit
            w.read_all().unwrap();
        };
    }

    /// Fires `action` once at `site`, then gets out of the way — models a
    /// crash-and-restart (the restarted process has no fault pending).
    #[derive(Debug)]
    struct OneShot {
        site: FaultSite,
        action: FaultAction,
        fired: std::sync::atomic::AtomicBool,
    }

    impl OneShot {
        fn install(w: &Wal, site: FaultSite, action: FaultAction) {
            w.fs().set_fault_hook(Some(Arc::new(OneShot {
                site,
                action,
                fired: Default::default(),
            })));
        }
    }

    impl vectorh_common::fault::FaultHook for OneShot {
        fn decide(&self, site: FaultSite, _detail: &str, _attempt: u32) -> FaultAction {
            if site == self.site && !self.fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
                self.action
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn crash_before_append_loses_whole_batch() {
        let w = wal();
        OneShot::install(&w, FaultSite::WalAppend, FaultAction::CrashBefore);
        assert!(w.append(&[LogRecord::TxnBegin { txn: 1 }]).is_err());
        assert!(w.read_all().unwrap().is_empty());
    }

    #[test]
    fn crash_mid_append_tears_only_the_last_frame() {
        let w = wal();
        OneShot::install(&w, FaultSite::WalAppend, FaultAction::CrashMid);
        assert!(w
            .append(&[
                LogRecord::TxnBegin { txn: 1 },
                LogRecord::Commit { txn: 1, seq: 9 },
            ])
            .is_err());
        // Recovery truncates the torn tail: the first record survives.
        assert_eq!(w.read_all().unwrap(), vec![LogRecord::TxnBegin { txn: 1 }]);
    }

    #[test]
    fn repair_cuts_torn_tail_so_later_appends_frame_correctly() {
        let w = wal();
        w.append(&[LogRecord::TxnBegin { txn: 1 }]).unwrap();
        OneShot::install(&w, FaultSite::WalAppend, FaultAction::CrashMid);
        assert!(w.append(&[LogRecord::Commit { txn: 1, seq: 0 }]).is_err());
        // Restart: recovery repairs the log, then new transactions append.
        assert!(w.repair().unwrap() > 0);
        assert_eq!(w.repair().unwrap(), 0, "repair is idempotent");
        w.append(&[LogRecord::TxnBegin { txn: 2 }]).unwrap();
        assert_eq!(
            w.read_all().unwrap(),
            vec![
                LogRecord::TxnBegin { txn: 1 },
                LogRecord::TxnBegin { txn: 2 }
            ]
        );
    }

    /// Replace the log's bytes with `f` of them.
    fn rewrite(w: &Wal, f: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = w.fs().read_all(w.path(), None).unwrap();
        f(&mut bytes);
        w.fs().delete(w.path()).unwrap();
        w.fs().append(w.path(), &bytes, None).unwrap();
    }

    #[test]
    fn a_zero_filled_tail_is_cut_and_every_record_replays() {
        let w = wal();
        let records = sample_records();
        w.append(&records).unwrap();
        // A file system that extended the file before the data landed.
        rewrite(&w, |b| b.extend([0; 16]));
        assert_eq!(w.read_all().unwrap(), records);
        assert_eq!(w.repair().unwrap(), 16);
        w.append(&[LogRecord::TxnBegin { txn: 9 }]).unwrap();
        assert_eq!(w.read_all().unwrap().len(), records.len() + 1);
    }

    /// Fails every block append, for good.
    #[derive(Debug)]
    struct NoAppends;

    impl vectorh_common::fault::FaultHook for NoAppends {
        fn decide(&self, site: FaultSite, _detail: &str, _attempt: u32) -> FaultAction {
            if site == FaultSite::HdfsAppend {
                FaultAction::PermanentError
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn repair_cuts_in_place_and_keeps_the_log_when_appends_fail() {
        let w = wal();
        let records: Vec<LogRecord> = (0..16).map(|txn| LogRecord::TxnBegin { txn }).collect();
        w.append(&records).unwrap();
        rewrite(&w, |b| b.extend([0; 16]));
        w.fs().set_fault_hook(Some(Arc::new(NoAppends)));
        assert_eq!(w.repair().unwrap(), 16);
        w.fs().set_fault_hook(None);
        assert_eq!(w.read_all().unwrap(), records);
        // The cut is durable: a power loss keeps every record.
        w.fs().simulate_os_crash();
        assert_eq!(w.read_all().unwrap(), records);
    }

    #[test]
    fn a_changed_byte_inside_an_insert_value_is_refused() {
        let w = wal();
        w.append(&[
            LogRecord::Insert {
                txn: 1,
                rid: 0,
                tag: 0,
                values: vec![Value::I64(5)],
            },
            LogRecord::Commit { txn: 1, seq: 1 },
        ])
        .unwrap();
        // The I64's low byte: length, record tag, three u64s, count, value tag.
        rewrite(&w, |b| b[4 + 1 + 24 + 4 + 1] = 7);
        let err = w.read_all().unwrap_err();
        assert!(
            matches!(&err, VhError::Storage(m) if m.contains("byte 0 of /vectorh/wal/t0-p0.wal")),
            "{err:?}"
        );
    }

    #[test]
    fn a_bad_frame_followed_by_good_frames_is_corruption_not_a_torn_tail() {
        let w = wal();
        w.append(&[LogRecord::TxnBegin { txn: 1 }]).unwrap();
        let second = w.fs().read_all(w.path(), None).unwrap().len();
        w.append(&[LogRecord::Commit { txn: 1, seq: 3 }]).unwrap();
        w.append(&[LogRecord::TxnBegin { txn: 2 }]).unwrap();
        // The second frame's `seq`: length, record tag, `txn`.
        rewrite(&w, |b| b[second + 4 + 1 + 8] ^= 0x10);
        let len = w.fs().read_all(w.path(), None).unwrap().len();
        for err in [w.read_all().unwrap_err(), w.repair().unwrap_err()] {
            assert!(
                matches!(&err, VhError::Storage(m) if m.contains(&format!("byte {second} of"))),
                "{err:?}"
            );
        }
        assert_eq!(
            w.fs().read_all(w.path(), None).unwrap().len(),
            len,
            "nothing cut"
        );
    }

    #[test]
    fn crash_after_append_is_durable() {
        let w = wal();
        let records = sample_records();
        OneShot::install(&w, FaultSite::WalAppend, FaultAction::CrashAfter);
        assert!(w.append(&records).is_err());
        // The write reached HDFS before the crash: everything replays.
        assert_eq!(w.read_all().unwrap(), records);
    }

    #[test]
    fn replay_fault_surfaces_as_error_then_recovers() {
        let w = wal();
        w.append(&[LogRecord::TxnBegin { txn: 4 }]).unwrap();
        OneShot::install(&w, FaultSite::WalReplay, FaultAction::PermanentError);
        assert!(w.read_all().is_err());
        // One-shot: the retried replay (fresh process) succeeds.
        assert_eq!(w.read_all().unwrap(), vec![LogRecord::TxnBegin { txn: 4 }]);
    }

    #[test]
    fn transient_replay_fault_is_retried_internally() {
        let w = wal();
        w.append(&[LogRecord::TxnBegin { txn: 5 }]).unwrap();
        OneShot::install(&w, FaultSite::WalReplay, FaultAction::TransientError);
        // The fs retry loop re-consults the hook; one-shot clears, so the
        // read succeeds without the caller seeing an error.
        assert_eq!(w.read_all().unwrap(), vec![LogRecord::TxnBegin { txn: 5 }]);
    }
}
