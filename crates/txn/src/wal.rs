//! Write-ahead logging on the (append-only) simulated HDFS.
//!
//! Vectorwise used one global WAL; VectorH splits it (§6): each table
//! partition gets its own WAL, read at startup and written at commit only by
//! the partition's responsible node, so PDT memory is distributed. A small
//! global WAL holds 2PC decisions and DDL. HDFS being append-only is no
//! obstacle — a log only ever appends. The WAL also persists MinMax
//! summaries, which VectorH deliberately stores *away* from the data files.

use vectorh_blockstore::{BlockStore, StoreRef};
use vectorh_common::fault::{FaultAction, FaultSite};
use vectorh_common::{NodeId, Result, Value, VhError};

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
    /// 2PC coordinator decision (global WAL only).
    GlobalCommit {
        txn: u64,
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

// --- manual binary (de)serialization ----------------------------------------

fn put_u32(v: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(v: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::I32(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Decimal(x, s) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
            out.push(*s);
        }
        Value::Date(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(4);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            put_u32(s.len() as u32, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Null => out.push(6),
    }
}

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| VhError::Storage("truncated WAL record".into()))?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::I32(i32::from_le_bytes(self.take(4)?.try_into().unwrap())),
            1 => Value::I64(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            2 => {
                let x = i64::from_le_bytes(self.take(8)?.try_into().unwrap());
                Value::Decimal(x, self.u8()?)
            }
            3 => Value::Date(i32::from_le_bytes(self.take(4)?.try_into().unwrap())),
            4 => Value::F64(f64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            5 => {
                let n = self.u32()? as usize;
                Value::Str(
                    String::from_utf8(self.take(n)?.to_vec())
                        .map_err(|_| VhError::Storage("bad WAL utf8".into()))?,
                )
            }
            6 => Value::Null,
            t => return Err(VhError::Storage(format!("bad value tag {t}"))),
        })
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

    /// Serialize one record (without the length frame).
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::TxnBegin { txn } => {
                out.push(0);
                put_u64(*txn, out);
            }
            LogRecord::Insert {
                txn,
                rid,
                tag,
                values,
            } => {
                out.push(1);
                put_u64(*txn, out);
                put_u64(*rid, out);
                put_u64(*tag, out);
                put_u32(values.len() as u32, out);
                for v in values {
                    put_value(v, out);
                }
            }
            LogRecord::Delete { txn, rid } => {
                out.push(2);
                put_u64(*txn, out);
                put_u64(*rid, out);
            }
            LogRecord::Modify {
                txn,
                rid,
                col,
                value,
            } => {
                out.push(3);
                put_u64(*txn, out);
                put_u64(*rid, out);
                put_u32(*col, out);
                put_value(value, out);
            }
            LogRecord::Append { txn, rows } => {
                out.push(4);
                put_u64(*txn, out);
                put_u64(*rows, out);
            }
            LogRecord::Commit { txn, seq } => {
                out.push(5);
                put_u64(*txn, out);
                put_u64(*seq, out);
            }
            LogRecord::Abort { txn } => {
                out.push(6);
                put_u64(*txn, out);
            }
            LogRecord::Prepare { txn } => {
                out.push(7);
                put_u64(*txn, out);
            }
            LogRecord::GlobalCommit { txn } => {
                out.push(8);
                put_u64(*txn, out);
            }
            LogRecord::Checkpoint {
                stable_rows,
                carried,
            } => {
                out.push(9);
                put_u64(*stable_rows, out);
                put_u32(carried.len() as u32, out);
                for r in carried {
                    let mut body = Vec::new();
                    r.encode(&mut body);
                    put_u32(body.len() as u32, out);
                    out.extend_from_slice(&body);
                }
            }
            LogRecord::MinMax {
                chunk,
                col,
                min,
                max,
            } => {
                out.push(10);
                put_u32(*chunk, out);
                put_u32(*col, out);
                put_value(min, out);
                put_value(max, out);
            }
            LogRecord::Ddl { statement } => {
                out.push(11);
                put_u32(statement.len() as u32, out);
                out.extend_from_slice(statement.as_bytes());
            }
            LogRecord::MasterEpoch { epoch, node } => {
                out.push(12);
                put_u64(*epoch, out);
                put_u64(*node, out);
            }
            LogRecord::ChunkRewriteBegin { chunk, path } => {
                out.push(13);
                put_u32(*chunk, out);
                put_u32(path.len() as u32, out);
                out.extend_from_slice(path.as_bytes());
            }
            LogRecord::ChunkRewritten { chunk, rows } => {
                out.push(14);
                put_u32(*chunk, out);
                put_u64(*rows, out);
            }
        }
    }

    fn decode(rd: &mut Rd) -> Result<LogRecord> {
        Ok(match rd.u8()? {
            0 => LogRecord::TxnBegin { txn: rd.u64()? },
            1 => {
                let txn = rd.u64()?;
                let rid = rd.u64()?;
                let tag = rd.u64()?;
                let n = rd.u32()? as usize;
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
            8 => LogRecord::GlobalCommit { txn: rd.u64()? },
            9 => {
                let stable_rows = rd.u64()?;
                let n = rd.u32()? as usize;
                let mut carried = Vec::new();
                for _ in 0..n {
                    let len = rd.u32()? as usize;
                    let mut body = Rd {
                        buf: rd.take(len)?,
                        pos: 0,
                    };
                    let r = LogRecord::decode(&mut body)?;
                    if !r.is_delta() {
                        return Err(VhError::Storage(format!(
                            "checkpoint carries a non-delta record {r:?}"
                        )));
                    }
                    carried.push(r);
                }
                LogRecord::Checkpoint {
                    stable_rows,
                    carried,
                }
            }
            10 => LogRecord::MinMax {
                chunk: rd.u32()?,
                col: rd.u32()?,
                min: rd.value()?,
                max: rd.value()?,
            },
            11 => {
                let n = rd.u32()? as usize;
                LogRecord::Ddl {
                    statement: String::from_utf8(rd.take(n)?.to_vec())
                        .map_err(|_| VhError::Storage("bad WAL utf8".into()))?,
                }
            }
            12 => LogRecord::MasterEpoch {
                epoch: rd.u64()?,
                node: rd.u64()?,
            },
            13 => {
                let chunk = rd.u32()?;
                let n = rd.u32()? as usize;
                LogRecord::ChunkRewriteBegin {
                    chunk,
                    path: String::from_utf8(rd.take(n)?.to_vec())
                        .map_err(|_| VhError::Storage("bad WAL utf8".into()))?,
                }
            }
            14 => LogRecord::ChunkRewritten {
                chunk: rd.u32()?,
                rows: rd.u64()?,
            },
            t => return Err(VhError::Storage(format!("bad WAL record tag {t}"))),
        })
    }
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

/// Does this batch carry a record that recovery cannot rebuild from other
/// forced records? Those get an fsync before the append returns:
///
/// * `Prepare` — the vote, and with it the update records before it in the
///   batch: the coordinator decides on the strength of it;
/// * `GlobalCommit` — the 2PC commit point (§6);
/// * `Checkpoint` — propagation swaps chunk images on the strength of it;
/// * `MasterEpoch` — the fence a new master promises to honour.
///
/// Everything else is flushed to the OS and becomes durable with the next
/// forced record on the same file. That includes the phase-2 verdicts,
/// `Commit` and `Abort`: recovery rebuilds each from the durable `Prepare`
/// plus the presence or absence of the transaction's `GlobalCommit` in the
/// global WAL, which is never truncated (presumed commit, R\*).
///
/// The invariant this rests on: every `Commit` the engine writes follows a
/// durable `GlobalCommit` for the same transaction. The only writer of
/// `Commit` (and `Abort`) is `TwoPhaseCoordinator::conclude`, 2PC's phase-2
/// step, and it runs only once the decision is settled. Anything that ever
/// persists `Commit` as its own commit point must `sync` itself.
fn has_commit_point(records: &[LogRecord]) -> bool {
    records.iter().any(|r| {
        matches!(
            r,
            LogRecord::Prepare { .. }
                | LogRecord::GlobalCommit { .. }
                | LogRecord::Checkpoint { .. }
                | LogRecord::MasterEpoch { .. }
        )
    })
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

    /// Append records (length-framed) and flush to HDFS.
    ///
    /// Consults the filesystem's fault hook at [`FaultSite::WalAppend`]:
    /// `CrashBefore` loses the whole batch, `CrashMid` persists a torn final
    /// frame (every frame is at least 5 bytes, so dropping the last byte
    /// tears exactly one record), `CrashAfter` persists everything. All
    /// three surface as `Err` — the "process" died before acknowledging.
    ///
    /// Durability: if the batch carries a record recovery cannot rebuild
    /// (`Prepare`, `GlobalCommit`, `Checkpoint`, `MasterEpoch`; see
    /// `has_commit_point`), the file is [`sync`](BlockStore::sync)ed after
    /// the append, so the promise survives an OS crash before anyone acts on
    /// it. Any other batch, the phase-2 `Commit` and `Abort` included, is
    /// flushed to the OS only: a power loss may cut the log back to the
    /// last forced record, and recovery resolves what it cut from `Prepare`
    /// and the global decision. Crash injections skip the sync — a process
    /// that died mid-append never reached its fsync, which is exactly the
    /// torn-tail state recovery must repair.
    pub fn append(&self, records: &[LogRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for r in records {
            let mut body = Vec::new();
            r.encode(&mut body);
            put_u32(body.len() as u32, &mut buf);
            buf.extend_from_slice(&body);
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
        if has_commit_point(records) {
            self.fs.sync(&self.path)?;
        }
        Ok(())
    }

    /// Read the whole log back (recovery/startup).
    ///
    /// A torn final frame (crash mid-append) is truncated away, not an
    /// error: the record was never acknowledged, so discarding it is the
    /// correct recovery semantics. Replay itself is a fault site
    /// ([`FaultSite::WalReplay`]) so recovery-time IO failures are testable.
    pub fn read_all(&self) -> Result<Vec<LogRecord>> {
        if !self.fs.exists(&self.path) {
            return Ok(vec![]);
        }
        self.fs.consult_fault(FaultSite::WalReplay, &self.path)?;
        let bytes = self.fs.read_all(&self.path, self.home())?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if pos + 4 > bytes.len() {
                break; // torn length prefix at the tail: truncate
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            let Some(body) = bytes.get(pos..pos + len) else {
                break; // torn body at the tail: truncate
            };
            pos += len;
            let mut rd = Rd { buf: body, pos: 0 };
            out.push(LogRecord::decode(&mut rd)?);
        }
        Ok(out)
    }

    /// Crash-recovery log repair: scan the frame structure and cut away a
    /// torn tail left by a crash mid-append. [`read_all`](Self::read_all)
    /// tolerates a torn *final* frame, but appending again after one would
    /// shift every later frame boundary — so recovery must repair the log
    /// before it is written to again. Returns the number of bytes trimmed.
    pub fn repair(&self) -> Result<u64> {
        if !self.fs.exists(&self.path) {
            return Ok(0);
        }
        let bytes = self.fs.read_all(&self.path, self.home())?;
        let mut pos = 0usize;
        while pos + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if pos + 4 + len > bytes.len() {
                break;
            }
            pos += 4 + len;
        }
        let torn = (bytes.len() - pos) as u64;
        if torn > 0 {
            self.fs.delete(&self.path)?;
            if pos > 0 {
                self.fs.append(&self.path, &bytes[..pos], self.home())?;
                // The rewritten prefix replaces what was (partly) synced
                // before the crash — make it durable before anyone appends.
                self.fs.sync(&self.path)?;
            }
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
            LogRecord::GlobalCommit { txn: 7 },
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
