//! Real-file backend, end to end.
//!
//! Two families of directed tests for the [`FileStore`] block-store
//! backend:
//!
//! * **Torn-tail crash recovery.** A WAL append that dies mid-write leaves
//!   a partial final frame *on a real file*. A restarted process must
//!   reopen the store from disk, repair the log, and recover a queryable,
//!   PDT-consistent partition in which committed transactions survive and
//!   the torn one is gone. The OS-crash flavour additionally loses every
//!   byte after the last fsync watermark.
//!
//! * **Backend equivalence.** The engine must give byte-for-byte identical
//!   answers whether storage is the in-memory simulation or real files —
//!   on cold TPC-H queries and after trickle updates + propagation.

use std::sync::Arc;

use vectorh::{ClusterConfig, StorageBackend, VectorH};
use vectorh_blockstore::{
    BlockStore, BlockStoreConfig, DefaultPolicy, FileStore, Medium, Namenode, SimHdfs, StoreRef,
};
use vectorh_common::fault::{DirectedFault, FaultAction, FaultSite};
use vectorh_common::{ColumnData, DataType, NodeId, PartitionId, Schema, Value};
use vectorh_exec::fingerprint_rows;
use vectorh_pdt::merge::apply_plan;
use vectorh_storage::{PartitionStore, StorageConfig};
use vectorh_tpch::baseline::canonical;
use vectorh_tpch::sql_text;
use vectorh_txn::{LogRecord, TransactionManager, TxnConfig, Wal};

const P: PartitionId = PartitionId(0);

/// A scratch root that survives `FileStore` drops (so a reopen sees the
/// same bytes) and is removed when the guard goes out of scope.
struct ScratchRoot(std::path::PathBuf);

impl ScratchRoot {
    fn new(tag: &str) -> ScratchRoot {
        let dir =
            std::env::temp_dir().join(format!("vh-filestore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchRoot(dir)
    }
    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_config() -> BlockStoreConfig {
    BlockStoreConfig {
        block_size: 4096,
        default_replication: 2,
    }
}

fn file_store(root: &str) -> Arc<FileStore> {
    let policy = Arc::new(DefaultPolicy::new(7));
    Arc::new(FileStore::new(3, store_config(), policy, root).unwrap())
}

fn schema() -> Schema {
    Schema::of(&[("k", DataType::I64), ("v", DataType::Str)])
}

fn stable_cols(n: i64) -> Vec<ColumnData> {
    vec![
        ColumnData::I64((0..n).collect()),
        ColumnData::Str((0..n).map(|i| format!("s{i}")).collect()),
    ]
}

fn insert(txn: u64, rid: u64, k: i64) -> LogRecord {
    LogRecord::Insert {
        txn,
        rid,
        tag: txn,
        values: vec![Value::I64(k), Value::Str(format!("t{k}"))],
    }
}

/// Replay discipline of the recovery coordinator, inlined: only records of
/// transactions whose `Commit` made it into the repaired log are applied.
fn committed_tail(records: &[LogRecord]) -> Vec<LogRecord> {
    let committed: std::collections::HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txn, .. } | LogRecord::GlobalCommit { txn, .. } => Some(*txn),
            _ => None,
        })
        .collect();
    records
        .iter()
        .filter(|r| match r {
            LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Modify { txn, .. } => committed.contains(txn),
            _ => false,
        })
        .cloned()
        .collect()
}

/// The merged (stable ⊕ PDT) image a scan would produce.
fn merged_rows(store: &PartitionStore, mgr: &TransactionManager) -> Vec<Vec<Value>> {
    let n = store.row_count() as usize;
    let mut stable = vec![Vec::new(); n];
    let dts = [DataType::I64, DataType::Str];
    for (c, dt) in dts.iter().enumerate() {
        let mut at = 0usize;
        for chunk in 0..store.n_chunks() {
            let col = store.read_column(chunk, c, None).unwrap();
            for r in 0..col.len() {
                stable[at + r].push(col.value_at(r, *dt));
            }
            at += col.len();
        }
    }
    apply_plan(&mgr.scan_plan(P).unwrap(), &stable)
}

#[test]
fn torn_tail_repair_recovers_committed_state_on_real_files() {
    let root = ScratchRoot::new("torn");

    // --- the process that crashes -------------------------------------
    {
        let fs: StoreRef = file_store(root.path());
        let mut store = PartitionStore::new(
            fs.clone(),
            "/db/t/p0/",
            schema(),
            StorageConfig { rows_per_chunk: 64 },
        );
        store.append_rows(&stable_cols(100)).unwrap();

        let wal = Wal::new(fs.clone(), "/vectorh/wal/t0-p0.wal", Some(NodeId(0)));
        // Txn 1 commits cleanly: its whole batch reaches the file before
        // the process dies (a process crash keeps what was flushed).
        wal.append(&[
            LogRecord::TxnBegin { txn: 1 },
            insert(1, 100, 1000),
            LogRecord::Commit { txn: 1, seq: 1 },
        ])
        .unwrap();
        // Txn 2 dies mid-append: the final frame (its Commit) is torn on
        // the real file, and no fsync ever ran for the batch.
        fs.set_fault_hook(Some(DirectedFault::new(
            FaultSite::WalAppend,
            FaultAction::CrashMid,
            1,
        )));
        assert!(wal
            .append(&[
                LogRecord::TxnBegin { txn: 2 },
                insert(2, 101, 2000),
                LogRecord::Commit { txn: 2, seq: 2 },
            ])
            .is_err());
        // The process is gone; nothing is cleaned up.
    }

    // --- the restarted process ----------------------------------------
    let fs2: StoreRef = file_store(root.path());
    let wal = Wal::new(fs2.clone(), "/vectorh/wal/t0-p0.wal", Some(NodeId(0)));
    let torn = wal.repair().unwrap();
    assert!(torn > 0, "the torn final frame must be detected on disk");
    assert_eq!(wal.repair().unwrap(), 0, "repair is idempotent");

    let (stable, tail) = wal.read_since_checkpoint().unwrap();
    assert_eq!(stable, 0);
    // Txn 2's Commit was the torn frame: its data records survived the
    // repair but the transaction never committed, so replay skips them.
    let replay = committed_tail(&tail);
    assert_eq!(replay, vec![insert(1, 100, 1000)]);

    let store = PartitionStore::recover(
        fs2.clone(),
        "/db/t/p0/",
        schema(),
        StorageConfig { rows_per_chunk: 64 },
        None,
    )
    .unwrap();
    assert_eq!(store.row_count(), 100, "sealed chunks were fsynced");

    let mgr = TransactionManager::new(TxnConfig::default());
    mgr.recover_partition(P, store.row_count() as u64, &replay)
        .unwrap();
    let rows = merged_rows(&store, &mgr);
    assert_eq!(rows.len(), 101);
    assert_eq!(
        rows[100],
        vec![Value::I64(1000), Value::Str("t1000".into())]
    );
    assert!(
        !rows.iter().any(|r| r[0] == Value::I64(2000)),
        "the torn transaction must not resurrect"
    );
}

#[test]
fn os_crash_truncates_unsynced_wal_tail_to_last_commit_point() {
    let root = ScratchRoot::new("oscrash");
    os_crash_cuts_wal_at_last_commit_point(file_store(root.path()));
    let policy = Arc::new(DefaultPolicy::new(7));
    os_crash_cuts_wal_at_last_commit_point(Arc::new(SimHdfs::new(3, store_config(), policy)));
}

/// Power loss is modelled by the namenode's fsync watermark, so the WAL's
/// commit-point discipline is checked on every medium. A partition WAL is
/// forced only by propagation's `Checkpoint`: a 2PC commit's records, its
/// `Prepare` and its phase-2 `Commit` are flushed, not synced (the global
/// decision carries the records, and recovery restores them from there).
fn os_crash_cuts_wal_at_last_commit_point<M: Medium>(fs: Arc<Namenode<M>>) {
    let fs_ref: StoreRef = fs.clone();
    let wal = Wal::new(fs_ref, "/vectorh/wal/t0-p0.wal", Some(NodeId(0)));

    // A committed transaction, flushed to the OS only; then the checkpoint
    // that folds it, fsynced with everything before it.
    let mut durable = vec![
        LogRecord::TxnBegin { txn: 1 },
        insert(1, 0, 1),
        LogRecord::Prepare { txn: 1 },
        LogRecord::Commit { txn: 1, seq: 0 },
    ];
    wal.append(&durable).unwrap();
    durable.push(LogRecord::Checkpoint {
        stable_rows: 1,
        carried: vec![],
    });
    wal.append(&durable[4..]).unwrap();
    // The next transaction's batch: never fsynced.
    wal.append(&[
        LogRecord::TxnBegin { txn: 2 },
        insert(2, 1, 2),
        LogRecord::Prepare { txn: 2 },
    ])
    .unwrap();
    assert_eq!(
        wal.read_all().unwrap().len(),
        8,
        "all bytes visible pre-crash"
    );

    // Power loss: everything past the fsync watermark evaporates.
    fs.simulate_os_crash();
    assert_eq!(
        wal.read_all().unwrap(),
        durable,
        "the log must cut cleanly at the last commit point, the Checkpoint"
    );
    assert_eq!(
        wal.repair().unwrap(),
        0,
        "fsync boundaries are frame-aligned"
    );
}

// --- backend equivalence ---------------------------------------------------

fn engine(backend: StorageBackend) -> VectorH {
    VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 512,
        hdfs_block_size: 64 * 1024,
        streams_per_node: 2,
        storage_backend: backend,
        ..Default::default()
    })
    .unwrap()
}

fn tpch_pair() -> (VectorH, VectorH) {
    let sim = engine(StorageBackend::Sim);
    let file = engine(StorageBackend::File(String::new()));
    vectorh_tpch::schema::setup(&sim, 0.002, 4, 20260707).unwrap();
    vectorh_tpch::schema::setup(&file, 0.002, 4, 20260707).unwrap();
    (sim, file)
}

fn assert_queries_agree(sim: &VectorH, file: &VectorH, when: &str) {
    for qn in [1usize, 3, 6, 12] {
        let sql = sql_text(qn).unwrap();
        let got_sim = canonical(sim.query(sql).unwrap());
        let got_file = canonical(file.query(sql).unwrap());
        assert_eq!(
            fingerprint_rows(&got_sim),
            fingerprint_rows(&got_file),
            "Q{qn} fingerprints diverge between sim and file backends {when}"
        );
        assert_eq!(got_sim, got_file, "Q{qn} rows diverge {when}");
    }
}

#[test]
fn sim_and_file_backends_agree_on_tpch() {
    let (sim, file) = tpch_pair();
    assert_eq!(sim.storage_backend(), "sim");
    assert_eq!(file.storage_backend(), "file");
    assert!(
        file.fs().stats().snapshot().fsync_ops > 0,
        "sealing chunks on the file backend must fsync"
    );
    assert_queries_agree(&sim, &file, "cold");
}

#[test]
fn sim_and_file_backends_agree_after_trickle_updates() {
    let (sim, file) = tpch_pair();
    let data = vectorh_tpch::gen::generate(0.002, 20260707);
    let set = vectorh_tpch::refresh::refresh_set(&data, 8, 99);
    for vh in [&sim, &file] {
        vectorh_tpch::refresh::rf1(vh, &set).unwrap();
        vectorh_tpch::refresh::rf2(vh, &set).unwrap();
    }
    assert_queries_agree(&sim, &file, "after trickle updates");

    // Flush PDTs into the columnar store on both; still identical.
    for vh in [&sim, &file] {
        vh.propagate_table("orders", true).unwrap();
        vh.propagate_table("lineitem", true).unwrap();
    }
    assert_queries_agree(&sim, &file, "after propagation");
}
