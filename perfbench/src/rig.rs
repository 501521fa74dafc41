//! Engine set-up shared by the workloads: one fixed cluster shape, a data
//! directory inside the current directory, and the timed load.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vectorh::{ClusterConfig, ClusterMode, StorageBackend, VectorH};
use vectorh_blockstore::IoSnapshot;
use vectorh_common::Value;
use vectorh_net::DxchgConfig;
use vectorh_server::{AdmissionConfig, Server, ServerConfig};
use vectorh_tpch::TpchData;
use vectorh_txn::twophase::ShipRetention;

use crate::Result;

/// The database is the same for every seed: the seed drives the statement
/// stream, not the data the statements run on.
pub const DATA_SEED: u64 = 42;
/// Partitions of the big tables (the fig7 shape: Q1 = 42 pipelines).
pub const PARTITIONS: usize = 6;

/// What a workload needs set up.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sf: f64,
    /// Background propagation period in DML/query calls; 0 = off.
    pub propagate_every: u64,
    /// Start the SQL front door on loopback.
    pub serve: bool,
}

/// Every field is spelled out: `ClusterConfig::default()` reads
/// `VH_STORE_BACKEND` and `VH_SHIP_RETAIN_*` from the environment, and a
/// benchmark's configuration must not depend on who runs it.
pub fn cluster_config(root: &str, propagate_every: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        cores_per_node: 4,
        mem_per_node: 64 << 30,
        replication: 3,
        hdfs_block_size: 1 << 20,
        rows_per_chunk: 8192,
        streams_per_node: 2,
        seed: 0x5648,
        dxchg: DxchgConfig {
            buffer_bytes: 256 * 1024,
            mode: vectorh_net::FanoutMode::ThreadToNode,
            fault: None,
            fabric: None,
        },
        enable_local_join: true,
        enable_replicated_build: true,
        enable_partial_aggr: true,
        health_every: 1,
        ship_retention: ShipRetention {
            max_bytes: None,
            max_records: None,
        },
        cluster_mode: ClusterMode::InProc,
        heartbeat_grace: 1,
        propagate_every,
        propagate_chunks_per_tick: 8,
        storage_backend: StorageBackend::File(root.to_string()),
    }
}

/// Two statements may run at once (the workload has two clients); the
/// rest of the admission policy is the server's default, written out.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        admission: AdmissionConfig {
            max_concurrent: 8,
            max_queue: 16,
            queue_timeout_ms: 1000,
            per_session_inflight: 4,
            seed: 0xF207_D007,
        },
        batch_rows: 1024,
    }
}

/// A directory under `./.bench_data`, removed when dropped. The engine's
/// own temp-dir mode would write under `/tmp`, outside the checkout.
#[derive(Debug)]
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn create() -> Result<DataDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".bench_data")
            .join(format!(
                "{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }

    pub fn path(&self) -> &str {
        self.0.to_str().expect("data dir path is valid UTF-8")
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Leave no empty parent behind once the last run is gone.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    /// `VectorH::start` (YARN negotiation) + DDL (placement, responsibility).
    pub assign_s: f64,
    pub datagen_s: f64,
    pub load_s: f64,
}

/// A loaded engine. Field order matters: the engine goes before the
/// directory its files live in.
pub struct Rig {
    pub server: Option<Server>,
    pub vh: Arc<VectorH>,
    pub times: SetupTimes,
    /// Raw bytes and rows of what was loaded, and what loading wrote.
    pub loaded_user_bytes: u64,
    pub loaded_rows: u64,
    pub load_io: IoSnapshot,
    _dir: DataDir,
}

/// Bytes a client would send for this value.
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::I32(_) | Value::Date(_) => 4,
        Value::I64(_) | Value::Decimal(..) | Value::F64(_) => 8,
        Value::Str(s) => s.len() as u64,
        Value::Null => 0,
    }
}

pub fn rows_bytes(rows: &[Vec<Value>]) -> u64 {
    rows.iter().flatten().map(value_bytes).sum()
}

fn tables(d: &TpchData) -> [&Vec<Vec<Value>>; 8] {
    [
        &d.region,
        &d.nation,
        &d.supplier,
        &d.customer,
        &d.part,
        &d.partsupp,
        &d.orders,
        &d.lineitem,
    ]
}

/// Raw bytes of all eight tables.
pub fn data_bytes(d: &TpchData) -> u64 {
    tables(d).iter().map(|t| rows_bytes(t)).sum()
}

pub fn generate(sf: f64) -> TpchData {
    vectorh_tpch::generate(sf, DATA_SEED)
}

/// Engine start + datagen + load (+ server start), timed.
pub fn setup(shape: Shape) -> Result<Rig> {
    let dir = DataDir::create()?;
    let t0 = Instant::now();
    let vh = Arc::new(VectorH::start(cluster_config(
        dir.path(),
        shape.propagate_every,
    ))?);
    vectorh_tpch::create_tables(&vh, PARTITIONS)?;
    let assign_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let data = generate(shape.sf);
    let datagen_s = t.elapsed().as_secs_f64();
    let loaded_user_bytes = data_bytes(&data);
    let loaded_rows = data.total_rows() as u64;
    let before = vh.fs().stats().snapshot();
    let t = Instant::now();
    vectorh_tpch::load(&vh, data)?;
    let load_s = t.elapsed().as_secs_f64();
    let load_io = vh.fs().stats().snapshot().since(&before);
    let t = Instant::now();
    let server = match shape.serve {
        true => Some(Server::start(vh.clone(), server_config())?),
        false => None,
    };
    // The sum leaves out sizing the rows: bookkeeping, not set-up a user waits for.
    let total_s = assign_s + datagen_s + load_s + t.elapsed().as_secs_f64();
    Ok(Rig {
        server,
        vh,
        times: SetupTimes {
            total_s,
            assign_s,
            datagen_s,
            load_s,
        },
        loaded_user_bytes,
        loaded_rows,
        load_io,
        _dir: dir,
    })
}

impl Rig {
    /// Stored bytes of all eight tables.
    pub fn stored_bytes(&self) -> Result<u64> {
        let mut n = 0;
        for t in vectorh_tpch::table_names() {
            n += self.vh.table_bytes(t)?;
        }
        Ok(n)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(s) = self.server.as_mut() {
            s.stop();
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
