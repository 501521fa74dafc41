//! The [`BlockStore`] trait: the storage surface VectorH's engine, WAL,
//! propagation, and scan layers are written against.
//!
//! The contract mirrors what HDFS gives VectorH (§3):
//!
//! * Files are **append-only**; there is no writing in the middle of a file.
//! * Files are split into fixed-size blocks replicated on `R` datanodes,
//!   with placement decided **per file** by a pluggable
//!   [`BlockPlacementPolicy`](crate::placement::BlockPlacementPolicy) when
//!   the first byte is appended.
//! * Reads are **short-circuit** (counted local) when the reading node holds
//!   a replica, remote otherwise.
//! * Datanode failure triggers namenode-driven re-replication; a revived
//!   node comes back *empty* and is repopulated by
//!   [`conform_to_policy`](BlockStore::conform_to_policy).
//!
//! **Durability contract** (the part real filesystems force us to design):
//! [`append`](BlockStore::append) hands bytes to the backend such that they
//! survive a *process* crash (on the file backend they are written and
//! flushed to the OS page cache before the call returns). They are only
//! guaranteed to survive an *OS/machine* crash after a subsequent
//! [`sync`](BlockStore::sync) of the same path — that is the fsync point the
//! WAL invokes on commit-bearing batches and the chunk writer invokes when a
//! chunk is sealed. The watermark `sync` advances lives in the namenode, so
//! every medium honours it and counts it in
//! [`IoSnapshot::fsync_ops`](crate::stats::IoSnapshot).

use std::sync::Arc;

use vectorh_common::fault::{FaultAction, FaultSite, SharedFaultHook};
use vectorh_common::{NodeId, Result, VhError};

use crate::stats::{IoStats, UsageReport};
use crate::types::{BlockLocation, BlockStoreConfig, FileStatus};

/// Bounded retry budget for injected transient I/O errors: the first
/// attempt plus up to three retries with (simulated) exponential backoff.
pub const MAX_IO_ATTEMPTS: u32 = 4;

/// Shared handle the engine threads clone freely.
pub type StoreRef = Arc<dyn BlockStore>;

/// The pluggable storage backend surface.
pub trait BlockStore: Send + Sync {
    /// The medium's name for diagnostics ("sim", "file").
    fn backend(&self) -> &'static str;

    fn config(&self) -> &BlockStoreConfig;

    fn stats(&self) -> &IoStats;

    /// Install (or clear) the fault hook consulted on every read/append.
    /// Shared across all handles to the same store.
    fn set_fault_hook(&self, hook: Option<SharedFaultHook>);

    /// The currently installed fault hook, if any.
    fn fault_hook(&self) -> Option<SharedFaultHook>;

    fn alive_nodes(&self) -> Vec<NodeId>;

    fn all_nodes(&self) -> Vec<NodeId>;

    /// Create an empty file. Errors if it already exists.
    fn create(&self, path: &str, replication: Option<usize>) -> Result<()>;

    /// Append bytes to a file (creating it if needed), issued from `writer`.
    /// The only write primitive — files cannot be modified in the middle.
    /// Durable against process crash on return; see the module docs for the
    /// OS-crash contract.
    fn append(&self, path: &str, data: &[u8], writer: Option<NodeId>) -> Result<()>;

    /// Durability point: make everything appended to `path` so far survive
    /// an OS crash (fsync on real files).
    fn sync(&self, path: &str) -> Result<()>;

    /// Cut `path` back to its first `len` bytes, in place: the one way to
    /// drop a torn tail without rewriting the bytes before it. A replica
    /// that cannot be cut makes it an `Err`, and the file keeps the length
    /// it reports. A sync is still needed to make the cut survive an OS
    /// crash.
    fn truncate(&self, path: &str, len: u64) -> Result<()>;

    /// Test hook: simulate an OS crash (power loss) by discarding every
    /// byte not yet covered by a [`sync`](Self::sync) — all replicas of each
    /// file are cut back to its synced watermark.
    fn simulate_os_crash(&self);

    /// Read `len` bytes at `offset`, issued from `reader` (None = external
    /// client, always remote). Short reads at EOF return what exists.
    fn read(&self, path: &str, offset: u64, len: usize, reader: Option<NodeId>) -> Result<Vec<u8>>;

    /// Delete a file. Frees space on all replicas.
    fn delete(&self, path: &str) -> Result<()>;

    fn exists(&self, path: &str) -> bool;

    fn len(&self, path: &str) -> Result<u64>;

    /// List files whose path starts with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<FileStatus>;

    /// Block locations of a file (namenode metadata query).
    fn block_locations(&self, path: &str) -> Result<Vec<BlockLocation>>;

    /// Kill a datanode; the namenode re-replicates every block that lost a
    /// replica, asking the placement policy for new targets.
    fn kill_node(&self, node: NodeId) -> Result<()>;

    /// Revive a previously killed datanode. It comes back *empty*;
    /// [`conform_to_policy`](Self::conform_to_policy) repopulates it once
    /// the placement policy prescribes replicas there again.
    fn revive_node(&self, node: NodeId) -> Result<()>;

    /// Add a fresh (empty) datanode to the cluster.
    fn add_node(&self) -> NodeId;

    /// Background rebalancer: migrate every file's replicas to what the
    /// placement policy currently prescribes. Returns bytes moved.
    fn conform_to_policy(&self) -> u64;

    /// Per-node stored bytes.
    fn usage(&self) -> UsageReport;

    /// Read a whole file.
    fn read_all(&self, path: &str, reader: Option<NodeId>) -> Result<Vec<u8>> {
        let len = self.len(path)?;
        self.read(path, 0, len as usize, reader)
    }

    /// Does `node` hold a replica of every block of `path`?
    fn fully_local(&self, path: &str, node: NodeId) -> Result<bool> {
        Ok(self
            .block_locations(path)?
            .iter()
            .all(|b| b.nodes.contains(&node)))
    }

    /// Consult the installed hook at `site` for `detail`, honouring
    /// transient-error retries with exponential backoff and recording every
    /// outcome into the stats. `Ok(())` means proceed; transient errors
    /// that exhaust [`MAX_IO_ATTEMPTS`] and permanent errors surface as
    /// typed `Err`s. Public so layers built on the store (WAL replay) gate
    /// their own sites on the same hook with the same retry discipline.
    fn consult_fault(&self, site: FaultSite, detail: &str) -> Result<()> {
        let Some(hook) = self.fault_hook() else {
            return Ok(());
        };
        let stats = self.stats();
        let mut attempt = 0u32;
        loop {
            match hook.decide(site, detail, attempt) {
                FaultAction::None => return Ok(()),
                FaultAction::SlowRead => {
                    stats.record_slow_read();
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    return Ok(());
                }
                FaultAction::TransientError => {
                    stats.record_injected_fault();
                    attempt += 1;
                    if attempt >= MAX_IO_ATTEMPTS {
                        return Err(VhError::Hdfs(format!(
                            "injected transient {site} error on {detail} \
                             (gave up after {attempt} attempts)"
                        )));
                    }
                    stats.record_read_retry();
                    std::thread::sleep(std::time::Duration::from_micros(20 << attempt));
                }
                FaultAction::PermanentError => {
                    stats.record_injected_fault();
                    return Err(VhError::Hdfs(format!(
                        "injected permanent {site} error on {detail}"
                    )));
                }
                // Exchange/WAL-specific actions are meaningless for plain
                // filesystem I/O; treat them as "no fault here".
                _ => return Ok(()),
            }
        }
    }
}

/// Smart-pointer passthrough: lets a `&StoreRef` (i.e. `&Arc<dyn BlockStore>`)
/// coerce wherever a `&dyn BlockStore` is expected, so call sites read the
/// same whether they hold the store by value, by `Arc`, or behind the trait.
impl<T: BlockStore + ?Sized> BlockStore for Arc<T> {
    fn backend(&self) -> &'static str {
        (**self).backend()
    }
    fn config(&self) -> &BlockStoreConfig {
        (**self).config()
    }
    fn stats(&self) -> &IoStats {
        (**self).stats()
    }
    fn set_fault_hook(&self, hook: Option<SharedFaultHook>) {
        (**self).set_fault_hook(hook)
    }
    fn fault_hook(&self) -> Option<SharedFaultHook> {
        (**self).fault_hook()
    }
    fn alive_nodes(&self) -> Vec<NodeId> {
        (**self).alive_nodes()
    }
    fn all_nodes(&self) -> Vec<NodeId> {
        (**self).all_nodes()
    }
    fn create(&self, path: &str, replication: Option<usize>) -> Result<()> {
        (**self).create(path, replication)
    }
    fn append(&self, path: &str, data: &[u8], writer: Option<NodeId>) -> Result<()> {
        (**self).append(path, data, writer)
    }
    fn sync(&self, path: &str) -> Result<()> {
        (**self).sync(path)
    }
    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        (**self).truncate(path, len)
    }
    fn simulate_os_crash(&self) {
        (**self).simulate_os_crash()
    }
    fn read(&self, path: &str, offset: u64, len: usize, reader: Option<NodeId>) -> Result<Vec<u8>> {
        (**self).read(path, offset, len, reader)
    }
    fn delete(&self, path: &str) -> Result<()> {
        (**self).delete(path)
    }
    fn exists(&self, path: &str) -> bool {
        (**self).exists(path)
    }
    fn len(&self, path: &str) -> Result<u64> {
        (**self).len(path)
    }
    fn list(&self, prefix: &str) -> Vec<FileStatus> {
        (**self).list(prefix)
    }
    fn block_locations(&self, path: &str) -> Result<Vec<BlockLocation>> {
        (**self).block_locations(path)
    }
    fn kill_node(&self, node: NodeId) -> Result<()> {
        (**self).kill_node(node)
    }
    fn revive_node(&self, node: NodeId) -> Result<()> {
        (**self).revive_node(node)
    }
    fn add_node(&self) -> NodeId {
        (**self).add_node()
    }
    fn conform_to_policy(&self) -> u64 {
        (**self).conform_to_policy()
    }
    fn usage(&self) -> UsageReport {
        (**self).usage()
    }
    fn read_all(&self, path: &str, reader: Option<NodeId>) -> Result<Vec<u8>> {
        (**self).read_all(path, reader)
    }
    fn fully_local(&self, path: &str, node: NodeId) -> Result<bool> {
        (**self).fully_local(path, node)
    }
    fn consult_fault(&self, site: FaultSite, detail: &str) -> Result<()> {
        (**self).consult_fault(site, detail)
    }
}
