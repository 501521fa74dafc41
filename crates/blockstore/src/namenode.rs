//! [`Namenode`]: the one [`BlockStore`] implementation — file table,
//! placement, locality and IO accounting, re-replication, rebalancing, the
//! fault-hook sites and the fsync watermark — over whichever [`Medium`]
//! keeps the bytes (see the crate docs for the split).
//!
//! **A replica copy that fails leaves that node out of the target set.**
//! The file stays under-replicated — exactly as when the policy offers no
//! target — the pass carries on with the remaining files, and the next
//! `conform_to_policy` tries again. A node is never listed as holding bytes
//! the medium did not confirm.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use vectorh_common::fault::{FaultSite, SharedFaultHook};
use vectorh_common::sync::RwLock;
use vectorh_common::{NodeId, Result, VhError};

use crate::filemedium::FileMedium;
use crate::medium::{Medium, MemMedium};
use crate::placement::{BlockPlacementPolicy, ClusterView};
use crate::stats::{IoStats, UsageReport};
use crate::store::BlockStore;
use crate::types::{BlockLocation, BlockStoreConfig, FileStatus};

/// The in-memory simulated HDFS.
pub type SimHdfs = Namenode<MemMedium>;

/// The real-file store: `<root>/node-NNNN/<path>`, fsync, mmap'd reads.
pub type FileStore = Namenode<FileMedium>;

#[derive(Debug, Clone)]
struct FileMeta {
    len: u64,
    /// Bytes guaranteed on stable storage (advanced by `sync`).
    synced_len: u64,
    replication: usize,
    /// Placement target set; empty before the first append and after the
    /// last replica died (reads and appends then error).
    targets: Vec<NodeId>,
}

impl FileMeta {
    fn empty(replication: usize) -> FileMeta {
        FileMeta {
            len: 0,
            synced_len: 0,
            replication,
            targets: vec![],
        }
    }
}

struct Inner {
    files: BTreeMap<String, FileMeta>,
    alive: BTreeSet<NodeId>,
    all_nodes: BTreeSet<NodeId>,
    used: HashMap<NodeId, u64>,
}

impl Inner {
    fn view(&self, existing: Vec<NodeId>) -> ClusterView {
        ClusterView {
            alive: self.alive.iter().copied().collect(),
            used_bytes: self.used.clone(),
            existing,
        }
    }

    /// The targets of `meta` that can take part in IO right now.
    fn live(&self, meta: &FileMeta) -> Vec<NodeId> {
        let alive = |n: &NodeId| self.alive.contains(n);
        meta.targets.iter().copied().filter(alive).collect()
    }

    /// The replica reads and copies are served from.
    fn first_live(&self, targets: &[NodeId]) -> Option<NodeId> {
        targets.iter().copied().find(|n| self.alive.contains(n))
    }

    fn file(&self, path: &str) -> Result<&FileMeta> {
        self.files.get(path).ok_or_else(|| no_such_file(path))
    }

    fn free(&mut self, node: NodeId, bytes: u64) {
        if let Some(u) = self.used.get_mut(&node) {
            *u = u.saturating_sub(bytes);
        }
    }
}

fn no_such_file(path: &str) -> VhError {
    VhError::Hdfs(format!("no such file: {path}"))
}

/// Namenode metadata and policy over a byte [`Medium`].
pub struct Namenode<M: Medium> {
    medium: M,
    inner: RwLock<Inner>,
    policy: Arc<dyn BlockPlacementPolicy>,
    stats: IoStats,
    config: BlockStoreConfig,
    hook: RwLock<Option<SharedFaultHook>>,
}

impl Namenode<MemMedium> {
    /// A simulated cluster of `nodes` datanodes using the given placement
    /// policy.
    pub fn new(
        nodes: usize,
        config: BlockStoreConfig,
        policy: Arc<dyn BlockPlacementPolicy>,
    ) -> Self {
        Namenode::open(nodes, config, policy, MemMedium::default())
            .expect("an empty in-memory medium has nothing to fail on")
    }
}

impl Namenode<FileMedium> {
    /// Open (or create) a store of `nodes` datanodes rooted at `root`.
    /// An empty `root` auto-creates a unique directory under the system
    /// temp dir, removed when the store is dropped. A root that already
    /// holds data is rescanned — the restart-after-crash path.
    pub fn new(
        nodes: usize,
        config: BlockStoreConfig,
        policy: Arc<dyn BlockPlacementPolicy>,
        root: &str,
    ) -> Result<Self> {
        Namenode::open(nodes, config, policy, FileMedium::open(root)?)
    }
}

impl<M: Medium> Namenode<M> {
    /// A namenode of `nodes` datanodes over `medium`. Replicas the medium
    /// already holds are adopted: each file's length is what every replica
    /// agrees on — the shortest copy; longer ones carry bytes whose
    /// replication write was interrupted and are trimmed so copies stay
    /// identical — and, having survived a restart, all of it is durable.
    pub fn open(
        nodes: usize,
        config: BlockStoreConfig,
        policy: Arc<dyn BlockPlacementPolicy>,
        medium: M,
    ) -> Result<Self> {
        let mut all_nodes: BTreeSet<NodeId> = (0..nodes as u32).map(NodeId).collect();
        let mut replicas: BTreeMap<String, Vec<(NodeId, u64)>> = BTreeMap::new();
        for (node, path, len) in medium.scan()? {
            all_nodes.insert(node);
            replicas.entry(path).or_default().push((node, len));
        }
        let mut files = BTreeMap::new();
        let mut used: HashMap<NodeId, u64> = HashMap::new();
        for (path, mut reps) in replicas {
            reps.sort_unstable();
            let len = reps.iter().map(|r| r.1).min().unwrap_or(0);
            let long: Vec<NodeId> = reps.iter().filter(|r| r.1 > len).map(|r| r.0).collect();
            medium.truncate_to(&path, &long, len)?;
            let targets: Vec<NodeId> = reps.iter().map(|r| r.0).collect();
            for node in &targets {
                *used.entry(*node).or_insert(0) += len;
            }
            let meta = FileMeta {
                len,
                synced_len: len,
                replication: config.default_replication,
                targets,
            };
            files.insert(path, meta);
        }
        Ok(Namenode {
            medium,
            inner: RwLock::new(Inner {
                files,
                alive: all_nodes.clone(),
                all_nodes,
                used,
            }),
            policy,
            stats: IoStats::default(),
            config,
            hook: RwLock::new(None),
        })
    }

    /// The medium under this namenode (e.g. `FileMedium::root`).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Durable byte count of `path` (advanced by `sync`); test observability.
    pub fn synced_len(&self, path: &str) -> Result<u64> {
        Ok(self.inner.read().file(path)?.synced_len)
    }
}

impl<M: Medium> BlockStore for Namenode<M> {
    fn backend(&self) -> &'static str {
        M::BACKEND
    }

    fn config(&self) -> &BlockStoreConfig {
        &self.config
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn set_fault_hook(&self, hook: Option<SharedFaultHook>) {
        *self.hook.write() = hook;
    }

    fn fault_hook(&self) -> Option<SharedFaultHook> {
        self.hook.read().clone()
    }

    fn alive_nodes(&self) -> Vec<NodeId> {
        self.inner.read().alive.iter().copied().collect()
    }

    fn all_nodes(&self) -> Vec<NodeId> {
        self.inner.read().all_nodes.iter().copied().collect()
    }

    fn create(&self, path: &str, replication: Option<usize>) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.files.contains_key(path) {
            return Err(VhError::Hdfs(format!("file exists: {path}")));
        }
        let replication = replication.unwrap_or(self.config.default_replication);
        inner
            .files
            .insert(path.to_string(), FileMeta::empty(replication));
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8], writer: Option<NodeId>) -> Result<()> {
        self.consult_fault(FaultSite::HdfsAppend, path)?;
        let mut inner = self.inner.write();
        if !inner.files.contains_key(path) {
            let meta = FileMeta::empty(self.config.default_replication);
            inner.files.insert(path.to_string(), meta);
        }
        let meta = &inner.files[path];
        if meta.targets.is_empty() {
            if meta.len > 0 {
                return Err(VhError::Hdfs(format!("every replica of {path} is lost")));
            }
            // Placement is fixed on the first append.
            let view = inner.view(vec![]);
            let chosen = self
                .policy
                .choose_targets(path, writer, meta.replication, &view);
            if chosen.is_empty() {
                return Err(VhError::Hdfs(format!("no alive datanodes to place {path}")));
            }
            inner.files.get_mut(path).expect("inserted above").targets = chosen;
        }
        let live = inner.live(&inner.files[path]);
        if live.is_empty() {
            return Err(VhError::Hdfs(format!(
                "all replica targets of {path} are dead"
            )));
        }
        self.medium.append(path, &live, data)?;
        for node in &live {
            *inner.used.entry(*node).or_insert(0) += data.len() as u64;
        }
        inner.files.get_mut(path).expect("inserted above").len += data.len() as u64;
        self.stats
            .record_write(data.len() as u64 * live.len() as u64);
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let meta = inner.file(path)?;
        // An empty file may have no replica on the medium yet.
        if meta.len > 0 {
            self.medium.sync(path, &inner.live(meta))?;
        }
        let meta = inner.files.get_mut(path).expect("checked above");
        meta.synced_len = meta.len;
        self.stats.record_fsync();
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let mut inner = self.inner.write();
        let meta = inner.file(path)?.clone();
        if len > meta.len {
            return Err(VhError::Hdfs(format!(
                "cannot truncate {path} to {len} bytes: it holds {}",
                meta.len
            )));
        }
        // The namenode learns of the cut only once every replica took it:
        // a file whose length it reports must hold that many bytes.
        self.medium.truncate_to(path, &meta.targets, len)?;
        for node in &meta.targets {
            inner.free(*node, meta.len - len);
        }
        let meta = inner.files.get_mut(path).expect("checked above");
        meta.len = len;
        meta.synced_len = meta.synced_len.min(len);
        Ok(())
    }

    fn simulate_os_crash(&self) {
        let mut inner = self.inner.write();
        let Inner { files, used, .. } = &mut *inner;
        for (path, meta) in files.iter_mut().filter(|(_, m)| m.len > m.synced_len) {
            // A replica the medium could not cut keeps its bytes, and so
            // does the file.
            if self
                .medium
                .truncate_to(path, &meta.targets, meta.synced_len)
                .is_err()
            {
                continue;
            }
            for node in &meta.targets {
                if let Some(u) = used.get_mut(node) {
                    *u = u.saturating_sub(meta.len - meta.synced_len);
                }
            }
            meta.len = meta.synced_len;
        }
    }

    fn read(&self, path: &str, offset: u64, len: usize, reader: Option<NodeId>) -> Result<Vec<u8>> {
        self.consult_fault(FaultSite::HdfsRead, path)?;
        let inner = self.inner.read();
        // A dead node cannot issue reads: surfacing this as `NodeDown` (not
        // a generic Hdfs error) lets the query layer fail over by
        // re-planning on the surviving worker set.
        if let Some(r) = reader.filter(|r| !inner.alive.contains(r)) {
            return Err(VhError::NodeDown(format!(
                "reader {r} is dead (reading {path})"
            )));
        }
        let meta = inner.file(path)?;
        let end = (offset + len as u64).min(meta.len);
        if offset >= end {
            return Ok(vec![]);
        }
        let block_size = self.config.block_size as u64;
        // Short-circuit when the reader holds a replica, else the first
        // live one serves it remotely.
        let local = reader.filter(|r| meta.targets.contains(r));
        let serving = local
            .or_else(|| inner.first_live(&meta.targets))
            .ok_or_else(|| {
                VhError::Hdfs(format!(
                    "block {} of {path} has no live replica",
                    offset / block_size
                ))
            })?;
        let bytes = self
            .medium
            .read_at(path, serving, offset, (end - offset) as usize)?;
        // Account block by block, the way a namenode serves a range.
        let mut pos = offset;
        while pos < end {
            let take = (block_size - pos % block_size).min(end - pos);
            self.stats.record_read(take, local.is_some());
            pos += take;
        }
        Ok(bytes)
    }

    fn delete(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let meta = inner.files.remove(path).ok_or_else(|| no_such_file(path))?;
        self.medium.delete(path, &meta.targets);
        for node in &meta.targets {
            inner.free(*node, meta.len);
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.read().files.contains_key(path)
    }

    fn len(&self, path: &str) -> Result<u64> {
        Ok(self.inner.read().file(path)?.len)
    }

    fn list(&self, prefix: &str) -> Vec<FileStatus> {
        let block_size = self.config.block_size as u64;
        self.inner
            .read()
            .files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, f)| FileStatus {
                path: p.clone(),
                len: f.len,
                replication: f.replication,
                block_count: f.len.div_ceil(block_size) as usize,
            })
            .collect()
    }

    fn block_locations(&self, path: &str) -> Result<Vec<BlockLocation>> {
        let inner = self.inner.read();
        let meta = inner.file(path)?;
        let block_size = self.config.block_size as u64;
        Ok((0..meta.len.div_ceil(block_size))
            .map(|i| BlockLocation {
                offset: i * block_size,
                len: (meta.len - i * block_size).min(block_size),
                nodes: meta.targets.clone(),
            })
            .collect())
    }

    fn kill_node(&self, node: NodeId) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.alive.remove(&node) {
            return Err(VhError::Hdfs(format!("{node} is not alive")));
        }
        // Drop the dead node's usage; its replicas are gone.
        inner.used.remove(&node);
        let hit: Vec<String> = inner
            .files
            .iter()
            .filter(|(_, m)| m.targets.contains(&node))
            .map(|(p, _)| p.clone())
            .collect();
        let mut rereplicated = 0u64;
        for path in hit {
            let meta = inner.files[&path].clone();
            let mut targets = meta.targets;
            targets.retain(|&n| n != node);
            // Re-replication copies from a surviving replica; a file with no
            // survivor is lost (reads and appends error from here on).
            let under = meta.len > 0 && targets.len() < meta.replication;
            if let Some(src) = inner.first_live(&targets).filter(|_| under) {
                let view = inner.view(targets.clone());
                let extra = self.policy.choose_targets(&path, None, 1, &view);
                if let Some(&dst) = extra.first() {
                    // A failed copy leaves the file under-replicated.
                    if self.medium.copy_replica(&path, src, dst).is_ok() {
                        targets.push(dst);
                        *inner.used.entry(dst).or_insert(0) += meta.len;
                        rereplicated += meta.len;
                    }
                }
            }
            inner.files.get_mut(&path).expect("listed above").targets = targets;
        }
        self.medium.drop_node(node);
        if rereplicated > 0 {
            self.stats.record_rereplication(rereplicated);
        }
        Ok(())
    }

    fn revive_node(&self, node: NodeId) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.all_nodes.contains(&node) {
            return Err(VhError::Hdfs(format!("{node} was never in the cluster")));
        }
        if !inner.alive.insert(node) {
            return Err(VhError::Hdfs(format!("{node} is already alive")));
        }
        Ok(())
    }

    fn add_node(&self) -> NodeId {
        let mut inner = self.inner.write();
        let id = NodeId(inner.all_nodes.iter().map(|n| n.0 + 1).max().unwrap_or(0));
        inner.all_nodes.insert(id);
        inner.alive.insert(id);
        id
    }

    fn conform_to_policy(&self) -> u64 {
        let mut inner = self.inner.write();
        let paths: Vec<String> = inner.files.keys().cloned().collect();
        let mut moved = 0u64;
        for path in paths {
            let meta = inner.files[&path].clone();
            let view = inner.view(vec![]);
            let desired = self
                .policy
                .choose_targets(&path, None, meta.replication, &view);
            if desired.is_empty() || meta.targets == desired {
                continue;
            }
            let src = inner.first_live(&meta.targets);
            let mut targets = Vec::with_capacity(desired.len());
            for node in desired {
                if meta.len > 0 && !meta.targets.contains(&node) {
                    // A lost file has nothing to copy from, and a failed
                    // copy leaves the node out.
                    let copied = src.map(|s| self.medium.copy_replica(&path, s, node));
                    if !matches!(copied, Some(Ok(()))) {
                        continue;
                    }
                    *inner.used.entry(node).or_insert(0) += meta.len;
                    moved += meta.len;
                }
                targets.push(node);
            }
            if targets.is_empty() {
                continue; // nothing reached its new home: leave the file where it is
            }
            for node in meta.targets.iter().filter(|n| !targets.contains(n)) {
                self.medium.drop_replica(&path, *node);
                inner.free(*node, meta.len);
            }
            inner.files.get_mut(&path).expect("listed above").targets = targets;
        }
        if moved > 0 {
            self.stats.record_rereplication(moved);
        }
        moved
    }

    fn usage(&self) -> UsageReport {
        UsageReport {
            per_node_bytes: self.inner.read().used.clone(),
        }
    }
}
