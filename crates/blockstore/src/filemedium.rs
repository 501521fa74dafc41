//! [`FileMedium`]: replicas as real files, behind [`FileStore`](crate::FileStore).
//!
//! Layout: one subdirectory per datanode under a root directory, each
//! holding that node's replica of every file placed on it —
//!
//! ```text
//! <root>/node-0000/db/t/p0/chunk-0
//! <root>/node-0001/db/t/p0/chunk-0      (replica)
//! <root>/node-0001/db/t/p0/wal
//! ```
//!
//! A replica is a byte-identical copy of the whole file in another node's
//! directory. Appends go through a buffered writer flushed to the OS before
//! returning (survives process crash); [`Medium::sync`] fsyncs (survives OS
//! crash). [`Medium::scan`] walks the tree, which is what makes
//! restart-after-crash recovery testable: drop the store, re-open the same
//! root, and the surviving bytes are the database.
//!
//! Reads are served from cached read-only mmaps ([`crate::mmap::Mmap`]).
//! This module is the only user of that wrapper and upholds the three
//! store-side invariants of its safety argument (see `mmap.rs`): files are
//! only appended to; `mapping` remaps a file that grew instead
//! of reading past the captured length; and `remove` / `truncate_to` /
//! `drop_node` drop the cache entry before a replica shrinks or goes away.

use std::collections::HashMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vectorh_common::sync::RwLock;
use vectorh_common::{NodeId, Result, VhError};

use crate::medium::Medium;
use crate::mmap::Mmap;

/// Real files under a root directory, one subdirectory per datanode.
pub struct FileMedium {
    root: PathBuf,
    /// Auto-created temp roots are removed on drop.
    owns_root: bool,
    maps: RwLock<HashMap<PathBuf, Arc<Mmap>>>,
}

/// Distinguishes concurrently auto-created temp roots within one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl FileMedium {
    /// Open (or create) the medium rooted at `root`. An empty `root`
    /// auto-creates a unique directory under the system temp dir, removed
    /// when the medium is dropped.
    pub fn open(root: &str) -> Result<Self> {
        let (root, owns_root) = if root.is_empty() {
            let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("vh-filestore-{}-{seq}", std::process::id()));
            (dir, true)
        } else {
            (PathBuf::from(root), false)
        };
        fs::create_dir_all(&root)
            .map_err(|e| VhError::Hdfs(format!("create store root {}: {e}", root.display())))?;
        Ok(FileMedium {
            root,
            owns_root,
            maps: RwLock::new(HashMap::new()),
        })
    }

    /// The root directory holding the node subdirectories.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn node_dir(&self, node: NodeId) -> PathBuf {
        self.root.join(format!("node-{:04}", node.0))
    }

    /// `<root>/node-NNNN/<logical path minus leading slash>`.
    pub(crate) fn phys(&self, node: NodeId, path: &str) -> PathBuf {
        self.node_dir(node).join(path.trim_start_matches('/'))
    }

    /// The cached mapping of `phys`, remapped if shorter than `need` bytes.
    fn mapping(&self, phys: &Path, need: u64) -> Result<Arc<Mmap>> {
        if let Some(m) = self.maps.read().get(phys) {
            if m.len() as u64 >= need {
                return Ok(m.clone());
            }
        }
        let file = fs::File::open(phys)
            .map_err(|e| VhError::Hdfs(format!("open replica {}: {e}", phys.display())))?;
        let flen = file
            .metadata()
            .map_err(|e| VhError::Hdfs(format!("stat replica {}: {e}", phys.display())))?
            .len();
        let map = Arc::new(
            Mmap::map(&file, flen as usize)
                .map_err(|e| VhError::Hdfs(format!("mmap replica {}: {e}", phys.display())))?,
        );
        self.maps.write().insert(phys.to_path_buf(), map.clone());
        Ok(map)
    }

    /// Drop the mapping of `phys` (invariant 3) and unlink it.
    fn remove(&self, phys: &Path) {
        self.maps.write().remove(phys);
        fs::remove_file(phys).ok();
    }
}

fn walk_files(dir: &Path, f: &mut impl FnMut(&Path)) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk_files(&p, f);
        } else {
            f(&p);
        }
    }
}

impl Drop for FileMedium {
    fn drop(&mut self) {
        if self.owns_root {
            fs::remove_dir_all(&self.root).ok();
        }
    }
}

impl Medium for FileMedium {
    const BACKEND: &'static str = "file";

    fn scan(&self) -> Result<Vec<(NodeId, String, u64)>> {
        let err = |e| VhError::Hdfs(format!("scan {}: {e}", self.root.display()));
        let mut found = Vec::new();
        for entry in fs::read_dir(&self.root).map_err(err)? {
            let entry = entry.map_err(err)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(id) = name
                .strip_prefix("node-")
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let node_dir = entry.path();
            walk_files(&node_dir, &mut |file| {
                let rel = file.strip_prefix(&node_dir).expect("walked from node_dir");
                let logical = format!("/{}", rel.to_string_lossy().replace('\\', "/"));
                let len = fs::metadata(file).map(|m| m.len()).unwrap_or(0);
                found.push((NodeId(id), logical, len));
            });
        }
        Ok(found)
    }

    fn append(&self, path: &str, nodes: &[NodeId], data: &[u8]) -> Result<()> {
        for node in nodes {
            let phys = self.phys(*node, path);
            if let Some(parent) = phys.parent() {
                fs::create_dir_all(parent)
                    .map_err(|e| VhError::Hdfs(format!("mkdir for {path}: {e}")))?;
            }
            let file = fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(&phys)
                .map_err(|e| VhError::Hdfs(format!("open {path} for append: {e}")))?;
            // Buffered write, flushed to the OS page cache before the append
            // returns: durable against process crash, not yet against OS
            // crash — that is what `sync` is for.
            let mut w = BufWriter::new(file);
            w.write_all(data)
                .and_then(|()| w.flush())
                .map_err(|e| VhError::Hdfs(format!("append to {path}: {e}")))?;
        }
        Ok(())
    }

    fn read_at(&self, path: &str, node: NodeId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let end = offset + len as u64;
        let map = self.mapping(&self.phys(node, path), end)?;
        let bytes = map.slice(offset as usize, len).ok_or_else(|| {
            let have = map.len();
            VhError::Hdfs(format!(
                "replica of {path} on {node} is short ({have} < {end})"
            ))
        })?;
        Ok(bytes.to_vec())
    }

    fn sync(&self, path: &str, nodes: &[NodeId]) -> Result<()> {
        for node in nodes {
            fs::File::open(self.phys(*node, path))
                .and_then(|f| f.sync_all())
                .map_err(|e| VhError::Hdfs(format!("fsync {path}: {e}")))?;
        }
        Ok(())
    }

    fn truncate_to(&self, path: &str, nodes: &[NodeId], len: u64) -> Result<()> {
        for node in nodes {
            let phys = self.phys(*node, path);
            self.maps.write().remove(&phys);
            match fs::OpenOptions::new().write(true).open(&phys) {
                Ok(f) => f.set_len(len),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            }
            .map_err(|e| VhError::Hdfs(format!("truncate {path} on {node:?}: {e}")))?;
        }
        Ok(())
    }

    fn copy_replica(&self, path: &str, src: NodeId, dst: NodeId) -> Result<()> {
        let to = self.phys(dst, path);
        if let Some(parent) = to.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| VhError::Hdfs(format!("mkdir for replica of {path}: {e}")))?;
        }
        // A stale copy at the destination (possible after rebalance
        // ping-pong) is removed, not overwritten.
        self.remove(&to);
        fs::copy(self.phys(src, path), &to)
            .map(|_| ())
            .map_err(|e| VhError::Hdfs(format!("copy replica of {path}: {e}")))
    }

    fn drop_replica(&self, path: &str, node: NodeId) {
        self.remove(&self.phys(node, path));
    }

    /// Discards the node's directory, like a datanode whose disk is gone:
    /// revival brings it back empty.
    fn drop_node(&self, node: NodeId) {
        let dir = self.node_dir(node);
        self.maps.write().retain(|phys, _| !phys.starts_with(&dir));
        fs::remove_dir_all(&dir).ok();
    }
}
