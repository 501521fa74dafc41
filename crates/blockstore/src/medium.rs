//! [`Medium`]: where a [`Namenode`](crate::Namenode)'s replica bytes live.
//!
//! The namenode owns every decision — which nodes hold a file, how long it
//! is, what is durable, what a read costs — and calls down here only to move
//! bytes. A medium therefore knows nothing about placement, liveness or
//! accounting: it is told which replicas (`path` on `node`) to touch and
//! touches exactly those. All calls arrive with the namenode's state lock
//! held, so a medium never sees two writers on one path.

use std::collections::HashMap;

use vectorh_common::sync::RwLock;
use vectorh_common::{NodeId, Result, VhError};

/// Per-replica byte storage under a [`Namenode`](crate::Namenode).
pub trait Medium: Send + Sync + 'static {
    /// Backend name reported by [`BlockStore::backend`](crate::BlockStore).
    const BACKEND: &'static str;

    /// Every replica already on the medium when the namenode opens it, as
    /// `(node, path, len)`. Non-empty only for media that outlive a process.
    fn scan(&self) -> Result<Vec<(NodeId, String, u64)>>;

    /// Append `data` to the replicas of `path` on `nodes`, creating them if
    /// absent. On return the bytes survive a process crash.
    fn append(&self, path: &str, nodes: &[NodeId], data: &[u8]) -> Result<()>;

    /// The `len` bytes at `offset` of the replica of `path` on `node`; the
    /// namenode only asks for ranges inside the file's length.
    fn read_at(&self, path: &str, node: NodeId, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Make everything appended to the replicas on `nodes` survive an OS
    /// crash.
    fn sync(&self, path: &str, nodes: &[NodeId]) -> Result<()>;

    /// Cut the replicas on `nodes` back to `len` bytes. A replica the
    /// medium does not hold has nothing to cut; any other failure is an
    /// `Err`, and the replicas cut before it stay cut.
    fn truncate_to(&self, path: &str, nodes: &[NodeId], len: u64) -> Result<()>;

    /// The file is gone: discard its replicas on `nodes` and anything else
    /// the medium keeps for `path`.
    fn delete(&self, path: &str, nodes: &[NodeId]) {
        for node in nodes {
            self.drop_replica(path, *node);
        }
    }

    /// Give `dst` a byte-identical replica of `path` copied from `src`.
    fn copy_replica(&self, path: &str, src: NodeId, dst: NodeId) -> Result<()>;

    /// `node` no longer holds a replica of `path`; other nodes still do.
    fn drop_replica(&self, path: &str, node: NodeId);

    /// `node` died: everything it held is gone.
    fn drop_node(&self, node: NodeId);
}

/// The in-memory medium behind [`SimHdfs`](crate::SimHdfs): one buffer per
/// path. Replicas are namenode metadata only — every "copy" of a file reads
/// the same buffer — so replication costs no memory and the node arguments
/// are ignored throughout.
#[derive(Default)]
pub struct MemMedium {
    files: RwLock<HashMap<String, Vec<u8>>>,
}

impl Medium for MemMedium {
    const BACKEND: &'static str = "sim";

    fn scan(&self) -> Result<Vec<(NodeId, String, u64)>> {
        Ok(vec![])
    }

    fn append(&self, path: &str, _nodes: &[NodeId], data: &[u8]) -> Result<()> {
        let mut files = self.files.write();
        match files.get_mut(path) {
            Some(buf) => buf.extend_from_slice(data),
            None => {
                files.insert(path.to_string(), data.to_vec());
            }
        }
        Ok(())
    }

    fn read_at(&self, path: &str, _node: NodeId, offset: u64, len: usize) -> Result<Vec<u8>> {
        let start = offset as usize;
        self.files
            .read()
            .get(path)
            .and_then(|buf| buf.get(start..start + len))
            .map(<[u8]>::to_vec)
            .ok_or_else(|| VhError::Hdfs(format!("{path} is shorter than {}", start + len)))
    }

    fn sync(&self, _path: &str, _nodes: &[NodeId]) -> Result<()> {
        Ok(())
    }

    fn truncate_to(&self, path: &str, _nodes: &[NodeId], len: u64) -> Result<()> {
        if let Some(buf) = self.files.write().get_mut(path) {
            buf.truncate(len as usize);
        }
        Ok(())
    }

    fn delete(&self, path: &str, _nodes: &[NodeId]) {
        self.files.write().remove(path);
    }

    fn copy_replica(&self, _path: &str, _src: NodeId, _dst: NodeId) -> Result<()> {
        Ok(())
    }

    fn drop_replica(&self, _path: &str, _node: NodeId) {}

    fn drop_node(&self, _node: NodeId) {}
}
