//! IO accounting.
//!
//! Every read and write is attributed to the issuing node and classified as
//! *local* (a replica lives on that node — HDFS "short-circuit read") or
//! *remote*. The Figure-1/Figure-2 harnesses read these counters to show
//! bytes touched and locality percentages. The counters are backend-neutral:
//! the one namenode records them, whichever medium holds the bytes, so
//! locality and fault accounting are comparable across backends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use vectorh_common::NodeId;

/// Cluster-wide IO counters. All methods are thread-safe.
#[derive(Debug, Default)]
pub struct IoStats {
    local_read_bytes: AtomicU64,
    remote_read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    local_read_ops: AtomicU64,
    remote_read_ops: AtomicU64,
    write_ops: AtomicU64,
    rereplicated_bytes: AtomicU64,
    injected_faults: AtomicU64,
    slow_read_ops: AtomicU64,
    read_retries: AtomicU64,
    fsync_ops: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub local_read_bytes: u64,
    pub remote_read_bytes: u64,
    pub write_bytes: u64,
    pub local_read_ops: u64,
    pub remote_read_ops: u64,
    pub write_ops: u64,
    pub rereplicated_bytes: u64,
    /// I/O errors injected by a fault hook (transient and permanent).
    pub injected_faults: u64,
    /// Reads that completed but were accounted as slowed by a fault hook.
    pub slow_read_ops: u64,
    /// Retries performed after injected transient errors.
    pub read_retries: u64,
    /// Explicit durability points: `BlockStore::sync` calls (fsync on the
    /// file backend, accounting-only on the simulation).
    pub fsync_ops: u64,
}

impl IoSnapshot {
    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.local_read_bytes + self.remote_read_bytes
    }

    /// Fraction of read bytes served locally (1.0 when nothing was read).
    pub fn locality(&self) -> f64 {
        let total = self.read_bytes();
        if total == 0 {
            1.0
        } else {
            self.local_read_bytes as f64 / total as f64
        }
    }

    /// Counter delta since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            local_read_bytes: self.local_read_bytes - earlier.local_read_bytes,
            remote_read_bytes: self.remote_read_bytes - earlier.remote_read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            local_read_ops: self.local_read_ops - earlier.local_read_ops,
            remote_read_ops: self.remote_read_ops - earlier.remote_read_ops,
            write_ops: self.write_ops - earlier.write_ops,
            rereplicated_bytes: self.rereplicated_bytes - earlier.rereplicated_bytes,
            injected_faults: self.injected_faults - earlier.injected_faults,
            slow_read_ops: self.slow_read_ops - earlier.slow_read_ops,
            read_retries: self.read_retries - earlier.read_retries,
            fsync_ops: self.fsync_ops - earlier.fsync_ops,
        }
    }
}

impl IoStats {
    pub fn record_read(&self, bytes: u64, local: bool) {
        if local {
            self.local_read_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.local_read_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.remote_read_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.remote_read_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_write(&self, bytes: u64) {
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_rereplication(&self, bytes: u64) {
        self.rereplicated_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn record_injected_fault(&self) {
        self.injected_faults.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_slow_read(&self) {
        self.slow_read_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_read_retry(&self) {
        self.read_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_fsync(&self) {
        self.fsync_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            local_read_bytes: self.local_read_bytes.load(Ordering::Relaxed),
            remote_read_bytes: self.remote_read_bytes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            local_read_ops: self.local_read_ops.load(Ordering::Relaxed),
            remote_read_ops: self.remote_read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            rereplicated_bytes: self.rereplicated_bytes.load(Ordering::Relaxed),
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            slow_read_ops: self.slow_read_ops.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            fsync_ops: self.fsync_ops.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.local_read_bytes.store(0, Ordering::Relaxed);
        self.remote_read_bytes.store(0, Ordering::Relaxed);
        self.write_bytes.store(0, Ordering::Relaxed);
        self.local_read_ops.store(0, Ordering::Relaxed);
        self.remote_read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.rereplicated_bytes.store(0, Ordering::Relaxed);
        self.injected_faults.store(0, Ordering::Relaxed);
        self.slow_read_ops.store(0, Ordering::Relaxed);
        self.read_retries.store(0, Ordering::Relaxed);
        self.fsync_ops.store(0, Ordering::Relaxed);
    }
}

/// Per-node storage usage report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageReport {
    pub per_node_bytes: HashMap<NodeId, u64>,
}

impl UsageReport {
    /// Max/min stored bytes across nodes: a balance measure for the
    /// rebalancer tests.
    pub fn imbalance(&self) -> f64 {
        if self.per_node_bytes.is_empty() {
            return 1.0;
        }
        let max = *self.per_node_bytes.values().max().unwrap() as f64;
        let min = *self.per_node_bytes.values().min().unwrap() as f64;
        if min == 0.0 {
            if max == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max / min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.record_read(100, true);
        s.record_read(50, false);
        s.record_write(30);
        let snap = s.snapshot();
        assert_eq!(snap.local_read_bytes, 100);
        assert_eq!(snap.remote_read_bytes, 50);
        assert_eq!(snap.read_bytes(), 150);
        assert_eq!(snap.write_bytes, 30);
        assert_eq!(snap.local_read_ops, 1);
        assert_eq!(snap.remote_read_ops, 1);
        assert!((snap.locality() - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn locality_of_idle_cluster_is_one() {
        assert_eq!(IoStats::default().snapshot().locality(), 1.0);
    }

    #[test]
    fn since_computes_delta() {
        let s = IoStats::default();
        s.record_read(10, true);
        let a = s.snapshot();
        s.record_read(5, false);
        s.record_fsync();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.local_read_bytes, 0);
        assert_eq!(d.remote_read_bytes, 5);
        assert_eq!(d.fsync_ops, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::default();
        s.record_write(7);
        s.record_fsync();
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn imbalance_measure() {
        let mut r = UsageReport::default();
        r.per_node_bytes.insert(NodeId(0), 100);
        r.per_node_bytes.insert(NodeId(1), 50);
        assert_eq!(r.imbalance(), 2.0);
        r.per_node_bytes.insert(NodeId(2), 0);
        assert!(r.imbalance().is_infinite());
    }
}
