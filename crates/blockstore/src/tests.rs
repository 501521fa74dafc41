//! The [`Namenode`] suite. Every case in `on_both_media!` runs once per
//! medium — the namenode is one body of code, so whatever it promises it
//! must promise over memory and over real files alike. The `on_disk` module
//! below it holds only what a medium can make different: bytes in the
//! directory tree, remap on growth, rescan on reopen, temp-root cleanup.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vectorh_common::fault::{FaultAction, FaultHook, FaultSite};
use vectorh_common::{NodeId, Result, VhError};

use crate::{
    AffinityPolicy, BlockPlacementPolicy, BlockStore, BlockStoreConfig, DefaultPolicy, FileMedium,
    Medium, MemMedium, Namenode, StoreRef, MAX_IO_ATTEMPTS,
};

fn temp_files() -> FileMedium {
    FileMedium::open("").unwrap()
}

fn store<M: Medium>(
    nodes: usize,
    block_size: usize,
    default_replication: usize,
    policy: Arc<dyn BlockPlacementPolicy>,
    medium: M,
) -> Namenode<M> {
    let config = BlockStoreConfig {
        block_size,
        default_replication,
    };
    Namenode::open(nodes, config, policy, medium).unwrap()
}

/// 64-byte blocks, R=3, stock placement.
fn small<M: Medium>(nodes: usize, medium: M) -> Namenode<M> {
    store(nodes, 64, 3, Arc::new(DefaultPolicy::new(42)), medium)
}

fn replicas_of(fs: &dyn BlockStore, path: &str) -> Vec<NodeId> {
    let locs = fs.block_locations(path).unwrap();
    assert!(locs.iter().all(|b| b.nodes == locs[0].nodes), "per-file");
    locs[0].nodes.clone()
}

fn total_used(fs: &dyn BlockStore) -> u64 {
    fs.usage().per_node_bytes.values().sum()
}

macro_rules! on_both_media {
    ($($case:ident),* $(,)?) => {
        mod mem {
            $(#[test] fn $case() { super::$case(super::MemMedium::default) })*
        }
        mod file {
            $(#[test] fn $case() { super::$case(super::temp_files) })*
        }
    };
}

on_both_media!(
    append_read_roundtrip,
    partial_reads_across_block_boundaries,
    locality_accounting,
    delete_frees_space,
    create_twice_fails_and_list_by_prefix,
    node_failure_rereplicates,
    failure_below_replication_degrades,
    affinity_placement_and_rebalance,
    add_revive_and_repopulate,
    all_replicas_dead_is_data_loss,
    dead_reader_surfaces_node_down,
    transient_read_fault_is_retried_and_recovers,
    transient_read_fault_exhausts_retry_budget,
    permanent_fault_and_hook_clearing,
    slow_reads_are_accounted_not_failed,
    hook_is_shared_across_handles,
    sync_watermark_gates_os_crash_survival,
    truncate_cuts_in_place,
    failed_copy_leaves_node_out_of_rebalance,
    failed_copy_leaves_node_out_of_rereplication,
);

fn append_read_roundtrip<M: Medium>(fresh: fn() -> M) {
    let fs = small(4, fresh());
    let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
    fs.append("/f", &data, Some(NodeId(0))).unwrap();
    assert_eq!(fs.read_all("/f", Some(NodeId(0))).unwrap(), data);
    assert_eq!(fs.len("/f").unwrap(), 1000);
    // 1000 bytes / 64 block size = 16 blocks
    assert_eq!(fs.block_locations("/f").unwrap().len(), 16);
    // Appends accumulate across a block boundary.
    fs.append("/g", &[1; 40], None).unwrap();
    fs.append("/g", &[2; 40], None).unwrap();
    assert_eq!(
        fs.read_all("/g", None).unwrap(),
        [[1u8; 40], [2u8; 40]].concat()
    );
    assert_eq!(fs.block_locations("/g").unwrap().len(), 2);
}

fn partial_reads_across_block_boundaries<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
    fs.append("/f", &data, None).unwrap();
    assert_eq!(fs.read("/f", 10, 5, None).unwrap(), &data[10..15]);
    // crossing a block boundary
    assert_eq!(fs.read("/f", 60, 10, None).unwrap(), &data[60..70]);
    // past EOF: short read
    assert_eq!(fs.read("/f", 195, 100, None).unwrap(), &data[195..]);
    assert_eq!(fs.read("/f", 500, 10, None).unwrap(), Vec::<u8>::new());
}

fn locality_accounting<M: Medium>(fresh: fn() -> M) {
    let fs = small(5, fresh());
    fs.append("/f", &[9u8; 256], Some(NodeId(2))).unwrap();
    // The writer holds a replica: its reads are short-circuit, one op per
    // block touched.
    let before = fs.stats().snapshot();
    fs.read_all("/f", Some(NodeId(2))).unwrap();
    let delta = fs.stats().snapshot().since(&before);
    assert_eq!(delta.remote_read_bytes, 0);
    assert_eq!(delta.local_read_bytes, 256);
    assert_eq!(delta.local_read_ops, 4);
    // External clients read remote.
    let before = fs.stats().snapshot();
    fs.read_all("/f", None).unwrap();
    let delta = fs.stats().snapshot().since(&before);
    assert_eq!(delta.local_read_bytes, 0);
    assert_eq!(delta.remote_read_bytes, 256);
}

fn delete_frees_space<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.append("/f", &[1u8; 100], Some(NodeId(0))).unwrap();
    assert_eq!(total_used(&fs), 300); // 100 bytes × R=3
    fs.delete("/f").unwrap();
    assert_eq!(total_used(&fs), 0);
    assert!(!fs.exists("/f"));
    assert!(fs.read_all("/f", None).is_err());
    assert!(fs.delete("/f").is_err());
}

fn create_twice_fails_and_list_by_prefix<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.create("/f", None).unwrap();
    assert!(fs.create("/f", None).is_err());
    fs.append("/db/t/p0/c0", &[0], None).unwrap();
    fs.append("/db/t/p0/c1", &[0], None).unwrap();
    fs.append("/db/t/p1/c0", &[0], None).unwrap();
    assert_eq!(fs.list("/db/t/p0/").len(), 2);
    assert_eq!(fs.list("/db/").len(), 3);
    assert_eq!(fs.list("/zzz").len(), 0);
}

fn node_failure_rereplicates<M: Medium>(fresh: fn() -> M) {
    let fs = small(4, fresh());
    fs.append("/f", &[7u8; 128], Some(NodeId(0))).unwrap();
    assert_eq!(replicas_of(&fs, "/f").len(), 3);
    fs.kill_node(NodeId(0)).unwrap();
    let replicas = replicas_of(&fs, "/f");
    assert_eq!(replicas.len(), 3, "re-replicated back to R=3");
    assert!(!replicas.contains(&NodeId(0)));
    assert!(fs.stats().snapshot().rereplicated_bytes >= 128);
    assert_eq!(total_used(&fs), 3 * 128);
    // Readable from every replica, the new one included.
    for node in replicas {
        assert_eq!(fs.read_all("/f", Some(node)).unwrap(), vec![7u8; 128]);
    }
}

fn failure_below_replication_degrades<M: Medium>(fresh: fn() -> M) {
    // 3 nodes, R=3: after one failure only 2 replicas are possible.
    let fs = small(3, fresh());
    fs.append("/f", &[1u8; 64], Some(NodeId(0))).unwrap();
    fs.kill_node(NodeId(1)).unwrap();
    assert_eq!(replicas_of(&fs, "/f").len(), 2);
    assert_eq!(fs.read_all("/f", None).unwrap(), vec![1u8; 64]);
}

fn affinity_placement_and_rebalance<M: Medium>(fresh: fn() -> M) {
    let policy = Arc::new(AffinityPolicy::new(7));
    let fs = store(4, 32, 2, policy.clone(), fresh());
    policy.set_affinity("/db/r/p0/", vec![NodeId(1), NodeId(3)]);
    let path = "/db/r/p0/chunk0";
    fs.append(path, &[5u8; 100], Some(NodeId(0))).unwrap();
    assert_eq!(replicas_of(&fs, path), vec![NodeId(1), NodeId(3)]);
    assert!(fs.fully_local(path, NodeId(1)).unwrap());
    // Change the affinity map (responsibility moved), then rebalance.
    policy.set_affinity("/db/r/p0/", vec![NodeId(0), NodeId(2)]);
    assert_eq!(fs.conform_to_policy(), 200);
    assert_eq!(replicas_of(&fs, path), vec![NodeId(0), NodeId(2)]);
    assert_eq!(fs.read_all(path, Some(NodeId(2))).unwrap(), vec![5u8; 100]);
    assert_eq!(total_used(&fs), 200);
    assert_eq!(fs.conform_to_policy(), 0, "already conformant");
}

fn add_revive_and_repopulate<M: Medium>(fresh: fn() -> M) {
    let policy = Arc::new(AffinityPolicy::new(11));
    let fs = store(3, 32, 2, policy.clone(), fresh());
    policy.set_affinity("/db/t/p0/", vec![NodeId(1), NodeId(2)]);
    let path = "/db/t/p0/chunk0";
    fs.append(path, &[4u8; 96], Some(NodeId(1))).unwrap();
    fs.kill_node(NodeId(1)).unwrap();
    assert_eq!(fs.alive_nodes().len(), 2);
    // Revival: back in the alive set, holding nothing.
    fs.revive_node(NodeId(1)).unwrap();
    assert_eq!(fs.alive_nodes().len(), 3);
    assert_eq!(fs.usage().per_node_bytes.get(&NodeId(1)), None);
    assert!(!fs.fully_local(path, NodeId(1)).unwrap());
    // The rebalancer moves replicas back onto it per the policy.
    assert!(fs.conform_to_policy() >= 96);
    assert!(fs.fully_local(path, NodeId(1)).unwrap());
    assert_eq!(fs.read_all(path, Some(NodeId(1))).unwrap(), vec![4u8; 96]);
    // Guard rails: double revive/kill and unknown nodes error.
    assert!(fs.revive_node(NodeId(1)).is_err());
    assert!(fs.revive_node(NodeId(9)).is_err());
    assert!(fs.kill_node(NodeId(9)).is_err());
    fs.kill_node(NodeId(1)).unwrap();
    assert!(fs.kill_node(NodeId(1)).is_err());
    // A fresh node takes the next id and is alive.
    assert_eq!(fs.add_node(), NodeId(3));
    assert_eq!(fs.alive_nodes().len(), 3);
    assert_eq!(fs.all_nodes().len(), 4);
}

fn all_replicas_dead_is_data_loss<M: Medium>(fresh: fn() -> M) {
    let policy = Arc::new(AffinityPolicy::new(9));
    let fs = store(4, 32, 1, policy.clone(), fresh());
    policy.set_affinity("/solo/", vec![NodeId(2)]);
    fs.append("/solo/f", &[1u8; 10], None).unwrap();
    fs.kill_node(NodeId(2)).unwrap();
    // R=1: the only replica died, there is nothing to copy from — the file
    // is lost on every medium: no read, no append onto the hole, and the
    // rebalancer cannot conjure it back.
    assert!(fs.read_all("/solo/f", None).is_err());
    assert!(fs.append("/solo/f", &[2u8; 10], None).is_err());
    fs.revive_node(NodeId(2)).unwrap();
    assert_eq!(fs.conform_to_policy(), 0);
    assert!(fs.read_all("/solo/f", None).is_err());
    assert_eq!(fs.len("/solo/f").unwrap(), 10);
}

fn dead_reader_surfaces_node_down<M: Medium>(fresh: fn() -> M) {
    let fs = small(4, fresh());
    fs.append("/f", &[1u8; 64], Some(NodeId(0))).unwrap();
    fs.kill_node(NodeId(2)).unwrap();
    let err = fs.read_all("/f", Some(NodeId(2))).unwrap_err();
    assert!(matches!(err, VhError::NodeDown(_)), "{err}");
    // Live readers and external clients still work.
    assert!(fs.read_all("/f", Some(NodeId(0))).is_ok());
    assert!(fs.read_all("/f", None).is_ok());
}

/// Scripted hook for the injection tests: acts on paths containing a marker
/// substring, pure function of (site, detail, attempt).
#[derive(Debug)]
struct ScriptedHook {
    site: FaultSite,
    marker: &'static str,
    action: FaultAction,
    /// For TransientError: fail attempts `< clears_after`.
    clears_after: u32,
}

impl FaultHook for ScriptedHook {
    fn decide(&self, site: FaultSite, detail: &str, attempt: u32) -> FaultAction {
        if site != self.site || !detail.contains(self.marker) {
            return FaultAction::None;
        }
        if self.action == FaultAction::TransientError && attempt >= self.clears_after {
            return FaultAction::None;
        }
        self.action
    }
}

fn script(fs: &dyn BlockStore, site: FaultSite, action: FaultAction, clears_after: u32) {
    fs.set_fault_hook(Some(Arc::new(ScriptedHook {
        site,
        marker: "/flaky/",
        action,
        clears_after,
    })));
}

fn transient_read_fault_is_retried_and_recovers<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.append("/flaky/f", &[3u8; 32], Some(NodeId(0))).unwrap();
    script(&fs, FaultSite::HdfsRead, FaultAction::TransientError, 2);
    assert_eq!(
        fs.read_all("/flaky/f", Some(NodeId(0))).unwrap(),
        vec![3u8; 32]
    );
    let snap = fs.stats().snapshot();
    assert_eq!(snap.injected_faults, 2);
    assert_eq!(snap.read_retries, 2);
}

fn transient_read_fault_exhausts_retry_budget<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.append("/flaky/f", &[3u8; 32], Some(NodeId(0))).unwrap();
    script(
        &fs,
        FaultSite::HdfsRead,
        FaultAction::TransientError,
        u32::MAX,
    );
    let err = fs.read_all("/flaky/f", Some(NodeId(0))).unwrap_err();
    assert!(err.to_string().contains("gave up"), "{err}");
    assert_eq!(
        fs.stats().snapshot().injected_faults,
        MAX_IO_ATTEMPTS as u64
    );
}

fn permanent_fault_and_hook_clearing<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.append("/flaky/f", &[1u8; 8], None).unwrap();
    script(&fs, FaultSite::HdfsAppend, FaultAction::PermanentError, 0);
    // Nothing reaches any replica; reads (a different site) are unaffected.
    assert!(fs.append("/flaky/f", &[9u8; 8], None).is_err());
    assert_eq!(fs.read_all("/flaky/f", None).unwrap(), vec![1u8; 8]);
    fs.set_fault_hook(None);
    assert!(fs.append("/flaky/f", &[1u8; 8], None).is_ok());
    assert_eq!(fs.len("/flaky/f").unwrap(), 16);
}

fn slow_reads_are_accounted_not_failed<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.append("/flaky/f", &[2u8; 16], Some(NodeId(1))).unwrap();
    script(&fs, FaultSite::HdfsRead, FaultAction::SlowRead, 0);
    assert!(fs.read_all("/flaky/f", Some(NodeId(1))).is_ok());
    let snap = fs.stats().snapshot();
    assert_eq!(snap.slow_read_ops, 1);
    assert_eq!(snap.injected_faults, 0);
}

fn hook_is_shared_across_handles<M: Medium>(fresh: fn() -> M) {
    let fs: StoreRef = Arc::new(small(3, fresh()));
    let handle_made_before_install = fs.clone();
    fs.append("/flaky/f", &[0u8; 4], None).unwrap();
    script(&fs, FaultSite::HdfsRead, FaultAction::PermanentError, 0);
    assert!(handle_made_before_install
        .read_all("/flaky/f", None)
        .is_err());
}

fn sync_watermark_gates_os_crash_survival<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, fresh());
    fs.append("/wal", b"committed.", None).unwrap();
    fs.sync("/wal").unwrap();
    fs.append("/wal", b"torn-tail", None).unwrap();
    assert_eq!(fs.len("/wal").unwrap(), 19);
    assert_eq!(fs.synced_len("/wal").unwrap(), 10);
    assert_eq!(fs.stats().snapshot().fsync_ops, 1);
    assert!(fs.sync("/nope").is_err());
    fs.simulate_os_crash();
    assert_eq!(fs.len("/wal").unwrap(), 10);
    assert_eq!(total_used(&fs), 30);
    assert_eq!(fs.read_all("/wal", None).unwrap(), b"committed.");
    // Appends keep working after the crash.
    fs.append("/wal", b"+more", None).unwrap();
    assert_eq!(fs.read_all("/wal", None).unwrap(), b"committed.+more");
}

fn truncate_cuts_in_place<M: Medium>(fresh: fn() -> M) {
    let fs = small(3, Flaky::new(fresh()));
    fs.append("/wal", b"committed.", None).unwrap();
    fs.sync("/wal").unwrap();
    fs.append("/wal", b"torn-tail", None).unwrap();
    assert!(fs.truncate("/wal", 20).is_err(), "a cut cannot grow a file");
    assert!(fs.truncate("/nope", 0).is_err());
    // Below the synced watermark: the watermark follows the cut.
    fs.truncate("/wal", 9).unwrap();
    assert_eq!(fs.read_all("/wal", None).unwrap(), b"committed");
    assert_eq!(fs.synced_len("/wal").unwrap(), 9);
    assert_eq!(total_used(&fs), 27);
    fs.append("/wal", b"!", None).unwrap();
    fs.sync("/wal").unwrap();
    fs.simulate_os_crash();
    assert_eq!(fs.read_all("/wal", None).unwrap(), b"committed!");
    // A cut the medium fails leaves the file as it was, and says so.
    fs.append("/wal", b"torn", None).unwrap();
    fs.medium().fail_next_cut.store(true, Ordering::SeqCst);
    assert!(fs.truncate("/wal", 10).is_err());
    assert_eq!(fs.read_all("/wal", None).unwrap(), b"committed!torn");
    assert_eq!(fs.synced_len("/wal").unwrap(), 10);
    assert_eq!(total_used(&fs), 42);
    fs.truncate("/wal", 10).unwrap();
    assert_eq!(fs.read_all("/wal", None).unwrap(), b"committed!");
}

/// A medium whose next `copy_replica` fails once `fail_next_copy` is armed,
/// and whose next `truncate_to` once `fail_next_cut` is.
struct Flaky<M> {
    inner: M,
    fail_next_copy: AtomicBool,
    fail_next_cut: AtomicBool,
}

impl<M> Flaky<M> {
    fn new(inner: M) -> Flaky<M> {
        Flaky {
            inner,
            fail_next_copy: AtomicBool::new(false),
            fail_next_cut: AtomicBool::new(false),
        }
    }
}

impl<M: Medium> Medium for Flaky<M> {
    const BACKEND: &'static str = M::BACKEND;

    fn scan(&self) -> Result<Vec<(NodeId, String, u64)>> {
        self.inner.scan()
    }
    fn append(&self, path: &str, nodes: &[NodeId], data: &[u8]) -> Result<()> {
        self.inner.append(path, nodes, data)
    }
    fn read_at(&self, path: &str, node: NodeId, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.inner.read_at(path, node, offset, len)
    }
    fn sync(&self, path: &str, nodes: &[NodeId]) -> Result<()> {
        self.inner.sync(path, nodes)
    }
    fn truncate_to(&self, path: &str, nodes: &[NodeId], len: u64) -> Result<()> {
        if self.fail_next_cut.swap(false, Ordering::SeqCst) {
            return Err(VhError::Hdfs(format!("scripted cut failure on {path}")));
        }
        self.inner.truncate_to(path, nodes, len)
    }
    fn delete(&self, path: &str, nodes: &[NodeId]) {
        self.inner.delete(path, nodes)
    }
    fn copy_replica(&self, path: &str, src: NodeId, dst: NodeId) -> Result<()> {
        if self.fail_next_copy.swap(false, Ordering::SeqCst) {
            return Err(VhError::Hdfs(format!("scripted copy failure on {path}")));
        }
        self.inner.copy_replica(path, src, dst)
    }
    fn drop_replica(&self, path: &str, node: NodeId) {
        self.inner.drop_replica(path, node)
    }
    fn drop_node(&self, node: NodeId) {
        self.inner.drop_node(node)
    }
}

/// Two 100-byte files under `/db/`, both on nodes 1 and 3 (R=2 of 4).
fn two_files_on_1_and_3<M: Medium>(inner: M) -> (Namenode<Flaky<M>>, Arc<AffinityPolicy>) {
    let policy = Arc::new(AffinityPolicy::new(7));
    let fs = store(4, 32, 2, policy.clone(), Flaky::new(inner));
    policy.set_affinity("/db/", vec![NodeId(1), NodeId(3)]);
    fs.append("/db/a", &[5u8; 100], None).unwrap();
    fs.append("/db/b", &[6u8; 100], None).unwrap();
    (fs, policy)
}

fn failed_copy_leaves_node_out_of_rebalance<M: Medium>(fresh: fn() -> M) {
    let (fs, policy) = two_files_on_1_and_3(fresh());
    policy.set_affinity("/db/", vec![NodeId(0), NodeId(2)]);
    fs.medium().fail_next_copy.store(true, Ordering::SeqCst);
    // /db/a's copy onto node 0 fails: only the three copies that happened
    // are counted, node 0 is not listed for /db/a, and /db/b still moves.
    assert_eq!(fs.conform_to_policy(), 300);
    assert_eq!(replicas_of(&fs, "/db/a"), vec![NodeId(2)]);
    assert_eq!(replicas_of(&fs, "/db/b"), vec![NodeId(0), NodeId(2)]);
    assert_eq!(fs.usage().per_node_bytes[&NodeId(0)], 100);
    assert_eq!(total_used(&fs), 300);
    // Node 0 reads /db/a remotely instead of tripping over a missing copy.
    let before = fs.stats().snapshot();
    assert_eq!(
        fs.read_all("/db/a", Some(NodeId(0))).unwrap(),
        vec![5u8; 100]
    );
    assert_eq!(fs.stats().snapshot().since(&before).local_read_bytes, 0);
    // The next pass heals the under-replicated file.
    assert_eq!(fs.conform_to_policy(), 100);
    assert_eq!(replicas_of(&fs, "/db/a"), vec![NodeId(0), NodeId(2)]);
    assert_eq!(
        fs.read_all("/db/a", Some(NodeId(0))).unwrap(),
        vec![5u8; 100]
    );
}

fn failed_copy_leaves_node_out_of_rereplication<M: Medium>(fresh: fn() -> M) {
    let (fs, _policy) = two_files_on_1_and_3(fresh());
    fs.medium().fail_next_copy.store(true, Ordering::SeqCst);
    // /db/a's re-replication copy fails; the kill still completes for
    // every file and the node is fully gone.
    fs.kill_node(NodeId(1)).unwrap();
    assert!(!fs.alive_nodes().contains(&NodeId(1)));
    assert_eq!(replicas_of(&fs, "/db/a"), vec![NodeId(3)]);
    let b = replicas_of(&fs, "/db/b");
    assert_eq!(b.len(), 2);
    assert!(!b.contains(&NodeId(1)));
    assert_eq!(fs.stats().snapshot().rereplicated_bytes, 100);
    assert_eq!(total_used(&fs), 300);
    for node in b {
        assert_eq!(fs.read_all("/db/b", Some(node)).unwrap(), vec![6u8; 100]);
    }
    assert_eq!(fs.read_all("/db/a", None).unwrap(), vec![5u8; 100]);
}

/// What only the file medium can get wrong.
mod on_disk {
    use super::*;
    use crate::FileStore;
    use std::fs;
    use std::path::PathBuf;

    fn phys(fs: &FileStore, node: NodeId, path: &str) -> PathBuf {
        fs.medium().phys(node, path)
    }

    fn holders(fs: &FileStore, path: &str) -> Vec<NodeId> {
        let on_disk = |n: &NodeId| phys(fs, *n, path).exists();
        fs.all_nodes().into_iter().filter(on_disk).collect()
    }

    #[test]
    fn replicas_are_real_files_and_follow_the_namenode() {
        let policy = Arc::new(AffinityPolicy::new(7));
        let fs = store(4, 32, 2, policy.clone(), temp_files());
        policy.set_affinity("/db/", vec![NodeId(1), NodeId(3)]);
        let data: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        fs.append("/db/f", &data, None).unwrap();
        fs.append("/db/g", &data, None).unwrap();
        // R byte-identical copies, exactly where the namenode says.
        assert_eq!(holders(&fs, "/db/f"), replicas_of(&fs, "/db/f"));
        for node in holders(&fs, "/db/f") {
            assert_eq!(fs::read(phys(&fs, node, "/db/f")).unwrap(), data);
        }
        // Rebalancing copies to the new homes and unlinks the old ones.
        policy.set_affinity("/db/", vec![NodeId(0), NodeId(2)]);
        fs.conform_to_policy();
        assert_eq!(holders(&fs, "/db/f"), vec![NodeId(0), NodeId(2)]);
        // A dead node's directory goes with it; the re-replicated copy is
        // a real file.
        fs.kill_node(NodeId(0)).unwrap();
        assert!(!fs.medium().root().join("node-0000").exists());
        assert_eq!(holders(&fs, "/db/f"), replicas_of(&fs, "/db/f"));
        assert_eq!(holders(&fs, "/db/f").len(), 2);
        assert_eq!(fs.read_all("/db/f", None).unwrap(), data);
        // Delete unlinks every replica.
        fs.delete("/db/f").unwrap();
        assert_eq!(holders(&fs, "/db/f"), vec![]);
        assert_eq!(holders(&fs, "/db/g").len(), 2);
    }

    #[test]
    fn growth_past_a_mapping_remaps() {
        let fs = small(3, temp_files());
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        fs.append("/f", &data, None).unwrap();
        assert_eq!(fs.read("/f", 60, 10, None).unwrap(), &data[60..70]);
        // Grow after mapping: reads past the old mapping length remap.
        fs.append("/f", &[0xEE; 300], None).unwrap();
        assert_eq!(fs.read("/f", 200, 300, None).unwrap(), vec![0xEE; 300]);
        // And the already-mapped prefix still serves.
        assert_eq!(fs.read("/f", 0, 200, None).unwrap(), data);
    }

    #[test]
    fn restart_rescans_root_and_reconciles_replica_lengths() {
        let root = std::env::temp_dir().join(format!("vh-fstest-restart-{}", std::process::id()));
        fs::remove_dir_all(&root).ok();
        let open = || -> FileStore {
            let config = BlockStoreConfig {
                block_size: 64,
                default_replication: 2,
            };
            let policy = Arc::new(DefaultPolicy::new(1));
            FileStore::new(3, config, policy, root.to_str().unwrap()).unwrap()
        };
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let torn = {
            let fs = open();
            fs.append("/db/t/p0/chunk-0", &data, Some(NodeId(1)))
                .unwrap();
            fs.append("/db/t/p0/wal", b"wal-bytes", Some(NodeId(1)))
                .unwrap();
            fs.sync("/db/t/p0/chunk-0").unwrap();
            // A replication write that reached only one copy of the WAL.
            let torn = phys(&fs, replicas_of(&fs, "/db/t/p0/wal")[0], "/db/t/p0/wal");
            let mut longer = fs::read(&torn).unwrap();
            longer.extend_from_slice(b"+half-replicated");
            fs::write(&torn, longer).unwrap();
            torn
        };
        // Process "restarted": fresh store over the same root.
        let fs = open();
        assert_eq!(fs.read_all("/db/t/p0/chunk-0", None).unwrap(), data);
        assert_eq!(fs.list("/db/t/p0/").len(), 2);
        // Replicas were discovered on both nodes that held them, and all of
        // it counts as durable.
        assert_eq!(replicas_of(&fs, "/db/t/p0/chunk-0").len(), 2);
        assert_eq!(fs.synced_len("/db/t/p0/chunk-0").unwrap(), 5000);
        assert_eq!(total_used(&fs), 2 * (5000 + 9));
        // The longer WAL copy was trimmed back to what both agree on.
        assert_eq!(fs.read_all("/db/t/p0/wal", None).unwrap(), b"wal-bytes");
        assert_eq!(fs::read(&torn).unwrap(), b"wal-bytes");
        drop(fs);
        assert!(root.exists(), "a caller-named root is the caller's");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn auto_created_temp_root_is_removed_on_drop() {
        let fs = small(3, temp_files());
        fs.append("/f", &[1u8; 10], None).unwrap();
        fs.read_all("/f", None).unwrap();
        let root = fs.medium().root().to_path_buf();
        assert!(root.exists());
        drop(fs);
        assert!(!root.exists());
    }
}
