//! Node failure, re-replication and read locality (§3/§4, Figure 2).
//!
//! The paper's claim: with the instrumented HDFS placement policy, "VectorH
//! in general achieves the situation that all table IOs are short-circuited"
//! — and after a node failure, the min-cost-flow affinity mapping plus
//! re-replication restores that state.

use vectorh::{ClusterConfig, TableBuilder, VectorH};
use vectorh_common::{DataType, NodeId, Value};

fn engine(nodes: usize) -> VectorH {
    VectorH::start(ClusterConfig {
        nodes,
        rows_per_chunk: 256,
        hdfs_block_size: 16 * 1024,
        replication: 3,
        ..Default::default()
    })
    .unwrap()
}

fn fixture(vh: &VectorH, parts: usize) {
    vh.create_table(
        TableBuilder::new("t")
            .column("k", DataType::I64)
            .column("v", DataType::I64)
            .partition_by(&["k"], parts),
    )
    .unwrap();
    vh.insert_rows(
        "t",
        (0..5000)
            .map(|i| vec![Value::I64(i), Value::I64(i * 3)])
            .collect(),
    )
    .unwrap();
}

#[test]
fn scans_are_fully_short_circuited() {
    let vh = engine(4);
    fixture(&vh, 8);
    let before = vh.fs().stats().snapshot();
    let rows = vh.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(5000));
    let delta = vh.fs().stats().snapshot().since(&before);
    assert_eq!(delta.remote_read_bytes, 0, "all table IO must be local");
    assert!(delta.local_read_bytes > 0);
    assert_eq!(delta.locality(), 1.0);
}

#[test]
fn failure_rereplicates_and_restores_locality() {
    let vh = engine(4);
    fixture(&vh, 8);
    // Kill a node: HDFS re-replicates under the affinity policy and the
    // responsibility assignment moves to survivors.
    vh.kill_node(NodeId(3)).unwrap();
    assert_eq!(vh.workers().len(), 3);
    assert!(
        vh.fs().stats().snapshot().rereplicated_bytes > 0,
        "re-replication happened"
    );

    // Data intact.
    let rows = vh.query("SELECT count(*), sum(v) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(5000));
    let expect: i64 = (0..5000i64).map(|i| i * 3).sum();
    assert_eq!(rows[0][1], Value::I64(expect));

    // And locality is restored: post-failure scans are fully local again.
    let before = vh.fs().stats().snapshot();
    vh.query("SELECT count(*) FROM t WHERE v > 100").unwrap();
    let delta = vh.fs().stats().snapshot().since(&before);
    assert_eq!(
        delta.remote_read_bytes, 0,
        "scans after failover must be short-circuited again (local {} remote {})",
        delta.local_read_bytes, delta.remote_read_bytes
    );
}

#[test]
fn responsibility_spreads_evenly_after_failure() {
    let vh = engine(4);
    fixture(&vh, 12);
    vh.kill_node(NodeId(0)).unwrap();
    let rt = vh.table("t").unwrap();
    let mut per_node = std::collections::HashMap::new();
    for pid in &rt.pids {
        let n = vh.responsible(*pid);
        assert_ne!(n, NodeId(0), "dead node cannot be responsible");
        *per_node.entry(n).or_insert(0) += 1;
    }
    // 12 partitions over 3 survivors: 4 each (Figure 2 bottom).
    assert!(per_node.values().all(|&c| c == 4), "{per_node:?}");
}

#[test]
fn writes_after_failover_land_on_new_homes() {
    let vh = engine(4);
    fixture(&vh, 8);
    vh.kill_node(NodeId(2)).unwrap();
    // Trickle updates go to the new responsible nodes' partitions and WALs.
    vh.trickle_insert(
        "t",
        (5000..5100)
            .map(|i| vec![Value::I64(i), Value::I64(0)])
            .collect(),
    )
    .unwrap();
    assert_eq!(vh.table_rows("t").unwrap(), 5100);
    // Further failure still leaves the data queryable (R=3).
    vh.kill_node(NodeId(1)).unwrap();
    let rows = vh.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(5100));
}

#[test]
fn session_master_failover() {
    let vh = engine(3);
    fixture(&vh, 4);
    let master_before = vh.session_master();
    vh.kill_node(master_before).unwrap();
    let master_after = vh.session_master();
    assert_ne!(master_before, master_after, "another worker takes over");
    // Queries keep working under the new session master.
    let rows = vh.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(rows[0][0], Value::I64(5000));
}

#[test]
fn default_policy_degrades_locality_after_failure() {
    // Contrast experiment: *without* the affinity instrumentation, failures
    // leave replicas wherever default HDFS put them, so reads go remote —
    // exactly the degradation the paper's §3 describes.
    use std::sync::Arc;
    use vectorh_blockstore::{BlockStore, BlockStoreConfig, DefaultPolicy, SimHdfs};
    let fs = SimHdfs::new(
        4,
        BlockStoreConfig {
            block_size: 4096,
            default_replication: 2,
        },
        Arc::new(DefaultPolicy::new(77)),
    );
    // Writer node 0 writes a file; its first replica is local.
    let payload = vec![7u8; 100_000];
    fs.append("/data/part0", &payload, Some(NodeId(0))).unwrap();
    let before = fs.stats().snapshot();
    fs.read_all("/data/part0", Some(NodeId(0))).unwrap();
    assert_eq!(fs.stats().snapshot().since(&before).remote_read_bytes, 0);
    // Node 0 dies; the re-replica goes to a random node, and the "new
    // responsible" reader (pick node 1) is not guaranteed locality.
    fs.kill_node(NodeId(0)).unwrap();
    let locs = fs.block_locations("/data/part0").unwrap();
    let all_on_1 = locs.iter().all(|b| b.nodes.contains(&NodeId(1)));
    if !all_on_1 {
        let before = fs.stats().snapshot();
        fs.read_all("/data/part0", Some(NodeId(1))).unwrap();
        assert!(
            fs.stats().snapshot().since(&before).remote_read_bytes > 0,
            "default policy cannot guarantee locality after failure"
        );
    }
}
