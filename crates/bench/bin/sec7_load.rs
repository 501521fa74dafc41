//! §7 load performance — vwload vs locality-tuned vwload vs the
//! Spark-VectorH connector.
//!
//! The paper loads 650 GB of CSV on 6 nodes: plain vwload 1237 s (remote
//! HDFS reads), vwload with files ordered for locality 850 s, and the
//! Spark connector 892 s ("works out-of-the-box ... impressive given that
//! the data is read and parsed in a different process"). The shape to
//! reproduce: remote-read vwload is slowest; locality-ordered vwload is
//! fastest; the affinity-matched connector lands close behind it.
//!
//! Wall time on the host cannot show this on a two-core machine (all
//! "nodes" share its two CPUs), so the primary metric is the *simulated cluster
//! time*: per-node parse work at a fixed parse rate, plus a network penalty
//! for every remotely-read byte — the regime the paper's numbers live in.

use std::sync::Arc;

use vectorh_bench::{print_table, timed};
use vectorh_blockstore::{BlockStore, BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
use vectorh_common::util::fmt_bytes;
use vectorh_common::{ColumnData, DataType, NodeId, Schema, Value};
use vectorh_connector::csv::{parse_csv, to_csv, CsvOptions};
use vectorh_connector::external::ExternalScan;
use vectorh_connector::splits::{assign_splits, InputSplit};
use vectorh_exec::{Batch, Operator};
use vectorh_net::NetStats;

const NODES: u32 = 3;
const FILES: usize = 12;

fn schema() -> Arc<Schema> {
    Arc::new(Schema::of(&[
        ("a", DataType::I64),
        ("b", DataType::I64),
        ("c", DataType::I64),
        ("d", DataType::I64),
        ("e", DataType::Decimal { scale: 2 }),
    ]))
}

/// Write CSV input files, each "produced" on a specific node so its first
/// replica is local there.
fn stage_inputs(fs: &StoreRef, rows_per_file: i64) -> Vec<InputSplit> {
    let schema = schema();
    (0..FILES)
        .map(|f| {
            let from = f as i64 * rows_per_file;
            let cols = vec![
                ColumnData::I64((from..from + rows_per_file).collect()),
                ColumnData::I64((0..rows_per_file).map(|i| i % 97).collect()),
                ColumnData::I64((0..rows_per_file).map(|i| i * 3).collect()),
                ColumnData::I64((0..rows_per_file).map(|i| i % 7).collect()),
                ColumnData::I64((0..rows_per_file).map(|i| 100 + i % 1000).collect()),
            ];
            let text = to_csv(&cols, &schema, '|');
            let path = format!("/staging/in-{f:02}.csv");
            fs.append(&path, text.as_bytes(), Some(NodeId(f as u32 % NODES)))
                .unwrap();
            let locs = fs.block_locations(&path).unwrap();
            InputSplit {
                path,
                preferred: locs.first().map(|b| b.nodes.clone()).unwrap_or_default(),
            }
        })
        .collect()
}

/// Plain vwload: the session master (node 0) reads and parses every file —
/// most reads are remote.
fn vwload_from_master(fs: &StoreRef, splits: &[InputSplit]) -> u64 {
    let schema = schema();
    let mut rows = 0u64;
    for split in splits {
        let text = String::from_utf8(fs.read_all(&split.path, Some(NodeId(0))).unwrap()).unwrap();
        let parsed = parse_csv(&text, &schema, &CsvOptions::default()).unwrap();
        rows += parsed.rows as u64;
    }
    rows
}

/// Locality-tweaked vwload: each node reads and parses only its local
/// files, in parallel ("tweaking with the parameter order in vwload").
fn vwload_local(fs: &StoreRef, splits: &[InputSplit]) -> u64 {
    let schema = schema();
    let handles: Vec<_> = (0..NODES)
        .map(|node| {
            let fs = fs.clone();
            let mine: Vec<String> = splits
                .iter()
                .filter(|s| s.preferred.first() == Some(&NodeId(node)))
                .map(|s| s.path.clone())
                .collect();
            let schema = schema.clone();
            std::thread::spawn(move || {
                let mut rows = 0u64;
                for path in mine {
                    let text =
                        String::from_utf8(fs.read_all(&path, Some(NodeId(node))).unwrap()).unwrap();
                    let parsed = parse_csv(&text, &schema, &CsvOptions::default()).unwrap();
                    rows += parsed.rows as u64;
                }
                rows
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

/// Spark connector: affinity matching assigns splits to per-node
/// ExternalScans; Spark-side threads parse and stream binary rows.
fn spark_connector(fs: &StoreRef, splits: &[InputSplit], net: &Arc<NetStats>) -> (u64, f64) {
    let schema = schema();
    let operators: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let assignment = assign_splits(splits, &operators);
    let locality = assignment.locality_fraction();
    let mut writers = Vec::new();
    let mut scans = Vec::new();
    for (op_idx, &node) in operators.iter().enumerate() {
        let (scan, port) = ExternalScan::new(schema.clone(), net.clone());
        scans.push(scan);
        for (s_idx, split) in splits.iter().enumerate() {
            if assignment.operator_of[s_idx] == op_idx {
                writers.push((
                    split.path.clone(),
                    node,
                    assignment.local[s_idx],
                    port.connect(!assignment.local[s_idx]),
                ));
            }
        }
    }
    let handles: Vec<_> = writers
        .into_iter()
        .map(|(path, node, local, writer)| {
            let fs = fs.clone();
            let schema = schema.clone();
            std::thread::spawn(move || {
                // Spark reads the block where it is local (or remotely).
                let reader = if local { Some(node) } else { None };
                let text = String::from_utf8(fs.read_all(&path, reader).unwrap()).unwrap();
                let parsed = parse_csv(&text, &schema, &CsvOptions::default()).unwrap();
                let batch = Batch::new(schema, parsed.columns).unwrap();
                writer.send(&batch).unwrap();
            })
        })
        .collect();
    let drains: Vec<_> = scans
        .into_iter()
        .map(|mut scan| {
            std::thread::spawn(move || {
                let mut rows = 0u64;
                while let Some(b) = scan.next().unwrap() {
                    rows += b.len() as u64;
                }
                rows
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let rows = drains.into_iter().map(|h| h.join().unwrap()).sum();
    (rows, locality)
}

fn main() {
    let rows_per_file = std::env::var("VH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000i64);
    println!("§7 load comparison — {FILES} CSV files × {rows_per_file} rows on {NODES} nodes\n");
    let fs: StoreRef = Arc::new(SimHdfs::new(
        NODES as usize,
        BlockStoreConfig {
            block_size: 4 << 20,
            default_replication: 2,
        },
        Arc::new(DefaultPolicy::new(3)),
    ));
    let splits = stage_inputs(&fs, rows_per_file);
    let total_bytes: u64 = splits.iter().map(|s| fs.len(&s.path).unwrap()).sum();
    println!("staged {} of CSV\n", fmt_bytes(total_bytes));

    // Simulated-cluster cost model: per-node parse rate + remote-read rate.
    const PARSE_MBPS: f64 = 100.0;
    const REMOTE_MBPS: f64 = 125.0;
    // Per-node parse bytes per strategy (the parallelism the wall clock
    // cannot show on one host core).
    let per_file: u64 = fs.len(&splits[0].path).unwrap();
    let sim_time = |max_node_parse_bytes: u64, remote_bytes: u64| -> f64 {
        max_node_parse_bytes as f64 / (PARSE_MBPS * 1e6) + remote_bytes as f64 / (REMOTE_MBPS * 1e6)
    };

    let mut rows_out = Vec::new();

    let _ = vwload_from_master(&fs, &splits); // warm-up
    let before = fs.stats().snapshot();
    let (n1, t1) = timed(|| vwload_from_master(&fs, &splits));
    let io1 = fs.stats().snapshot().since(&before);
    let s1 = sim_time(total_bytes, io1.remote_read_bytes);
    rows_out.push(vec![
        "vwload (master reads all)".into(),
        format!("{s1:.2} s"),
        format!("{:.0} ms", t1 * 1e3),
        format!("{:.0}%", io1.locality() * 100.0),
        n1.to_string(),
    ]);

    let _ = vwload_local(&fs, &splits); // warm-up
    let before = fs.stats().snapshot();
    let (n2, t2) = timed(|| vwload_local(&fs, &splits));
    let io2 = fs.stats().snapshot().since(&before);
    // Each node parses its own 4 files in parallel.
    let s2 = sim_time(
        per_file * (FILES as u64 / NODES as u64),
        io2.remote_read_bytes,
    );
    rows_out.push(vec![
        "vwload (locality-ordered)".into(),
        format!("{s2:.2} s"),
        format!("{:.0} ms", t2 * 1e3),
        format!("{:.0}%", io2.locality() * 100.0),
        n2.to_string(),
    ]);

    let net = Arc::new(NetStats::default());
    let before = fs.stats().snapshot();
    let ((n3, affinity), t3) = timed(|| spark_connector(&fs, &splits, &net));
    let io3 = fs.stats().snapshot().since(&before);
    // Spark parses per node too, plus the ExternalScan transfer of the
    // parsed binary rows (counted by the connector's NetStats).
    let xfer = net.snapshot();
    let s3 = sim_time(
        per_file * (FILES as u64 / NODES as u64),
        io3.remote_read_bytes,
    ) + (xfer.net_bytes + xfer.rows * 4) as f64 / (REMOTE_MBPS * 1e6 * 4.0);
    rows_out.push(vec![
        format!("spark connector ({:.0}% affinity)", affinity * 100.0),
        format!("{s3:.2} s"),
        format!("{:.0} ms", t3 * 1e3),
        format!("{:.0}%", io3.locality() * 100.0),
        n3.to_string(),
    ]);
    assert_eq!(n1, n2);
    assert_eq!(n1, n3);

    print_table(
        &[
            "strategy",
            "simulated cluster time",
            "host wall",
            "HDFS read locality",
            "rows",
        ],
        &rows_out,
    );
    println!("\npaper shape (1237 s / 850 s / 892 s): master-only vwload pays remote reads");
    println!("and single-node parsing; locality-ordered vwload is fastest; the connector");
    println!("gets out-of-the-box locality via matching and lands close behind.");
    assert!(s2 < s1, "locality-ordered must beat master-only");
    assert!(s3 < s1, "connector must beat master-only");
    assert!(
        s3 >= s2,
        "connector pays a small transfer overhead vs direct local load"
    );
    let v: Value = Value::I64(n1 as i64);
    let _ = v;
}
