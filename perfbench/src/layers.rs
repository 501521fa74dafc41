//! Each layer on its own: the runner drives a crate's public function
//! directly, single-threaded, on the data the workload loaded.
//!
//! These are the rungs under a query: block store read -> column read ->
//! merging scan -> the query itself. Read top to bottom, the ladder shows
//! at which rung the rows per second are lost.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vectorh::Expr;
use vectorh_blockstore::{BlockStore, DefaultPolicy};
use vectorh_common::rng::SplitMix64;
use vectorh_common::{ColumnData, DataType, NodeId, Schema, Value};
use vectorh_exec::expr::{date_lit, dec_lit};
use vectorh_exec::kernels::hash::{hash_columns, JOIN_SEED};
use vectorh_exec::kernels::simd::compact_mask;
use vectorh_exec::kernels::table::HashTable;
use vectorh_exec::operator::BatchSource;
use vectorh_exec::scan::MScan;
use vectorh_exec::{Batch, Operator};
use vectorh_net::dxchg::dxchg_hash_split;
use vectorh_net::{DxchgConfig, FanoutMode, NetStats};
use vectorh_pdt::tree::Pdt;
use vectorh_pdt::MergeStep;
use vectorh_simhdfs::{SimHdfs, SimHdfsConfig};
use vectorh_storage::minmax::PruneOp;
use vectorh_storage::PartitionStore;
use vectorh_tpch::gen::cols::lineitem as l;
use vectorh_transport::{Fabric, RxKind, SharedEpoch, TcpFabric};

use crate::rig::Rig;
use crate::stats;

type Metrics = BTreeMap<&'static str, f64>;

/// Q6 reads these four columns of `lineitem`.
const Q6_COLS: [usize; 4] = [
    l::L_QUANTITY,
    l::L_EXTENDEDPRICE,
    l::L_DISCOUNT,
    l::L_SHIPDATE,
];
/// Each isolated case runs at least this long and at least three times.
const CASE_TIME: Duration = Duration::from_millis(120);
const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds of one call of `f`.
fn median_secs(mut f: impl FnMut() -> crate::Result<()>) -> crate::Result<f64> {
    f()?;
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < CASE_TIME || samples.len() < 3 {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&samples)?.max(1e-9))
}

/// The `lineitem` partitions with the node each is read from.
fn lineitem_stores(rig: &Rig) -> crate::Result<Vec<(PartitionStore, NodeId)>> {
    let rt = rig.vh.table("lineitem")?;
    Ok(rt
        .pids
        .iter()
        .zip(&rt.stores)
        .map(|(pid, s)| (s.read().clone(), rig.vh.responsible(*pid)))
        .collect())
}

fn q6_pruning() -> Vec<(usize, PruneOp, Value)> {
    let day = |s| Value::Date(vectorh_common::types::date::parse(s).expect("a valid date"));
    vec![
        (l::L_SHIPDATE, PruneOp::Ge, day("1994-01-01")),
        (l::L_SHIPDATE, PruneOp::Lt, day("1995-01-01")),
    ]
}

/// Share of `lineitem` chunks Q6's date range lets the engine skip. The
/// engine prunes only a partition whose scan plan has no pending deltas.
fn pruned_fraction(rig: &Rig) -> crate::Result<f64> {
    let rt = rig.vh.table("lineitem")?;
    let (mut pruned, mut total) = (0usize, 0usize);
    for (pid, store) in rt.pids.iter().zip(&rt.stores) {
        let store = store.read();
        total += store.n_chunks();
        let plan = rig.vh.txns.scan_plan(*pid)?;
        if plan
            .iter()
            .all(|s| matches!(s, MergeStep::CopyStable { .. }))
        {
            pruned += store.prune(&q6_pruning()).iter().filter(|k| !**k).count();
        }
    }
    Ok(pruned as f64 / total.max(1) as f64)
}

/// Rows per second of one scan per partition, each run to exhaustion.
fn scan_rows_per_s(
    stores: &[(PartitionStore, NodeId)],
    open: impl Fn(usize, &PartitionStore, NodeId) -> crate::Result<MScan>,
) -> crate::Result<f64> {
    let mut rows = 0u64;
    let secs = median_secs(|| {
        rows = 0;
        for (i, (store, home)) in stores.iter().enumerate() {
            let mut scan = open(i, store, *home)?;
            while let Some(b) = scan.next()? {
                rows += black_box(b).len() as u64;
            }
        }
        Ok(())
    })?;
    Ok(rows as f64 / secs)
}

/// The merged scan and the effective pruning while deltas are pending
/// (`htap_trickle` calls this before its final propagation).
pub fn dirty_scan(rig: &Rig) -> crate::Result<Metrics> {
    let rt = rig.vh.table("lineitem")?;
    let stores = lineitem_stores(rig)?;
    let mut plans = Vec::new();
    for pid in &rt.pids {
        plans.push(rig.vh.txns.scan_plan(*pid)?);
    }
    let merged = scan_rows_per_s(&stores, |i, store, home| {
        let keep = vec![true; store.n_chunks()];
        Ok(MScan::new(
            store.clone(),
            Q6_COLS.to_vec(),
            keep,
            plans[i].clone(),
            Some(home),
        )?)
    })?;
    Ok(BTreeMap::from([
        ("exec.mscan_merge_rows_per_s", merged),
        (
            "storage.chunks_pruned_fraction_dirty",
            pruned_fraction(rig)?,
        ),
    ]))
}

fn blockstore(
    rig: &Rig,
    stores: &[(PartitionStore, NodeId)],
    m: &mut Metrics,
) -> crate::Result<()> {
    let fs = rig.vh.fs();
    let mut bytes = 0u64;
    let secs = median_secs(|| {
        bytes = 0;
        for (store, home) in stores {
            for c in 0..store.n_chunks() {
                let meta = store.chunk_meta(c);
                let len = meta.file_bytes();
                bytes += black_box(fs.read(&meta.path, 0, len as usize, Some(*home))?).len() as u64;
            }
        }
        Ok(())
    })?;
    m.insert("blockstore.read_mb_per_s.file", bytes as f64 / MIB / secs);

    let block = vec![0xA5u8; 1 << 20];
    let mut n = 0;
    let secs = median_secs(|| {
        let path = format!("/perfbench/append-{n}");
        n += 1;
        fs.create(&path, None)?;
        for _ in 0..4 {
            fs.append(&path, &block, None)?;
        }
        fs.sync(&path)?;
        fs.delete(&path)?;
        Ok(())
    })?;
    m.insert("blockstore.append_mb_per_s.file", 4.0 / secs);

    let sim = SimHdfs::new(
        1,
        SimHdfsConfig {
            block_size: 1 << 20,
            default_replication: 1,
        },
        Arc::new(DefaultPolicy::new(1)),
    );
    sim.create("/perfbench/sealed", None)?;
    for _ in 0..8 {
        sim.append("/perfbench/sealed", &block, None)?;
    }
    let secs = median_secs(|| {
        for i in 0..8u64 {
            black_box(sim.read("/perfbench/sealed", i << 20, 1 << 20, Some(NodeId(0)))?);
        }
        Ok(())
    })?;
    m.insert("blockstore.read_mb_per_s.sim", 8.0 / secs);
    Ok(())
}

fn storage(rig: &Rig, stores: &[(PartitionStore, NodeId)], m: &mut Metrics) -> crate::Result<()> {
    let mut rows = 0u64;
    let secs = median_secs(|| {
        rows = 0;
        for (store, home) in stores {
            for c in 0..store.n_chunks() {
                let cols = store.read_columns(c, &Q6_COLS, Some(*home))?;
                rows += black_box(cols)[0].len() as u64;
            }
        }
        Ok(())
    })?;
    m.insert("storage.read_columns_rows_per_s", rows as f64 / secs);
    m.insert("storage.chunks_pruned_fraction", pruned_fraction(rig)?);
    m.insert(
        "storage.append_rows_per_s",
        rig.loaded_rows as f64 / rig.times.load_s.max(1e-9),
    );
    let stored: u64 = stores.iter().map(|(s, _)| s.total_bytes()).sum();
    let held: u64 = stores.iter().map(|(s, _)| s.row_count()).sum();
    m.insert("storage.bytes_per_row", stored as f64 / held.max(1) as f64);
    Ok(())
}

/// The real `lineitem` columns of one chunk, all sixteen.
fn compress(stores: &[(PartitionStore, NodeId)], m: &mut Metrics) -> crate::Result<()> {
    let (store, home) = &stores[0];
    let all: Vec<usize> = (0..store.schema().len()).collect();
    let cols = store.read_columns(0, &all, Some(*home))?;
    let values = (cols.len() * cols[0].len()) as f64;
    let secs = median_secs(|| {
        for c in &cols {
            black_box(vectorh_compress::encode_column(c));
        }
        Ok(())
    })?;
    m.insert("compress.encode_values_per_s", values / secs);
    let blocks: Vec<Vec<u8>> = cols
        .iter()
        .map(|c| vectorh_compress::encode_column(c).bytes)
        .collect();
    let secs = median_secs(|| {
        for b in &blocks {
            black_box(vectorh_compress::decode_column(b)?);
        }
        Ok(())
    })?;
    m.insert("compress.decode_values_per_s", values / secs);
    let (raw, encoded) = cols
        .iter()
        .map(|c| vectorh_compress::codec::encode_with_stats(c).1)
        .fold((0, 0), |(r, e), st| {
            (r + st.raw_bytes, e + st.encoded_bytes)
        });
    m.insert("compress.ratio", raw as f64 / encoded.max(1) as f64);

    // 12-bit codes: the width of a PFOR-coded price or key delta.
    const N: usize = 64 * 1024;
    let mut rng = SplitMix64::new(12);
    let codes: Vec<u64> = (0..N).map(|_| rng.next_bounded(1 << 12)).collect();
    let mut packed = Vec::new();
    vectorh_compress::bitpack::pack(&codes, 12, &mut packed);
    let mut out = Vec::with_capacity(N);
    let secs = median_secs(|| {
        out.clear();
        black_box(vectorh_compress::bitpack::unpack(&packed, N, 12, &mut out));
        Ok(())
    })?;
    m.insert("compress.unpack_values_per_s", N as f64 / secs);
    Ok(())
}

fn exec_kernels(stores: &[(PartitionStore, NodeId)], m: &mut Metrics) -> crate::Result<()> {
    let (store, home) = &stores[0];
    // Join keys as the lineitem joins see them.
    let keys = store.read_columns(0, &[l::L_ORDERKEY, l::L_PARTKEY], Some(*home))?;
    let refs: Vec<&ColumnData> = keys.iter().collect();
    let mut hashes = Vec::new();
    hash_columns(&refs, &[0, 1], JOIN_SEED, &mut hashes);
    let secs = median_secs(|| {
        let mut t = HashTable::new();
        for chunk in hashes.chunks(1024) {
            t.insert_batch(chunk);
        }
        black_box(t.len());
        Ok(())
    })?;
    m.insert("exec.hash_build_rows_per_s", hashes.len() as f64 / secs);
    let mut table = HashTable::new();
    table.insert_batch(&hashes);
    let mut heads = Vec::new();
    let secs = median_secs(|| {
        table.probe_batch(&hashes, &mut heads);
        black_box(heads.len());
        Ok(())
    })?;
    m.insert("exec.hash_probe_rows_per_s", hashes.len() as f64 / secs);

    // Q6's predicate over its four columns, then mask compaction.
    let cols = store.read_columns(0, &Q6_COLS, Some(*home))?;
    let rows = cols[0].len();
    let batch = Batch::new(Arc::new(store.schema().project(&Q6_COLS)), cols)?;
    let pred = Expr::and(vec![
        Expr::ge(Expr::col(3), date_lit("1994-01-01")),
        Expr::lt(Expr::col(3), date_lit("1995-01-01")),
        Expr::Between(
            Box::new(Expr::col(2)),
            Box::new(dec_lit("0.05", 2)),
            Box::new(dec_lit("0.07", 2)),
        ),
        Expr::lt(Expr::col(0), dec_lit("24", 2)),
    ]);
    let mut sel = Vec::new();
    let secs = median_secs(|| {
        let mask = pred.eval_mask(&batch)?;
        sel.clear();
        compact_mask(&mask, &mut sel);
        black_box(sel.len());
        Ok(())
    })?;
    m.insert(
        "exec.filter_values_per_s",
        (rows * Q6_COLS.len()) as f64 / secs,
    );
    Ok(())
}

fn pdt(m: &mut Metrics) -> crate::Result<()> {
    const STABLE: u64 = 1_000_000;
    const OPS: usize = 2000;
    let mut rng = SplitMix64::new(3);
    let secs = median_secs(|| {
        let mut pdt = Pdt::new();
        for tag in 0..OPS as u64 {
            let rid = rng.next_bounded(pdt.image_len(STABLE) + 1);
            pdt.insert_at(rid, vec![Value::I64(tag as i64)], tag, STABLE)?;
        }
        black_box(pdt);
        Ok(())
    })?;
    m.insert("pdt.insert_ops_per_s", OPS as f64 / secs);
    let secs = median_secs(|| {
        let mut pdt = Pdt::new();
        for _ in 0..OPS {
            pdt.delete_at(rng.next_bounded(pdt.image_len(STABLE)), STABLE)?;
        }
        black_box(pdt);
        Ok(())
    })?;
    m.insert("pdt.delete_ops_per_s", OPS as f64 / secs);
    let mut loaded = Pdt::new();
    for tag in 0..OPS as u64 {
        let image = loaded.image_len(STABLE);
        match tag % 3 {
            0 => drop(loaded.insert_at(
                rng.next_bounded(image + 1),
                vec![Value::I64(0)],
                tag,
                STABLE,
            )?),
            1 => drop(loaded.delete_at(rng.next_bounded(image), STABLE)?),
            _ => drop(loaded.modify_at(rng.next_bounded(image), 0, Value::I64(-1), STABLE)?),
        }
    }
    let secs = median_secs(|| {
        black_box(loaded.merge_plan(STABLE));
        Ok(())
    })?;
    m.insert("pdt.merge_plan_us", secs * 1e6);
    Ok(())
}

/// Hash-split exchange between 3 nodes x 2 consumer threads, in process.
fn dxchg(m: &mut Metrics) -> crate::Result<()> {
    const ROWS: i64 = 50_000;
    const NODES: u32 = 3;
    let schema = Arc::new(Schema::of(&[("k", DataType::I64)]));
    let secs = median_secs(|| {
        let producers: Vec<(u32, Box<dyn Operator>)> = (0..NODES)
            .map(|n| {
                let keys = (0..ROWS).map(|i| i * NODES as i64 + n as i64).collect();
                let batch = Batch::new(schema.clone(), vec![ColumnData::I64(keys)])?;
                let source: Box<dyn Operator> = Box::new(BatchSource::from_batch(batch, 1024));
                Ok((n, source))
            })
            .collect::<crate::Result<_>>()?;
        let consumers = (0..NODES).flat_map(|n| [n, n]).collect();
        let config = DxchgConfig {
            buffer_bytes: 64 * 1024,
            mode: FanoutMode::ThreadToNode,
            fault: None,
            fabric: None,
        };
        let receivers = dxchg_hash_split(
            producers,
            consumers,
            vec![0],
            config,
            Arc::new(NetStats::default()),
        )?;
        let total: u64 = std::thread::scope(|s| {
            let drains: Vec<_> = receivers
                .into_iter()
                .map(|mut r| {
                    s.spawn(move || {
                        let mut n = 0u64;
                        while let Ok(Some(b)) = r.next() {
                            n += b.len() as u64;
                        }
                        n
                    })
                })
                .collect();
            drains.into_iter().map(|h| h.join().unwrap_or(0)).sum()
        });
        match total == (ROWS * NODES as i64) as u64 {
            true => Ok(()),
            false => Err(crate::BenchError(format!("dxchg delivered {total} rows"))),
        }
    })?;
    m.insert("net.dxchg_rows_per_s", (ROWS * NODES as i64) as f64 / secs);
    Ok(())
}

/// 64 KiB frames over one loopback TCP stream of the transport fabric.
fn transport(m: &mut Metrics) -> crate::Result<()> {
    const FRAMES: usize = 64;
    let nodes = [NodeId(0), NodeId(1)];
    let fabric = TcpFabric::loopback(&nodes, Arc::new(SharedEpoch::new(1)), None)?;
    let payload = vec![0x5Au8; 64 * 1024];
    let secs = median_secs(|| {
        let ch = fabric.alloc_channel();
        let mut rx = fabric.endpoint(nodes[1])?.bind(ch, 16)?;
        let from = fabric.endpoint(nodes[0])?;
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut tx = from.sender(nodes[1], ch)?;
                for _ in 0..FRAMES {
                    tx.send(&payload)?;
                }
                tx.finish()
            });
            let mut got = 0;
            while let Some(item) = rx.recv()? {
                match item.kind {
                    RxKind::Data => got += 1,
                    RxKind::Fin => break,
                }
            }
            sender
                .join()
                .map_err(|_| crate::BenchError("transport sender panicked".into()))??;
            match got == FRAMES {
                true => Ok(()),
                false => Err(crate::BenchError(format!(
                    "transport delivered {got} frames"
                ))),
            }
        })
    })?;
    m.insert(
        "transport.tcp_frame_mb_per_s",
        (FRAMES * payload.len()) as f64 / MIB / secs,
    );
    Ok(())
}

/// The wire codec on the rows of a large result.
fn wire(rig: &Rig, m: &mut Metrics) -> crate::Result<()> {
    let rows = rig.vh.query(
        "SELECT l_orderkey, l_partkey, l_extendedprice, l_shipdate FROM lineitem \
         WHERE l_shipdate < date '1993-03-01'",
    )?;
    let bytes = vectorh_server::wire::encode_rows(&rows);
    let mb = bytes.len() as f64 / MIB;
    let secs = median_secs(|| {
        black_box(vectorh_server::wire::encode_rows(&rows));
        Ok(())
    })?;
    m.insert("server.wire_encode_mb_per_s", mb / secs);
    let secs = median_secs(|| {
        black_box(vectorh_server::wire::decode_rows(&bytes)?);
        Ok(())
    })?;
    m.insert("server.wire_decode_mb_per_s", mb / secs);
    Ok(())
}

/// Every isolated layer metric, on the data `rig` holds.
pub fn isolated(rig: &Rig) -> crate::Result<Metrics> {
    let stores = lineitem_stores(rig)?;
    let mut m = Metrics::new();
    blockstore(rig, &stores, &mut m)?;
    storage(rig, &stores, &mut m)?;
    m.insert(
        "exec.mscan_rows_per_s",
        scan_rows_per_s(&stores, |_, store, home| {
            Ok(MScan::full(store.clone(), Q6_COLS.to_vec(), Some(home))?)
        })?,
    );
    compress(&stores, &mut m)?;
    exec_kernels(&stores, &mut m)?;
    pdt(&mut m)?;
    dxchg(&mut m)?;
    transport(&mut m)?;
    wire(rig, &mut m)?;
    Ok(m)
}
