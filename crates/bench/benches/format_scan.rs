//! Figure 1(a) as a microbenchmark — scan + predicate over the VectorH
//! format with/without MinMax skipping, vs the baseline formats.

use std::sync::Arc;

use vectorh_bench::harness::Group;
use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
use vectorh_common::{ColumnData, DataType, Schema, Value};
use vectorh_compress::baseline::{decode as bdecode, encode as bencode, BaselineFormat};
use vectorh_storage::minmax::PruneOp;
use vectorh_storage::{PartitionStore, StorageConfig};

const N: i64 = 200_000;

fn store() -> PartitionStore {
    let fs: StoreRef = Arc::new(SimHdfs::new(
        1,
        BlockStoreConfig {
            block_size: 1 << 20,
            default_replication: 1,
        },
        Arc::new(DefaultPolicy::new(1)),
    ));
    let schema = Schema::of(&[("ship", DataType::Date), ("lineno", DataType::I64)]);
    let mut s = PartitionStore::new(
        fs,
        "/bench/li/",
        schema,
        StorageConfig {
            rows_per_chunk: 8192,
        },
    );
    // Sorted dates — the clustered-index case.
    s.append_rows(&[
        ColumnData::I32((0..N as i32).map(|i| i / 100).collect()),
        ColumnData::I64((0..N).map(|i| i % 7).collect()),
    ])
    .unwrap();
    s
}

fn vectorh_scan(s: &PartitionStore, cut: i32, skip: bool) -> i64 {
    let keep = if skip {
        s.prune(&vec![(0, PruneOp::Lt, Value::Date(cut))])
    } else {
        vec![true; s.n_chunks()]
    };
    let mut best = i64::MIN;
    for (chunk, k) in keep.iter().enumerate() {
        if !k {
            continue;
        }
        let ship = s.read_column(chunk, 0, None).unwrap();
        let line = s.read_column(chunk, 1, None).unwrap();
        let (ship, line) = (ship.as_i32().unwrap(), line.as_i64().unwrap());
        for i in 0..ship.len() {
            if ship[i] < cut && line[i] > best {
                best = line[i];
            }
        }
    }
    best
}

fn main() {
    let s = store();
    // Baseline chunks.
    let mut orc_chunks = Vec::new();
    let mut at = 0usize;
    while at < N as usize {
        let to = (at + 8192).min(N as usize);
        let ship = ColumnData::I32(((at as i32)..(to as i32)).map(|i| i / 100).collect());
        let line = ColumnData::I64(((at as i64)..(to as i64)).map(|i| i % 7).collect());
        orc_chunks.push((
            bencode(BaselineFormat::OrcLike, &ship),
            bencode(BaselineFormat::OrcLike, &line),
        ));
        at = to;
    }

    let mut g = Group::new("fig1-scan");
    g.throughput(N as u64);
    for sel in [10u32, 50, 90] {
        let cut = (N as i32 / 100) * sel as i32 / 100;
        g.bench(&format!("vectorh+minmax/{sel}"), || {
            vectorh_scan(&s, cut, true)
        });
        g.bench(&format!("vectorh-no-skip/{sel}"), || {
            vectorh_scan(&s, cut, false)
        });
        g.bench(&format!("orc-like/{sel}"), || {
            let mut best = i64::MIN;
            for (ship_enc, line_enc) in &orc_chunks {
                let ship = bdecode(BaselineFormat::OrcLike, ship_enc).unwrap();
                let line = bdecode(BaselineFormat::OrcLike, line_enc).unwrap();
                let (ship, line) = (ship.as_i32().unwrap(), line.as_i64().unwrap());
                for i in 0..ship.len() {
                    if ship[i] < cut && line[i] > best {
                        best = line[i];
                    }
                }
            }
            best
        });
    }
}
