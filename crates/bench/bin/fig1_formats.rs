//! Figure 1 — Data Format Micro-Benchmarks.
//!
//! Reproduces the three panels of Figure 1 on a lineitem table sorted on
//! `l_shipdate`:
//!
//! * (a) hot query time of `SELECT max(l_linenumber) FROM lineitem WHERE
//!   l_shipdate < X` at selectivities 10/30/60/90%, for the VectorH format
//!   (PFOR family + MinMax skipping + vectorized decode) vs ORC-like and
//!   Parquet-like readers (value-at-a-time decode behind a Snappy-like
//!   general-purpose pass, no IO skipping — like Impala/Presto in the paper);
//! * (b) data read (bytes touched) for the same scans;
//! * (c) compressed size per lineitem column per format.
//!
//! Paper shape to reproduce: VectorH is fastest at every selectivity and
//! grows with selectivity thanks to skipping; the baselines read (nearly)
//! everything regardless; VectorH compresses ~2× better overall, with
//! Parquet notably bad on 64-bit integers.

use std::sync::Arc;

use vectorh_bench::{print_table, timed_hot};
use vectorh_blockstore::{BlockStore, BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
use vectorh_common::{ColumnData, Schema, Value};
use vectorh_compress::baseline::{decode as bdecode, encode as bencode, BaselineFormat};
use vectorh_storage::minmax::PruneOp;
use vectorh_storage::{PartitionStore, StorageConfig};
use vectorh_tpch::gen::{self, cols::lineitem as l};

/// The lineitem columns compared in Fig 1c (name, index, kind for labels).
const SIZE_COLS: &[(&str, usize)] = &[
    ("l_ok", l::L_ORDERKEY),
    ("l_pk", l::L_PARTKEY),
    ("l_sk", l::L_SUPPKEY),
    ("l_qty", l::L_QUANTITY),
    ("l_ep", l::L_EXTENDEDPRICE),
    ("l_dcnt", l::L_DISCOUNT),
    ("l_tax", l::L_TAX),
    ("l_rf", l::L_RETURNFLAG),
    ("l_sd", l::L_SHIPDATE),
    ("l_cd", l::L_COMMITDATE),
    ("l_rd", l::L_RECEIPTDATE),
];

fn column_of(rows: &[Vec<Value>], schema: &Schema, col: usize) -> ColumnData {
    let mut out = ColumnData::new(schema.dtype(col));
    for r in rows {
        out.push_value(&r[col]).unwrap();
    }
    out
}

fn main() {
    let sf = vectorh_bench::env_sf(0.02);
    println!("Figure 1 reproduction — lineitem at SF {sf}, sorted on l_shipdate\n");
    let data = gen::generate(sf, 1);
    let defs = vectorh_tpch::schema::table_defs(1).unwrap();
    let schema = defs
        .iter()
        .find(|d| d.name == "lineitem")
        .unwrap()
        .schema
        .clone();
    let mut rows = data.lineitem;
    rows.sort_by_key(|r| match r[l::L_SHIPDATE] {
        Value::Date(d) => d,
        _ => 0,
    });
    let n = rows.len();
    println!("{n} lineitem rows\n");

    // --- VectorH storage: chunked columnar with MinMax --------------------
    let fs: StoreRef = Arc::new(SimHdfs::new(
        1,
        BlockStoreConfig {
            block_size: 1 << 20,
            default_replication: 1,
        },
        Arc::new(DefaultPolicy::new(1)),
    ));
    let mut store = PartitionStore::new(
        fs.clone(),
        "/bench/lineitem/",
        schema.clone(),
        StorageConfig {
            rows_per_chunk: 4096,
        },
    );
    let cols: Vec<ColumnData> = (0..schema.len())
        .map(|c| column_of(&rows, &schema, c))
        .collect();
    store.append_rows(&cols).unwrap();

    // --- Baseline storage: per-chunk encoded columns ----------------------
    let encode_chunks = |fmt: BaselineFormat| -> Vec<Vec<Vec<u8>>> {
        let mut chunks = Vec::new();
        let mut at = 0;
        while at < n {
            let to = (at + 4096).min(n);
            let enc: Vec<Vec<u8>> = (0..schema.len())
                .map(|c| {
                    let mut col = ColumnData::new(schema.dtype(c));
                    for r in &rows[at..to] {
                        col.push_value(&r[c]).unwrap();
                    }
                    bencode(fmt, &col)
                })
                .collect();
            chunks.push(enc);
            at = to;
        }
        chunks
    };
    let orc = encode_chunks(BaselineFormat::OrcLike);
    let parquet = encode_chunks(BaselineFormat::ParquetLike);

    // Selectivity cut points on l_shipdate.
    let dates: Vec<i32> = rows
        .iter()
        .map(|r| match r[l::L_SHIPDATE] {
            Value::Date(d) => d,
            _ => 0,
        })
        .collect();
    let selectivities = [0.1, 0.3, 0.6, 0.9];

    println!(
        "(a) hot query time  +  (b) data read — SELECT max(l_linenumber) WHERE l_shipdate < X"
    );
    let mut out_rows = Vec::new();
    for &sel in &selectivities {
        let cut = dates[((n as f64 * sel) as usize).min(n - 1)];
        // VectorH: MinMax-pruned scan of the two needed columns.
        let before = fs.stats().snapshot();
        let (vh_max, vh_time) = timed_hot(|| {
            let keep = store.prune(&vec![(l::L_SHIPDATE, PruneOp::Lt, Value::Date(cut))]);
            let mut best = i64::MIN;
            for (chunk, keep) in keep.iter().enumerate() {
                if !*keep {
                    continue;
                }
                let ship = store
                    .read_column(chunk, l::L_SHIPDATE, Some(vectorh_common::NodeId(0)))
                    .unwrap();
                let line = store
                    .read_column(chunk, l::L_LINENUMBER, Some(vectorh_common::NodeId(0)))
                    .unwrap();
                let ship = ship.as_i32().unwrap();
                let line = line.as_i64().unwrap();
                for i in 0..ship.len() {
                    if ship[i] < cut && line[i] > best {
                        best = line[i];
                    }
                }
            }
            best
        });
        // IO counted once per timed run (warm-up included 1 extra run → /2).
        let vh_read = fs.stats().snapshot().since(&before).read_bytes() / 2;

        // Baselines: no skipping — decode the two columns of *every* chunk,
        // value at a time, through the general-purpose pass.
        let run_baseline = |chunks: &Vec<Vec<Vec<u8>>>, fmt: BaselineFormat| {
            let mut read = 0u64;
            let (max, time) = timed_hot(|| {
                read = 0;
                let mut best = i64::MIN;
                for chunk in chunks {
                    read += (chunk[l::L_SHIPDATE].len() + chunk[l::L_LINENUMBER].len()) as u64;
                    let ship = bdecode(fmt, &chunk[l::L_SHIPDATE]).unwrap();
                    let line = bdecode(fmt, &chunk[l::L_LINENUMBER]).unwrap();
                    let ship = ship.as_i32().unwrap();
                    let line = line.as_i64().unwrap();
                    for i in 0..ship.len() {
                        if ship[i] < cut && line[i] > best {
                            best = line[i];
                        }
                    }
                }
                best
            });
            (max, time, read)
        };
        let (o_max, o_time, o_read) = run_baseline(&orc, BaselineFormat::OrcLike);
        let (p_max, p_time, p_read) = run_baseline(&parquet, BaselineFormat::ParquetLike);
        assert_eq!(vh_max, o_max);
        assert_eq!(vh_max, p_max);
        out_rows.push(vec![
            format!("{:.0}%", sel * 100.0),
            format!(
                "{:.1} ({})",
                vh_time * 1e3,
                vectorh_common::util::fmt_bytes(vh_read)
            ),
            format!(
                "{:.1} ({})",
                o_time * 1e3,
                vectorh_common::util::fmt_bytes(o_read)
            ),
            format!(
                "{:.1} ({})",
                p_time * 1e3,
                vectorh_common::util::fmt_bytes(p_read)
            ),
            format!("{:.1}x / {:.1}x", o_time / vh_time, p_time / vh_time),
        ]);
    }
    print_table(
        &[
            "selectivity",
            "vectorh ms (read)",
            "orc-like ms (read)",
            "parquet-like ms (read)",
            "speedup orc/parquet",
        ],
        &out_rows,
    );

    // --- (c) compressed size per column ------------------------------------
    println!("\n(c) compressed size per lineitem column (bytes)");
    let mut size_rows = Vec::new();
    let mut totals = (0u64, 0u64, 0u64);
    for (name, col) in SIZE_COLS {
        let cdata = column_of(&rows, &schema, *col);
        let (_, stats) = vectorh_compress::codec::encode_with_stats(&cdata);
        let vh = stats.encoded_bytes as u64;
        let o: u64 = orc.iter().map(|c| c[*col].len() as u64).sum();
        let p: u64 = parquet.iter().map(|c| c[*col].len() as u64).sum();
        totals.0 += vh;
        totals.1 += o;
        totals.2 += p;
        size_rows.push(vec![
            name.to_string(),
            format!("{}", stats.scheme.name()),
            vh.to_string(),
            o.to_string(),
            p.to_string(),
        ]);
    }
    size_rows.push(vec![
        "TOTAL".into(),
        "".into(),
        totals.0.to_string(),
        totals.1.to_string(),
        totals.2.to_string(),
    ]);
    print_table(
        &["column", "vh scheme", "vectorh", "orc-like", "parquet-like"],
        &size_rows,
    );
    println!(
        "\nshape check: vectorh total is {:.2}x smaller than orc-like, {:.2}x than parquet-like",
        totals.1 as f64 / totals.0 as f64,
        totals.2 as f64 / totals.0 as f64
    );
}
