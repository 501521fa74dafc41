//! End-to-end SQL on a simulated cluster: parse → optimize → distribute →
//! execute, with verification against hand-computed answers.

use std::collections::{BTreeMap, HashSet};

use vectorh::{ClusterConfig, TableBuilder, VectorH};
use vectorh_common::{DataType, Value};

fn engine() -> VectorH {
    VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 128,
        hdfs_block_size: 16 * 1024,
        ..Default::default()
    })
    .unwrap()
}

fn sales_fixture(vh: &VectorH) {
    vh.create_table(
        TableBuilder::new("sales")
            .column("id", DataType::I64)
            .column("store", DataType::Str)
            .column("amount", DataType::Decimal { scale: 2 })
            .column("day", DataType::Date)
            .partition_by(&["id"], 6)
            .clustered_by(&["day"]),
    )
    .unwrap();
    let d0 = vectorh_common::types::date::parse("1995-01-01").unwrap();
    let rows: Vec<Vec<Value>> = (0..1000)
        .map(|i| {
            vec![
                Value::I64(i),
                Value::Str(["north", "south", "east"][(i % 3) as usize].into()),
                Value::Decimal((i % 100) * 100, 2), // 0.00 .. 99.00
                Value::Date(d0 + (i % 365) as i32),
            ]
        })
        .collect();
    vh.insert_rows("sales", rows).unwrap();
}

#[test]
fn count_sum_avg_with_predicates() {
    let vh = engine();
    sales_fixture(&vh);
    let rows = vh.query("SELECT count(*) FROM sales").unwrap();
    assert_eq!(rows, vec![vec![Value::I64(1000)]]);

    let rows = vh
        .query("SELECT count(*) FROM sales WHERE amount < 10")
        .unwrap();
    // amounts 0..9 appear for i%100 in 0..10 → 10 per 100 → 100 rows
    assert_eq!(rows, vec![vec![Value::I64(100)]]);

    let rows = vh
        .query("SELECT sum(amount), avg(amount) FROM sales WHERE store = 'north'")
        .unwrap();
    let north_sum: i64 = (0..1000i64)
        .filter(|i| i % 3 == 0)
        .map(|i| (i % 100) * 100)
        .sum();
    assert_eq!(rows[0][0], Value::Decimal(north_sum, 2));
}

#[test]
fn group_by_order_by_limit() {
    let vh = engine();
    sales_fixture(&vh);
    let rows = vh
        .query(
            "SELECT store, count(*) AS n, sum(amount) AS total FROM sales \
             GROUP BY store ORDER BY store",
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][0], Value::Str("east".into()));
    let n_total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(n_total, 1000);

    let rows = vh
        .query("SELECT store, sum(amount) AS total FROM sales GROUP BY store ORDER BY total DESC LIMIT 1")
        .unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn date_range_queries_use_minmax_pruning() {
    let vh = engine();
    sales_fixture(&vh);
    let before = vh.fs().stats().snapshot();
    let rows = vh
        .query("SELECT count(*) FROM sales WHERE day < '1995-01-11'")
        .unwrap();
    let narrow = vh.fs().stats().snapshot().since(&before);
    // days 0..9: i%365 in 0..10 → i in {0..9, 365..374, 730..739}
    assert_eq!(rows[0][0], Value::I64(30));

    let before = vh.fs().stats().snapshot();
    vh.query("SELECT count(*) FROM sales WHERE day < '1999-01-01'")
        .unwrap();
    let wide = vh.fs().stats().snapshot().since(&before);
    assert!(
        narrow.read_bytes() < wide.read_bytes(),
        "selective scan must touch fewer bytes ({} vs {}) thanks to MinMax skipping",
        narrow.read_bytes(),
        wide.read_bytes()
    );
}

#[test]
fn joins_via_sql() {
    let vh = engine();
    vh.create_table(
        TableBuilder::new("orders2")
            .column("ok", DataType::I64)
            .column("cust", DataType::I64)
            .partition_by(&["ok"], 4),
    )
    .unwrap();
    vh.create_table(
        TableBuilder::new("items2")
            .column("ok", DataType::I64)
            .column("price", DataType::Decimal { scale: 2 })
            .partition_by(&["ok"], 4),
    )
    .unwrap();
    vh.insert_rows(
        "orders2",
        (0..100)
            .map(|i| vec![Value::I64(i), Value::I64(i % 10)])
            .collect(),
    )
    .unwrap();
    vh.insert_rows(
        "items2",
        (0..300)
            .map(|i| vec![Value::I64(i % 100), Value::Decimal(100, 2)])
            .collect(),
    )
    .unwrap();
    // Co-partitioned join on the partition key: a local join, no repartition.
    let explain = vh
        .explain("SELECT count(*) FROM items2 i JOIN orders2 o ON i.ok = o.ok")
        .unwrap();
    assert!(
        explain.contains("Local") || explain.contains("MergeJoin"),
        "{explain}"
    );
    let rows = vh
        .query("SELECT count(*) FROM items2 i JOIN orders2 o ON i.ok = o.ok")
        .unwrap();
    assert_eq!(rows[0][0], Value::I64(300));
    // Grouped join via SQL.
    let rows = vh
        .query(
            "SELECT o.cust, count(*) AS n FROM items2 i JOIN orders2 o ON i.ok = o.ok \
             GROUP BY o.cust ORDER BY n DESC, 1",
        )
        .unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(
        rows.iter().map(|r| r[1].as_i64().unwrap()).sum::<i64>(),
        300
    );
}

#[test]
fn profile_shows_distributed_execution() {
    let vh = engine();
    sales_fixture(&vh);
    let (_, profile) = vh
        .query_profiled("SELECT store, count(*) FROM sales GROUP BY store")
        .unwrap();
    // The profile shows the exchange and per-sender pipelines.
    assert!(profile.contains("DXchg"), "{profile}");
    assert!(profile.contains("MScan"), "{profile}");
    let explain = vh
        .explain("SELECT store, count(*) FROM sales GROUP BY store")
        .unwrap();
    assert!(explain.contains("Aggr"), "{explain}");
    assert!(explain.contains("Scan[sales] (partitioned)"), "{explain}");
}

#[test]
fn sql_errors_are_clean() {
    let vh = engine();
    sales_fixture(&vh);
    assert!(vh.query("SELECT nonsense FROM sales").is_err());
    assert!(vh.query("SELECT * FROM missing_table").is_err());
    assert!(vh.query("SELECT store FROM sales GROUP BY").is_err());
}

/// `count(distinct …)` against a `HashSet` model, on rows with duplicates
/// and on no rows: grouped on the table's partition key (both aggregates of
/// the plan `Local`), grouped on another column (behind one hash split) and
/// global, beside `count(*)`, `sum`, `min` and `max`, on one partition and
/// on six.
#[test]
fn count_distinct_matches_a_set_model() {
    // Columns grp (the partition key), store (an index into STORES), item
    // and qty.
    const STORES: [&str; 4] = ["east", "north", "south", "west"];
    let rows: Vec<[i64; 4]> = (0..600)
        .map(|i| [i % 7, i * 5 % 4, i * 13 % 17, i % 50 - 20])
        .collect();
    let cell = |c: usize, v: i64| match c {
        1 => Value::Str(STORES[v as usize].into()),
        _ => Value::I64(v),
    };
    // Per group of column `key` (all rows when `None`), in key order: the
    // key, the distinct values of column `arg`, then count(*), sum, min and
    // max of qty.
    let model = |kept: &[&[i64; 4]], key: Option<usize>, arg: usize| {
        let mut groups = BTreeMap::<i64, (HashSet<i64>, Vec<i64>)>::new();
        for r in kept {
            let (set, qty) = groups.entry(key.map_or(0, |k| r[k])).or_default();
            set.insert(r[arg]);
            qty.push(r[3]);
        }
        let row = |(k, (set, qty)): (i64, (HashSet<i64>, Vec<i64>))| {
            let (min, max) = (qty.iter().min().unwrap(), qty.iter().max().unwrap());
            let stats = [
                set.len() as i64,
                qty.len() as i64,
                qty.iter().sum(),
                *min,
                *max,
            ];
            let key = key.map(|c| cell(c, k));
            key.into_iter().chain(stats.map(Value::I64)).collect()
        };
        groups.into_iter().map(row).collect::<Vec<Vec<Value>>>()
    };
    let aggs = "count(*), sum(qty), min(qty), max(qty) FROM visits{f}";
    for parts in [1, 6] {
        let vh = engine();
        vh.create_table(
            TableBuilder::new("visits")
                .column("grp", DataType::I64)
                .column("store", DataType::Str)
                .column("item", DataType::I64)
                .column("qty", DataType::I64)
                .partition_by(&["grp"], parts),
        )
        .unwrap();
        let values = rows.iter().map(|r| (0..4).map(|c| cell(c, r[c])).collect());
        vh.insert_rows("visits", values.collect()).unwrap();
        for (filter, bound) in [("", i64::MAX), (" WHERE qty < -20", -20)] {
            let kept: Vec<&[i64; 4]> = rows.iter().filter(|r| r[3] < bound).collect();
            // (select list and the rest, group column, argument, splits)
            for (query, key, arg, splits) in [
                (
                    "store, count(distinct item), {aggs} GROUP BY store ORDER BY store",
                    Some(1),
                    2,
                    1,
                ),
                (
                    "grp, count(distinct store), {aggs} GROUP BY grp ORDER BY grp",
                    Some(0),
                    1,
                    0,
                ),
                (
                    "grp, count(distinct grp), {aggs} GROUP BY grp ORDER BY grp",
                    Some(0),
                    0,
                    0,
                ),
                ("count(distinct item), {aggs}", None, 2, 0),
            ] {
                let sql = format!("SELECT {query}").replace("{aggs}", aggs);
                let sql = sql.replace("{f}", filter);
                let want = model(&kept, key, arg);
                assert_eq!(vh.query(&sql).unwrap(), want, "{sql}, {parts} partitions");
                let plan = vh.explain(&sql).unwrap();
                assert_eq!(plan.matches("DXchgHashSplit").count(), splits, "{plan}");
            }
            // Over no rows a global aggregate answers one row only if all it
            // computes is counts: no sum, min or max has a value there.
            let sql = format!("SELECT count(distinct item) FROM visits{filter}");
            let items: HashSet<i64> = kept.iter().map(|r| r[2]).collect();
            let want = vec![vec![Value::I64(items.len() as i64)]];
            assert_eq!(vh.query(&sql).unwrap(), want, "{sql}, {parts} partitions");
            // A count(*) beside it is a sum of the inner groups' counts, so
            // over no rows this answers no row where SQL answers (0, 0).
            let sql = format!("SELECT count(distinct item), count(*) FROM visits{filter}");
            let want: Vec<Vec<Value>> = model(&kept, None, 2)
                .iter()
                .map(|r| r[..2].to_vec())
                .collect();
            assert_eq!(vh.query(&sql).unwrap(), want, "{sql}, {parts} partitions");
        }
    }
}

#[test]
fn in_list_and_equality_agree_for_coarser_equal_and_finer_literals() {
    // `x IN (v)` binds `v` as `x = v` does, whatever its scale against the
    // column's. A literal finer than the column used to be compared raw
    // against raw: `amount IN (0.700)` matched the rows with `amount = 7.00`
    // and `id IN (4.2)` the row with `id = 42`.
    let vh = engine();
    sales_fixture(&vh);
    let count = |pred: &str| -> i64 {
        let sql = format!("SELECT count(*) FROM sales WHERE {pred}");
        vh.query(&sql).unwrap()[0][0].as_i64().unwrap()
    };
    for (col, literals) in [
        // Decimal(2): an integer, the column's scale, finer and whole, finer
        // and not.
        (
            "amount",
            &["7", "7.00", "7.000", "7.005", "0.700", "0.07"][..],
        ),
        // I64: equal, finer and whole, finer and not.
        ("id", &["42", "42.0", "42.5", "4.2"][..]),
        // Date: a date literal and a string that is one.
        ("day", &["date '1995-02-01'", "'1995-02-01'"][..]),
    ] {
        for v in literals {
            assert_eq!(
                count(&format!("{col} IN ({v})")),
                count(&format!("{col} = {v}")),
                "{col} IN ({v}) against {col} = {v}"
            );
        }
    }
    // amount is (i % 100).00: 7.00 for ten rows, nothing at 7.005 or 0.07.
    assert_eq!(count("amount IN (7)"), 10);
    assert_eq!(count("amount IN (7.000)"), 10);
    assert_eq!(count("amount IN (7.005)"), 0);
    assert_eq!(count("amount IN (0.700)"), 0);
    assert_eq!(count("id IN (4.2)"), 0);
    assert_eq!(count("amount IN (0.07, 7.005, 8.0)"), 10);
    assert_eq!(count("id IN (42.0, 42.5, 43)"), 2);
}

/// Broadcast and replicated build sides are built once per node however
/// many probe pipelines the node runs, and that count does not move the
/// answer: a fact table of 4 partitions on 2 nodes (two probe pipelines a
/// node, two streams a node) against the same rows in 2 partitions (one
/// pipeline, one stream). The join that builds a side shows the build input
/// under it in the profile; the others show only their probe input. A
/// broadcast side reaches its builder as a `BatchSource` copy, a replicated
/// side as the node's live scan of its replica.
#[test]
fn a_broadcast_build_is_built_once_per_node() {
    let run = |streams: usize, parts: usize, dim_parts: Option<usize>| {
        let vh = VectorH::start(ClusterConfig {
            nodes: 2,
            streams_per_node: streams,
            rows_per_chunk: 128,
            hdfs_block_size: 16 * 1024,
            ..Default::default()
        })
        .unwrap();
        vh.create_table(
            TableBuilder::new("fact")
                .column("id", DataType::I64)
                .column("dk", DataType::I64)
                .column("amount", DataType::I64)
                .partition_by(&["id"], parts),
        )
        .unwrap();
        let mut dim = TableBuilder::new("dim")
            .column("dk", DataType::I64)
            .column("name", DataType::Str);
        if let Some(n) = dim_parts {
            dim = dim.partition_by(&["dk"], n);
        }
        vh.create_table(dim).unwrap();
        let fact = (0..2000)
            .map(|i| vec![Value::I64(i), Value::I64(i % 40), Value::I64(i * 7 % 1000)])
            .collect();
        vh.insert_rows("fact", fact).unwrap();
        let dim = (0..30)
            .map(|k| vec![Value::I64(k), Value::Str(format!("n{}", k % 7))])
            .collect();
        vh.insert_rows("dim", dim).unwrap();
        let sql = "SELECT count(*), sum(f.amount), min(d.name), max(d.name) \
                   FROM fact f JOIN dim d ON f.dk = d.dk";
        let explain = vh.explain(sql).unwrap();
        let build = if dim_parts.is_some() {
            "DXchgBroadcast"
        } else {
            "Scan[dim] (replicated)"
        };
        assert!(
            explain.contains("BroadcastBuild") && explain.contains(build),
            "{explain}"
        );
        let (rows, profile) = vh.query_profiled(sql).unwrap();
        let count = |op: &str| {
            profile
                .lines()
                .filter(|l| l.trim_start().starts_with(op))
                .count()
        };
        let builds = if dim_parts.is_some() {
            count("BatchSource:")
        } else {
            // The build inputs the joins list: a join's second child.
            let depth = |l: &str| l.len() - l.trim_start().len();
            let lines: Vec<&str> = profile.lines().collect();
            let mut build_inputs = Vec::new();
            for (i, join) in lines.iter().enumerate() {
                if join.trim_start().starts_with("HashJoin:") {
                    let children = lines[i + 1..]
                        .iter()
                        .take_while(|l| depth(l) > depth(join))
                        .filter(|l| depth(l) == depth(join) + 2);
                    build_inputs.extend(children.skip(1).map(|l| l.trim_start()));
                }
            }
            assert_eq!(count("BatchSource:"), 0, "{profile}");
            assert!(
                build_inputs
                    .iter()
                    .all(|l| l.starts_with("MScan:") && l.contains(" in=30 ")),
                "{profile}"
            );
            build_inputs.len()
        };
        (rows, count("HashJoin:"), builds, profile)
    };
    for dim_parts in [None, Some(3)] {
        let (one, joins_one, builds_one, _) = run(1, 2, dim_parts);
        let (two, joins_two, builds_two, profile) = run(2, 4, dim_parts);
        assert_eq!(one, two, "dim partitions {dim_parts:?}");
        assert_eq!(one[0][0], Value::I64(1500));
        assert_eq!((joins_one, builds_one), (2, 2), "one pipeline a node");
        assert_eq!(
            (joins_two, builds_two),
            (4, 2),
            "two pipelines a node\n{profile}"
        );
    }
}
