//! Kernel-path vs scalar-reference equivalence.
//!
//! The vectorized hash kernels (columnar hashing, flat open-addressing
//! table, batch gather) must produce byte-identical results to naive
//! row-at-a-time implementations on TPC-H-shaped data: integer and string
//! keys, dates (I32 layout), scaled decimals (I64 layout), duplicate keys,
//! empty build sides, multi-column keys.

use std::collections::HashMap;
use std::sync::Arc;

use vectorh_common::rng::SplitMix64;
use vectorh_common::{ColumnData, DataType, Schema, StrVec, Value};
use vectorh_exec::aggr::{AggFn, AggMode, Aggr};
use vectorh_exec::batch::collect_rows;
use vectorh_exec::join::{HashJoin, JoinKind};
use vectorh_exec::operator::BatchSource;
use vectorh_exec::{Batch, Operator};

/// A TPC-H-shaped table: orderkey-like I64, date (I32 layout), decimal
/// price (I64 layout), low-cardinality string tag.
fn lineitem_like(rng: &mut SplitMix64, n: usize, key_space: u64) -> Batch {
    let schema = Arc::new(Schema::of(&[
        ("k", DataType::I64),
        ("d", DataType::Date),
        ("price", DataType::Decimal { scale: 2 }),
        ("tag", DataType::Str),
    ]));
    let keys: Vec<i64> = (0..n).map(|_| rng.next_bounded(key_space) as i64).collect();
    let dates: Vec<i32> = (0..n)
        .map(|_| 9000 + rng.next_bounded(2500) as i32)
        .collect();
    let prices: Vec<i64> = (0..n).map(|_| rng.range_i64(100, 99_999)).collect();
    let tags: Vec<String> = (0..n)
        .map(|_| {
            if rng.chance(0.1) {
                format!(
                    "rare-{}-{}",
                    rng.next_bounded(50),
                    "x".repeat(rng.next_bounded(30) as usize)
                )
            } else {
                format!("tag{}", rng.next_bounded(7))
            }
        })
        .collect();
    Batch::new(
        schema,
        vec![
            ColumnData::I64(keys),
            ColumnData::I32(dates),
            ColumnData::I64(prices),
            ColumnData::Str(tags.into()),
        ],
    )
    .unwrap()
}

fn source(b: &Batch, chunk: usize) -> Box<dyn Operator> {
    Box::new(BatchSource::from_batch(b.clone(), chunk))
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// A key value as the reference join compares it: integers of every width
/// and logical type by value, floats with `-0.0` as `+0.0`, strings by
/// their text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RefKey {
    Int(i64),
    Float(u64),
    Str(String),
}

fn ref_key(b: &Batch, k: usize, i: usize) -> RefKey {
    match b.column(k) {
        ColumnData::I32(v) => RefKey::Int(v[i] as i64),
        ColumnData::I64(v) => RefKey::Int(v[i]),
        ColumnData::F64(v) => {
            assert!(!v[i].is_nan(), "the reference has no NaN keys");
            RefKey::Float((v[i] + 0.0).to_bits())
        }
        ColumnData::Str(v) => RefKey::Str(v.get(i).to_owned()),
    }
}

/// Row-at-a-time reference inner/outer/semi/anti join on whole-row values,
/// in the order the engine promises: probe-row major, and the build rows
/// of one probe row last-inserted first.
fn reference_join(
    probe: &Batch,
    build: &Batch,
    pkeys: &[usize],
    bkeys: &[usize],
    kind: JoinKind,
) -> Vec<Vec<Value>> {
    let key_of = |b: &Batch, keys: &[usize], i: usize| -> Vec<RefKey> {
        keys.iter().map(|&k| ref_key(b, k, i)).collect()
    };
    let mut index: HashMap<Vec<RefKey>, Vec<usize>> = HashMap::new();
    for j in (0..build.len()).rev() {
        index.entry(key_of(build, bkeys, j)).or_default().push(j);
    }
    let mut out = Vec::new();
    for i in 0..probe.len() {
        let matches = index.get(&key_of(probe, pkeys, i));
        let hits = matches.map(|m| m.len()).unwrap_or(0);
        match kind {
            JoinKind::Inner => {
                for &j in matches.into_iter().flatten() {
                    let mut row = probe.row(i);
                    row.extend(build.row(j));
                    out.push(row);
                }
            }
            JoinKind::LeftOuter => {
                if hits == 0 {
                    let mut row = probe.row(i);
                    for c in 0..build.schema.len() {
                        row.push(match build.schema.dtype(c) {
                            DataType::Str => Value::Str(String::new()),
                            DataType::F64 => Value::F64(0.0),
                            DataType::Date => Value::Date(0),
                            DataType::Decimal { scale } => Value::Decimal(0, scale),
                            DataType::I32 => Value::I32(0),
                            _ => Value::I64(0),
                        });
                    }
                    row.push(Value::I32(0));
                    out.push(row);
                } else {
                    for &j in matches.into_iter().flatten() {
                        let mut row = probe.row(i);
                        row.extend(build.row(j));
                        row.push(Value::I32(1));
                        out.push(row);
                    }
                }
            }
            JoinKind::Semi => {
                if hits > 0 {
                    out.push(probe.row(i));
                }
            }
            JoinKind::Anti => {
                if hits == 0 {
                    out.push(probe.row(i));
                }
            }
        }
    }
    out
}

#[test]
fn joins_match_reference_on_tpch_shaped_data() {
    let mut rng = SplitMix64::new(0x10E9);
    for round in 0..3 {
        let key_space = [3, 17, 400][round];
        let probe = lineitem_like(&mut rng, 400, key_space);
        let build = lineitem_like(&mut rng, 200, key_space);
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            // Single integer key, string key, and multi-column (int, str) key.
            for keys in [vec![0usize], vec![3], vec![0, 3]] {
                let mut j = HashJoin::new(
                    source(&probe, 97),
                    source(&build, 64),
                    keys.clone(),
                    keys.clone(),
                    kind,
                )
                .unwrap();
                let got = sorted(collect_rows(&mut j).unwrap());
                let want = sorted(reference_join(&probe, &build, &keys, &keys, kind));
                assert_eq!(got, want, "round {round} kind {kind:?} keys {keys:?}");
            }
        }
    }
}

#[test]
fn join_with_empty_build_side_all_kinds() {
    let mut rng = SplitMix64::new(0xE0);
    let probe = lineitem_like(&mut rng, 100, 10);
    let schema = probe.schema.clone();
    let empty = Batch::empty(schema);
    for kind in [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ] {
        let mut j = HashJoin::new(
            source(&probe, 33),
            source(&empty, 33),
            vec![0],
            vec![0],
            kind,
        )
        .unwrap();
        let got = sorted(collect_rows(&mut j).unwrap());
        let want = sorted(reference_join(&probe, &empty, &[0], &[0], kind));
        assert_eq!(got, want, "kind {kind:?}");
        match kind {
            JoinKind::Inner | JoinKind::Semi => assert!(got.is_empty()),
            JoinKind::LeftOuter | JoinKind::Anti => assert_eq!(got.len(), probe.len()),
        }
    }
}

const ALL_KINDS: [JoinKind; 4] = [
    JoinKind::Inner,
    JoinKind::LeftOuter,
    JoinKind::Semi,
    JoinKind::Anti,
];

/// A batch of named columns, each typed by its layout.
fn batch_of(cols: Vec<(&str, ColumnData)>) -> Batch {
    let fields: Vec<(&str, DataType)> = cols
        .iter()
        .map(|(name, c)| {
            let dtype = match c {
                ColumnData::I32(_) => DataType::I32,
                ColumnData::I64(_) => DataType::I64,
                ColumnData::F64(_) => DataType::F64,
                ColumnData::Str(_) => DataType::Str,
            };
            (*name, dtype)
        })
        .collect();
    let columns = cols.into_iter().map(|(_, c)| c).collect();
    Batch::new(Arc::new(Schema::of(&fields)), columns).unwrap()
}

/// A probe or build table: the key columns, then the row id as payload (so
/// a row out of order cannot hide behind an equal neighbour).
fn keyed(keys: Vec<ColumnData>) -> Batch {
    let n = keys.first().map_or(0, |c| c.len());
    let names = ["k0", "k1", "k2"];
    let mut cols: Vec<(&str, ColumnData)> = names.into_iter().zip(keys).collect();
    cols.push(("id", ColumnData::I64((0..n as i64).collect())));
    batch_of(cols)
}

/// Every kind over `probe ⋈ build`, probe vectors of 1, 1023, 1024 and
/// 1025 rows, row for row (not sorted) against the reference.
fn check_order(case: &str, probe: &Batch, build: &Batch, pkeys: &[usize], bkeys: &[usize]) {
    for kind in ALL_KINDS {
        if pkeys.is_empty() && kind != JoinKind::Inner {
            continue;
        }
        let want = reference_join(probe, build, pkeys, bkeys, kind);
        for chunk in [1, 1023, 1024, 1025] {
            let mut j = HashJoin::new(
                source(probe, chunk),
                source(build, 700),
                pkeys.to_vec(),
                bkeys.to_vec(),
                kind,
            )
            .unwrap();
            let got = collect_rows(&mut j).unwrap();
            let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
            assert!(
                got.len() == want.len() && first_diff.is_none(),
                "{case}: {kind:?}, probe vectors of {chunk}: {} rows for {}, first difference at {first_diff:?}",
                got.len(),
                want.len(),
            );
        }
    }
}

fn i64s(rng: &mut SplitMix64, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..n).map(|_| rng.range_i64(lo, hi)).collect()
}

fn pick(rng: &mut SplitMix64, n: usize, from: &[i64]) -> Vec<i64> {
    (0..n)
        .map(|_| from[rng.next_bounded(from.len() as u64) as usize])
        .collect()
}

#[test]
fn join_order_dense_integer_keys() {
    let mut rng = SplitMix64::new(0xD0E5);
    // Direct slots: duplicates, negative keys, probe misses below the
    // minimum and above the maximum.
    let build = keyed(vec![ColumnData::I64(i64s(&mut rng, 200, -60, 60))]);
    let probe = keyed(vec![ColumnData::I64(i64s(&mut rng, 2100, -90, 90))]);
    check_order("dense with duplicates", &probe, &build, &[0], &[0]);
    // A span of exactly the slot budget (4 · rows) and one past it.
    for span in [4 * 1500, 4 * 1500 + 1] {
        let mut keys = i64s(&mut rng, 1500, 0, span - 1);
        keys[0] = 0;
        keys[1] = span - 1;
        let build = keyed(vec![ColumnData::I64(keys)]);
        let probe = keyed(vec![ColumnData::I64(i64s(&mut rng, 2100, -5, span + 5))]);
        check_order(&format!("span {span}"), &probe, &build, &[0], &[0]);
    }
    // Dense keys at either end of i64: `key − min` must never be taken for
    // a probe key outside [min, max].
    let top: Vec<i64> = (i64::MAX - 20..=i64::MAX).collect();
    let bottom: Vec<i64> = (i64::MIN..=i64::MIN + 20).collect();
    for (name, near, far) in [("top", &top, &bottom), ("bottom", &bottom, &top)] {
        let build = keyed(vec![ColumnData::I64(pick(&mut rng, 60, near))]);
        let mut either = near.clone();
        either.extend(far.iter().step_by(5));
        let probe = keyed(vec![ColumnData::I64(pick(&mut rng, 2100, &either))]);
        check_order(
            &format!("dense at the {name} of i64"),
            &probe,
            &build,
            &[0],
            &[0],
        );
    }
}

#[test]
fn join_order_sparse_and_extreme_keys() {
    let mut rng = SplitMix64::new(0x5BA5);
    // Hash slots: a sparse range with duplicates.
    let pool = i64s(&mut rng, 150, -1_000_000_000, 1_000_000_000);
    let build = keyed(vec![ColumnData::I64(pick(&mut rng, 300, &pool))]);
    let mut probe_keys = pick(&mut rng, 2100, &pool);
    for k in probe_keys.iter_mut().step_by(3) {
        *k += 1;
    }
    let probe = keyed(vec![ColumnData::I64(probe_keys)]);
    check_order("sparse", &probe, &build, &[0], &[0]);
    // A span no i64 subtraction holds.
    let extremes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let build = keyed(vec![ColumnData::I64(pick(&mut rng, 40, &extremes))]);
    let probe = keyed(vec![ColumnData::I64(pick(&mut rng, 2100, &extremes))]);
    check_order("i64::MIN and i64::MAX", &probe, &build, &[0], &[0]);
}

#[test]
fn join_order_cross_width_keys() {
    let mut rng = SplitMix64::new(0xC205);
    let narrow = |v: Vec<i64>| ColumnData::I32(v.into_iter().map(|x| x as i32).collect());
    for (name, lo, hi) in [
        ("dense", -40, 40),
        ("sparse", -2_000_000_000, 2_000_000_000),
    ] {
        let pool = i64s(&mut rng, 100, lo, hi);
        let b = pick(&mut rng, 250, &pool);
        let p = pick(&mut rng, 2100, &pool);
        let wide_build = keyed(vec![ColumnData::I64(b.clone())]);
        let narrow_probe = keyed(vec![narrow(p.clone())]);
        check_order(
            &format!("{name}: I32 probe, I64 build"),
            &narrow_probe,
            &wide_build,
            &[0],
            &[0],
        );
        let narrow_build = keyed(vec![narrow(b)]);
        let mut p = p;
        p[0] = i64::MAX; // wider than any I32 build key
        let wide_probe = keyed(vec![ColumnData::I64(p)]);
        check_order(
            &format!("{name}: I64 probe, I32 build"),
            &wide_probe,
            &narrow_build,
            &[0],
            &[0],
        );
    }
}

#[test]
fn join_order_multi_key_string_and_float_keys() {
    let mut rng = SplitMix64::new(0x57F1);
    // Two keys: a dense integer and a string.
    let words = ["a", "bb", "a value well past sixteen bytes", ""];
    let strs = |rng: &mut SplitMix64, n: usize| -> ColumnData {
        let v: Vec<&str> = (0..n)
            .map(|_| words[rng.next_bounded(4) as usize])
            .collect();
        ColumnData::Str(v.into())
    };
    let build = keyed(vec![
        ColumnData::I64(i64s(&mut rng, 300, 0, 20)),
        strs(&mut rng, 300),
    ]);
    let probe = keyed(vec![
        ColumnData::I64(i64s(&mut rng, 2100, -2, 22)),
        strs(&mut rng, 2100),
    ]);
    check_order("two keys", &probe, &build, &[0, 1], &[0, 1]);

    // Strings: a dictionary naming "pear" twice; coded against flat, and
    // both sides coded against the one dictionary.
    let dict = StrVec::from([
        "apple",
        "pear",
        "fig",
        "pear",
        "a kiwi longer than sixteen bytes",
    ]);
    let codes: Vec<u32> = (0..2400).map(|_| rng.next_bounded(5) as u32).collect();
    let all = StrVec::coded(dict, codes).unwrap();
    let coded_build = all.gather(2100..2400);
    let coded_probe = all.gather(0..2100);
    assert!(coded_build.shared_codes(&coded_probe).is_some());
    let flat_probe: StrVec = coded_probe.iter().collect();
    let build = keyed(vec![ColumnData::Str(coded_build)]);
    for (name, probe) in [("flat", flat_probe), ("coded", coded_probe)] {
        let probe = keyed(vec![ColumnData::Str(probe)]);
        check_order(
            &format!("{name} probe, coded build"),
            &probe,
            &build,
            &[0],
            &[0],
        );
    }

    // Floats, the two zeros among them.
    let floats = [0.0, -0.0, 1.5, -2.25, 1e300];
    let f = |rng: &mut SplitMix64, n: usize| -> ColumnData {
        ColumnData::F64(
            (0..n)
                .map(|_| floats[rng.next_bounded(5) as usize])
                .collect(),
        )
    };
    let build = keyed(vec![f(&mut rng, 40)]);
    let probe = keyed(vec![f(&mut rng, 2100)]);
    check_order("f64", &probe, &build, &[0], &[0]);
}

#[test]
fn join_order_keyless_empty_and_one_to_one() {
    let mut rng = SplitMix64::new(0x1701);
    let probe = keyed(vec![ColumnData::I64(i64s(&mut rng, 2100, 0, 500))]);
    // The keyless cross product (inner only).
    for rows in [1, 3] {
        let build = keyed(vec![ColumnData::I64(i64s(&mut rng, rows, 0, 9))]);
        check_order(
            &format!("keyless, {rows} build rows"),
            &probe,
            &build,
            &[],
            &[],
        );
    }
    // An empty build.
    let empty = Batch::empty(keyed(vec![ColumnData::I64(vec![])]).schema);
    check_order("empty build", &probe, &empty, &[0], &[0]);
    // A foreign key meeting its primary key: every probe row matches once,
    // so the probe side takes the move path, through direct slots (dense
    // keys) and through hash slots (the same keys spread out).
    let mut pk: Vec<i64> = (0..500).collect();
    for i in (1..pk.len()).rev() {
        pk.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    let fk = pick(&mut rng, 2100, &pk);
    for stride in [1, 1_000_003] {
        let spread = |v: &[i64]| ColumnData::I64(v.iter().map(|k| k * stride).collect());
        let build = keyed(vec![spread(&pk)]);
        let probe = keyed(vec![spread(&fk)]);
        check_order(
            &format!("one-to-one, stride {stride}"),
            &probe,
            &build,
            &[0],
            &[0],
        );
    }
}

/// Row-at-a-time reference grouped aggregation (count, sum, min, max).
fn reference_aggr(input: &Batch, group: usize, sum_col: usize) -> Vec<Vec<Value>> {
    let key_of = |i: usize| input.column(group).value_at(i, input.schema.dtype(group));
    // key bytes -> (key value, count, sum, min, max)
    type Slot = (Value, i64, i64, Option<i64>, Option<i64>);
    let mut acc: HashMap<Vec<u8>, Slot> = HashMap::new();
    for i in 0..input.len() {
        let key = key_of(i);
        let x = match input.column(sum_col) {
            ColumnData::I64(v) => v[i],
            ColumnData::I32(v) => v[i] as i64,
            _ => unreachable!(),
        };
        let slot = acc
            .entry(format!("{key:?}").into_bytes())
            .or_insert_with(|| (key, 0, 0, None, None));
        slot.1 += 1;
        slot.2 += x;
        slot.3 = Some(slot.3.map_or(x, |m: i64| m.min(x)));
        slot.4 = Some(slot.4.map_or(x, |m: i64| m.max(x)));
    }
    let sum_dt = input.schema.dtype(sum_col);
    let wrap = |raw: i64| match sum_dt {
        DataType::Decimal { scale } => Value::Decimal(raw, scale),
        _ => Value::I64(raw),
    };
    let minmax_dt = input.schema.dtype(sum_col);
    let wrap_mm = |raw: i64| match minmax_dt {
        DataType::Decimal { scale } => Value::Decimal(raw, scale),
        DataType::I32 | DataType::Date => Value::I32(raw as i32),
        _ => Value::I64(raw),
    };
    acc.into_values()
        .map(|(key, count, sum, min, max)| {
            vec![
                key,
                Value::I64(count),
                wrap(sum),
                wrap_mm(min.unwrap()),
                wrap_mm(max.unwrap()),
            ]
        })
        .collect()
}

#[test]
fn aggregation_matches_reference_on_tpch_shaped_data() {
    let mut rng = SplitMix64::new(0xA6612);
    for round in 0..3 {
        let input = lineitem_like(&mut rng, 700, [4, 50, 999][round]);
        // Group by string tag and by integer key; aggregate the decimal.
        for group in [0usize, 3] {
            let aggs = vec![
                AggFn::CountStar,
                AggFn::Sum(2),
                AggFn::Min(2),
                AggFn::Max(2),
            ];
            let mut a =
                Aggr::new(source(&input, 128), vec![group], aggs, AggMode::Complete).unwrap();
            let got = sorted(collect_rows(&mut a).unwrap());
            let want = sorted(reference_aggr(&input, group, 2));
            assert_eq!(got, want, "round {round} group col {group}");
        }
    }
}

#[test]
fn partial_final_split_matches_complete_across_shapes() {
    let mut rng = SplitMix64::new(0x9A97);
    for _ in 0..3 {
        let input = lineitem_like(&mut rng, 500, 30);
        let aggs = || {
            vec![
                AggFn::CountStar,
                AggFn::Sum(2),
                AggFn::Avg(2),
                AggFn::Min(1),
                AggFn::Max(1),
            ]
        };
        let mut complete =
            Aggr::new(source(&input, 100), vec![3], aggs(), AggMode::Complete).unwrap();
        let want = sorted(collect_rows(&mut complete).unwrap());

        // Split the input across two partial instances, merge with a final.
        let half = input.slice(0, input.len() / 2);
        let rest = input.slice(input.len() / 2, input.len());
        let mut partial_batches = Vec::new();
        let mut pschema = None;
        for part in [half, rest] {
            let mut p = Aggr::new(source(&part, 77), vec![3], aggs(), AggMode::Partial).unwrap();
            pschema = Some(p.schema());
            while let Some(b) = p.next().unwrap() {
                partial_batches.push(b);
            }
        }
        // Final-mode agg column indices address the partial *state* columns:
        // [tag, count, sum, avg_sum, avg_count, min, max].
        let final_aggs = vec![
            AggFn::CountStar,
            AggFn::Sum(2),
            AggFn::Avg(3),
            AggFn::Min(5),
            AggFn::Max(6),
        ];
        let src = Box::new(BatchSource::new(pschema.unwrap(), partial_batches));
        let mut fin = Aggr::new(src, vec![0], final_aggs, AggMode::Final).unwrap();
        let got = sorted(collect_rows(&mut fin).unwrap());
        assert_eq!(got, want);
    }
}

#[test]
fn operators_bit_identical_across_simd_arms() {
    // The SIMD dispatch (AVX2 / SWAR / scalar) must never change a query
    // answer: run hashing, batch probe and a filtered join under every
    // forced mode and demand identical results. On builds where AVX2 is
    // unavailable (or compiled out via --cfg vectorh_force_swar), forcing
    // it degrades to SWAR and the comparison still holds.
    use vectorh_common::simd::{force_mode, SimdMode};
    use vectorh_exec::expr::Expr;
    use vectorh_exec::filter::Select;
    use vectorh_exec::kernels::hash::{hash_columns, JOIN_SEED};
    use vectorh_exec::kernels::table::HashTable;

    let mut rng = SplitMix64::new(0x51D5);
    let probe = lineitem_like(&mut rng, 600, 37);
    let build = lineitem_like(&mut rng, 300, 37);
    let refs: Vec<&ColumnData> = probe.columns.iter().collect();

    type ArmResult = (Vec<u64>, Vec<u32>, Vec<Vec<Value>>);
    let mut baseline: Option<ArmResult> = None;
    for mode in [SimdMode::Scalar, SimdMode::Swar, SimdMode::Avx2] {
        force_mode(Some(mode));
        let mut hashes = Vec::new();
        hash_columns(&refs, &[0, 3], JOIN_SEED, &mut hashes);
        let mut table = HashTable::new();
        table.insert_batch(&hashes);
        let mut heads = Vec::new();
        table.probe_batch(&hashes, &mut heads);
        let mut plan = Select::new(
            Box::new(
                HashJoin::new(
                    source(&probe, 91),
                    source(&build, 53),
                    vec![0],
                    vec![0],
                    JoinKind::Inner,
                )
                .unwrap(),
            ),
            Expr::ge(Expr::col(0), Expr::lit(Value::I64(18))),
        );
        let rows = sorted(collect_rows(&mut plan).unwrap());
        match &baseline {
            None => baseline = Some((hashes, heads, rows)),
            Some((h0, p0, r0)) => {
                assert_eq!(&hashes, h0, "hashes diverge under {mode:?}");
                assert_eq!(&heads, p0, "probe heads diverge under {mode:?}");
                assert_eq!(&rows, r0, "query rows diverge under {mode:?}");
            }
        }
    }
    force_mode(None);
}

#[test]
fn group_count_stress_forces_table_growth() {
    // More groups than the initial bucket count by orders of magnitude.
    let n = 40_000u64;
    let schema = Arc::new(Schema::of(&[("g", DataType::I64)]));
    let keys: Vec<i64> = (0..n as i64).flat_map(|k| [k, k]).collect();
    let batch = Batch::new(schema, vec![ColumnData::I64(keys)]).unwrap();
    let mut a = Aggr::new(
        source(&batch, 1024),
        vec![0],
        vec![AggFn::CountStar],
        AggMode::Complete,
    )
    .unwrap();
    let rows = collect_rows(&mut a).unwrap();
    assert_eq!(rows.len(), n as usize);
    assert!(rows.iter().all(|r| r[1] == Value::I64(2)));
}
