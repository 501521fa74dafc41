//! Negative-path contract for the SQL frontend: every rejected program must
//! come back as a `VhError` whose message *names the offending token* — a
//! user staring at a 40-line query needs the error to point at something.
//! These tests pin the messages so refactors can't silently degrade them
//! into generic "parse error" strings.

use vectorh_common::{DataType, Schema, VhError};
use vectorh_planner::logical::{MemoryCatalog, TableMeta};
use vectorh_planner::parse_query;

fn catalog() -> MemoryCatalog {
    let mut c = MemoryCatalog::new();
    c.add(TableMeta {
        name: "orders".into(),
        schema: Schema::of(&[
            ("o_orderkey", DataType::I64),
            ("o_custkey", DataType::I64),
            ("o_totalprice", DataType::Decimal { scale: 2 }),
            ("o_ratio", DataType::F64),
        ]),
        rows: 1000,
        partitioning: Some((vec![0], 4)),
        sort_order: Some(vec![0]),
    });
    c.add(TableMeta {
        name: "customer".into(),
        schema: Schema::of(&[
            ("c_custkey", DataType::I64),
            ("c_name", DataType::Str),
            // Same unqualified name on both sides of a join:
            ("o_orderkey", DataType::I64),
        ]),
        rows: 100,
        partitioning: None,
        sort_order: None,
    });
    c
}

/// Parse must fail and the message must contain `needle`.
fn expect_err(sql: &str, needle: &str) {
    match parse_query(sql, &catalog()) {
        Ok(plan) => panic!("expected error containing {needle:?} for {sql:?}, got plan {plan:?}"),
        Err(e) => {
            let msg = format!("{e}");
            assert!(
                msg.contains(needle),
                "error for {sql:?} should name {needle:?}, got: {msg}"
            );
        }
    }
}

#[test]
fn unknown_table_is_named() {
    let err = parse_query("select x from nosuch", &catalog()).unwrap_err();
    assert!(matches!(err, VhError::Catalog(_)), "got {err:?}");
    assert!(format!("{err}").contains("nosuch"));
}

#[test]
fn unknown_column_is_named() {
    expect_err("select o_nope from orders", "o_nope");
    expect_err(
        "select o_orderkey from orders where o_missing = 1",
        "o_missing",
    );
    expect_err("select o_orderkey from orders order by o_ghost", "o_ghost");
}

#[test]
fn ambiguous_unqualified_column_is_named() {
    // `o_orderkey` exists in both orders and customer.
    expect_err(
        "select o_orderkey from orders join customer on o_custkey = c_custkey",
        "ambiguous column 'o_orderkey'",
    );
    // Qualifying it resolves the ambiguity.
    parse_query(
        "select orders.o_orderkey from orders join customer on o_custkey = c_custkey",
        &catalog(),
    )
    .expect("qualified column should resolve");
}

#[test]
fn non_grouped_select_column_is_named() {
    expect_err(
        "select o_custkey, sum(o_totalprice) from orders group by o_orderkey",
        "non-aggregated select column 'o_custkey'",
    );
    expect_err(
        "select o_custkey, count(*) from orders",
        "non-aggregated select column 'o_custkey'",
    );
}

#[test]
fn trailing_tokens_are_named() {
    // `garbage` is eaten as a table alias (bare-identifier aliasing), so the
    // first genuinely trailing token is `here` — that is what must be named.
    expect_err("select o_orderkey from orders garbage here", "here");
    expect_err("select o_orderkey from orders limit 5 extra", "extra");
    expect_err("select o_orderkey from orders; drop", "';'");
}

#[test]
fn bad_order_by_positions() {
    expect_err("select o_orderkey from orders order by 0", "1-based");
    expect_err(
        "select o_orderkey from orders order by 7",
        "position 7 is out of range",
    );
}

#[test]
fn malformed_syntax_names_the_token() {
    expect_err("select o_orderkey from orders where o_orderkey ~ 3", "'~'");
    expect_err("select o_orderkey orders", "orders");
    expect_err("select count(o_orderkey, o_custkey) from orders", ",");
}

/// `count(distinct x)` plans as a grouping on `x`: one argument per query,
/// none a float (no group key is), and no `avg` beside it.
#[test]
fn count_distinct_refusals_are_named() {
    let two = "select count(distinct o_custkey), count(distinct o_orderkey) from orders";
    expect_err(two, "a second count(distinct) argument 'o_orderkey'");
    let avg = "select avg(o_totalprice), count(distinct o_orderkey) from orders";
    expect_err(avg, "avg beside count(distinct)");
    let float = "select count(distinct o_ratio) from orders";
    expect_err(float, "count(distinct) over the float 'o_ratio'");
    let same = "select count(distinct o_custkey) from orders having count(distinct o_custkey) > 1";
    parse_query(same, &catalog()).expect("one argument named twice");
}

/// All frontend rejections surface as VhError::Plan (or Catalog for unknown
/// tables) — never a panic, never a silent wrong plan.
#[test]
fn errors_are_plan_errors() {
    let cases = [
        "select o_nope from orders",
        "select o_orderkey from orders order by 0",
        "select o_orderkey from orders limit 5 extra",
        "select o_custkey, count(*) from orders",
        "select o_orderkey from orders join customer on o_custkey = c_custkey where o_orderkey = 1",
        "select count(distinct o_custkey), count(distinct o_orderkey) from orders",
        "select avg(o_totalprice), count(distinct o_orderkey) from orders",
        "select count(distinct o_ratio) from orders",
    ];
    for sql in cases {
        match parse_query(sql, &catalog()) {
            Err(VhError::Plan(_)) | Err(VhError::Catalog(_)) => {}
            other => panic!("{sql:?}: expected Plan/Catalog error, got {other:?}"),
        }
    }
}
