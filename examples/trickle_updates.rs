//! Trickle updates through Positional Delta Trees (§2/§6).
//!
//! Shows the full PDT lifecycle on an ordered (clustered) table: trickle
//! inserts at their sort positions, deletes and modifies, snapshot
//! isolation, a write-write conflict abort, and background update
//! propagation separating tail inserts from in-place updates.
//!
//! ```sh
//! cargo run --release --example trickle_updates
//! ```

use vectorh::{ClusterConfig, TableBuilder, VectorH};
use vectorh_common::{DataType, Value};
use vectorh_exec::expr::Expr;

fn main() -> vectorh_common::Result<()> {
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 2048,
        ..Default::default()
    })?;
    vh.create_table(
        TableBuilder::new("events")
            .column("ts", DataType::I64)
            .column("kind", DataType::Str)
            .column("score", DataType::I64)
            .partition_by(&["ts"], 4)
            .clustered_by(&["ts"]), // ordered table: updates *must* go to PDTs
    )?;
    vh.insert_rows(
        "events",
        (0..20_000)
            .map(|i| vec![Value::I64(i * 10), Value::Str("base".into()), Value::I64(1)])
            .collect(),
    )?;
    println!("loaded {} rows", vh.table_rows("events")?);

    // Trickle inserts interleave into the clustered order — positionally,
    // via PDTs, without rewriting any compressed block.
    vh.trickle_insert(
        "events",
        (0..500)
            .map(|i| {
                vec![
                    Value::I64(i * 400 + 5),
                    Value::Str("late".into()),
                    Value::I64(7),
                ]
            })
            .collect(),
    )?;
    let rows = vh.query("SELECT count(*) FROM events WHERE kind = 'late'")?;
    println!("late arrivals visible immediately: {}", rows[0][0]);

    // Deletes and modifies also land in the PDTs.
    let deleted = vh.delete_where(
        "events",
        &Expr::lt(Expr::col(0), Expr::lit(Value::I64(1000))),
    )?;
    let updated = vh.update_where(
        "events",
        &Expr::eq(Expr::col(1), Expr::lit(Value::Str("late".into()))),
        2,
        Value::I64(99),
    )?;
    println!("deleted {deleted} rows, updated {updated} rows — storage untouched");

    // Write-write conflicts abort at tuple granularity (optimistic CC).
    let rt = vh.table("events")?;
    let mut t1 = vh.txns.begin(&rt.pids)?;
    let mut t2 = vh.txns.begin(&rt.pids)?;
    vh.txns
        .modify_at(&mut t1, rt.pids[0], 0, 2, Value::I64(-1))?;
    vh.txns
        .modify_at(&mut t2, rt.pids[0], 0, 2, Value::I64(-2))?;
    vh.txns.commit(t1, |_| Ok(()))?;
    match vh.txns.commit(t2, |_| Ok(())) {
        Err(e) => println!("second writer aborted as expected: {e}"),
        Ok(_) => println!("unexpected: no conflict"),
    }

    // PDT memory pressure triggers update propagation.
    let before = vh.query("SELECT count(*), sum(score) FROM events")?;
    let flushed = vh.propagate_table("events", true)?;
    let after = vh.query("SELECT count(*), sum(score) FROM events")?;
    println!(
        "propagated {flushed} partitions; results unchanged: {} / {}",
        before == after,
        after[0][0]
    );

    // After propagation the data is back in clean sorted chunks; MinMax
    // indexes were rebuilt, so range scans skip again.
    let io0 = vh.fs().stats().snapshot();
    vh.query("SELECT count(*) FROM events WHERE ts < 5000")?;
    let narrow = vh.fs().stats().snapshot().since(&io0).read_bytes();
    let io1 = vh.fs().stats().snapshot();
    vh.query("SELECT count(*) FROM events WHERE ts < 100000000")?;
    let wide = vh.fs().stats().snapshot().since(&io1).read_bytes();
    println!(
        "MinMax skipping after propagation: selective scan reads {} vs full {}",
        vectorh_common::util::fmt_bytes(narrow),
        vectorh_common::util::fmt_bytes(wide)
    );
    Ok(())
}
