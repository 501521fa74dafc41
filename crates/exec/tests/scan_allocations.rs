//! Allocation guard for the read path: with `ColumnData::Str` one byte
//! buffer plus offsets, or one code buffer over a shared PDICT dictionary,
//! nothing between the chunk file and the group table allocates per value.
//! Draining a pipeline may allocate a constant per decoded chunk column and
//! a constant per output vector, whatever the number of rows in a chunk. A
//! `String` per value anywhere (the decoder, an `Expr::Col` that copies
//! value by value, a gather) costs at least 1,024 allocations per vector and
//! fails this, as does one allocation per input row in an operator (`Aggr`
//! once cloned its aggregate list per row), and so does a PDICT column
//! decoded to bytes instead of codes (see the two constants).
//!
//! The counter is per thread, so the two cases may run side by side; every
//! operator here runs on the thread that drains it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
use vectorh_common::types::dec;
use vectorh_common::{ColumnData, DataType, Schema, Value, VECTOR_SIZE};
use vectorh_exec::aggr::{AggFn, AggMode, Aggr};
use vectorh_exec::expr::Expr;
use vectorh_exec::filter::Select;
use vectorh_exec::project::Project;
use vectorh_exec::scan::MScan;
use vectorh_exec::Operator;
use vectorh_storage::{PartitionStore, StorageConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread that is shutting down may free after its
    // thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised `Cell` that
// neither allocates nor touches memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const CHUNKS: usize = 3;
/// Allowed per decoded chunk column: the store's read, the decoder's
/// buffers and their growth (17–21 taken). It was 48 while a PDICT string
/// column was decoded to bytes; a flat decode of the Q1 pipeline's two
/// flags does not fit.
const PER_CHUNK_COLUMN: u64 = 22;
/// Allowed per output vector of the pipeline's leaf, for all operators
/// above it together: the 16 the Q1-shaped pipeline below takes (the scan's
/// vector, `Select`'s gather, two computed columns, the output batches) and
/// one to spare. It was 56 while every literal was expanded to a vector and
/// every pass-through copied, and 23 while the flags were bytes (offsets and
/// bytes per string column where codes are one buffer; 22 taken); one more
/// buffer per vector anywhere in `Select`, `Project` or `Aggr`, or the flags
/// decoded flat again, does not fit. Held both as part of the total and,
/// doubling the rows with the chunk count fixed, as the growth per added
/// vector, which the slack in `PER_CHUNK_COLUMN` cannot hide.
const PER_VECTOR: u64 = 17;

/// `CHUNKS` chunks of `rows_per_chunk` rows each: a key, two decimals, two
/// low-cardinality strings (PDICT) and one string no two rows share (LZ).
fn store(rows_per_chunk: usize) -> PartitionStore {
    let fs: StoreRef = Arc::new(SimHdfs::new(
        3,
        BlockStoreConfig::default(),
        Arc::new(DefaultPolicy::new(7)),
    ));
    let schema = Schema::of(&[
        ("k", DataType::I64),
        ("price", DataType::Decimal { scale: 2 }),
        ("disc", DataType::Decimal { scale: 2 }),
        ("flag", DataType::Str),
        ("status", DataType::Str),
        ("comment", DataType::Str),
    ]);
    let mut s = PartitionStore::new(fs, "/db/t/p0/", schema, StorageConfig { rows_per_chunk });
    let n = (rows_per_chunk * CHUNKS) as i64;
    // Scrambled, so neither flag column is a run LZ could match whole.
    let pick = |i: i64, of: &[&'static str]| {
        of[(vectorh_common::util::hash_u64(i as u64) % of.len() as u64) as usize]
    };
    s.append_rows(&[
        ColumnData::I64((0..n).collect()),
        ColumnData::I64((0..n).map(|i| 10_000 + i % 977).collect()),
        ColumnData::I64((0..n).map(|i| i % 11).collect()),
        ColumnData::Str((0..n).map(|i| pick(i, &["A", "N", "R"])).collect()),
        ColumnData::Str((0..n).map(|i| pick(i / 3, &["F", "O"])).collect()),
        ColumnData::Str((0..n).map(|i| format!("comment of row {i}")).collect()),
    ])
    .unwrap();
    assert_eq!(s.n_chunks(), CHUNKS);
    s
}

/// Drain `op`; the rows it returned.
fn drain(mut op: impl Operator) -> u64 {
    let mut rows = 0;
    while let Some(b) = op.next().unwrap() {
        rows += b.len() as u64;
    }
    rows
}

/// Run `pipeline` over stores of `rows_per_chunk` and twice that, and hold
/// its allocations to the bound at both. `pipeline` returns the rows it
/// produced; `cols` is the number of columns its scan decodes.
fn hold_to_the_bound(
    what: &str,
    cols: usize,
    rows_per_chunk: usize,
    pipeline: impl Fn(&PartitionStore) -> u64,
    want_rows: impl Fn(u64) -> u64,
) {
    let mut measured = Vec::new();
    for rows_per_chunk in [rows_per_chunk, 2 * rows_per_chunk] {
        let s = store(rows_per_chunk);
        // Once unmeasured: dispatch detection and other lazy set-up.
        pipeline(&s);
        let (allocations, rows) = allocations_of(|| pipeline(&s));
        let scanned = (rows_per_chunk * CHUNKS) as u64;
        assert_eq!(rows, want_rows(scanned), "{what}");
        let vectors = scanned.div_ceil(VECTOR_SIZE as u64);
        let bound = PER_CHUNK_COLUMN * (CHUNKS * cols) as u64 + PER_VECTOR * vectors;
        println!(
            "{what}: {allocations} allocations for {scanned} rows in {vectors} vectors \
             (bound {bound})"
        );
        assert!(
            allocations <= bound,
            "{what}: {allocations} allocations for {scanned} rows of {cols} columns in \
             {CHUNKS} chunks and {vectors} vectors; the bound is {bound}, \
             {PER_CHUNK_COLUMN} per chunk column and {PER_VECTOR} per vector"
        );
        measured.push((allocations, vectors));
    }
    let (more, vectors) = (
        measured[1].0.saturating_sub(measured[0].0),
        measured[1].1 - measured[0].1,
    );
    assert!(
        more <= PER_VECTOR * vectors,
        "{what}: {more} more allocations for {vectors} more vectors; the bound is {PER_VECTOR} each"
    );
}

#[test]
fn a_string_scan_allocates_per_chunk_and_per_vector_not_per_value() {
    hold_to_the_bound(
        "MScan of an LZ and a PDICT string column",
        2,
        4096,
        |s| drain(MScan::full(s.clone(), vec![5, 3], None).unwrap()),
        |scanned| scanned,
    );
}

#[test]
fn a_q1_shaped_pipeline_allocates_per_chunk_and_per_vector_not_per_value() {
    // SELECT flag, status, sum(price), sum(price * (1 - disc)), avg(disc),
    // count(*) FROM t WHERE price <= 109.00 GROUP BY flag, status — Q1's shape:
    // a filter that drops some rows of every vector, pass-through strings
    // and decimal arithmetic in the projection, string group keys.
    let pipeline = |s: &PartitionStore| {
        let scan = MScan::full(s.clone(), vec![1, 2, 3, 4], None).unwrap();
        let select = Select::new(
            Box::new(scan),
            Expr::le(Expr::col(0), Expr::lit(Value::Decimal(10_900, 2))),
        );
        let one = Expr::lit(dec("1.00", 2));
        let project = Project::new(
            Box::new(select),
            vec![
                (Expr::col(2), "flag".into()),
                (Expr::col(3), "status".into()),
                (Expr::col(0), "price".into()),
                (
                    Expr::mul(Expr::col(0), Expr::sub(one, Expr::col(1))),
                    "disc_price".into(),
                ),
                (Expr::col(1), "disc".into()),
            ],
        )
        .unwrap();
        let aggr = Aggr::new(
            Box::new(project),
            vec![0, 1],
            vec![
                AggFn::Sum(2),
                AggFn::Sum(3),
                AggFn::Avg(4),
                AggFn::CountStar,
            ],
            AggMode::Partial,
        )
        .unwrap();
        drain(aggr)
    };
    hold_to_the_bound(
        "MScan -> Select -> Project -> Aggr(partial) by two PDICT strings",
        4,
        4096,
        pipeline,
        |_| 6, // 3 flags x 2 statuses
    );
}
