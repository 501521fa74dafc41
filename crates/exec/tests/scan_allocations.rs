//! Allocation guard for the scan: `MScan` hands on the values `read_columns`
//! decoded instead of copying them, so draining a scan may allocate what
//! decoding its chunks allocates plus a small constant per output vector.
//! With a `Vec<String>` column every extra copy of a value is a heap
//! allocation, which is what a string column's scan time is made of
//! (EXPERIMENTS.md E18) — a `slice` + `append` in the scan path triples the
//! count and fails this test.
//!
//! One test in a binary of its own: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vectorh_blockstore::{BlockStoreConfig, DefaultPolicy, SimHdfs, StoreRef};
use vectorh_common::{ColumnData, DataType, Schema};
use vectorh_exec::scan::MScan;
use vectorh_exec::Operator;
use vectorh_storage::{PartitionStore, StorageConfig};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const ROWS_PER_CHUNK: usize = 8192;
const CHUNKS: usize = 3;

fn store() -> PartitionStore {
    let fs: StoreRef = Arc::new(SimHdfs::new(
        3,
        BlockStoreConfig::default(),
        Arc::new(DefaultPolicy::new(7)),
    ));
    let schema = Schema::of(&[("k", DataType::I64), ("comment", DataType::Str)]);
    let mut s = PartitionStore::new(
        fs,
        "/db/t/p0/",
        schema,
        StorageConfig {
            rows_per_chunk: ROWS_PER_CHUNK,
        },
    );
    let n = (ROWS_PER_CHUNK * CHUNKS) as i64;
    s.append_rows(&[
        ColumnData::I64((0..n).collect()),
        ColumnData::Str((0..n).map(|i| format!("comment of row {i}")).collect()),
    ])
    .unwrap();
    assert_eq!(s.n_chunks(), CHUNKS);
    s
}

/// Vectors and rows of a full scan of both columns.
fn drain(s: &PartitionStore) -> (u64, u64) {
    let mut scan = MScan::full(s.clone(), vec![0, 1], None).unwrap();
    let (mut batches, mut rows) = (0, 0);
    while let Some(b) = scan.next().unwrap() {
        batches += 1;
        rows += b.len() as u64;
    }
    (batches, rows)
}

/// Rows `read_columns` decodes over the same chunks.
fn decode(s: &PartitionStore) -> u64 {
    (0..s.n_chunks())
        .map(|c| s.read_columns(c, &[0, 1], None).unwrap()[1].len() as u64)
        .sum()
}

#[test]
fn a_scan_allocates_what_decoding_its_chunks_allocates() {
    let s = store();
    // Once unmeasured: dispatch detection and other lazy set-up.
    drain(&s);
    decode(&s);

    let (scan_allocs, (batches, rows)) = allocations_of(|| drain(&s));
    let (decode_allocs, decoded) = allocations_of(|| decode(&s));
    assert_eq!(rows, (ROWS_PER_CHUNK * CHUNKS) as u64);
    assert_eq!(decoded, rows);
    assert!(
        decode_allocs >= rows,
        "decoding allocates per string value, or this test measures nothing: \
         {decode_allocs} allocations for {rows} rows"
    );
    println!("scan {scan_allocs} allocations, read_columns {decode_allocs}, {batches} vectors");
    assert!(
        scan_allocs <= decode_allocs + 64 * batches,
        "MScan allocated {scan_allocs} times over {batches} vectors, \
         read_columns of the same chunks {decode_allocs} times"
    );
}
