//! Columnar storage for VectorH-rs: blocks, chunk files and MinMax indexes.
//!
//! Implements the §3 storage design:
//!
//! * **File-per-partition layout** — all columns of a table partition live in
//!   the same HDFS files (PAX-style), so a 100-column, 10-partition table
//!   needs 30 files at R=3 instead of 3000.
//! * **Block-chunk files** — partition data is split horizontally into
//!   chunk files so space can be reclaimed on the append-only HDFS by
//!   deleting whole chunk files (writing in the middle of a file is
//!   impossible). The trailing, partially-filled chunk goes to a *partial
//!   chunk file* that the next append merges and frees.
//! * **MinMax indexes** ([`minmax`]) — small per-chunk column summaries kept
//!   *outside* the data files (the paper stores them in the WAL), enabling
//!   scans to skip chunks without touching them. They describe the stable
//!   image: trickle updates leave them alone, propagation recomputes them.
//!
//! A [`partition::PartitionStore`] manages one table partition; the engine
//! crate composes partitions into tables.

pub mod chunk;
pub mod minmax;
pub mod partition;

pub use chunk::{ChunkMeta, CHUNK_MAGIC};
pub use minmax::{ColumnStats, MinMaxIndex, Pruning};
pub use partition::{PartitionStore, StorageConfig};
