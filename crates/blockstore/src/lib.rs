//! Block storage for VectorH-rs: one namenode over a pluggable byte medium.
//!
//! The paper's storage layer (§3) talks to HDFS through a narrow surface:
//! append-only files split into replicated fixed-size blocks, placement
//! delegated to a pluggable `BlockPlacementPolicy` (`chooseTarget`),
//! short-circuit local reads, and namenode-driven re-replication. Its
//! contribution is policy-level — the datanode's bytes are interchangeable —
//! and the crate is cut the same way (DESIGN.md §14):
//!
//! * [`BlockStore`] is that surface as a trait; the engine, WAL, propagation
//!   and scan layers hold an `Arc<dyn BlockStore>` ([`StoreRef`]).
//! * [`Namenode`] is its single implementation and owns every decision:
//!   file table, placement, locality and IO accounting ([`IoStats`]),
//!   re-replication, rebalancing, fault-hook sites, the fsync watermark.
//! * A [`Medium`] keeps the replica bytes and nothing else: [`MemMedium`],
//!   one buffer per path ([`SimHdfs`] = `Namenode<MemMedium>`), or
//!   [`FileMedium`], real files per datanode with fsync and mmap-served
//!   reads ([`FileStore`] = `Namenode<FileMedium>`). A new backend is a new
//!   medium.

pub mod filemedium;
pub mod medium;
pub mod mmap;
pub mod namenode;
pub mod placement;
pub mod stats;
pub mod store;
pub mod types;

#[cfg(test)]
mod tests;

pub use filemedium::FileMedium;
pub use medium::{Medium, MemMedium};
pub use mmap::Mmap;
pub use namenode::{FileStore, Namenode, SimHdfs};
pub use placement::{AffinityPolicy, BlockPlacementPolicy, ClusterView, DefaultPolicy};
pub use stats::{IoSnapshot, IoStats, UsageReport};
pub use store::{BlockStore, StoreRef, MAX_IO_ATTEMPTS};
pub use types::{BlockLocation, BlockStoreConfig, FileStatus};
