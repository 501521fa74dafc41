//! Re-export shim: the simulated HDFS is `vectorh_blockstore::SimHdfs`
//! (`Namenode<MemMedium>`). The off-workspace `perfbench/` package imports
//! it under this crate's name and is the only consumer; the crate goes when
//! a benchmark PR may edit that import. Nothing in the workspace depends on it.

pub use vectorh_blockstore::{BlockStoreConfig as SimHdfsConfig, SimHdfs};
