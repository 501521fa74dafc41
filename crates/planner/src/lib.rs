//! Query planning for VectorH-rs.
//!
//! * [`logical`] — logical plans plus the [`logical::CatalogInfo`] trait the
//!   optimizer consults (schemas, row counts, partitioning, clustered-index
//!   sort order, replication).
//! * [`sql`] — a hand-written SQL subset parser (SELECT/FROM/JOIN/WHERE/
//!   GROUP BY/ORDER BY/LIMIT, the expression grammar TPC-H needs).
//! * [`physical`] — the distributed physical plan: operators annotated with
//!   where they run, with explicit exchange nodes.
//! * [`prune`] — column pruning: the one pass that runs before the rewriter
//!   and narrows every scan to the columns the plan uses.
//! * [`rewriter`] — the **Parallel Rewriter** (§5): cost-based placement of
//!   (D)Xchg operators using structural properties (partitioning, sorting,
//!   replication). It detects co-partitioned **local joins** by tracking
//!   join-key origins, **replicates small build sides**, inserts **partial
//!   aggregation** below exchanges, and charges DXchg heavily so plans
//!   avoid communication at all cost — each rule individually togglable for
//!   the §5 ablation benchmark.

pub mod logical;
pub mod physical;
pub mod prune;
pub mod rewriter;
pub mod sql;
mod subquery;

pub use logical::{CatalogInfo, LogicalPlan, TableMeta};
pub use physical::PhysPlan;
pub use prune::prune_columns;
pub use rewriter::{ParallelRewriter, RewriterOptions};
pub use sql::parse_query;
