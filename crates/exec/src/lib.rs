//! The vectorized query execution engine.
//!
//! Faithful to the Vectorwise execution model the paper builds on (§2):
//! all operators process *vectors* (mini-columns) of up to
//! [`vectorh_common::VECTOR_SIZE`] values per `next()` call, pulled through
//! a Volcano-style operator tree. This amortizes interpretation overhead
//! over ~1000 tuples, keeps hot data in cache, and leaves the inner loops
//! over primitive slices where the compiler can vectorize them — the
//! "truly vectorized engine" whose CPU efficiency drives the Figure 7 gap
//! against tuple-at-a-time engines.
//!
//! Modules:
//! * [`batch`] — the unit of data flow: a bundle of equal-length columns.
//! * [`expr`] — vectorized expression kernels (arithmetic, comparisons,
//!   string matching, CASE, EXTRACT) over borrowed columns and scalars,
//!   predicates as selection vectors, decimal-exact money math.
//! * [`operator`] — the `Operator` trait and profiling plumbing that
//!   regenerates the appendix-style per-operator profiles.
//! * [`scan`] — MScan: chunk reads + MinMax skipping + positional PDT merge.
//! * [`kernels`] — columnar hash / flat hash table / batch gather
//!   primitives shared by joins, aggregation and the exchanges.
//! * [`filter`], [`project`], [`join`], [`mergejoin`], [`aggr`], [`sort`] —
//!   the relational operators TPC-H needs.
//! * [`rowengine`] — the deliberately tuple-at-a-time baseline interpreter
//!   used as the "Hive-like" comparator in the Figure 7 harness.

pub mod aggr;
pub mod batch;
pub mod expr;
pub mod filter;
pub mod join;
pub mod kernels;
pub mod mergejoin;
pub mod operator;
pub mod project;
pub mod rowengine;
pub mod scan;
pub mod sort;

pub use batch::{fingerprint_rows, Batch};
pub use expr::Expr;
pub use operator::{collect_profiles, OpProfile, Operator};
