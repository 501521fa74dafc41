//! Vectorized primitives shared by every hash consumer in the engine.
//!
//! The Vectorwise execution model (§2) gets its CPU efficiency from running
//! tight loops over primitive slices instead of interpreting one tuple at a
//! time. Before this layer existed, the engine's hash joins, hash
//! aggregation and hash-partitioning exchanges each re-implemented
//! row-at-a-time hashing with a `match` on the column type *inside* the
//! per-row loop, and the joins kept their build side in a
//! `HashMap<u64, Vec<u32>>` — one heap allocation per distinct key.
//!
//! The kernels here replace all of that:
//! * [`hash`] — column-at-a-time key hashing: one type dispatch per
//!   *column*, then a tight loop producing a `Vec<u64>` of per-row hashes.
//! * [`table`] — a flat open-addressing hash table (power-of-two bucket
//!   array + `next`-chain array, the classic Vectorwise layout) with batch
//!   insert/probe APIs that take precomputed hash vectors.
//! * [`gather`] — batch gather/scatter for materializing match results and
//!   splitting batches across exchange partitions.
//!
//! All kernels are selection-vector aware: the `*_sel` variants process only
//! the listed positions, so operators can hash or gather a filtered vector
//! without first compacting it.
//!
//! The innermost loops (hash folding, mask compaction) dispatch
//! through [`simd`] to AVX2 / portable / scalar arms — see
//! `vectorh_common::simd` for the policy and DESIGN.md §9 for the layout.

pub mod gather;
pub mod hash;
pub mod simd;
pub mod table;
