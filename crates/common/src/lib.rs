//! Shared foundation for the VectorH-rs workspace.
//!
//! This crate holds the pieces every other crate needs and nothing else:
//! the value/type system ([`types`]), schemas ([`schema`]), typed identifiers
//! ([`ids`]), column buffers ([`column`], [`strvec`]), error handling
//! ([`error`]), a deterministic RNG ([`rng`]), small numeric/hash
//! utilities ([`util`]) and the one bounded reader of bytes that cross a
//! disk or a socket ([`bytes`]).
//!
//! VectorH (SIGMOD 2016) is a distributed system; to keep simulations
//! reproducible, everything in this workspace that needs randomness goes
//! through [`rng::SplitMix64`] seeded explicitly, never through ambient OS
//! entropy.

pub mod bytes;
pub mod channel;
pub mod column;
pub mod error;
pub mod fault;
pub mod ids;
pub mod rng;
pub mod schema;
pub mod simd;
pub mod strvec;
pub mod sync;
pub mod types;
pub mod util;

pub use column::{ColumnData, PhysicalType};
pub use error::{Result, VhError};
pub use ids::*;
pub use schema::{Field, Schema};
pub use strvec::StrVec;
pub use types::{DataType, Value};

/// The vector size used by the vectorized engine: operations process
/// "mini-columns" of roughly this many values at a time (paper §2).
pub const VECTOR_SIZE: usize = 1024;
