//! Simulated MPI and exchange operators.
//!
//! §5 of the paper: VectorH parallelism is encapsulated entirely in
//! *exchange* (Xchg) operators — all other operators stay
//! parallelism-unaware. This crate provides:
//!
//! * [`dxchg`] — the exchange operators (`DXchgHashSplit`, `DXchgUnion`)
//!   across simulated nodes: producer pipelines run on their own threads
//!   (a *stream* = a thread, as in the paper), with the two fanout
//!   strategies of the paper: **thread-to-thread** (fanout =
//!   `nodes × cores`, private buffers per sender, best at small scale) and
//!   **thread-to-node** (fanout = `nodes`, a one-byte column routes each
//!   tuple to its receiver thread, cutting buffering from `2·N·C²` to
//!   `2·N·C` buffers per node).
//! * [`xchg`] — what the exchanges share: [`Partitioning`] and the
//!   per-consumer split, producer profiles.
//! * [`buffer`] — PAX-layout message serialization standing in for MPI
//!   buffers (≥256 KB for good throughput); intra-node traffic passes
//!   pointers instead, exactly like VectorH's memcpy-avoiding optimization.
//! * [`stats`] — network accounting (messages, bytes, peak buffer memory)
//!   that the §5 DXchg benchmarks report.
//!
//! The "MPI" here is MPMC channels between threads of one process; the
//! properties the paper measures (buffer memory scaling, message counts,
//! serialization cost, intra-node shortcuts) are preserved.

pub mod buffer;
pub mod dxchg;
pub mod heartbeat;
pub mod stats;
pub mod xchg;

pub use dxchg::{DxchgConfig, FanoutMode};
pub use heartbeat::{HeartbeatMonitor, NodeHealth};
pub use stats::{
    ChannelStats, NetStats, PropagationSnapshot, PropagationStats, ServerStats, SessionCounters,
};
pub use xchg::Partitioning;
