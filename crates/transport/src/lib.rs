//! Transport fabric: the network layer under DXchg and the health plane.
//!
//! The paper runs exchange buffers and control traffic over MPI between
//! real nodes (§5); this crate provides the equivalent seam for the
//! reproduction. A [`Fabric`] hands out per-node [`Endpoint`]s; an endpoint
//! binds receive channels ([`FrameRx`]) and opens per-peer senders
//! ([`FrameTx`]). The implementation is [`TcpFabric`](tcp::TcpFabric), a
//! real `std::net` TCP fabric: length-prefixed CRC-checked frames
//! ([`frame`]), a handshake that fences stale peers by master epoch,
//! credit-based flow control (MPI-style backpressure: the receiver grants
//! credits sized from its buffer capacity; the sender blocks at zero), and
//! reconnect-with-retransmission under injected `Disconnect` /
//! `PartialFrame` / `ConnRefused` faults, deduplicated at the receiver by a
//! watermark window ([`dedup`]). An engine without a fabric keeps its
//! exchanges on plain in-process channels (the paper's intra-node
//! pointer-passing path).
//!
//! No external dependencies: sockets are `std::net`, everything else is
//! `vectorh-common`'s homegrown sync/channel primitives (PR 1 policy).

pub mod dedup;
pub mod frame;
pub mod tcp;

pub use dedup::DedupWindow;
pub use frame::{Frame, FrameKind, TRANSPORT_VERSION};
pub use tcp::TcpFabric;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vectorh_common::{NodeId, Result};

/// Channel reserved for failure-detector heartbeats.
pub const HEARTBEAT_CHANNEL: u32 = 0;

/// First channel id handed out by [`Fabric::alloc_channel`]; everything
/// below is reserved for control planes.
pub const FIRST_DATA_CHANNEL: u32 = 16;

/// Where the acceptor learns the current master epoch for handshake
/// fencing. The engine backs this with its elected master state; tests use
/// [`SharedEpoch`] directly.
pub trait EpochSource: Send + Sync + std::fmt::Debug {
    fn current_epoch(&self) -> u64;
}

/// Atomically-updated epoch cell: the engine bumps it on every election so
/// in-flight handshakes see the newest epoch without locking engine state.
#[derive(Debug, Default)]
pub struct SharedEpoch(AtomicU64);

impl SharedEpoch {
    pub fn new(epoch: u64) -> SharedEpoch {
        SharedEpoch(AtomicU64::new(epoch))
    }

    pub fn set(&self, epoch: u64) {
        self.0.store(epoch, Ordering::SeqCst);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

impl EpochSource for SharedEpoch {
    fn current_epoch(&self) -> u64 {
        self.get()
    }
}

/// What a bound channel yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxKind {
    /// Application payload.
    Data,
    /// The sending peer finished this channel; with a known sender set the
    /// consumer counts these to detect end-of-stream.
    Fin,
}

/// One received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxItem {
    /// Node that sent the frame.
    pub from: NodeId,
    /// Wire sequence (per sender and channel, contiguous from 0).
    pub seq: u64,
    pub kind: RxKind,
    pub payload: Vec<u8>,
}

/// Sending half of one `(from, to, channel)` stream.
///
/// Contract: at most one live `FrameTx` per `(from, to, channel)` triple —
/// the wire sequence space is per-stream, so concurrent senders on the same
/// triple would corrupt dedup state. Fan-in from many worker threads must
/// share one `FrameTx` (behind a mutex) or use distinct channels.
pub trait FrameTx: Send {
    /// Deliver one payload, blocking on flow control (no credits / full
    /// queue). Reliable: retransmits across injected disconnects.
    fn send(&mut self, payload: &[u8]) -> Result<()>;

    /// Signal end-of-stream on this channel.
    fn finish(&mut self) -> Result<()>;

    /// Times this sender blocked on backpressure (zero credits or a full
    /// receiver queue).
    fn stalls(&self) -> u64;
}

/// Receiving half of a bound channel (all peers fan into it).
pub trait FrameRx: Send {
    /// Block for the next message. `None` once the channel is closed and
    /// drained.
    fn recv(&mut self) -> Result<Option<RxItem>>;

    /// Non-blocking variant: `None` when nothing is queued right now.
    fn try_recv(&mut self) -> Result<Option<RxItem>>;
}

/// One node's attachment to the fabric.
pub trait Endpoint: Send + Sync {
    fn node(&self) -> NodeId;

    /// Bind `channel` for receiving with a flow-control window of `window`
    /// messages (the credit pool granted to each sending peer).
    fn bind(&self, channel: u32, window: u32) -> Result<Box<dyn FrameRx>>;

    /// Open the sending half of `(self.node, to, channel)`.
    fn sender(&self, to: NodeId, channel: u32) -> Result<Box<dyn FrameTx>>;
}

/// A cluster's worth of endpoints plus channel-id allocation.
pub trait Fabric: Send + Sync {
    fn endpoint(&self, node: NodeId) -> Result<Arc<dyn Endpoint>>;

    /// Allocate a fabric-unique data channel id (both sides of an exchange
    /// are built by the same coordinator, which passes the id to each).
    fn alloc_channel(&self) -> u32;

    /// The fabric's name (`"tcp"`), for stats labels and logs.
    fn mode(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_epoch_updates_visibly() {
        let e = SharedEpoch::new(3);
        assert_eq!(e.current_epoch(), 3);
        e.set(9);
        assert_eq!(e.current_epoch(), 9);
    }
}
