//! Distributed exchange (DXchg) operators.
//!
//! Implements §5's DXchg design over the simulated MPI layer:
//!
//! * Producers send **fixed-size messages** (≥256 KB in the paper; smaller
//!   in tests) and conceptually double-buffer so communication overlaps
//!   processing — modelled by accounting `2 × fanout × buffer` bytes per
//!   sender thread.
//! * **Intra-node** traffic passes pointers to sender-side batches, avoiding
//!   the memcpy MPI would do.
//! * **Thread-to-thread** mode: each sender partitions with fanout
//!   `Σ receiver threads`; per-node buffer memory grows as
//!   `2·N·C²·buffer` — the paper's 20 GB problem at 100×20.
//! * **Thread-to-node** mode: fanout is the number of nodes; a one-byte
//!   column per tuple identifies the receiving thread, and a per-node demux
//!   lets consumer threads "selectively consume data from incoming buffers
//!   using the one-byte-column".

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vectorh_common::channel::{bounded, Receiver, Sender};
use vectorh_common::fault::{FaultAction, FaultSite, SharedFaultHook};
use vectorh_common::{NodeId, Result, Schema, VhError};
use vectorh_exec::operator::{Counters, OpProfile};
use vectorh_exec::{Batch, Operator};
use vectorh_transport::{DedupWindow, Fabric, FrameTx, RxKind};

use crate::buffer::{byte_size, make_message, open_message, Message};
use crate::stats::NetStats;
use crate::xchg::{partition_positions, Partitioning};

/// Sender fanout strategy (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanoutMode {
    /// Private buffers per receiver *thread* (original implementation).
    ThreadToThread,
    /// Buffers per receiver *node*, with a route byte per tuple.
    ThreadToNode,
}

/// DXchg tuning.
#[derive(Clone)]
pub struct DxchgConfig {
    /// Flush threshold per buffer (paper: ≥256 KB for good MPI throughput).
    pub buffer_bytes: usize,
    pub mode: FanoutMode,
    /// Optional fault hook consulted on every buffer flush
    /// ([`FaultSite::XchgSend`]): drop (lost + retransmitted), duplicate
    /// (deduped by receivers via message tags), delay (bounded reorder).
    pub fault: Option<SharedFaultHook>,
    /// Optional transport fabric. When set (and the mode is
    /// [`FanoutMode::ThreadToNode`]), cross-node messages travel as framed
    /// transport payloads — over real TCP with a [`TcpFabric`](
    /// vectorh_transport::TcpFabric) — while intra-node messages keep the
    /// pointer-passing path. `None` keeps the pure in-process channels.
    pub fabric: Option<Arc<dyn Fabric>>,
}

impl std::fmt::Debug for DxchgConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DxchgConfig")
            .field("buffer_bytes", &self.buffer_bytes)
            .field("mode", &self.mode)
            .field("fault", &self.fault.is_some())
            .field("fabric", &self.fabric.as_ref().map(|t| t.mode()))
            .finish()
    }
}

impl Default for DxchgConfig {
    fn default() -> Self {
        DxchgConfig {
            buffer_bytes: 256 * 1024,
            mode: FanoutMode::ThreadToNode,
            fault: None,
            fabric: None,
        }
    }
}

/// Credit window (in messages) granted per sending peer when an exchange
/// binds a fabric channel: sized so the in-flight budget per stream tracks
/// the configured buffer size (≈2 MiB), the MPI-receiver-buffer analogue.
pub(crate) fn credit_window(buffer_bytes: usize) -> u32 {
    ((2 * 1024 * 1024) / buffer_bytes.max(1)).clamp(4, 256) as u32
}

/// A message plus a tag unique within its exchange, so receivers can
/// discard injected duplicates. The high 32 bits identify the stream
/// (producer node + worker); the low 32 bits are a per-destination
/// contiguous sequence, which is what lets receivers evict dedup state
/// behind a watermark instead of remembering every tag forever.
#[derive(Clone)]
struct Envelope {
    tag: u64,
    msg: Message,
}

/// Stream key for `(producer node, worker index)`, occupying the high 32
/// bits of an envelope tag. Node-qualified so tags stay unique when
/// producers live in different OS processes.
fn stream_key(prod_node: u32, wi: usize) -> u64 {
    (((prod_node as u64 + 1) & 0x7FFF) << 16) | ((wi as u64 + 1) & 0xFFFF)
}

type Payload = std::result::Result<Envelope, VhError>;

/// Serialize an envelope for the transport fabric. Layout:
/// `[0u8][tag u64][route? u8][route_len u32 + route]?[pax bytes]`,
/// or `[1u8][utf8 error message]` for a producer-side error.
fn encode_remote(env: &Envelope) -> Result<Vec<u8>> {
    let Message::Wire { bytes, route } = &env.msg else {
        return Err(VhError::Internal(
            "dxchg: pointer-passed message cannot cross the fabric".into(),
        ));
    };
    let mut out = Vec::with_capacity(bytes.len() + 32);
    out.push(0);
    out.extend_from_slice(&env.tag.to_le_bytes());
    match route {
        Some(r) => {
            out.push(1);
            out.extend_from_slice(&(r.len() as u32).to_le_bytes());
            out.extend_from_slice(r);
        }
        None => out.push(0),
    }
    out.extend_from_slice(bytes);
    Ok(out)
}

fn encode_remote_error(e: &VhError) -> Vec<u8> {
    let mut out = vec![1u8];
    out.extend_from_slice(format!("{}: {}", e.subsystem(), e.message()).as_bytes());
    out
}

fn decode_remote(payload: &[u8]) -> Result<Payload> {
    let err = || VhError::Net("dxchg: truncated fabric payload".into());
    match payload.first().ok_or_else(err)? {
        1 => Ok(Err(VhError::Net(format!(
            "dxchg: remote producer failed: {}",
            String::from_utf8_lossy(&payload[1..])
        )))),
        0 => {
            let tag = u64::from_le_bytes(payload.get(1..9).ok_or_else(err)?.try_into().unwrap());
            let has_route = *payload.get(9).ok_or_else(err)? == 1;
            let (route, rest) = if has_route {
                let len =
                    u32::from_le_bytes(payload.get(10..14).ok_or_else(err)?.try_into().unwrap())
                        as usize;
                let route = payload.get(14..14 + len).ok_or_else(err)?.to_vec();
                (Some(route), &payload[14 + len..])
            } else {
                (None, &payload[10..])
            };
            Ok(Ok(Envelope {
                tag,
                msg: Message::Wire {
                    bytes: rest.to_vec(),
                    route,
                },
            }))
        }
        k => Err(VhError::Net(format!("dxchg: bad fabric payload kind {k}"))),
    }
}

/// One fabric stream `(producer node → consumer node)`, shared by every
/// producer thread on that node (the transport contract allows one live
/// sender per stream). The last producer to finish sends the Fin.
struct SharedTx {
    tx: vectorh_common::sync::Mutex<Box<dyn FrameTx>>,
    producers_left: AtomicUsize,
}

impl SharedTx {
    fn done(&self) {
        if self.producers_left.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _ = self.tx.lock().finish();
        }
    }
}

/// Where a destination's messages go: a same-process channel, or a fabric
/// stream (TCP in cluster mode).
#[derive(Clone)]
enum Sink {
    Chan(Sender<Payload>),
    Remote(Arc<SharedTx>),
}

/// Producer-side send path of one exchange: owns the destination sinks
/// and applies injected channel faults. The transport is reliable — a
/// "dropped" buffer is retransmitted, a delayed buffer is delivered after
/// the next one to the same destination (or at end-of-stream) — so faults
/// perturb schedules, never correctness.
struct SendPlane {
    sinks: Vec<Sink>,
    hook: Option<SharedFaultHook>,
    name: &'static str,
    key: u64,
    stats: Arc<NetStats>,
    /// Per-destination sequence counters: each `(stream, dest)` pair sees a
    /// gap-free sequence, the precondition for watermark eviction.
    seqs: Vec<u64>,
    held: Vec<Option<Envelope>>,
}

impl SendPlane {
    fn new(
        sinks: Vec<Sink>,
        hook: Option<SharedFaultHook>,
        name: &'static str,
        prod_node: u32,
        wi: usize,
        stats: Arc<NetStats>,
    ) -> Self {
        let held = (0..sinks.len()).map(|_| None).collect();
        let seqs = vec![0; sinks.len()];
        SendPlane {
            sinks,
            hook,
            name,
            key: stream_key(prod_node, wi),
            stats,
            seqs,
            held,
        }
    }

    fn push(&mut self, dest: usize, payload: Payload) -> bool {
        match &self.sinks[dest] {
            Sink::Chan(tx) => match tx.send_tracked(payload) {
                Ok(stalled) => {
                    if stalled {
                        self.stats.record_credit_stall(self.name, 1);
                    }
                    true
                }
                Err(_) => false,
            },
            Sink::Remote(shared) => {
                let bytes = match &payload {
                    Ok(env) => match encode_remote(env) {
                        Ok(b) => b,
                        Err(_) => return false,
                    },
                    Err(e) => encode_remote_error(e),
                };
                let mut tx = shared.tx.lock();
                let before = tx.stalls();
                let ok = tx.send(&bytes).is_ok();
                let stalls = tx.stalls() - before;
                drop(tx);
                self.stats.record_credit_stall(self.name, stalls);
                ok
            }
        }
    }

    /// Deliver `env` to `dest`, then any earlier buffer held back by a
    /// delay fault (which is what makes the delay an observable reorder).
    fn deliver(&mut self, dest: usize, env: Envelope) -> bool {
        if !self.push(dest, Ok(env)) {
            return false;
        }
        match self.held[dest].take() {
            Some(prev) => self.push(dest, Ok(prev)),
            None => true,
        }
    }

    /// Send one logical message, applying the configured channel fault.
    fn send(&mut self, dest: usize, msg: Message) -> bool {
        let seq = self.seqs[dest];
        self.seqs[dest] += 1;
        let tag = (self.key << 32) | (seq & 0xFFFF_FFFF);
        self.stats
            .record_channel_message(self.name, msg.transit_bytes() as u64);
        let env = Envelope { tag, msg };
        let action = match &self.hook {
            Some(h) => {
                let detail = format!("{}:k{}->d{}#{}", self.name, self.key, dest, seq);
                h.decide(FaultSite::XchgSend, &detail, 0)
            }
            None => FaultAction::None,
        };
        match action {
            FaultAction::Drop => {
                // Lost in flight; the reliable sender retransmits.
                self.stats.record_dropped();
                self.deliver(dest, env)
            }
            FaultAction::Duplicate => {
                self.stats.record_duplicated();
                let copy = env.clone();
                self.deliver(dest, env) && self.deliver(dest, copy)
            }
            FaultAction::Delay => {
                self.stats.record_delayed();
                let prev = self.held[dest].replace(env);
                match prev {
                    Some(p) => self.push(dest, Ok(p)),
                    None => true,
                }
            }
            _ => self.deliver(dest, env),
        }
    }

    /// Flush any buffers still held back by delay faults, then release the
    /// fabric streams (the last producer per node sends the Fin).
    fn finish(&mut self) {
        for dest in 0..self.sinks.len() {
            if let Some(env) = self.held[dest].take() {
                let _ = self.push(dest, Ok(env));
            }
        }
        for sink in &self.sinks {
            if let Sink::Remote(shared) = sink {
                shared.done();
            }
        }
    }

    fn error(&mut self, e: VhError) {
        for dest in 0..self.sinks.len() {
            if self.push(dest, Err(e.clone())) {
                return; // one consumer seeing it is enough to fail the query
            }
        }
    }
}

/// Consumer-side operator of a DXchg: thread `consumer_idx` on a node.
pub struct DxchgReceiver {
    name: &'static str,
    schema: Arc<Schema>,
    rx: Receiver<Payload>,
    /// Which route byte this receiver consumes (None = take everything).
    route_filter: Option<u8>,
    /// Per-stream dedup windows keyed by the tag's stream key. Watermark
    /// eviction keeps the state bounded by the reorder window, not by the
    /// stream length (the old `HashSet<u64>` grew with every message).
    seen: std::collections::HashMap<u32, DedupWindow>,
    stats: Arc<NetStats>,
    counters: Counters,
    consumer_wait_ns: u64,
    profiles: Arc<ProfileHub>,
}

/// Shared collection point for producer-pipeline profiles.
pub struct ProfileHub {
    rx: Receiver<crate::xchg::WorkerProfile>,
    collected: vectorh_common::sync::Mutex<Vec<crate::xchg::WorkerProfile>>,
}

impl ProfileHub {
    fn drain(&self) -> Vec<crate::xchg::WorkerProfile> {
        let mut cache = self.collected.lock();
        cache.extend(self.rx.try_iter());
        cache.sort_by_key(|w| w.worker);
        cache.clone()
    }
}

impl DxchgReceiver {
    pub fn consumer_wait_ns(&self) -> u64 {
        self.consumer_wait_ns
    }
}

impl Operator for DxchgReceiver {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            let start = Instant::now();
            let res = self.rx.recv();
            let waited = start.elapsed().as_nanos() as u64;
            self.consumer_wait_ns += waited;
            self.counters.cum_time_ns += waited;
            self.counters.calls += 1;
            match res {
                Err(_) => return Ok(None),
                Ok(Err(e)) => return Err(e),
                Ok(Ok(env)) => {
                    let key = (env.tag >> 32) as u32;
                    let win = self.seen.entry(key).or_default();
                    if !win.insert(env.tag & 0xFFFF_FFFF) {
                        continue; // injected duplicate delivery
                    }
                    self.stats.record_dedup_residual(win.residual() as u64);
                    let (batch, route) = open_message(env.msg, self.schema.clone())?;
                    let batch = match (self.route_filter, route) {
                        (Some(me), Some(route)) => {
                            // Selectively consume my tuples by route byte.
                            let mine: Vec<usize> = route
                                .iter()
                                .enumerate()
                                .filter(|(_, r)| **r == me)
                                .map(|(i, _)| i)
                                .collect();
                            if mine.is_empty() {
                                continue;
                            }
                            if mine.len() == batch.len() {
                                batch
                            } else {
                                batch.gather(&mine)
                            }
                        }
                        _ => batch,
                    };
                    self.counters.rows_in += batch.len() as u64;
                    self.counters.rows_out += batch.len() as u64;
                    return Ok(Some(batch));
                }
            }
        }
    }

    fn profile(&self) -> OpProfile {
        self.counters.profile(self.name)
    }

    fn children(&self) -> Vec<&dyn Operator> {
        vec![]
    }

    fn remote_profiles(&self) -> Vec<vectorh_exec::operator::RemoteProfile> {
        self.profiles
            .drain()
            .into_iter()
            .map(|w| vectorh_exec::operator::RemoteProfile {
                label: format!("sender {}", w.worker),
                lines: w.lines,
                rows: w.rows_produced,
                wall_ns: w.wall_ns,
            })
            .collect()
    }
}

/// Create a distributed hash-split exchange.
///
/// `producers[i] = (node, pipeline)`; `consumers[j] = node` places consumer
/// thread `j`. Returns one receiver per consumer thread.
pub fn dxchg_hash_split(
    producers: Vec<(u32, Box<dyn Operator>)>,
    consumers: Vec<u32>,
    keys: Vec<usize>,
    config: DxchgConfig,
    stats: Arc<NetStats>,
) -> Result<Vec<DxchgReceiver>> {
    dxchg(
        "DXchgHashSplit",
        producers,
        consumers,
        Partitioning::Hash { keys },
        config,
        stats,
    )
}

/// Distributed union: everything funnels to one consumer thread.
pub fn dxchg_union(
    producers: Vec<(u32, Box<dyn Operator>)>,
    consumer_node: u32,
    config: DxchgConfig,
    stats: Arc<NetStats>,
) -> Result<DxchgReceiver> {
    let mut v = dxchg(
        "DXchgUnion",
        producers,
        vec![consumer_node],
        Partitioning::Union,
        config,
        stats,
    )?;
    Ok(v.remove(0))
}

/// Generic distributed exchange.
pub fn dxchg(
    name: &'static str,
    producers: Vec<(u32, Box<dyn Operator>)>,
    consumers: Vec<u32>,
    partitioning: Partitioning,
    config: DxchgConfig,
    stats: Arc<NetStats>,
) -> Result<Vec<DxchgReceiver>> {
    if producers.is_empty() || consumers.is_empty() {
        return Err(VhError::Net("dxchg needs producers and consumers".into()));
    }
    let schema = producers[0].1.schema();

    match config.mode {
        FanoutMode::ThreadToThread => dxchg_t2t(
            name,
            producers,
            consumers,
            partitioning,
            config,
            stats,
            schema,
        ),
        FanoutMode::ThreadToNode => dxchg_t2n(
            name,
            producers,
            consumers,
            partitioning,
            config,
            stats,
            schema,
        ),
    }
}

/// Thread-to-thread: one buffer (and channel) per consumer thread.
#[allow(clippy::too_many_arguments)]
fn dxchg_t2t(
    name: &'static str,
    producers: Vec<(u32, Box<dyn Operator>)>,
    consumers: Vec<u32>,
    partitioning: Partitioning,
    config: DxchgConfig,
    stats: Arc<NetStats>,
    schema: Arc<Schema>,
) -> Result<Vec<DxchgReceiver>> {
    let channels: Vec<(Sender<Payload>, Receiver<Payload>)> = (0..consumers.len())
        .map(|_| bounded(crate::xchg::CHANNEL_CAP))
        .collect();
    let (ptx, prx) = bounded::<crate::xchg::WorkerProfile>(producers.len().max(1));
    for (wi, (prod_node, mut prod)) in producers.into_iter().enumerate() {
        let sinks: Vec<Sink> = channels
            .iter()
            .map(|(s, _)| Sink::Chan(s.clone()))
            .collect();
        let consumers = consumers.clone();
        let partitioning = partitioning.clone();
        let stats = stats.clone();
        let schema = schema.clone();
        let buffer_bytes = config.buffer_bytes;
        let hook = config.fault.clone();
        let ptx = ptx.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut rows_produced = 0u64;
            // Fanout = number of consumer threads; double-buffered.
            let fanout = consumers.len();
            let accounted = (2 * fanout * buffer_bytes) as u64;
            stats.alloc_buffers(accounted);
            let mut plane = SendPlane::new(sinks, hook, name, prod_node, wi, stats.clone());
            let mut bufs: Vec<Batch> = (0..fanout).map(|_| Batch::empty(schema.clone())).collect();
            // What each buffer holds, as `byte_size` counts it: the sum of
            // the pieces appended since its last flush.
            let mut buffered = vec![0usize; fanout];
            let flush = |plane: &mut SendPlane, c: usize, buf: &mut Batch| -> bool {
                if buf.is_empty() {
                    return true;
                }
                let full = std::mem::replace(buf, Batch::empty(schema.clone()));
                let msg = make_message(full, None, prod_node, consumers[c], &plane.stats);
                plane.send(c, msg)
            };
            'run: loop {
                match prod.next() {
                    Ok(Some(batch)) => {
                        rows_produced += batch.len() as u64;
                        match partition_positions(&batch, &partitioning, fanout) {
                            Ok(parts) => {
                                for (c, pos) in parts.iter().enumerate() {
                                    if pos.is_empty() {
                                        continue;
                                    }
                                    let piece = batch.gather_u32(pos);
                                    bufs[c].append(&piece).ok();
                                    buffered[c] += byte_size(&piece);
                                    if buffered[c] >= buffer_bytes {
                                        buffered[c] = 0;
                                        if !flush(&mut plane, c, &mut bufs[c]) {
                                            break 'run;
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                plane.error(e);
                                break 'run;
                            }
                        }
                    }
                    Ok(None) => {
                        for (c, buf) in bufs.iter_mut().enumerate().take(fanout) {
                            let mut b = std::mem::replace(buf, Batch::empty(schema.clone()));
                            if !flush(&mut plane, c, &mut b) {
                                break;
                            }
                        }
                        break 'run;
                    }
                    Err(e) => {
                        plane.error(e);
                        break 'run;
                    }
                }
            }
            plane.finish();
            stats.free_buffers(accounted);
            let _ = ptx.send(crate::xchg::WorkerProfile {
                worker: wi,
                lines: vectorh_exec::operator::collect_profiles(prod.as_ref()),
                rows_produced,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        });
    }
    drop(ptx);
    let hub = Arc::new(ProfileHub {
        rx: prx,
        collected: vectorh_common::sync::Mutex::new(Vec::new()),
    });
    Ok(channels
        .into_iter()
        .map(|(_, rx)| DxchgReceiver {
            name,
            schema: schema.clone(),
            rx,
            route_filter: None,
            seen: Default::default(),
            stats: stats.clone(),
            counters: Counters::default(),
            consumer_wait_ns: 0,
            profiles: hub.clone(),
        })
        .collect())
}

/// Thread-to-node: buffers per node with a route byte; consumer threads
/// filter their rows out of node-level messages.
#[allow(clippy::too_many_arguments)]
fn dxchg_t2n(
    name: &'static str,
    producers: Vec<(u32, Box<dyn Operator>)>,
    consumers: Vec<u32>,
    partitioning: Partitioning,
    config: DxchgConfig,
    stats: Arc<NetStats>,
    schema: Arc<Schema>,
) -> Result<Vec<DxchgReceiver>> {
    // Group consumer threads by node; route byte = index within node.
    let mut nodes: Vec<u32> = consumers.clone();
    nodes.sort_unstable();
    nodes.dedup();
    // consumer j -> (node_idx, route byte)
    let mut within: std::collections::HashMap<u32, u8> = Default::default();
    let routing: Vec<(usize, u8)> = consumers
        .iter()
        .map(|cn| {
            let ni = nodes.iter().position(|n| n == cn).unwrap();
            let r = within.entry(*cn).or_insert(0);
            let route = *r;
            *r += 1;
            (ni, route)
        })
        .collect();
    let threads_per_node: Vec<u8> = nodes
        .iter()
        .map(|n| consumers.iter().filter(|c| *c == n).count() as u8)
        .collect();
    if threads_per_node.contains(&0) {
        return Err(VhError::Net("node without consumer threads".into()));
    }

    // One fan-in channel per node; a demux thread forwards each node-level
    // message to every consumer thread on the node, and the receivers
    // "selectively consume" their rows by route byte.
    let node_ch: Vec<(Sender<Payload>, Receiver<Payload>)> = (0..nodes.len())
        .map(|_| bounded(crate::xchg::CHANNEL_CAP))
        .collect();
    let thread_ch: Vec<(Sender<Payload>, Receiver<Payload>)> = (0..consumers.len())
        .map(|_| bounded(crate::xchg::CHANNEL_CAP))
        .collect();
    for (ni, _) in nodes.iter().enumerate() {
        let node_rx = node_ch[ni].1.clone();
        let thread_txs: Vec<Sender<Payload>> = routing
            .iter()
            .enumerate()
            .filter(|(_, (n, _))| *n == ni)
            .map(|(j, _)| thread_ch[j].0.clone())
            .collect();
        std::thread::spawn(move || {
            while let Ok(payload) = node_rx.recv() {
                match payload {
                    Ok(env) => {
                        for tx in &thread_txs {
                            if tx.send(Ok(env.clone())).is_err() {
                                return;
                            }
                        }
                    }
                    Err(e) => {
                        for tx in &thread_txs {
                            let _ = tx.send(Err(e.clone()));
                        }
                        return;
                    }
                }
            }
        });
    }

    // Fabric path: cross-node traffic leaves the process as framed
    // transport payloads. One data channel per consumer node, allocated
    // deterministically so cooperating processes that build the same plan
    // agree on the ids; one shared stream per (producer node, consumer
    // node) pair, because the transport allows a single live sender per
    // stream. Nodes whose endpoint the local fabric cannot produce live in
    // another process: their consumers get no pump (and terminate empty
    // here) and their producers are skipped (they run over there).
    let prod_nodes: Vec<u32> = producers.iter().map(|(n, _)| *n).collect();
    let mut remote_txs: std::collections::HashMap<(u32, usize), Arc<SharedTx>> = Default::default();
    if let Some(fabric) = &config.fabric {
        let chans: Vec<u32> = nodes.iter().map(|_| fabric.alloc_channel()).collect();
        let window = credit_window(config.buffer_bytes);
        let mut pnodes = prod_nodes.clone();
        pnodes.sort_unstable();
        pnodes.dedup();
        for (ni, cnode) in nodes.iter().enumerate() {
            // Every remote producer node Fins its stream exactly once.
            let expected = pnodes.iter().filter(|p| **p != *cnode).count();
            if expected == 0 {
                continue;
            }
            let Ok(ep) = fabric.endpoint(NodeId(*cnode)) else {
                continue;
            };
            let mut rx = ep.bind(chans[ni], window)?;
            let node_tx = node_ch[ni].0.clone();
            std::thread::spawn(move || {
                let mut fins = 0usize;
                while fins < expected {
                    match rx.recv() {
                        Ok(Some(item)) => match item.kind {
                            RxKind::Fin => fins += 1,
                            RxKind::Data => match decode_remote(&item.payload) {
                                Ok(payload) => {
                                    let failed = payload.is_err();
                                    if node_tx.send(payload).is_err() || failed {
                                        return;
                                    }
                                }
                                Err(e) => {
                                    let _ = node_tx.send(Err(e));
                                    return;
                                }
                            },
                        },
                        Ok(None) => return,
                        Err(e) => {
                            let _ = node_tx.send(Err(e));
                            return;
                        }
                    }
                }
            });
        }
        for (ni, cnode) in nodes.iter().enumerate() {
            for pnode in &pnodes {
                if pnode == cnode {
                    continue;
                }
                let Ok(ep) = fabric.endpoint(NodeId(*pnode)) else {
                    continue;
                };
                let local_producers = prod_nodes.iter().filter(|p| **p == *pnode).count();
                let tx = ep.sender(NodeId(*cnode), chans[ni])?;
                remote_txs.insert(
                    (*pnode, ni),
                    Arc::new(SharedTx {
                        tx: vectorh_common::sync::Mutex::new(tx),
                        producers_left: AtomicUsize::new(local_producers),
                    }),
                );
            }
        }
    }

    let (ptx, prx) = bounded::<crate::xchg::WorkerProfile>(producers.len().max(1));
    for (wi, (prod_node, mut prod)) in producers.into_iter().enumerate() {
        if let Some(fabric) = &config.fabric {
            if fabric.endpoint(NodeId(prod_node)).is_err() {
                continue; // this producer's pipeline runs in another process
            }
        }
        let sinks: Vec<Sink> = (0..nodes.len())
            .map(|ni| match remote_txs.get(&(prod_node, ni)) {
                Some(shared) => Sink::Remote(shared.clone()),
                None => Sink::Chan(node_ch[ni].0.clone()),
            })
            .collect();
        let nodes = nodes.clone();
        let routing = routing.clone();
        let partitioning = partitioning.clone();
        let stats = stats.clone();
        let schema = schema.clone();
        let buffer_bytes = config.buffer_bytes;
        let hook = config.fault.clone();
        let n_consumers = consumers.len();
        let ptx = ptx.clone();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut rows_produced = 0u64;
            let fanout = nodes.len();
            let accounted = (2 * fanout * buffer_bytes) as u64;
            stats.alloc_buffers(accounted);
            let mut plane = SendPlane::new(sinks, hook, name, prod_node, wi, stats.clone());
            let mut bufs: Vec<(Batch, Vec<u8>)> = (0..fanout)
                .map(|_| (Batch::empty(schema.clone()), Vec::new()))
                .collect();
            // As in `dxchg_t2t`: each buffer's `byte_size`, summed per piece.
            let mut buffered = vec![0usize; fanout];
            let flush = |plane: &mut SendPlane, ni: usize, buf: &mut (Batch, Vec<u8>)| -> bool {
                if buf.0.is_empty() {
                    return true;
                }
                let batch = std::mem::replace(&mut buf.0, Batch::empty(schema.clone()));
                let route = std::mem::take(&mut buf.1);
                let msg = make_message(batch, Some(route), prod_node, nodes[ni], &plane.stats);
                plane.send(ni, msg)
            };
            'run: loop {
                match prod.next() {
                    Ok(Some(batch)) => {
                        rows_produced += batch.len() as u64;
                        // Partition to consumer threads, then regroup by node
                        // attaching the within-node route byte.
                        match partition_positions(&batch, &partitioning, n_consumers) {
                            Ok(parts) => {
                                for (j, pos) in parts.iter().enumerate() {
                                    if pos.is_empty() {
                                        continue;
                                    }
                                    let (ni, route) = routing[j];
                                    let piece = batch.gather_u32(pos);
                                    let n = piece.len();
                                    bufs[ni].0.append(&piece).ok();
                                    bufs[ni].1.extend(std::iter::repeat_n(route, n));
                                    buffered[ni] += byte_size(&piece);
                                    if buffered[ni] + bufs[ni].1.len() >= buffer_bytes {
                                        buffered[ni] = 0;
                                        let mut b = std::mem::replace(
                                            &mut bufs[ni],
                                            (Batch::empty(schema.clone()), Vec::new()),
                                        );
                                        if !flush(&mut plane, ni, &mut b) {
                                            break 'run;
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                plane.error(e);
                                break 'run;
                            }
                        }
                    }
                    Ok(None) => {
                        for (ni, buf) in bufs.iter_mut().enumerate().take(fanout) {
                            let mut b =
                                std::mem::replace(buf, (Batch::empty(schema.clone()), Vec::new()));
                            if !flush(&mut plane, ni, &mut b) {
                                break;
                            }
                        }
                        break 'run;
                    }
                    Err(e) => {
                        plane.error(e);
                        break 'run;
                    }
                }
            }
            plane.finish();
            stats.free_buffers(accounted);
            let _ = ptx.send(crate::xchg::WorkerProfile {
                worker: wi,
                lines: vectorh_exec::operator::collect_profiles(prod.as_ref()),
                rows_produced,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        });
    }
    drop(ptx);
    let hub = Arc::new(ProfileHub {
        rx: prx,
        collected: vectorh_common::sync::Mutex::new(Vec::new()),
    });

    Ok(thread_ch
        .into_iter()
        .enumerate()
        .map(|(j, (_, rx))| DxchgReceiver {
            name,
            schema: schema.clone(),
            rx,
            route_filter: Some(routing[j].1),
            seen: Default::default(),
            stats: stats.clone(),
            counters: Counters::default(),
            consumer_wait_ns: 0,
            profiles: hub.clone(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::{ColumnData, DataType};
    use vectorh_exec::operator::BatchSource;

    fn source(vals: Vec<i64>) -> Box<dyn Operator> {
        let schema = Arc::new(Schema::of(&[("x", DataType::I64)]));
        let batch = Batch::new(schema, vec![ColumnData::I64(vals)]).unwrap();
        Box::new(BatchSource::from_batch(batch, 32))
    }

    fn config(mode: FanoutMode) -> DxchgConfig {
        DxchgConfig {
            buffer_bytes: 512,
            mode,
            fault: None,
            fabric: None,
        }
    }

    fn drain(mut ops: Vec<DxchgReceiver>) -> Vec<Vec<i64>> {
        ops.iter_mut()
            .map(|r| {
                let mut got = Vec::new();
                while let Some(b) = r.next().unwrap() {
                    got.extend(b.column(0).as_i64().unwrap().iter().copied());
                }
                got.sort_unstable();
                got
            })
            .collect()
    }

    #[test]
    fn union_both_modes() {
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            let stats = Arc::new(NetStats::default());
            let r = dxchg_union(
                vec![
                    (0, source((0..100).collect())),
                    (1, source((100..200).collect())),
                ],
                0,
                config(mode),
                stats.clone(),
            )
            .unwrap();
            let got = drain(vec![r]);
            assert_eq!(got[0], (0..200).collect::<Vec<_>>(), "mode {mode:?}");
            // Producer on node 1 must have crossed the network.
            assert!(stats.snapshot().net_messages > 0);
            assert!(stats.snapshot().intra_messages > 0);
        }
    }

    #[test]
    fn hash_split_complete_and_consistent_across_modes() {
        let run = |mode| {
            let stats = Arc::new(NetStats::default());
            let recv = dxchg_hash_split(
                vec![
                    (0, source((0..300).collect())),
                    (1, source((300..600).collect())),
                ],
                vec![0, 0, 1, 1], // 2 nodes × 2 threads
                vec![0],
                config(mode),
                stats,
            )
            .unwrap();
            drain(recv)
        };
        let t2t = run(FanoutMode::ThreadToThread);
        let t2n = run(FanoutMode::ThreadToNode);
        let total: usize = t2t.iter().map(|v| v.len()).sum();
        assert_eq!(total, 600);
        // Both modes must route identically (same hash→thread mapping).
        assert_eq!(t2t, t2n);
        let mut all: Vec<i64> = t2t.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..600).collect::<Vec<_>>());
    }

    #[test]
    fn buffer_accounting_scales_with_mode() {
        // 1 producer (deterministic peak), 4 consumer threads on 2 nodes:
        // T2T fanout 4 (threads), T2N fanout 2 (nodes) → half the buffers.
        let peak = |mode| {
            let stats = Arc::new(NetStats::default());
            let recv = dxchg_hash_split(
                vec![(0, source((0..1000).collect()))],
                vec![0, 0, 1, 1],
                vec![0],
                DxchgConfig {
                    buffer_bytes: 1024,
                    mode,
                    fault: None,
                    fabric: None,
                },
                stats.clone(),
            )
            .unwrap();
            drain(recv);
            stats.snapshot().buffer_bytes_peak
        };
        let t2t = peak(FanoutMode::ThreadToThread);
        let t2n = peak(FanoutMode::ThreadToNode);
        assert_eq!(t2t, 2 * 4 * 1024); // 2× (double buffering) × fanout × buf
        assert_eq!(t2n, 2 * 2 * 1024);
        assert!(t2n < t2t);
    }

    /// Faults every even-numbered buffer of an exchange. Pure function of
    /// the detail string, as the determinism contract requires.
    #[derive(Debug)]
    struct EveryOther(FaultAction);

    impl vectorh_common::fault::FaultHook for EveryOther {
        fn decide(&self, site: FaultSite, detail: &str, _attempt: u32) -> FaultAction {
            if site != FaultSite::XchgSend {
                return FaultAction::None;
            }
            let seq: u64 = detail.rsplit('#').next().unwrap().parse().unwrap();
            if seq.is_multiple_of(2) {
                self.0
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn channel_faults_never_lose_or_duplicate_rows() {
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            for action in [
                FaultAction::Drop,
                FaultAction::Duplicate,
                FaultAction::Delay,
            ] {
                let stats = Arc::new(NetStats::default());
                let recv = dxchg_hash_split(
                    vec![
                        (0, source((0..300).collect())),
                        (1, source((300..600).collect())),
                    ],
                    vec![0, 0, 1, 1],
                    vec![0],
                    DxchgConfig {
                        buffer_bytes: 512,
                        mode,
                        fault: Some(Arc::new(EveryOther(action))),
                        fabric: None,
                    },
                    stats.clone(),
                )
                .unwrap();
                let mut all: Vec<i64> = drain(recv).into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(
                    all,
                    (0..600).collect::<Vec<_>>(),
                    "mode {mode:?} action {action:?}"
                );
                let snap = stats.snapshot();
                let fired =
                    snap.dropped_messages + snap.duplicated_messages + snap.delayed_messages;
                assert!(fired > 0, "mode {mode:?} action {action:?} never fired");
            }
        }
    }

    #[test]
    fn faulty_union_matches_clean_union() {
        let run = |fault: Option<SharedFaultHook>| {
            let stats = Arc::new(NetStats::default());
            let r = dxchg_union(
                vec![
                    (0, source((0..250).collect())),
                    (1, source((250..500).collect())),
                ],
                0,
                DxchgConfig {
                    buffer_bytes: 256,
                    mode: FanoutMode::ThreadToNode,
                    fault,
                    fabric: None,
                },
                stats,
            )
            .unwrap();
            drain(vec![r]).remove(0)
        };
        let clean = run(None);
        let faulty = run(Some(Arc::new(EveryOther(FaultAction::Duplicate))));
        assert_eq!(clean, faulty);
    }

    #[test]
    fn dedup_state_stays_bounded_under_fault_storms() {
        // Regression for the unbounded `HashSet<u64>` dedup: a long stream
        // with constant reordering must keep receiver dedup residue at the
        // reorder depth (1 here: delay holds back one buffer), never at the
        // stream length.
        let stats = Arc::new(NetStats::default());
        let recv = dxchg_hash_split(
            vec![
                (0, source((0..3000).collect())),
                (1, source((3000..6000).collect())),
            ],
            vec![0, 0, 1, 1],
            vec![0],
            DxchgConfig {
                buffer_bytes: 64,
                mode: FanoutMode::ThreadToNode,
                fault: Some(Arc::new(EveryOther(FaultAction::Delay))),
                fabric: None,
            },
            stats.clone(),
        )
        .unwrap();
        let mut all: Vec<i64> = drain(recv).into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6000).collect::<Vec<_>>());
        let messages: u64 = stats.channels().iter().map(|(_, c)| c.messages).sum();
        assert!(messages > 50, "want a long stream, got {messages} buffers");
        assert!(
            stats.dedup_residual_peak() <= 2,
            "dedup residue {} not bounded by the reorder window",
            stats.dedup_residual_peak()
        );
    }

    #[test]
    fn per_channel_stats_surface_traffic() {
        let stats = Arc::new(NetStats::default());
        let r = dxchg_union(
            vec![
                (0, source((0..500).collect())),
                (1, source((500..1000).collect())),
            ],
            0,
            config(FanoutMode::ThreadToNode),
            stats.clone(),
        )
        .unwrap();
        drain(vec![r]);
        let channels = stats.channels();
        let (name, c) = &channels[0];
        assert_eq!(name, "DXchgUnion");
        assert!(c.messages > 0);
        assert!(c.bytes > 0);
    }

    #[test]
    fn zero_buffer_bytes_flushes_every_batch() {
        let stats = Arc::new(NetStats::default());
        let r = dxchg_union(
            vec![
                (0, source((0..100).collect())),
                (1, source((100..200).collect())),
            ],
            0,
            DxchgConfig {
                buffer_bytes: 0,
                mode: FanoutMode::ThreadToNode,
                fault: None,
                fabric: None,
            },
            stats,
        )
        .unwrap();
        let got = drain(vec![r]).remove(0);
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn receivers_dropped_mid_stream_do_not_wedge_producers() {
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            let stats = Arc::new(NetStats::default());
            let mut recv = dxchg_hash_split(
                vec![
                    (0, source((0..2000).collect())),
                    (1, source((2000..4000).collect())),
                ],
                vec![0, 0, 1, 1],
                vec![0],
                DxchgConfig {
                    buffer_bytes: 64,
                    mode,
                    fault: None,
                    fabric: None,
                },
                stats,
            )
            .unwrap();
            // Three consumers disappear; the survivor must still terminate
            // (producers abort their sends, never deadlock the exchange).
            recv.truncate(1);
            let got = drain(recv).remove(0);
            assert!(got.len() <= 4000, "mode {mode:?}");
        }
    }

    #[test]
    fn fabric_backed_exchange_matches_plain_channels() {
        use vectorh_transport::{SharedEpoch, TcpFabric};
        let run = |fabric: Option<Arc<dyn Fabric>>| {
            let stats = Arc::new(NetStats::default());
            let recv = dxchg_hash_split(
                vec![
                    (0, source((0..300).collect())),
                    (1, source((300..600).collect())),
                ],
                vec![0, 0, 1, 1],
                vec![0],
                DxchgConfig {
                    buffer_bytes: 512,
                    mode: FanoutMode::ThreadToNode,
                    fault: None,
                    fabric,
                },
                stats.clone(),
            )
            .unwrap();
            (drain(recv), stats)
        };
        let (plain, _) = run(None);
        let epoch = Arc::new(SharedEpoch::new(1));
        let tcp = TcpFabric::loopback(&[NodeId(0), NodeId(1)], epoch, None).unwrap();
        let (over_tcp, stats) = run(Some(Arc::new(tcp)));
        assert_eq!(plain, over_tcp);
        // The framed path really ran: stats saw the same buffer traffic.
        assert!(stats.channels()[0].1.messages > 0);
    }

    #[test]
    fn intra_node_messages_avoid_serialization() {
        let stats = Arc::new(NetStats::default());
        // Producer and the sole consumer on the same node.
        let r = dxchg_union(
            vec![(3, source((0..50).collect()))],
            3,
            config(FanoutMode::ThreadToNode),
            stats.clone(),
        )
        .unwrap();
        drain(vec![r]);
        let snap = stats.snapshot();
        assert_eq!(snap.net_bytes, 0);
        assert!(snap.intra_messages > 0);
    }

    #[test]
    fn worker_profiles_arrive_after_eos() {
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            let mut r = dxchg_union(
                vec![
                    (0, source((0..10).collect())),
                    (1, source((0..5).collect())),
                ],
                0,
                config(mode),
                Arc::new(NetStats::default()),
            )
            .unwrap();
            while r.next().unwrap().is_some() {}
            let profiles = r.remote_profiles();
            assert_eq!(profiles.len(), 2, "mode {mode:?}");
            assert_eq!(profiles[0].label, "sender 0");
            assert_eq!(profiles[0].rows + profiles[1].rows, 15);
            assert!(!profiles[0].lines.is_empty());
        }
    }
}
