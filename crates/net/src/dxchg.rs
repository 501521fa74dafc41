//! Distributed exchange (DXchg) operators.
//!
//! Implements §5's DXchg design over the simulated MPI layer:
//!
//! * Producers send **fixed-size messages** (≥256 KB in the paper; smaller
//!   in tests) and conceptually double-buffer so communication overlaps
//!   processing — modelled by accounting `2 × destinations × buffer` bytes
//!   per sender thread.
//! * **Intra-node** traffic passes pointers to sender-side batches, avoiding
//!   the memcpy MPI would do.
//! * One data path serves both fanout modes; [`FanoutMode`] only decides
//!   what a *destination* is. **Thread-to-thread**: each consumer thread,
//!   so per-node buffer memory grows as `2·N·C²·buffer` — the paper's 20 GB
//!   problem at 100×20. **Thread-to-node**: each consumer node, with a
//!   one-byte column per tuple naming the receiving thread.
//! * Each destination has one **inbox**: it reads the destination's channel
//!   (which a pump feeds from the transport fabric, when there is one),
//!   drops duplicate deliveries by tag, opens each message once and hands
//!   every thread of the destination only its rows — consumer threads
//!   "selectively consume data from incoming buffers using the
//!   one-byte-column" without each opening every buffer.
//! * A destination that hangs up is **gone** for each producer: its rows
//!   are no longer gathered, and every other destination still gets all of
//!   its own.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vectorh_common::channel::{bounded, Receiver, Sender};
use vectorh_common::fault::{FaultAction, FaultSite, SharedFaultHook};
use vectorh_common::sync::Mutex;
use vectorh_common::{NodeId, Result, Schema, VhError};
use vectorh_exec::operator::{Counters, OpProfile};
use vectorh_exec::{Batch, Operator};
use vectorh_transport::{DedupWindow, Fabric, FrameRx, FrameTx, RxKind};

use crate::buffer::{byte_size, make_message, open_message, Message};
use crate::stats::NetStats;
use crate::xchg::{partition_positions, Partitioning, WorkerProfile, CHANNEL_CAP};

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
    /// (deduped by the inboxes via message tags), delay (bounded reorder).
    pub fault: Option<SharedFaultHook>,
    /// Optional transport fabric. When set, cross-node messages travel as
    /// framed transport payloads — over real TCP with a [`TcpFabric`](
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
    tx: Mutex<Box<dyn FrameTx>>,
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

/// Consumer-side operator of a DXchg: one consumer thread, reading the
/// batches its destination's inbox hands it.
pub struct DxchgReceiver {
    name: &'static str,
    schema: Arc<Schema>,
    rx: Receiver<Result<Batch>>,
    counters: Counters,
    /// The exchange's producer profiles, each added as its producer ends.
    profiles: Arc<Mutex<Vec<WorkerProfile>>>,
}

impl Operator for DxchgReceiver {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let start = Instant::now();
        let res = self.rx.recv();
        self.counters.cum_time_ns += start.elapsed().as_nanos() as u64;
        self.counters.calls += 1;
        match res {
            Err(_) => Ok(None),
            Ok(Err(e)) => Err(e),
            Ok(Ok(batch)) => {
                self.counters.rows_in += batch.len() as u64;
                self.counters.rows_out += batch.len() as u64;
                Ok(Some(batch))
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
        let mut profiles = self.profiles.lock().clone();
        profiles.sort_by_key(|w| w.worker);
        profiles
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

/// Where an exchange's rows go. A *destination* has one buffer in each
/// producer and one inbox; a consumer thread is reached through its
/// destination and, when messages carry the route column, its route byte.
struct Routing {
    /// Destination → the node it lives on.
    nodes: Vec<u32>,
    /// Consumer thread → (destination, route byte).
    threads: Vec<(usize, u8)>,
    /// Whether messages carry the one-byte route column.
    routed: bool,
}

impl Routing {
    /// The one place the fanout mode is read. Thread-to-thread: a
    /// destination is a consumer thread. Thread-to-node: a consumer node, in
    /// node order, and a thread's route byte is its index among its node's
    /// threads — so a node can have at most 256 of them.
    fn new(consumers: &[u32], mode: FanoutMode) -> Result<Routing> {
        match mode {
            FanoutMode::ThreadToThread => Ok(Routing {
                nodes: consumers.to_vec(),
                threads: (0..consumers.len()).map(|j| (j, 0)).collect(),
                routed: false,
            }),
            FanoutMode::ThreadToNode => {
                let mut nodes = consumers.to_vec();
                nodes.sort_unstable();
                nodes.dedup();
                let mut within = vec![0usize; nodes.len()];
                let threads = consumers
                    .iter()
                    .map(|cn| {
                        let d = nodes.partition_point(|n| n < cn);
                        let route = u8::try_from(within[d]).map_err(|_| {
                            VhError::Net(format!(
                                "dxchg: node {cn} has more than 256 consumer threads; \
                                 a one-byte route cannot name them"
                            ))
                        })?;
                        within[d] += 1;
                        Ok((d, route))
                    })
                    .collect::<Result<_>>()?;
                Ok(Routing {
                    nodes,
                    threads,
                    routed: true,
                })
            }
        }
    }
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
    let routing = Arc::new(Routing::new(&consumers, config.mode)?);
    let schema = producers[0].1.schema();
    let dests = routing.nodes.len();
    // One channel per destination, fed by producers and fabric pumps and
    // read by the destination's inbox.
    let (dest_txs, dest_rxs): (Vec<Sender<Payload>>, Vec<Receiver<Payload>>) =
        (0..dests).map(|_| bounded(CHANNEL_CAP)).unzip();
    let remote_txs = match &config.fabric {
        Some(fabric) => {
            let prod_nodes: Vec<u32> = producers.iter().map(|(n, _)| *n).collect();
            bind_fabric(
                fabric.as_ref(),
                &routing.nodes,
                &prod_nodes,
                &dest_txs,
                config.buffer_bytes,
            )?
        }
        None => HashMap::new(),
    };
    // One channel per consumer thread, fed by its destination's inbox only.
    let (thread_txs, thread_rxs): (Vec<Sender<Result<Batch>>>, Vec<_>) =
        consumers.iter().map(|_| bounded(CHANNEL_CAP)).unzip();
    for (d, rx) in dest_rxs.into_iter().enumerate() {
        // The inbox's outputs in route-byte order.
        let outs = routing
            .threads
            .iter()
            .zip(&thread_txs)
            .filter(|((td, _), _)| *td == d)
            .map(|(_, tx)| Some(tx.clone()))
            .collect();
        let (schema, stats) = (schema.clone(), stats.clone());
        std::thread::spawn(move || inbox(rx, outs, schema, &stats));
    }

    let profiles = Arc::new(Mutex::new(Vec::new()));
    for (wi, (node, mut prod)) in producers.into_iter().enumerate() {
        if let Some(fabric) = &config.fabric {
            if fabric.endpoint(NodeId(node)).is_err() {
                continue; // this producer's pipeline runs in another process
            }
        }
        let sinks = (0..dests)
            .map(|d| match remote_txs.get(&(node, d)) {
                Some(shared) => Sink::Remote(shared.clone()),
                None => Sink::Chan(dest_txs[d].clone()),
            })
            .collect();
        let mut out = Producer {
            plane: SendPlane {
                sinks,
                hook: config.fault.clone(),
                name,
                key: stream_key(node, wi),
                stats: stats.clone(),
                seqs: vec![0; dests],
                held: (0..dests).map(|_| None).collect(),
            },
            routing: routing.clone(),
            node,
            buffer_bytes: config.buffer_bytes,
            bufs: (0..dests)
                .map(|_| Some((Batch::empty(schema.clone()), Vec::new(), 0)))
                .collect(),
        };
        let (partitioning, profiles) = (partitioning.clone(), profiles.clone());
        std::thread::spawn(move || {
            let t0 = Instant::now();
            // Double-buffered: two buffers per destination.
            let accounted = (2 * dests * out.buffer_bytes) as u64;
            out.plane.stats.alloc_buffers(accounted);
            let rows_produced = out.run(prod.as_mut(), &partitioning);
            out.plane.finish();
            out.plane.stats.free_buffers(accounted);
            // Before `out` hangs up: a consumer that saw the end of the
            // stream finds every profile.
            profiles.lock().push(WorkerProfile {
                worker: wi,
                lines: vectorh_exec::operator::collect_profiles(prod.as_ref()),
                rows_produced,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        });
    }
    Ok(thread_rxs
        .into_iter()
        .map(|rx| DxchgReceiver {
            name,
            schema: schema.clone(),
            rx,
            counters: Counters::default(),
            profiles: profiles.clone(),
        })
        .collect())
}

/// Bind an exchange to the transport fabric: one fabric channel per
/// destination, allocated in destination order so cooperating processes
/// that build the same plan agree on the ids, and a pump into the
/// destination's channel for each destination hosted here. Each local
/// producer node shares one stream per destination, because the transport
/// allows a single live sender per stream. A node whose endpoint the local
/// fabric cannot produce lives in another process: its destinations get no
/// pump (their threads end empty here) and its producers are skipped (they
/// run over there).
fn bind_fabric(
    fabric: &dyn Fabric,
    nodes: &[u32],
    prod_nodes: &[u32],
    dest_txs: &[Sender<Payload>],
    buffer_bytes: usize,
) -> Result<HashMap<(u32, usize), Arc<SharedTx>>> {
    let mut pnodes = prod_nodes.to_vec();
    pnodes.sort_unstable();
    pnodes.dedup();
    let chans: Vec<u32> = nodes.iter().map(|_| fabric.alloc_channel()).collect();
    let window = credit_window(buffer_bytes);
    for (d, cnode) in nodes.iter().enumerate() {
        // Every remote producer node Fins its stream exactly once.
        let expected = pnodes.iter().filter(|p| **p != *cnode).count();
        if expected == 0 {
            continue;
        }
        let Ok(ep) = fabric.endpoint(NodeId(*cnode)) else {
            continue;
        };
        let rx = ep.bind(chans[d], window)?;
        let tx = dest_txs[d].clone();
        std::thread::spawn(move || pump(rx, expected, tx));
    }
    let mut remote = HashMap::new();
    for (d, cnode) in nodes.iter().enumerate() {
        for pnode in &pnodes {
            if pnode == cnode {
                continue;
            }
            let Ok(ep) = fabric.endpoint(NodeId(*pnode)) else {
                continue;
            };
            let local_producers = prod_nodes.iter().filter(|p| **p == *pnode).count();
            let tx = ep.sender(NodeId(*cnode), chans[d])?;
            remote.insert(
                (*pnode, d),
                Arc::new(SharedTx {
                    tx: Mutex::new(tx),
                    producers_left: AtomicUsize::new(local_producers),
                }),
            );
        }
    }
    Ok(remote)
}

/// Feed a destination's channel from its fabric stream until every remote
/// producer node has sent its Fin, or until the first error, passed on.
fn pump(mut rx: Box<dyn FrameRx>, expected: usize, tx: Sender<Payload>) {
    let mut fins = 0usize;
    while fins < expected {
        let payload = match rx.recv() {
            Ok(Some(item)) => match item.kind {
                RxKind::Fin => {
                    fins += 1;
                    continue;
                }
                RxKind::Data => decode_remote(&item.payload).and_then(|p| p),
            },
            Ok(None) => return,
            Err(e) => Err(e),
        };
        let failed = payload.is_err();
        if tx.send(payload).is_err() || failed {
            return;
        }
    }
}

/// One producer thread's send side: a buffer per destination, sent through
/// the [`SendPlane`] once it holds `buffer_bytes`.
struct Producer {
    plane: SendPlane,
    routing: Arc<Routing>,
    node: u32,
    buffer_bytes: usize,
    /// Per destination: the rows buffered since the last flush, their route
    /// bytes (when messages carry them), and their [`byte_size`], summed per
    /// appended piece. `None` once the destination is gone.
    bufs: Vec<Option<(Batch, Vec<u8>, usize)>>,
}

impl Producer {
    /// Drain the pipeline into the exchange and return the rows it
    /// produced. A pipeline, partitioning or buffering error goes to the
    /// consumers; the run ends early only when every destination is gone.
    fn run(&mut self, prod: &mut dyn Operator, partitioning: &Partitioning) -> u64 {
        let mut rows = 0u64;
        loop {
            let step = match prod.next() {
                Ok(Some(batch)) => {
                    rows += batch.len() as u64;
                    self.push(&batch, partitioning)
                }
                Ok(None) => {
                    for d in 0..self.bufs.len() {
                        self.flush(d);
                    }
                    return rows;
                }
                Err(e) => Err(e),
            };
            match step {
                Ok(()) if self.bufs.iter().all(Option::is_none) => return rows,
                Ok(()) => {}
                Err(e) => {
                    self.plane.error(e);
                    return rows;
                }
            }
        }
    }

    /// Partition `batch` over the consumer threads and buffer each piece at
    /// its thread's destination, flushing full buffers. Rows for a thread
    /// whose destination is gone are not gathered.
    fn push(&mut self, batch: &Batch, partitioning: &Partitioning) -> Result<()> {
        let routing = self.routing.clone();
        let parts = partition_positions(batch, partitioning, routing.threads.len())?;
        for (pos, &(d, route)) in parts.iter().zip(&routing.threads) {
            let Some((buf, routes, size)) = &mut self.bufs[d] else {
                continue;
            };
            if pos.is_empty() {
                continue;
            }
            let piece = batch.gather_u32(pos);
            buf.append(&piece)?;
            if routing.routed {
                routes.extend(std::iter::repeat_n(route, piece.len()));
            }
            *size += byte_size(&piece);
            if *size + routes.len() >= self.buffer_bytes {
                self.flush(d);
            }
        }
        Ok(())
    }

    /// Send destination `d`'s buffer if it holds rows. A destination whose
    /// send fails is gone: its buffer is dropped, and the other
    /// destinations carry on.
    fn flush(&mut self, d: usize) {
        let Some((buf, routes, size)) = &mut self.bufs[d] else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let batch = std::mem::replace(buf, Batch::empty(buf.schema.clone()));
        let route = self.routing.routed.then(|| std::mem::take(routes));
        *size = 0;
        let msg = make_message(
            batch,
            route,
            self.node,
            self.routing.nodes[d],
            &self.plane.stats,
        );
        if !self.plane.send(d, msg) {
            self.bufs[d] = None;
        }
    }
}

/// The inbox of one destination: drop duplicate deliveries by tag, open
/// each message once and hand each of the destination's threads (`outs`,
/// by route byte) only its rows. A thread that hangs up gets nothing more;
/// the inbox ends when every thread has, when its channel ends, or after
/// passing an error on to every thread.
fn inbox(
    rx: Receiver<Payload>,
    mut outs: Vec<Option<Sender<Result<Batch>>>>,
    schema: Arc<Schema>,
    stats: &NetStats,
) {
    // Per-stream dedup windows keyed by the tag's stream key. Watermark
    // eviction keeps them bounded by the reorder window, not by the stream
    // length.
    let mut seen: HashMap<u32, DedupWindow> = HashMap::new();
    while let Ok(payload) = rx.recv() {
        let parts = payload.and_then(|env| {
            let win = seen.entry((env.tag >> 32) as u32).or_default();
            if !win.insert(env.tag & 0xFFFF_FFFF) {
                return Ok(Vec::new()); // injected duplicate delivery
            }
            stats.record_dedup_residual(win.residual() as u64);
            route_rows(env.msg, schema.clone(), outs.len())
        });
        match parts {
            Ok(parts) => {
                for (t, batch) in parts {
                    if outs[t]
                        .as_ref()
                        .is_some_and(|tx| tx.send(Ok(batch)).is_err())
                    {
                        outs[t] = None;
                    }
                }
                if outs.iter().all(Option::is_none) {
                    return;
                }
            }
            Err(e) => {
                for tx in outs.iter().flatten() {
                    let _ = tx.send(Err(e.clone()));
                }
                return;
            }
        }
    }
}

/// Open a message and cut it into `(thread, rows)` pieces for the
/// destination's `threads` threads: the whole batch when all its rows are
/// one thread's, otherwise one gather per thread that has rows.
fn route_rows(msg: Message, schema: Arc<Schema>, threads: usize) -> Result<Vec<(usize, Batch)>> {
    let (batch, route) = open_message(msg, schema)?;
    let bad = || VhError::Net("dxchg: message route column does not fit its rows".into());
    let Some(route) = route else {
        // No route column: the destination is one thread.
        return if threads == 1 {
            Ok(vec![(0, batch)])
        } else {
            Err(bad())
        };
    };
    if route.len() != batch.len() || route.iter().any(|r| *r as usize >= threads) {
        return Err(bad());
    }
    match route.first() {
        None => Ok(Vec::new()),
        Some(&first) if route.iter().all(|r| *r == first) => Ok(vec![(first as usize, batch)]),
        Some(_) => {
            let mut pos = vec![Vec::new(); threads];
            for (i, r) in route.iter().enumerate() {
                pos[*r as usize].push(i as u32);
            }
            Ok(pos
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_empty())
                .map(|(t, p)| (t, batch.gather_u32(p)))
                .collect())
        }
    }
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
    fn a_destination_that_hangs_up_leaves_the_others_their_rows() {
        // One producer hash-splits to a consumer thread on node 0 and one on
        // node 1. Node 0's must get the same rows whether node 1's reads
        // everything or hangs up before reading anything.
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            let node0 = |hang_up: bool| {
                let mut recv = dxchg_hash_split(
                    vec![(0, source((0..100_000).collect()))],
                    vec![0, 1],
                    vec![0],
                    DxchgConfig {
                        buffer_bytes: 4096,
                        mode,
                        fault: None,
                        fabric: None,
                    },
                    Arc::new(NetStats::default()),
                )
                .unwrap();
                let node1 = recv.split_off(1);
                std::thread::scope(|s| {
                    s.spawn(move || {
                        if !hang_up {
                            drain(node1);
                        }
                    });
                    drain(recv).remove(0)
                })
            };
            let all = node0(false);
            assert!(all.len() > 40_000, "mode {mode:?}: {} rows", all.len());
            let got = node0(true);
            assert_eq!(got.len(), all.len(), "mode {mode:?}: rows after a hang-up");
            assert!(got == all, "mode {mode:?}: other rows after a hang-up");
        }
    }

    #[test]
    fn fabric_backed_exchange_matches_plain_channels() {
        use vectorh_transport::{SharedEpoch, TcpFabric};
        let run = |mode, fabric: Option<Arc<dyn Fabric>>| {
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
                    fault: None,
                    fabric,
                },
                stats.clone(),
            )
            .unwrap();
            (drain(recv), stats)
        };
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            let (plain, _) = run(mode, None);
            let epoch = Arc::new(SharedEpoch::new(1));
            let tcp = TcpFabric::loopback(&[NodeId(0), NodeId(1)], epoch, None).unwrap();
            let (over_tcp, stats) = run(mode, Some(Arc::new(tcp)));
            assert_eq!(plain, over_tcp, "mode {mode:?}");
            // The framed path really ran: stats saw the same buffer traffic.
            assert!(stats.channels()[0].1.messages > 0);
        }
    }

    #[test]
    fn a_node_past_256_consumer_threads_is_refused() {
        // The route byte names 256 threads per node. Refused before any
        // channel or thread exists, so this starts none.
        let res = dxchg_hash_split(
            vec![(0, source((0..10).collect()))],
            vec![0; 257],
            vec![0],
            config(FanoutMode::ThreadToNode),
            Arc::new(NetStats::default()),
        );
        assert!(matches!(res, Err(VhError::Net(_))));
    }

    #[test]
    fn a_producer_whose_rows_do_not_fit_the_schema_fails_the_exchange() {
        // The exchange's schema is the first producer's (I64); the second
        // producer's column is a Date, physically I32, so its rows cannot
        // be buffered.
        let dates = || {
            let schema = Arc::new(Schema::of(&[("x", DataType::Date)]));
            let batch = Batch::new(schema, vec![ColumnData::I32((0..100).collect())]).unwrap();
            Box::new(BatchSource::from_batch(batch, 32)) as Box<dyn Operator>
        };
        for mode in [FanoutMode::ThreadToThread, FanoutMode::ThreadToNode] {
            let mut r = dxchg_union(
                vec![(0, source((0..100).collect())), (1, dates())],
                0,
                config(mode),
                Arc::new(NetStats::default()),
            )
            .unwrap();
            let failed = loop {
                match r.next() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break false,
                    Err(_) => break true,
                }
            };
            assert!(failed, "mode {mode:?}: the exchange lost rows silently");
        }
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
