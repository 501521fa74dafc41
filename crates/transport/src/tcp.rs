//! TCP fabric: real sockets under the [`Fabric`] interface.
//!
//! Topology: every listening endpoint owns one `TcpListener`; each
//! [`FrameTx`] opens its own connection to the peer, so a connection maps
//! one-to-one to a `(from, to, channel)` stream. Data flows dialer →
//! acceptor; `Credit` frames flow back on the same socket.
//!
//! **Handshake & fencing.** The first frame on a connection is `Hello`,
//! carrying the dialer's node, channel and master epoch. The acceptor
//! compares against its [`EpochSource`]: a dialer announcing an epoch older
//! than the acceptor's current one is a restarted/deposed peer and gets a
//! `Reject` (surfaced to the sender as [`VhError::StaleMaster`]) instead of
//! silently resuming mid-query.
//!
//! **Credit-based flow control (MPI-style backpressure).** The receiver
//! grants `window` credits per stream when the connection handshakes (or
//! when the channel is bound, whichever happens second); every frame the
//! consumer drains returns one credit. A sender with zero credits blocks —
//! exactly the behaviour of an MPI send once the receiver's buffers fill.
//! Credit frames also piggyback the receiver's dedup watermark, which is
//! what lets the sender trim its retransmission buffer.
//!
//! **Reliability.** A sender keeps every uncredited frame. If the
//! connection dies — a real socket error, or the injected `Disconnect` /
//! `PartialFrame` faults — it redials (subject to fencing), waits for a
//! fresh grant, and retransmits. The receiver's per-stream
//! [`DedupWindow`] drops replays of frames that did survive, crediting
//! them immediately so the window never leaks. Wire sequences are
//! contiguous per stream, so receiver memory stays bounded by the reorder
//! window (here: 0 — TCP is FIFO — plus retransmission overlap).

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use vectorh_common::channel::{self, Receiver, Sender};
use vectorh_common::fault::{FaultSite, SharedFaultHook};
use vectorh_common::sync::Mutex;
use vectorh_common::{NodeId, Result, VhError};

use crate::dedup::DedupWindow;
use crate::frame::{read_frame, write_frame, DecodeError, Frame, FrameKind};
use crate::{Endpoint, EpochSource, Fabric, FrameRx, FrameTx, RxItem, RxKind, FIRST_DATA_CHANNEL};

/// Attempts before a (possibly fault-injected) refused dial is fatal.
const DIAL_ATTEMPTS: u32 = 8;

/// Hard deadline for acquiring a credit before the sender errors out.
const CREDIT_DEADLINE: Duration = Duration::from_secs(20);

type PeerMap = Arc<Mutex<HashMap<NodeId, SocketAddr>>>;

/// A cluster of TCP endpoints. [`TcpFabric::loopback`] builds every node in
/// one process (the engine's `cluster_mode = Tcp`); [`TcpFabric::single`]
/// builds one node for multi-process deployments, with peers registered by
/// address.
pub struct TcpFabric {
    endpoints: Mutex<HashMap<NodeId, Arc<TcpEndpoint>>>,
    peers: PeerMap,
    epoch: Arc<dyn EpochSource>,
    hook: Option<SharedFaultHook>,
    next_channel: AtomicU32,
}

impl TcpFabric {
    /// One listening endpoint per node, all on 127.0.0.1, fully meshed.
    pub fn loopback(
        nodes: &[NodeId],
        epoch: Arc<dyn EpochSource>,
        hook: Option<SharedFaultHook>,
    ) -> Result<TcpFabric> {
        let fabric = TcpFabric::empty(epoch, hook);
        for &node in nodes {
            fabric.listen(node)?;
        }
        Ok(fabric)
    }

    /// One listening endpoint (this process's node); peers join via
    /// [`TcpFabric::add_peer`].
    pub fn single(
        node: NodeId,
        epoch: Arc<dyn EpochSource>,
        hook: Option<SharedFaultHook>,
    ) -> Result<TcpFabric> {
        let fabric = TcpFabric::empty(epoch, hook);
        fabric.listen(node)?;
        Ok(fabric)
    }

    fn empty(epoch: Arc<dyn EpochSource>, hook: Option<SharedFaultHook>) -> TcpFabric {
        TcpFabric {
            endpoints: Mutex::new(HashMap::new()),
            peers: Arc::new(Mutex::new(HashMap::new())),
            epoch,
            hook,
            next_channel: AtomicU32::new(FIRST_DATA_CHANNEL),
        }
    }

    fn listen(&self, node: NodeId) -> Result<()> {
        let ep = TcpEndpoint::listen(
            node,
            self.epoch.clone(),
            self.hook.clone(),
            self.peers.clone(),
        )?;
        self.peers.lock().insert(node, ep.local_addr);
        self.endpoints.lock().insert(node, Arc::new(ep));
        Ok(())
    }

    /// Register a remote peer's listening address.
    pub fn add_peer(&self, node: NodeId, addr: SocketAddr) {
        self.peers.lock().insert(node, addr);
    }

    /// The local listening address of `node`, if it listens here.
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.endpoints.lock().get(&node).map(|ep| ep.local_addr)
    }

    /// A dial-only endpoint announcing `epoch` in its handshakes — how a
    /// restarted peer shows up. With a stale epoch source it is exactly the
    /// peer the acceptor must fence.
    pub fn dialer(&self, node: NodeId, epoch: Arc<dyn EpochSource>) -> Arc<dyn Endpoint> {
        Arc::new(TcpEndpoint::dial_only(
            node,
            epoch,
            self.hook.clone(),
            self.peers.clone(),
        ))
    }
}

impl Fabric for TcpFabric {
    fn endpoint(&self, node: NodeId) -> Result<Arc<dyn Endpoint>> {
        self.endpoints
            .lock()
            .get(&node)
            .cloned()
            .map(|ep| ep as Arc<dyn Endpoint>)
            .ok_or_else(|| VhError::Net(format!("tcp fabric: no endpoint for {node}")))
    }

    fn alloc_channel(&self) -> u32 {
        self.next_channel.fetch_add(1, Ordering::SeqCst)
    }

    fn mode(&self) -> &'static str {
        "tcp"
    }
}

struct InboxEntry {
    tx: Sender<RxItem>,
    window: u32,
}

/// Receiver-side state guarded by one lock so grant-on-bind and
/// grant-on-handshake cannot race each other into a zero-grant deadlock.
/// Inbox pushes and socket writes happen *outside* this lock.
#[derive(Default)]
struct EndpointState {
    inboxes: HashMap<u32, InboxEntry>,
    /// Write halves of accepted connections, keyed by the stream they carry.
    writers: HashMap<(NodeId, u32), Arc<StdMutex<TcpStream>>>,
    /// Per-stream exactly-once filters; persist across reconnects.
    dedups: HashMap<(NodeId, u32), DedupWindow>,
}

struct TcpEndpoint {
    node: NodeId,
    epoch: Arc<dyn EpochSource>,
    hook: Option<SharedFaultHook>,
    peers: PeerMap,
    state: Arc<Mutex<EndpointState>>,
    local_addr: SocketAddr,
}

impl TcpEndpoint {
    fn listen(
        node: NodeId,
        epoch: Arc<dyn EpochSource>,
        hook: Option<SharedFaultHook>,
        peers: PeerMap,
    ) -> Result<TcpEndpoint> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| VhError::Net(format!("tcp fabric: bind failed: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| VhError::Net(format!("tcp fabric: local_addr: {e}")))?;
        let ep = TcpEndpoint {
            node,
            epoch,
            hook,
            peers,
            state: Arc::new(Mutex::new(EndpointState::default())),
            local_addr,
        };
        let state = ep.state.clone();
        let my_epoch = ep.epoch.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let state = state.clone();
                let my_epoch = my_epoch.clone();
                std::thread::spawn(move || serve_conn(node, stream, state, my_epoch));
            }
        });
        Ok(ep)
    }

    fn dial_only(
        node: NodeId,
        epoch: Arc<dyn EpochSource>,
        hook: Option<SharedFaultHook>,
        peers: PeerMap,
    ) -> TcpEndpoint {
        TcpEndpoint {
            node,
            epoch,
            hook,
            peers,
            state: Arc::new(Mutex::new(EndpointState::default())),
            local_addr: SocketAddr::from(([0, 0, 0, 0], 0)),
        }
    }
}

impl Endpoint for TcpEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn bind(&self, channel: u32, window: u32) -> Result<Box<dyn FrameRx>> {
        let window = window.max(1);
        let (tx, rx) = channel::bounded(2 * window as usize);
        let grants: Vec<(NodeId, Arc<StdMutex<TcpStream>>, u64)> = {
            let mut state = self.state.lock();
            state.inboxes.insert(channel, InboxEntry { tx, window });
            // Connections that handshook before this bind never got a
            // grant for the channel; issue it now, under the same lock the
            // handshake uses, so exactly one of the two paths grants.
            state
                .writers
                .iter()
                .filter(|((_, ch), _)| *ch == channel)
                .map(|((peer, _), w)| {
                    let wm = state
                        .dedups
                        .get(&(*peer, channel))
                        .map(|d| d.watermark())
                        .unwrap_or(0);
                    (*peer, w.clone(), wm)
                })
                .collect()
        };
        for (_, writer, wm) in grants {
            let _ = send_credit(&writer, self.node, channel, window as u64, wm);
        }
        Ok(Box::new(TcpRx {
            node: self.node,
            channel,
            rx,
            state: self.state.clone(),
        }))
    }

    fn sender(&self, to: NodeId, channel: u32) -> Result<Box<dyn FrameTx>> {
        Ok(Box::new(TcpTx {
            from: self.node,
            to,
            channel,
            epoch: self.epoch.clone(),
            hook: self.hook.clone(),
            peers: self.peers.clone(),
            conn: None,
            outstanding: VecDeque::new(),
            next_unsent: 0,
            seq: 0,
            stalls: 0,
        }))
    }
}

fn send_credit(
    writer: &Arc<StdMutex<TcpStream>>,
    from: NodeId,
    channel: u32,
    amount: u64,
    watermark: u64,
) -> Result<()> {
    let frame = Frame {
        kind: FrameKind::Credit,
        from: from.0 as u8,
        channel,
        seq: amount,
        epoch: watermark,
        payload: Vec::new(),
    };
    let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
    write_frame(&mut *stream, &frame, None)
}

/// Acceptor side of one connection: handshake, then demux Data/Fin frames
/// into the bound inbox, crediting duplicates immediately.
fn serve_conn(
    me: NodeId,
    mut stream: TcpStream,
    state: Arc<Mutex<EndpointState>>,
    epoch: Arc<dyn EpochSource>,
) {
    let hello = match read_frame(&mut stream) {
        Ok(f) if f.kind == FrameKind::Hello => f,
        _ => return,
    };
    let peer = NodeId(hello.from as u32);
    let channel = hello.channel;
    let my_epoch = epoch.current_epoch();
    if hello.epoch < my_epoch {
        // A peer announcing an older epoch restarted across an election:
        // fence it out instead of letting it resume mid-query.
        let _ = write_frame(
            &mut stream,
            &Frame::control(FrameKind::Reject, me.0 as u8, channel, 0, my_epoch),
            None,
        );
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(StdMutex::new(write_half));
    if write_frame(
        &mut *writer.lock().unwrap_or_else(|e| e.into_inner()),
        &Frame::control(FrameKind::Welcome, me.0 as u8, channel, 0, my_epoch),
        None,
    )
    .is_err()
    {
        return;
    }
    // Register the credit writer and issue the initial grant if the channel
    // is already bound (bind() covers the other ordering).
    let grant = {
        let mut st = state.lock();
        st.writers.insert((peer, channel), writer.clone());
        st.inboxes.get(&channel).map(|inbox| {
            let wm = st
                .dedups
                .get(&(peer, channel))
                .map(|d| d.watermark())
                .unwrap_or(0);
            (inbox.window as u64, wm)
        })
    };
    if let Some((window, wm)) = grant {
        let _ = send_credit(&writer, me, channel, window, wm);
    }
    // A read error means closed, torn or corrupt: the dialer redials.
    while let Ok(frame) = read_frame(&mut stream) {
        let kind = match frame.kind {
            FrameKind::Data => RxKind::Data,
            FrameKind::Fin => RxKind::Fin,
            _ => continue,
        };
        let (fresh, wm, inbox_tx) = {
            let mut st = state.lock();
            let dedup = st.dedups.entry((peer, channel)).or_default();
            let fresh = dedup.insert(frame.seq);
            let wm = dedup.watermark();
            (fresh, wm, st.inboxes.get(&channel).map(|i| i.tx.clone()))
        };
        if !fresh {
            // A retransmit of something that already made it: the frame
            // consumed a sender credit but no inbox slot, so return the
            // credit immediately or the window would leak shut.
            let _ = send_credit(&writer, me, channel, 1, wm);
            continue;
        }
        let Some(inbox_tx) = inbox_tx else { continue };
        let item = RxItem {
            from: peer,
            seq: frame.seq,
            kind,
            payload: frame.payload,
        };
        // Outside the state lock: a full inbox blocks only this connection.
        if inbox_tx.send(item).is_err() {
            break; // channel was rebound/dropped
        }
    }
    let mut st = state.lock();
    if let Some(current) = st.writers.get(&(peer, channel)) {
        if Arc::ptr_eq(current, &writer) {
            st.writers.remove(&(peer, channel));
        }
    }
}

struct TcpRx {
    node: NodeId,
    channel: u32,
    rx: Receiver<RxItem>,
    state: Arc<Mutex<EndpointState>>,
}

impl TcpRx {
    /// Every drained frame returns one credit to its sender, piggybacking
    /// the current dedup watermark so the sender can trim retransmission
    /// state.
    fn credit_back(&self, from: NodeId) {
        let writer_wm = {
            let st = self.state.lock();
            st.writers.get(&(from, self.channel)).cloned().map(|w| {
                let wm = st
                    .dedups
                    .get(&(from, self.channel))
                    .map(|d| d.watermark())
                    .unwrap_or(0);
                (w, wm)
            })
        };
        if let Some((writer, wm)) = writer_wm {
            // A dead connection loses the credit; the reconnect re-grant
            // makes the window whole again.
            let _ = send_credit(&writer, self.node, self.channel, 1, wm);
        }
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self) -> Result<Option<RxItem>> {
        match self.rx.recv() {
            Ok(item) => {
                self.credit_back(item.from);
                Ok(Some(item))
            }
            Err(_) => Ok(None),
        }
    }

    fn try_recv(&mut self) -> Result<Option<RxItem>> {
        match self.rx.try_recv() {
            Some(item) => {
                self.credit_back(item.from);
                Ok(Some(item))
            }
            None => Ok(None),
        }
    }
}

/// Dialer-side connection state shared with its reader thread.
struct ConnShared {
    state: StdMutex<ConnState>,
    cv: Condvar,
}

#[derive(Default)]
struct ConnState {
    credits: u64,
    /// Highest dedup watermark reported by the receiver.
    acked: u64,
    dead: bool,
    /// Set when the acceptor rejected us: the epoch it is fenced to.
    fenced: Option<u64>,
}

struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
}

struct TcpTx {
    from: NodeId,
    to: NodeId,
    channel: u32,
    epoch: Arc<dyn EpochSource>,
    hook: Option<SharedFaultHook>,
    peers: PeerMap,
    conn: Option<Conn>,
    /// Sent-but-unacked frames, oldest first (seq order).
    outstanding: VecDeque<Frame>,
    /// Index into `outstanding` of the first frame not yet written on the
    /// *current* connection; resets to 0 on reconnect (full retransmit).
    next_unsent: usize,
    seq: u64,
    stalls: u64,
}

impl TcpTx {
    fn detail(&self) -> String {
        format!("{}->{}:c{}", self.from, self.to, self.channel)
    }

    /// Dial + handshake, honouring the `ConnRefused` fault site.
    fn connect(&mut self) -> Result<()> {
        let addr = self
            .peers
            .lock()
            .get(&self.to)
            .copied()
            .ok_or_else(|| VhError::Net(format!("tcp fabric: unknown peer {}", self.to)))?;
        let detail = self.detail();
        let mut attempt = 0;
        let mut stream = loop {
            if let Some(hook) = &self.hook {
                let action = hook.decide(FaultSite::ConnRefused, &detail, attempt);
                if action.is_error() {
                    if matches!(action, vectorh_common::fault::FaultAction::PermanentError)
                        || attempt + 1 >= DIAL_ATTEMPTS
                    {
                        return Err(VhError::Net(format!(
                            "tcp fabric: connection refused ({detail})"
                        )));
                    }
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if attempt + 1 < DIAL_ATTEMPTS => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(10 * attempt as u64));
                    let _ = e;
                }
                Err(e) => return Err(VhError::Net(format!("tcp fabric: dial {addr}: {e}"))),
            }
        };
        stream.set_nodelay(true).ok();
        let my_epoch = self.epoch.current_epoch();
        write_frame(
            &mut stream,
            &Frame::control(
                FrameKind::Hello,
                self.from.0 as u8,
                self.channel,
                0,
                my_epoch,
            ),
            None,
        )?;
        match read_frame(&mut stream) {
            Ok(f) if f.kind == FrameKind::Welcome => {}
            Ok(f) if f.kind == FrameKind::Reject => {
                return Err(VhError::StaleMaster(format!(
                    "tcp fabric: {detail} rejected: peer is at epoch {}, we announced {my_epoch}",
                    f.epoch
                )))
            }
            Ok(f) => {
                return Err(VhError::Net(format!(
                    "tcp fabric: unexpected handshake reply {:?}",
                    f.kind
                )))
            }
            Err(e) => return Err(e.into_vh()),
        }
        let shared = Arc::new(ConnShared {
            state: StdMutex::new(ConnState::default()),
            cv: Condvar::new(),
        });
        let read_half = stream
            .try_clone()
            .map_err(|e| VhError::Net(format!("tcp fabric: clone: {e}")))?;
        let reader_shared = shared.clone();
        std::thread::spawn(move || sender_reader(read_half, reader_shared));
        self.conn = Some(Conn { stream, shared });
        self.next_unsent = 0; // everything outstanding must be retransmitted
        Ok(())
    }

    /// Trim frames the receiver has acknowledged via its watermark.
    fn trim_acked(&mut self, acked: u64) {
        while let Some(front) = self.outstanding.front() {
            if front.seq < acked {
                self.outstanding.pop_front();
                self.next_unsent = self.next_unsent.saturating_sub(1);
            } else {
                break;
            }
        }
    }

    /// Block until one credit is available on the live connection; redials
    /// on death. Returns an error on fencing or deadline.
    fn acquire_credit(&mut self) -> Result<()> {
        let deadline = Instant::now() + CREDIT_DEADLINE;
        loop {
            if self.conn.is_none() {
                self.connect()?;
            }
            let shared = self.conn.as_ref().unwrap().shared.clone();
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            let mut waited = false;
            loop {
                if let Some(epoch) = st.fenced {
                    return Err(VhError::StaleMaster(format!(
                        "tcp fabric: {} fenced at epoch {epoch}",
                        self.detail()
                    )));
                }
                if st.dead {
                    drop(st);
                    self.conn = None;
                    break;
                }
                if st.credits > 0 {
                    st.credits -= 1;
                    let acked = st.acked;
                    drop(st);
                    self.trim_acked(acked);
                    if waited {
                        self.stalls += 1;
                    }
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    return Err(VhError::Net(format!(
                        "tcp fabric: {} starved of credits (receiver not draining?)",
                        self.detail()
                    )));
                }
                waited = true;
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }
    }

    /// Drive the stream until every buffered frame has been written on a
    /// live connection.
    fn pump(&mut self) -> Result<()> {
        while self.next_unsent < self.outstanding.len() {
            self.acquire_credit()?;
            let frame = self.outstanding[self.next_unsent].clone();
            let detail = format!("{}#{}", self.detail(), frame.seq);
            let mut truncate = None;
            if let Some(hook) = &self.hook {
                if hook.decide(FaultSite::Disconnect, &detail, 0).is_error() {
                    // The connection drops between frames: tear it down and
                    // retransmit everything unacked on a fresh one.
                    self.conn = None;
                    continue;
                }
                if hook.decide(FaultSite::PartialFrame, &detail, 0).is_error() {
                    // Half a frame reaches the wire, then the connection
                    // dies. The receiver's length/CRC check discards it.
                    truncate = Some(11 + frame.payload.len() / 2);
                }
            }
            let conn = self.conn.as_mut().unwrap();
            match write_frame(&mut conn.stream, &frame, truncate) {
                Ok(()) => self.next_unsent += 1,
                Err(_) => {
                    // Torn or failed write: the credit we consumed is
                    // restored by the re-grant after reconnect.
                    self.conn = None;
                }
            }
        }
        Ok(())
    }

    fn enqueue(&mut self, kind: FrameKind, payload: &[u8]) -> Result<()> {
        let frame = Frame {
            kind,
            from: self.from.0 as u8,
            channel: self.channel,
            seq: self.seq,
            epoch: self.epoch.current_epoch(),
            payload: payload.to_vec(),
        };
        self.seq += 1;
        self.outstanding.push_back(frame);
        self.pump()
    }
}

impl FrameTx for TcpTx {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        self.enqueue(FrameKind::Data, payload)
    }

    fn finish(&mut self) -> Result<()> {
        self.enqueue(FrameKind::Fin, &[])
    }

    fn stalls(&self) -> u64 {
        self.stalls
    }
}

/// Reader thread of a dialer connection: turns Credit/Reject frames into
/// shared-state updates.
fn sender_reader(mut stream: TcpStream, shared: Arc<ConnShared>) {
    loop {
        match read_frame(&mut stream) {
            Ok(f) if f.kind == FrameKind::Credit => {
                let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                st.credits += f.seq;
                st.acked = st.acked.max(f.epoch);
                drop(st);
                shared.cv.notify_all();
            }
            Ok(f) if f.kind == FrameKind::Reject => {
                let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                st.fenced = Some(f.epoch);
                drop(st);
                shared.cv.notify_all();
                return;
            }
            Ok(_) => continue,
            Err(DecodeError::Closed) | Err(_) => {
                let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                st.dead = true;
                drop(st);
                shared.cv.notify_all();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedEpoch;
    use vectorh_common::fault::{DirectedFault, DirectedSet, FaultAction};

    fn two_nodes(hook: Option<SharedFaultHook>) -> (TcpFabric, Arc<SharedEpoch>) {
        let epoch = Arc::new(SharedEpoch::new(1));
        let fabric = TcpFabric::loopback(&[NodeId(0), NodeId(1)], epoch.clone(), hook).unwrap();
        (fabric, epoch)
    }

    #[test]
    fn frames_flow_and_fin_terminates() {
        let (fabric, _) = two_nodes(None);
        let ch = fabric.alloc_channel();
        let b = fabric.endpoint(NodeId(1)).unwrap();
        // Window must cover the whole burst: nothing drains until the end.
        let mut rx = b.bind(ch, 32).unwrap();
        let a = fabric.endpoint(NodeId(0)).unwrap();
        let mut tx = a.sender(NodeId(1), ch).unwrap();
        for i in 0..20u8 {
            tx.send(&[i; 3]).unwrap();
        }
        tx.finish().unwrap();
        for i in 0..20u8 {
            let item = rx.recv().unwrap().unwrap();
            assert_eq!(item.kind, RxKind::Data);
            assert_eq!(item.seq, i as u64);
            assert_eq!(item.payload, [i; 3]);
            assert_eq!(item.from, NodeId(0));
        }
        assert_eq!(rx.recv().unwrap().unwrap().kind, RxKind::Fin);
    }

    #[test]
    fn bind_after_connect_still_grants_credits() {
        let (fabric, _) = two_nodes(None);
        let ch = fabric.alloc_channel();
        let a = fabric.endpoint(NodeId(0)).unwrap();
        let b = fabric.endpoint(NodeId(1)).unwrap();
        // Sender dials and blocks for credits before the receiver binds.
        let h = std::thread::spawn(move || {
            let mut tx = a.sender(NodeId(1), ch).unwrap();
            tx.send(b"late bind").unwrap();
            tx.stalls()
        });
        std::thread::sleep(Duration::from_millis(60));
        let mut rx = b.bind(ch, 2).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap().payload, b"late bind");
        assert!(
            h.join().unwrap() >= 1,
            "sender must have stalled awaiting the grant"
        );
    }

    #[test]
    fn backpressure_blocks_sender_at_zero_credits() {
        let (fabric, _) = two_nodes(None);
        let ch = fabric.alloc_channel();
        let b = fabric.endpoint(NodeId(1)).unwrap();
        let mut rx = b.bind(ch, 2).unwrap();
        let a = fabric.endpoint(NodeId(0)).unwrap();
        let sent = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let sent2 = sent.clone();
        let h = std::thread::spawn(move || {
            let mut tx = a.sender(NodeId(1), ch).unwrap();
            for i in 0..10u32 {
                tx.send(&i.to_le_bytes()).unwrap();
                sent2.fetch_add(1, Ordering::SeqCst);
            }
            tx.stalls()
        });
        std::thread::sleep(Duration::from_millis(150));
        // Window is 2: without draining, the sender cannot have run ahead.
        assert!(
            sent.load(Ordering::SeqCst) <= 2,
            "sender ran past its credit window"
        );
        for i in 0..10u32 {
            assert_eq!(rx.recv().unwrap().unwrap().payload, i.to_le_bytes());
        }
        assert!(h.join().unwrap() > 0);
    }

    /// One transient fault at each of the first `n` frames' writes.
    fn at_frames(site: FaultSite, n: u64) -> SharedFaultHook {
        let faults: Vec<_> = (0..n)
            .map(|seq| {
                DirectedFault::matching(site, FaultAction::TransientError, 1, &format!("#{seq}"))
            })
            .collect();
        DirectedSet::new(&faults)
    }

    fn exactly_once_under(hook: SharedFaultHook) {
        let (fabric, _) = two_nodes(Some(hook));
        let ch = fabric.alloc_channel();
        let b = fabric.endpoint(NodeId(1)).unwrap();
        let mut rx = b.bind(ch, 3).unwrap();
        let a = fabric.endpoint(NodeId(0)).unwrap();
        let h = std::thread::spawn(move || {
            let mut tx = a.sender(NodeId(1), ch).unwrap();
            for i in 0..50u32 {
                tx.send(&i.to_le_bytes()).unwrap();
            }
            tx.finish().unwrap();
        });
        let mut got = Vec::new();
        loop {
            let item = rx.recv().unwrap().unwrap();
            match item.kind {
                RxKind::Data => got.push(u32::from_le_bytes(item.payload.try_into().unwrap())),
                RxKind::Fin => break,
            }
        }
        h.join().unwrap();
        assert_eq!(
            got,
            (0..50).collect::<Vec<_>>(),
            "exactly-once in-order delivery"
        );
    }

    #[test]
    fn disconnect_faults_retransmit_exactly_once() {
        exactly_once_under(at_frames(FaultSite::Disconnect, 5));
    }

    #[test]
    fn partial_frame_faults_retransmit_exactly_once() {
        exactly_once_under(at_frames(FaultSite::PartialFrame, 5));
    }

    #[test]
    fn conn_refused_faults_back_off_and_succeed() {
        // The first dial is refused twice, then backs off into success.
        exactly_once_under(DirectedFault::new(
            FaultSite::ConnRefused,
            FaultAction::TransientError,
            2,
        ));
    }

    #[test]
    fn stale_epoch_reconnect_is_fenced() {
        let (fabric, epoch) = two_nodes(None);
        let ch = fabric.alloc_channel();
        let b = fabric.endpoint(NodeId(1)).unwrap();
        let mut rx = b.bind(ch, 4).unwrap();
        let a = fabric.endpoint(NodeId(0)).unwrap();
        let mut tx = a.sender(NodeId(1), ch).unwrap();
        tx.send(b"before election").unwrap();
        assert_eq!(rx.recv().unwrap().unwrap().payload, b"before election");

        // An election bumps the cluster epoch; a peer that restarts still
        // believing the old epoch must be rejected at the handshake.
        epoch.set(2);
        let stale = fabric.dialer(NodeId(0), Arc::new(SharedEpoch::new(1)));
        let mut stale_tx = stale.sender(NodeId(1), ch).unwrap();
        match stale_tx.send(b"zombie write") {
            Err(VhError::StaleMaster(msg)) => {
                assert!(
                    msg.contains("epoch 2"),
                    "reject names the fencing epoch: {msg}"
                )
            }
            other => panic!("stale dialer must be fenced, got {other:?}"),
        }

        // A current-epoch peer still gets through (on a fresh stream — the
        // contract is one live sender per (from, to, channel)).
        let ch2 = fabric.alloc_channel();
        let mut rx2 = b.bind(ch2, 4).unwrap();
        let fresh = fabric.dialer(NodeId(0), Arc::new(SharedEpoch::new(2)));
        let mut fresh_tx = fresh.sender(NodeId(1), ch2).unwrap();
        fresh_tx.send(b"current epoch").unwrap();
        assert_eq!(rx2.recv().unwrap().unwrap().payload, b"current epoch");
    }
}
