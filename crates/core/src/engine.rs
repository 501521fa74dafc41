//! The VectorH engine: cluster lifecycle, DDL, loading, queries, failover.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use vectorh_blockstore::{
    AffinityPolicy, BlockStore, BlockStoreConfig, FileStore, SimHdfs, StoreRef,
};
use vectorh_common::fault::SharedFaultHook;
use vectorh_common::sync::{Mutex, RwLock};
use vectorh_common::util::{hash_bytes, hash_combine, hash_u64};
use vectorh_common::{ColumnData, NodeId, PartitionId, Result, Value, VhError};
use vectorh_net::{
    ChannelStats, DxchgConfig, HeartbeatMonitor, NetStats, PropagationStats, ServerStats,
};
use vectorh_pdt::MergeStep;
use vectorh_planner::logical::{CatalogInfo, TableMeta};
use vectorh_planner::{
    parse_query, prune_columns, LogicalPlan, ParallelRewriter, PhysPlan, RewriterOptions,
};
use vectorh_storage::{PartitionStore, StorageConfig};
use vectorh_transport::{
    Fabric, FrameRx, FrameTx, RxKind, SharedEpoch, TcpFabric, HEARTBEAT_CHANNEL,
};
use vectorh_txn::twophase::{Drained, LogShipper, ShipRetention, TwoPhaseCoordinator};
use vectorh_txn::{TransactionManager, TxnConfig, Wal};

use crate::scheduler::HealthScheduler;
use vectorh_yarn::placement::{
    affinity_mapping, initial_affinity, responsibility_assignment, PlacementInput,
};
use vectorh_yarn::{DbAgent, ResourceFootprint, ResourceManager, RmConfig};

use crate::catalog::{Catalog, TableBuilder, TableDef};

/// How the simulated nodes talk to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterMode {
    /// Pure in-process channels (the original single-process simulation);
    /// the exchange layer is structurally unchanged from earlier PRs.
    #[default]
    InProc,
    /// Real TCP between per-node loopback endpoints: cross-node DXchg
    /// buffers travel as framed, CRC-checked, credit-flow-controlled
    /// messages, and heartbeats ride the reserved transport channel.
    Tcp,
}

/// Which medium the cluster's one [`BlockStore`] namenode keeps its bytes on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// The in-memory simulated HDFS (deterministic, no real IO).
    #[default]
    Sim,
    /// Real files under the given root directory
    /// ([`FileStore`]): buffered appends, fsync at
    /// commit points, mmap'd reads. An empty root means "a fresh temp
    /// directory per cluster, removed on shutdown". A non-empty root gets a
    /// unique per-cluster subdirectory so concurrently started clusters
    /// (parallel tests) never collide — to reopen an existing root (crash
    /// recovery), construct a [`FileStore`] directly.
    File(String),
}

impl StorageBackend {
    /// Backend selection from the environment: `VH_STORE_BACKEND=file`
    /// selects the real-file backend, rooted at `VH_STORE_DIR` (empty or
    /// unset = per-cluster temp dirs). Anything else is the simulation.
    /// [`ClusterConfig::default`] calls this, so
    /// `VH_STORE_BACKEND=file cargo test` runs the whole suite on real
    /// files.
    pub fn from_env() -> StorageBackend {
        match std::env::var("VH_STORE_BACKEND").as_deref() {
            Ok("file") => StorageBackend::File(std::env::var("VH_STORE_DIR").unwrap_or_default()),
            _ => StorageBackend::Sim,
        }
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: usize,
    pub cores_per_node: u32,
    pub mem_per_node: u64,
    /// HDFS replication degree (capped at the node count).
    pub replication: usize,
    pub hdfs_block_size: usize,
    pub rows_per_chunk: usize,
    /// Exchange consumer threads per node for repartitioning operators.
    pub streams_per_node: usize,
    pub seed: u64,
    pub dxchg: DxchgConfig,
    /// Rewrite-rule toggles (§5 ablation).
    pub enable_local_join: bool,
    pub enable_replicated_build: bool,
    pub enable_partial_aggr: bool,
    /// Virtual-clock period between background heartbeat rounds: one round
    /// every `health_every` queries. 0 disables background scheduling
    /// (health then runs only when `health_tick`/`advance_health` is called
    /// explicitly).
    pub health_every: u64,
    /// Retention policy for the shipped replicated-table log. The default
    /// reads `VH_SHIP_RETAIN_BYTES`/`VH_SHIP_RETAIN_RECORDS` from the
    /// environment (unset = unbounded, truncate only at checkpoints).
    pub ship_retention: ShipRetention,
    /// Inter-node transport: in-process channels or real TCP.
    pub cluster_mode: ClusterMode,
    /// Heartbeat-deadline grace multiplier for transport latency: the
    /// effective deadline is `HEARTBEAT_DEADLINE_MISSES × grace`. Clamps to
    /// ≥ 2 in [`ClusterMode::Tcp`], where a beat can legitimately arrive a
    /// tick late and delay jitter must never dead-latch a live node.
    pub heartbeat_grace: u32,
    /// Virtual-clock period between background update-propagation rounds
    /// (same clock as `health_every`: one unit per query/DML call). 0
    /// disables background propagation (it then runs only through
    /// [`VectorH::propagate_table`]).
    pub propagate_every: u64,
    /// Chunk budget per background propagation round: a round stops
    /// visiting further partitions once it has written this many chunk
    /// images, so propagation shares the clock fairly with live queries.
    pub propagate_chunks_per_tick: usize,
    /// Storage backend: the in-memory simulation or real files. The default
    /// honours `VH_STORE_BACKEND`/`VH_STORE_DIR`
    /// ([`StorageBackend::from_env`]).
    pub storage_backend: StorageBackend,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 3,
            cores_per_node: 4,
            mem_per_node: 64 << 30,
            replication: 3,
            hdfs_block_size: 1 << 20,
            rows_per_chunk: 4096,
            streams_per_node: 2,
            seed: 0x5648,
            dxchg: DxchgConfig::default(),
            enable_local_join: true,
            enable_replicated_build: true,
            enable_partial_aggr: true,
            health_every: 1,
            ship_retention: ShipRetention::from_env(),
            cluster_mode: ClusterMode::InProc,
            heartbeat_grace: 1,
            propagate_every: 0,
            propagate_chunks_per_tick: 8,
            storage_backend: StorageBackend::from_env(),
        }
    }
}

/// Heartbeats as real transport frames ([`ClusterMode::Tcp`]): every node
/// binds the reserved [`HEARTBEAT_CHANNEL`] at startup; each health round,
/// live workers send one beat frame to the current master, whose inbox is
/// drained into the deadline monitor. Beat streams persist across rounds —
/// the transport allows one live sender per `(from, to, channel)`, and a
/// fresh sender would restart the wire sequence into the dedup window.
pub(crate) struct HbNet {
    fabric: Arc<dyn Fabric>,
    rxs: Mutex<HashMap<NodeId, Box<dyn FrameRx>>>,
    txs: Mutex<HashMap<(NodeId, NodeId), Box<dyn FrameTx>>>,
}

impl HbNet {
    fn new(fabric: Arc<dyn Fabric>, nodes: &[NodeId]) -> Result<HbNet> {
        let mut rxs = HashMap::new();
        for &n in nodes {
            rxs.insert(n, fabric.endpoint(n)?.bind(HEARTBEAT_CHANNEL, 64)?);
        }
        Ok(HbNet {
            fabric,
            rxs: Mutex::new(rxs),
            txs: Mutex::new(HashMap::new()),
        })
    }

    /// Send one beat `from → to` (the payload names the sender).
    pub(crate) fn send(&self, from: NodeId, to: NodeId) -> Result<()> {
        let mut txs = self.txs.lock();
        let tx = match txs.entry((from, to)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(self.fabric.endpoint(from)?.sender(to, HEARTBEAT_CHANNEL)?)
            }
        };
        tx.send(&from.0.to_le_bytes())
    }

    /// Drain `master`'s heartbeat inbox, waiting (bounded) until at least
    /// `want` frames arrived so this round's own beats are not lost to
    /// socket scheduling.
    pub(crate) fn drain(&self, master: NodeId, want: usize) -> Vec<NodeId> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
        loop {
            {
                let mut rxs = self.rxs.lock();
                if let Some(rx) = rxs.get_mut(&master) {
                    while let Ok(Some(item)) = rx.try_recv() {
                        if item.kind == RxKind::Data && item.payload.len() == 4 {
                            got.push(NodeId(u32::from_le_bytes(
                                item.payload[..4].try_into().unwrap(),
                            )));
                        }
                    }
                }
            }
            if got.len() >= want || std::time::Instant::now() >= deadline {
                return got;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// The session-master role: which node currently holds it, and under which
/// epoch. The epoch is bumped by every election and fences deposed masters
/// — a commit carrying an older epoch is rejected with
/// [`VhError::StaleMaster`] at the 2PC commit point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterState {
    pub node: NodeId,
    pub epoch: u64,
}

/// Runtime state of one table.
pub struct TableRuntime {
    pub def: TableDef,
    pub pids: Vec<PartitionId>,
    pub stores: Vec<Arc<RwLock<PartitionStore>>>,
    pub wals: Vec<Arc<Wal>>,
}

impl TableRuntime {
    pub fn n_partitions(&self) -> usize {
        self.pids.len()
    }
}

/// Per-query control block, threaded from the SQL front door down to the
/// execute loop. The cancel flag is checked between result batches (so a
/// cancel lands within one vector of work) and between failover attempts;
/// the retry counter reports how many `NodeDown` failovers `query_logical`
/// absorbed — the front door surfaces it per session so "the client saw
/// nothing" is a measured claim, not an assumption.
#[derive(Debug, Default)]
pub struct QueryCtl {
    cancel: AtomicBool,
    retries: AtomicU64,
}

impl QueryCtl {
    pub fn new() -> Arc<QueryCtl> {
        Arc::new(QueryCtl::default())
    }

    /// Request cancellation; the execute loop notices between batches.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    pub(crate) fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Failover retries absorbed while this query ran.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// The engine.
pub struct VectorH {
    pub config: ClusterConfig,
    fs: StoreRef,
    policy: Arc<AffinityPolicy>,
    rm: Arc<ResourceManager>,
    agent: Mutex<DbAgent>,
    catalog: RwLock<Catalog>,
    tables: RwLock<HashMap<String, Arc<TableRuntime>>>,
    pub txns: Arc<TransactionManager>,
    pub coordinator: TwoPhaseCoordinator,
    pub shipper: LogShipper,
    /// Per-worker in-RAM state for replicated tables: every worker applies
    /// the shipped log to its own copy (§6), so any node can serve a
    /// replicated scan without crossing the network.
    pub(crate) replicas: RwLock<HashMap<NodeId, Arc<TransactionManager>>>,
    /// Heartbeat failure detector, driven by [`VectorH::health_tick`].
    pub(crate) health: HeartbeatMonitor,
    /// Virtual-clock scheduler that turns query traffic into heartbeat
    /// rounds ([`VectorH::advance_health`]).
    scheduler: HealthScheduler,
    /// Reentrancy guard: recovery triggered by a health round must not
    /// recurse into another round.
    in_health_round: AtomicBool,
    /// Virtual-clock scheduler for background update propagation, advanced
    /// by the same query/DML traffic as the health plane.
    prop_scheduler: HealthScheduler,
    /// Reentrancy guard for background propagation rounds.
    in_propagation: AtomicBool,
    /// Propagation counters (runs, kept/rewritten chunks, recovered
    /// crashes), read through [`VectorH::propagation_stats`].
    propagation: Arc<PropagationStats>,
    /// The current session master and its fencing epoch.
    master: RwLock<MasterState>,
    /// Every (epoch, master) ever in force, in order — election audit trail.
    master_history: Mutex<Vec<(u64, NodeId)>>,
    net: Arc<NetStats>,
    /// Front-door session counters (queries served, retries absorbed,
    /// queue waits, busy rejections), written by `vectorh-server` and read
    /// through [`VectorH::server_stats`].
    server: Arc<ServerStats>,
    /// Transport fabric in [`ClusterMode::Tcp`]; `None` keeps the exchange
    /// layer on pure in-process channels.
    fabric: Option<Arc<dyn Fabric>>,
    /// Epoch cell backing the fabric's handshake fencing; every election
    /// bumps it so restarted peers announcing an old epoch are rejected.
    epoch_cell: Arc<SharedEpoch>,
    /// Heartbeat frames over the fabric (Tcp mode only).
    pub(crate) hb_net: Option<HbNet>,
    workers: RwLock<Vec<NodeId>>,
    /// Held for the whole of [`VectorH::reconcile_workers`]: the worker set
    /// shrinks at its start and responsibility moves at its end, and nobody
    /// may take the first for the second.
    reconciling: Mutex<()>,
    responsibility: RwLock<HashMap<PartitionId, NodeId>>,
    next_pid: AtomicU32,
}

/// Consecutive missed heartbeats tolerated before a node is declared dead.
/// Must be ≥ 2 so a single dropped heartbeat message (a budget-1 chaos
/// fault) can only ever delay detection, never cause a false declaration.
pub const HEARTBEAT_DEADLINE_MISSES: u32 = 2;

/// Hash used for storage partitioning — deliberately the same per-value
/// hashing as the exchange operators, so one hash family partitions both
/// tables and streams.
pub fn partition_of(values: &[Value], keys: &[usize], n_parts: usize) -> usize {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &k in keys {
        let hk = match &values[k] {
            Value::I32(x) => hash_u64(*x as u64),
            Value::Date(x) => hash_u64(*x as u64),
            Value::I64(x) => hash_u64(*x as u64),
            Value::Decimal(x, _) => hash_u64(*x as u64),
            Value::F64(x) => hash_u64((x + 0.0).to_bits()),
            Value::Str(s) => hash_bytes(s.as_bytes()),
            Value::Null => 0,
        };
        h = hash_combine(h, hk);
    }
    (h % n_parts as u64) as usize
}

impl VectorH {
    /// Start a cluster: simulated HDFS + YARN, dbAgent resource
    /// negotiation, worker-set selection.
    pub fn start(config: ClusterConfig) -> Result<VectorH> {
        let policy = Arc::new(AffinityPolicy::new(config.seed));
        let store_config = BlockStoreConfig {
            block_size: config.hdfs_block_size,
            default_replication: config.replication.min(config.nodes),
        };
        let fs: StoreRef = match &config.storage_backend {
            StorageBackend::Sim => {
                Arc::new(SimHdfs::new(config.nodes, store_config, policy.clone()))
            }
            StorageBackend::File(dir) => {
                let root = if dir.is_empty() {
                    String::new()
                } else {
                    // A unique per-cluster subdirectory: concurrently
                    // started clusters (parallel tests) must never share a
                    // namespace.
                    static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);
                    let seq = CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed);
                    format!("{dir}/vh-cluster-{}-{seq}", std::process::id())
                };
                Arc::new(FileStore::new(
                    config.nodes,
                    store_config,
                    policy.clone(),
                    &root,
                )?)
            }
        };
        let workers: Vec<NodeId> = fs.alive_nodes();
        let rm = Arc::new(ResourceManager::new(
            workers.clone(),
            RmConfig {
                cores_per_node: config.cores_per_node,
                mem_per_node: config.mem_per_node,
            },
        ));
        // Negotiate the full node as target, one core slices, min 1 slice.
        let agent = DbAgent::start(
            &rm,
            workers.clone(),
            5,
            ResourceFootprint {
                cores: 1,
                mem: config.mem_per_node / config.cores_per_node as u64,
            },
            config.cores_per_node,
            1,
        )?;
        let global_wal = Wal::new(
            fs.clone(),
            "/vectorh/wal/global.wal",
            workers.first().copied(),
        );
        let replicas: HashMap<NodeId, Arc<TransactionManager>> = workers
            .iter()
            .map(|&w| (w, Arc::new(TransactionManager::new(TxnConfig::default()))))
            .collect();
        let first = workers.first().copied().unwrap_or(NodeId(0));
        let scheduler = HealthScheduler::new(config.health_every);
        let prop_scheduler = HealthScheduler::new(config.propagate_every);
        let shipper = LogShipper::with_retention(config.ship_retention.clone());
        let epoch_cell = Arc::new(SharedEpoch::new(1));
        let (fabric, hb_net): (Option<Arc<dyn Fabric>>, Option<HbNet>) = match config.cluster_mode {
            ClusterMode::InProc => (None, None),
            ClusterMode::Tcp => {
                let f: Arc<dyn Fabric> =
                    Arc::new(TcpFabric::loopback(&workers, epoch_cell.clone(), None)?);
                let hb = HbNet::new(f.clone(), &workers)?;
                (Some(f), Some(hb))
            }
        };
        // TCP beats can legitimately land a tick late; stretch the deadline
        // so transport latency (and injected delay faults) only ever delays
        // detection.
        let grace = match config.cluster_mode {
            ClusterMode::InProc => config.heartbeat_grace,
            ClusterMode::Tcp => config.heartbeat_grace.max(2),
        };
        Ok(VectorH {
            config,
            fs,
            policy,
            rm,
            agent: Mutex::new(agent),
            catalog: RwLock::new(Catalog::new()),
            tables: RwLock::new(HashMap::new()),
            txns: Arc::new(TransactionManager::new(TxnConfig::default())),
            coordinator: TwoPhaseCoordinator::new(global_wal),
            shipper,
            replicas: RwLock::new(replicas),
            health: HeartbeatMonitor::with_grace(HEARTBEAT_DEADLINE_MISSES, grace),
            scheduler,
            in_health_round: AtomicBool::new(false),
            prop_scheduler,
            in_propagation: AtomicBool::new(false),
            propagation: Arc::new(PropagationStats::default()),
            master: RwLock::new(MasterState {
                node: first,
                epoch: 1,
            }),
            master_history: Mutex::new(vec![(1, first)]),
            net: Arc::new(NetStats::default()),
            server: Arc::new(ServerStats::default()),
            fabric,
            epoch_cell,
            hb_net,
            workers: RwLock::new(workers),
            reconciling: Mutex::new(()),
            responsibility: RwLock::new(HashMap::new()),
            next_pid: AtomicU32::new(0),
        })
    }

    pub fn fs(&self) -> &StoreRef {
        &self.fs
    }

    /// Which storage backend this cluster runs on ("sim" or "file").
    pub fn storage_backend(&self) -> &'static str {
        self.fs.backend()
    }

    /// Install (or clear) the fault-injection hook. The filesystem holds it
    /// Arc-shared, so WALs, 2PC (via the global WAL's fs) and exchanges
    /// (via [`Self::dxchg_config`]) all observe the same hook.
    pub fn install_fault_hook(&self, hook: Option<SharedFaultHook>) {
        self.fs.set_fault_hook(hook);
    }

    /// Exchange configuration for query execution, carrying the currently
    /// installed fault hook.
    pub fn dxchg_config(&self) -> DxchgConfig {
        let mut c = self.config.dxchg.clone();
        c.fault = self.fs.fault_hook();
        if let Some(fabric) = &self.fabric {
            // Cross-node exchange traffic leaves the process as framed
            // transport messages.
            c.fabric = Some(fabric.clone());
        }
        c
    }

    /// Front-door per-session counters (the `vectorh-server` crate writes
    /// them; load generators and chaos assertions read real numbers here
    /// instead of scraping output).
    pub fn server_stats(&self) -> &Arc<ServerStats> {
        &self.server
    }

    pub fn net_stats(&self) -> &Arc<NetStats> {
        &self.net
    }

    /// Background update-propagation counters: committed runs, tail
    /// appends, chunks kept byte-identical vs rewritten, crashes repaired.
    pub fn propagation_stats(&self) -> &Arc<PropagationStats> {
        &self.propagation
    }

    /// Per-exchange-channel traffic counters (messages, bytes, credit
    /// stalls) — the probe API backing in-proc vs TCP comparisons.
    pub fn net_channels(&self) -> Vec<(String, ChannelStats)> {
        self.net.channels()
    }

    /// The transport fabric in effect: `"inproc"` or `"tcp"`.
    pub fn transport_mode(&self) -> &'static str {
        self.fabric.as_ref().map_or("inproc", |f| f.mode())
    }

    pub fn rm(&self) -> &Arc<ResourceManager> {
        &self.rm
    }

    pub fn workers(&self) -> Vec<NodeId> {
        self.workers.read().clone()
    }

    /// The session master: any worker can take the role (§6). The holder is
    /// elected — when the incumbent dies, the lowest live NodeId takes over
    /// under a bumped epoch ([`Self::master_epoch`]).
    pub fn session_master(&self) -> NodeId {
        self.master.read().node
    }

    /// The current master epoch. Every 2PC commit carries the epoch its
    /// sender observed; the commit point rejects older epochs.
    pub fn master_epoch(&self) -> u64 {
        self.master.read().epoch
    }

    /// Every (epoch, master) ever in force, oldest first. Epoch 1 is the
    /// initial master; each election appends exactly one entry.
    pub fn master_history(&self) -> Vec<(u64, NodeId)> {
        self.master_history.lock().clone()
    }

    /// Per-query parallelism budget from the dbAgent's current footprint.
    pub fn streams_per_node(&self) -> usize {
        let cores = {
            let agent = self.agent.lock();
            let fp = agent.footprint();
            fp.values().map(|f| f.cores).min().unwrap_or(1) as usize
        };
        self.config.streams_per_node.min(cores.max(1))
    }

    /// Poll YARN (preemptions shrink the budget; renegotiation grows it).
    pub fn poll_yarn(&self) -> bool {
        let mut agent = self.agent.lock();
        let changed = agent.poll(&self.rm);
        let _ = agent.renegotiate(&self.rm);
        changed
    }

    /// Voluntarily shrink to `slices` cores per node.
    pub fn shrink_footprint(&self, slices: u32) -> Result<()> {
        self.agent.lock().shrink_to(&self.rm, slices)
    }

    pub fn total_cores_budget(&self) -> u32 {
        self.agent.lock().total_cores()
    }

    // --- DDL ----------------------------------------------------------------

    /// Create a table from a builder.
    pub fn create_table(&self, builder: TableBuilder) -> Result<()> {
        self.create_table_def(builder.build()?)
    }

    /// Create a table: allocate partitions, register placement affinity
    /// (round-robin initial mapping), assign responsibility, create WALs.
    pub fn create_table_def(&self, def: TableDef) -> Result<()> {
        let workers = self.workers();
        if workers.is_empty() {
            return Err(VhError::Yarn("no workers".into()));
        }
        let n_parts = def.partitioning.as_ref().map(|(_, n)| *n).unwrap_or(1);
        let replication = if def.partitioning.is_none() {
            workers.len() // replicated tables: a copy everywhere
        } else {
            self.config.replication.min(workers.len())
        };
        let pids: Vec<PartitionId> = (0..n_parts)
            .map(|_| PartitionId(self.next_pid.fetch_add(1, Ordering::Relaxed)))
            .collect();
        let mapping = initial_affinity(&pids, &workers, replication);
        let mut resp = self.responsibility.write();
        let mut stores = Vec::with_capacity(n_parts);
        let mut wals = Vec::with_capacity(n_parts);
        for (i, pid) in pids.iter().enumerate() {
            let dir = format!("/vectorh/db/{}/p{:04}/", def.name, i);
            let nodes = mapping.get(pid).cloned().unwrap_or_default();
            self.policy.set_affinity(dir.clone(), nodes.clone());
            let home = nodes.first().copied();
            resp.insert(*pid, home.unwrap_or(self.session_master()));
            let mut store = PartitionStore::new(
                self.fs.clone(),
                dir.clone(),
                def.schema.clone(),
                StorageConfig {
                    rows_per_chunk: self.config.rows_per_chunk,
                },
            );
            store.set_home(home);
            stores.push(Arc::new(RwLock::new(store)));
            let wal = Wal::new(self.fs.clone(), format!("{dir}wal"), home);
            wals.push(Arc::new(wal));
            self.txns.register_partition(*pid, 0);
            if def.partitioning.is_none() {
                // Replicated tables: every worker keeps its own replica
                // state, fed by log shipping at commit time.
                for mgr in self.replicas.read().values() {
                    mgr.register_partition(*pid, 0);
                }
            }
        }
        drop(resp);
        self.coordinator
            .global_wal()
            .append(&[vectorh_txn::LogRecord::Ddl {
                statement: format!("CREATE TABLE {}", def.name),
            }])?;
        self.catalog.write().add(def.clone())?;
        self.tables.write().insert(
            def.name.clone(),
            Arc::new(TableRuntime {
                def,
                pids,
                stores,
                wals,
            }),
        );
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<Arc<TableRuntime>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| VhError::Catalog(format!("unknown table '{name}'")))
    }

    /// Visible row count (committed state, PDTs included).
    pub fn table_rows(&self, name: &str) -> Result<u64> {
        let rt = self.table(name)?;
        let mut n = 0;
        for pid in &rt.pids {
            n += self.txns.visible_rows(*pid)?;
        }
        Ok(n)
    }

    // --- bulk loading ---------------------------------------------------------

    /// Bulk-load rows (the vwload path): rows are hash-partitioned, each
    /// partition sorted by the clustered order and appended directly to
    /// disk from its responsible node ("large inserts ... are appended
    /// directly on disk"). The new rows end each partition's image; deltas
    /// pending on a partition stay where they are. Every row is converted
    /// and every partition checked on the primary and on each replica
    /// before the first write, so a refused load leaves store, WAL and
    /// answers as they were.
    pub fn insert_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        let rt = self.table(table)?;
        let n_parts = rt.n_partitions();
        let mut buckets: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n_parts];
        match &rt.def.partitioning {
            Some((keys, _)) => {
                for row in rows {
                    let p = partition_of(&row, keys, n_parts);
                    buckets[p].push(row);
                }
            }
            None => buckets[0] = rows,
        }
        let mut loads: Vec<(usize, Vec<ColumnData>, u64)> = Vec::new();
        for (i, mut bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            if let Some(order) = &rt.def.sort_order {
                bucket.sort_by(|a, b| crate::dml::cmp_on(order, a, b));
            }
            let mut cols: Vec<ColumnData> = rt
                .def
                .schema
                .fields()
                .iter()
                .map(|f| ColumnData::with_capacity(f.dtype, bucket.len()))
                .collect();
            for row in &bucket {
                if row.len() != cols.len() {
                    return Err(VhError::InvalidArg(format!(
                        "row width {} != schema width {}",
                        row.len(),
                        cols.len()
                    )));
                }
                for (c, v) in row.iter().enumerate() {
                    cols[c].push_value(v)?;
                }
            }
            let pid = rt.pids[i];
            self.txns.partition_state(pid)?;
            if rt.def.partitioning.is_none() {
                for mgr in self.replicas.read().values() {
                    mgr.partition_state(pid)?;
                }
            }
            loads.push((i, cols, bucket.len() as u64));
        }
        for (i, cols, rows) in loads {
            rt.stores[i].write().append_rows(&cols)?;
            self.txns.bulk_append(rt.pids[i], rows)?;
            if rt.def.partitioning.is_none() {
                for mgr in self.replicas.read().values() {
                    mgr.bulk_append(rt.pids[i], rows)?;
                }
            }
            rt.wals[i].append(&[vectorh_txn::LogRecord::Append { txn: 0, rows }])?;
        }
        Ok(())
    }

    // --- queries ---------------------------------------------------------------

    fn rewriter_options(&self) -> RewriterOptions {
        RewriterOptions {
            enable_local_join: self.config.enable_local_join,
            enable_replicated_build: self.config.enable_replicated_build,
            enable_partial_aggr: self.config.enable_partial_aggr,
            nodes: self.workers().len().max(1),
            ..RewriterOptions::default()
        }
    }

    /// Parse, optimize and run a SQL query, returning result rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Vec<Value>>> {
        let logical = parse_query(sql, &EngineCatalog(self))?;
        self.query_logical(&logical)
    }

    /// Optimize and run a logical plan, with query-level failover: when a
    /// node dies mid-query ([`VhError::NodeDown`]), the worker set is
    /// reconciled with the filesystem's alive set, affinity/responsibility
    /// are remapped, and the query is re-planned and re-run on the
    /// survivors. Each failover shrinks the cluster, so the retry count is
    /// bounded by the original node count.
    pub fn query_logical(&self, logical: &LogicalPlan) -> Result<Vec<Vec<Value>>> {
        self.query_logical_ctl(logical, None)
    }

    /// [`Self::query_logical`] with a per-query control block: the cancel
    /// flag is honored between failover attempts and between result
    /// batches, and every absorbed `NodeDown` retry is counted on `ctl` so
    /// the front door can report session-transparent failovers.
    pub fn query_logical_ctl(
        &self,
        logical: &LogicalPlan,
        ctl: Option<&QueryCtl>,
    ) -> Result<Vec<Vec<Value>>> {
        // Pin the retry budget to the worker count *at entry*: each
        // failover shrinks the set, so re-reading the survivor count after
        // a kill under-budgets a cascade (N nodes dying one by one needs up
        // to N retries, but the shrunken set only grants the remainder).
        // The budget still shrinks-to-fit in the common case because a
        // retry only happens after NodeDown, and each death consumes one.
        let retry_budget = self.workers().len();
        let mut failovers = 0usize;
        loop {
            if let Some(c) = ctl {
                if c.is_cancelled() {
                    return Err(VhError::Cancelled("query cancelled".into()));
                }
            }
            // Background health plane: every query advances the virtual
            // clock, so detection/election/takeover fire from inside
            // ordinary traffic — a dead node is usually recovered *before*
            // planning instead of tripping the retry path below.
            self.advance_health(1)?;
            let planned_on = self.workers();
            let phys = self.optimize(logical)?;
            match self.run_physical(&phys, ctl.map(|c| c.cancel_flag())) {
                Ok((rows, _)) => return Ok(rows),
                Err(e @ VhError::Cancelled(_)) => return Err(e),
                Err(e) => {
                    failovers += 1;
                    // A mid-query death surfaces as NodeDown from the pinned
                    // read that hit the dead node, but sibling pipelines may
                    // collapse with secondary transport errors that win the
                    // race to the collector. "Did the worker set change under
                    // this attempt?" is therefore the authoritative failover
                    // signal, whichever thread reconciled it.
                    let _ = self.reconcile_workers();
                    let node_died = self.workers() != planned_on;
                    let retryable = node_died || matches!(e, VhError::NodeDown(_));
                    if !retryable || failovers > retry_budget {
                        return Err(e);
                    }
                    if let Some(c) = ctl {
                        c.record_retry();
                    }
                }
            }
        }
    }

    /// Run a query and return its appendix-style execution profile too.
    pub fn query_profiled(&self, sql: &str) -> Result<(Vec<Vec<Value>>, String)> {
        let logical = parse_query(sql, &EngineCatalog(self))?;
        let phys = self.optimize(&logical)?;
        self.run_physical(&phys, None)
    }

    /// Parse SQL against the live catalog without running it — the plan
    /// half of a server-side prepared statement.
    pub fn parse(&self, sql: &str) -> Result<LogicalPlan> {
        parse_query(sql, &EngineCatalog(self))
    }

    /// The distributed physical plan for a query (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let logical = parse_query(sql, &EngineCatalog(self))?;
        Ok(self.optimize(&logical)?.explain())
    }

    /// Column pruning, then the Parallel Rewriter. Every route to a physical
    /// plan passes through here; [`Self::parse`] hands out the unpruned plan.
    pub fn optimize(&self, logical: &LogicalPlan) -> Result<PhysPlan> {
        let catalog = EngineCatalog(self);
        let logical = &prune_columns(logical, &catalog)?;
        let rewriter = ParallelRewriter::new(&catalog, self.rewriter_options());
        rewriter.rewrite(logical)
    }

    pub(crate) fn run_physical(
        &self,
        phys: &PhysPlan,
        cancel: Option<&AtomicBool>,
    ) -> Result<(Vec<Vec<Value>>, String)> {
        crate::execute::execute(self, phys, cancel)
    }

    /// Run a pre-optimized physical plan, returning rows and the execution
    /// profile (benchmark harnesses and EXPLAIN ANALYZE-style tooling).
    pub fn run_physical_public(&self, phys: &PhysPlan) -> Result<(Vec<Vec<Value>>, String)> {
        self.run_physical(phys, None)
    }

    // --- failure handling -------------------------------------------------------

    /// Kill a datanode: HDFS re-replicates (steered by the affinity
    /// policy), the worker set shrinks, the affinity map and responsibility
    /// assignment are recomputed with the min-cost-flow solvers, and
    /// partition homes move — after which all scans are local again.
    pub fn kill_node(&self, node: NodeId) -> Result<()> {
        self.fs.kill_node(node)?;
        // YARN learns about the dead NodeManager; its containers surface to
        // the dbAgent as lost on the next poll.
        self.rm.node_lost(node);
        self.reconcile_workers()?;
        Ok(())
    }

    /// Sync the worker set with the filesystem's alive set and remap
    /// affinity + responsibility. This is the recovery half of
    /// [`Self::kill_node`], callable on its own when a node death is
    /// detected mid-query (the chaos harness kills nodes underneath running
    /// queries). Returns whether the worker set shrank.
    pub fn reconcile_workers(&self) -> Result<bool> {
        // One at a time, start to finish. A query whose read hit the dead
        // node calls this while the thread that noticed first is still
        // remapping; were it to return at once ("the set did not shrink"),
        // the retry would plan on the old responsibility, read from the dead
        // node again, and burn its whole retry budget before the remap ends.
        let _reconciling = self.reconciling.lock();
        let alive = self.fs.alive_nodes();
        let mut workers = self.workers.write();
        let before = workers.len();
        workers.retain(|w| alive.contains(w));
        if workers.is_empty() {
            return Err(VhError::Yarn("no workers left".into()));
        }
        let changed = workers.len() != before;
        let workers_now = workers.clone();
        drop(workers);
        if !changed {
            return Ok(false);
        }

        // Snapshot the partitions whose responsible node died *before* the
        // remap overwrites the assignment: those are the ones the new owners
        // must recover (WAL repair + in-doubt resolution + replay).
        let mut orphaned: Vec<PartitionId> = {
            let r = self.responsibility.read();
            r.iter()
                .filter(|(_, n)| !workers_now.contains(n))
                .map(|(pid, _)| *pid)
                .collect()
        };
        orphaned.sort_unstable();
        // A dead node's in-RAM replica state died with it.
        self.replicas.write().retain(|n, _| workers_now.contains(n));
        // Session-master election (§6): if the master is among the dead, the
        // lowest live NodeId takes the role under a bumped epoch, the global
        // WAL re-homes to it, and — after the takeover below re-owns the
        // orphaned partitions — the new master finishes every transaction
        // the old one left in doubt.
        let deposed = {
            let m = self.master.read();
            !workers_now.contains(&m.node)
        };
        if deposed {
            self.elect_master(&workers_now)?;
        }
        self.remap_placement(&workers_now)?;
        self.take_over_partitions(&orphaned)?;
        if deposed {
            self.resolve_in_doubt()?;
        }
        Ok(true)
    }

    /// Elect a new session master from `workers_now` (sorted, so the first
    /// entry is the lowest live NodeId — every survivor computes the same
    /// result without a vote). Bumps the epoch, installs it at the 2PC
    /// coordinator so stale commits fence, re-homes the global WAL onto the
    /// winner (repairing any torn decision frame the crash left), and logs
    /// the election durably as a `MasterEpoch` record.
    pub(crate) fn elect_master(&self, workers_now: &[NodeId]) -> Result<MasterState> {
        let new_node = *workers_now
            .first()
            .ok_or_else(|| VhError::Yarn("no workers to elect from".into()))?;
        let state = {
            let mut m = self.master.write();
            m.node = new_node;
            m.epoch += 1;
            *m
        };
        self.coordinator.install_epoch(state.epoch);
        // Fence the transport too: handshakes announcing the old epoch are
        // rejected from this point on.
        self.epoch_cell.set(state.epoch);
        let gw = self.coordinator.global_wal();
        gw.set_home(Some(new_node));
        gw.repair()?;
        gw.append(&[vectorh_txn::LogRecord::MasterEpoch {
            epoch: state.epoch,
            node: new_node.0 as u64,
        }])?;
        self.master_history.lock().push((state.epoch, new_node));
        Ok(state)
    }

    /// Recompute affinity + responsibility for the given worker set and move
    /// partition homes (stores *and* WALs) to the new responsible nodes.
    /// Shared by failover ([`Self::reconcile_workers`]) and rejoin
    /// ([`Self::rejoin_node`]) — in both directions the min-cost-flow remap
    /// plus `conform_to_policy` converges locality (the paper's Figure 2,
    /// forward and in reverse).
    pub(crate) fn remap_placement(&self, workers_now: &[NodeId]) -> Result<()> {
        // Recompute the affinity map from actual block locality.
        //
        // Placement is solved per *co-location class*: tables with the same
        // partition count keep their i-th partitions together (that is what
        // makes co-located joins survive failures — the paper's Figure 2
        // moves R04 and S04 as a unit). A class is represented by one
        // synthetic partition in the flow network; the result applies to
        // every member partition.
        let tables = self.tables.read();
        // class (replication, index) -> members (table, partition, col, idx)
        type ClassMembers = Vec<(String, PartitionId, String, usize)>;
        let mut classes: HashMap<(usize, usize), ClassMembers> = HashMap::new();
        for rt in tables.values() {
            if rt.def.partitioning.is_none() {
                // Replicated tables stay replicated on every worker.
                let dir = format!("/vectorh/db/{}/p{:04}/", rt.def.name, 0);
                self.policy.set_affinity(dir, workers_now.to_vec());
                // If the writer (responsible node) is gone, the session
                // master takes over the single partition.
                let pid = rt.pids[0];
                let holder = { self.responsibility.read().get(&pid).copied() };
                if holder.map(|h| !workers_now.contains(&h)).unwrap_or(true) {
                    if let Some(&h) = workers_now.first() {
                        self.responsibility.write().insert(pid, h);
                        rt.stores[0].write().set_home(Some(h));
                        rt.wals[0].set_home(Some(h));
                    }
                }
                continue;
            }
            let n = rt.pids.len();
            for (i, pid) in rt.pids.iter().enumerate() {
                let dir = format!("/vectorh/db/{}/p{:04}/", rt.def.name, i);
                classes
                    .entry((n, i))
                    .or_default()
                    .push((rt.def.name.clone(), *pid, dir, i));
            }
        }
        if !classes.is_empty() {
            let mut keys: Vec<(usize, usize)> = classes.keys().copied().collect();
            keys.sort_unstable();
            // Locality of a class = every member partition fully local.
            let local: Vec<Vec<bool>> = keys
                .iter()
                .map(|k| {
                    workers_now
                        .iter()
                        .map(|&w| {
                            classes[k].iter().all(|(_, _, dir, _)| {
                                let files = self.fs.list(dir);
                                !files.is_empty()
                                    && files
                                        .iter()
                                        .all(|f| self.fs.fully_local(&f.path, w).unwrap_or(false))
                            })
                        })
                        .collect()
                })
                .collect();
            let class_ids: Vec<PartitionId> =
                (0..keys.len()).map(|i| PartitionId(i as u32)).collect();
            let input = PlacementInput {
                partitions: class_ids.clone(),
                workers: workers_now.to_vec(),
                local,
            };
            let repl = self.fs.config().default_replication.min(workers_now.len());
            let mapping = affinity_mapping(&input, repl)?;
            for (ci, key) in keys.iter().enumerate() {
                if let Some(nodes) = mapping.get(&class_ids[ci]) {
                    for (_, _, dir, _) in &classes[key] {
                        self.policy.set_affinity(dir.clone(), nodes.clone());
                    }
                }
            }
            // Background re-replication toward the new mapping.
            self.fs.conform_to_policy();
            // Responsibility per class: prefer nodes that now hold the data.
            let local2: Vec<Vec<bool>> = class_ids
                .iter()
                .map(|cid| {
                    workers_now
                        .iter()
                        .map(|w| mapping.get(cid).map(|v| v.contains(w)).unwrap_or(false))
                        .collect()
                })
                .collect();
            let input2 = PlacementInput {
                partitions: class_ids.clone(),
                workers: workers_now.to_vec(),
                local: local2,
            };
            let resp = responsibility_assignment(&input2)?;
            let mut r = self.responsibility.write();
            for (ci, key) in keys.iter().enumerate() {
                if let Some(node) = resp.get(&class_ids[ci]) {
                    for (_, pid, _, _) in &classes[key] {
                        r.insert(*pid, *node);
                    }
                }
            }
            drop(r);
            // Move partition homes (writers) to the responsible nodes —
            // both the store and its WAL, so the next commit appends from
            // the node that now owns the partition.
            for rt in tables.values() {
                if rt.def.partitioning.is_none() {
                    continue; // handled above
                }
                for (i, pid) in rt.pids.iter().enumerate() {
                    let node = self.responsibility.read().get(pid).copied();
                    if let Some(node) = node {
                        rt.stores[i].write().set_home(Some(node));
                        rt.wals[i].set_home(Some(node));
                    }
                }
            }
        }
        Ok(())
    }

    /// Responsible node of a partition.
    pub fn responsible(&self, pid: PartitionId) -> NodeId {
        self.responsibility
            .read()
            .get(&pid)
            .copied()
            .unwrap_or_else(|| self.session_master())
    }

    /// Operator override: pin a partition's responsibility to `node`
    /// without consulting the placement solver (fault drills). The pin
    /// holds until the next remap — a node death or rejoin recomputes the
    /// assignment and overwrites it.
    pub fn pin_responsible(&self, pid: PartitionId, node: NodeId) {
        self.responsibility.write().insert(pid, node);
    }

    pub(crate) fn tables_snapshot(&self) -> HashMap<String, Arc<TableRuntime>> {
        self.tables.read().clone()
    }

    /// Add a node back to the worker set (rejoin), returning the new set.
    /// The heartbeat monitor's dead latch and missed-deadline counters are
    /// cleared *inside* the worker-set lock: a background health round must
    /// never observe the node re-admitted but still latched dead (it would
    /// instantly re-fence a healthy node).
    pub(crate) fn admit_worker(&self, node: NodeId) -> Vec<NodeId> {
        let mut workers = self.workers.write();
        if !workers.contains(&node) {
            workers.push(node);
            workers.sort_unstable();
        }
        self.health.clear(node);
        workers.clone()
    }

    pub(crate) fn renegotiate_agent(&self) {
        let _ = self.agent.lock().renegotiate(&self.rm);
    }

    pub(crate) fn install_replica(&self, node: NodeId, mgr: Arc<TransactionManager>) {
        self.replicas.write().insert(node, mgr);
    }

    /// Drain the shipped log of a replicated partition into every live
    /// worker's replica state — the receive half of log shipping, applying
    /// records through the ordinary replay path. A receiver whose watermark
    /// fell behind the retention horizon takes a full-image bootstrap
    /// instead.
    pub(crate) fn apply_shipped(
        &self,
        rt: &TableRuntime,
        pid: PartitionId,
        workers: &[NodeId],
    ) -> Result<()> {
        let replicas = self.replicas.read();
        for &w in workers {
            if let Some(mgr) = replicas.get(&w) {
                match self.shipper.drain(pid, w) {
                    Drained::Records(batch) => {
                        if !batch.is_empty() {
                            mgr.replay(pid, &batch)?;
                        }
                    }
                    Drained::BehindHorizon => self.bootstrap_replica(rt, pid, w, mgr)?,
                }
            }
        }
        Ok(())
    }

    /// Full-image bootstrap of one receiver's replica state: rebuild from
    /// the stable on-disk image plus the committed tail of the partition
    /// WAL (which reaches back at least as far as the ship log did before
    /// truncation — both are cut at propagation), then fast-forward the
    /// receiver's watermark to the head of the retained log.
    pub(crate) fn bootstrap_replica(
        &self,
        rt: &TableRuntime,
        pid: PartitionId,
        node: NodeId,
        mgr: &TransactionManager,
    ) -> Result<()> {
        let i = rt
            .pids
            .iter()
            .position(|p| *p == pid)
            .ok_or_else(|| VhError::Internal(format!("partition {pid} not in table")))?;
        let stable = rt.stores[i].read().row_count();
        crate::recovery::recover_partition(&self.coordinator, mgr, pid, stable, &rt.wals[i])?;
        self.shipper.fast_forward(pid, node);
        Ok(())
    }

    /// Advance the health plane's virtual clock by `units` and run every
    /// heartbeat round that became due. Called with 1 from the query and
    /// DML paths (background operation) and with arbitrary amounts by
    /// tests. Reentrancy-guarded: recovery work inside a round may itself
    /// run queries, which must not recurse into another round. Returns the
    /// nodes newly declared dead.
    pub fn advance_health(&self, units: u64) -> Result<Vec<NodeId>> {
        let rounds = self.scheduler.advance(units);
        let prop_rounds = self.prop_scheduler.advance(units);
        let mut dead = Vec::new();
        let mut result = Ok(());
        if rounds > 0 && !self.in_health_round.swap(true, Ordering::SeqCst) {
            for _ in 0..rounds {
                match self.health_tick() {
                    Ok(newly) => dead.extend(newly),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            self.in_health_round.store(false, Ordering::SeqCst);
        }
        // The propagation plane runs on its own period but competes for the
        // same virtual clock; it is guarded separately so a health round's
        // recovery queries cannot recurse into propagation and vice versa.
        if prop_rounds > 0 && result.is_ok() && !self.in_propagation.swap(true, Ordering::SeqCst) {
            let r = self.propagation_tick();
            self.in_propagation.store(false, Ordering::SeqCst);
            if let Err(e) = r {
                result = Err(e);
            }
        }
        result.map(|_| dead)
    }

    /// The health scheduler's virtual clock (observability + tests).
    pub fn health_clock(&self) -> u64 {
        self.scheduler.now()
    }

    /// Visible rows of a replicated partition as seen by `node`'s replica
    /// state (catch-up verification in tests and the chaos harness).
    pub fn replica_rows(&self, node: NodeId, pid: PartitionId) -> Result<u64> {
        self.replica(node)?.visible_rows(pid)
    }

    /// The merge plan of a replicated partition in `node`'s replica state:
    /// applied to the stable image, the rows that replica holds.
    pub fn replica_plan(&self, node: NodeId, pid: PartitionId) -> Result<Vec<MergeStep>> {
        self.replica(node)?.scan_plan(pid)
    }

    fn replica(&self, node: NodeId) -> Result<Arc<TransactionManager>> {
        self.replicas
            .read()
            .get(&node)
            .cloned()
            .ok_or_else(|| VhError::Internal(format!("no replica state on {node}")))
    }

    // --- maintenance --------------------------------------------------------------

    /// Run update propagation for every partition of a table that needs it
    /// (or all of them when `force`).
    pub fn propagate_table(&self, name: &str, force: bool) -> Result<usize> {
        let rt = self.table(name)?;
        let mut done = 0;
        for (i, pid) in rt.pids.iter().enumerate() {
            if force || self.txns.needs_propagation(*pid) {
                let report = self.propagate_partition_runtime(&rt, i)?;
                if report.mode != vectorh_txn::propagate::PropagationMode::Noop {
                    done += 1;
                }
            }
        }
        Ok(done)
    }

    /// Propagate one partition of a table and do the post-commit
    /// bookkeeping (the global WAL learns that the partition's log is
    /// forced, which may rotate it; ship-log checkpoint + replica re-base
    /// for replicated tables; counters). A run with nothing to fold forces
    /// the log of a partition the global WAL still holds records for: that
    /// is all a checkpoint would have done for them. Shared by
    /// [`Self::propagate_table`] and the background
    /// [`Self::propagation_tick`].
    fn propagate_partition_runtime(
        &self,
        rt: &TableRuntime,
        i: usize,
    ) -> Result<vectorh_txn::propagate::PropagationReport> {
        let pid = rt.pids[i];
        let mut store = rt.stores[i].write();
        // Every decision logged by now precedes the checkpoint: the ones
        // naming `pid` had to finish before propagation could begin.
        let global = self.coordinator.global_wal();
        let mark = global.mark();
        let report =
            vectorh_txn::propagate::propagate_partition(&self.txns, pid, &mut store, &rt.wals[i])?;
        // A rotation that fails leaves the global WAL as it was and is
        // retried at a later checkpoint: this one is durable either way.
        if report.mode == vectorh_txn::propagate::PropagationMode::Noop {
            if global.holds_payload(pid)? {
                rt.wals[i].sync()?;
                global.checkpointed(pid, mark);
            }
        } else {
            global.checkpointed(pid, mark);
            if rt.def.partitioning.is_none() {
                // Propagation folded the shipped updates into the stable
                // image, or carried them in its checkpoint: the retained
                // ship log is obsolete (mirroring the WAL `Checkpoint`) and
                // every replica re-bases on the new image and those carried
                // deltas.
                self.rebase_replicas(pid, store.row_count(), &report.carried)?;
            }
            self.propagation.record_run(
                report.mode == vectorh_txn::propagate::PropagationMode::TailAppend,
                report.chunks_kept,
                report.chunks_rewritten,
            );
        }
        Ok(report)
    }

    /// One background propagation round: visit tables in name order and
    /// flush partitions whose PDTs cross the propagation thresholds, until
    /// the per-tick chunk budget is spent. A partition busy with live
    /// transactions (`TxnAbort`) is simply skipped until a later round; a
    /// propagation crash (injected fault or I/O error) is repaired in place
    /// with [`Self::recover_after_propagation_crash`] so background
    /// propagation never poisons the query path that drove the clock.
    fn propagation_tick(&self) -> Result<()> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        let mut budget = self.config.propagate_chunks_per_tick.max(1);
        for name in names {
            let Ok(rt) = self.table(&name) else { continue };
            for i in 0..rt.pids.len() {
                if budget == 0 {
                    return Ok(());
                }
                if !self.txns.needs_propagation(rt.pids[i]) {
                    continue;
                }
                match self.propagate_partition_runtime(&rt, i) {
                    Ok(report) => {
                        let spent = (report.chunks_rewritten + report.tail_chunks).max(1) as usize;
                        budget = budget.saturating_sub(spent);
                    }
                    Err(VhError::TxnAbort(_)) => continue,
                    Err(_) => {
                        self.propagation.record_crash_recovered();
                        self.recover_after_propagation_crash(&rt, i)?;
                        budget = budget.saturating_sub(1);
                    }
                }
            }
        }
        Ok(())
    }

    /// Repair a partition after a propagation crash: WAL repair + replay of
    /// the last checkpoint's carried deltas and the committed updates on top
    /// of whichever chunk images survived. If no committed update followed
    /// the checkpoint, the crash may have come after the commit point — the
    /// new image is installed — so a replicated table additionally re-bases
    /// its ship log and replicas (the step the crash interrupted).
    fn recover_after_propagation_crash(&self, rt: &TableRuntime, i: usize) -> Result<()> {
        let pid = rt.pids[i];
        let stable = rt.stores[i].read().row_count();
        let report = crate::recovery::recover_partition(
            &self.coordinator,
            &self.txns,
            pid,
            stable,
            &rt.wals[i],
        )?;
        if report.replayed_records == 0 && rt.def.partitioning.is_none() {
            self.rebase_replicas(pid, stable, &report.carried)?;
        }
        Ok(())
    }

    /// A replicated partition's stable image changed under a checkpoint:
    /// drop the retained ship log and re-base every replica on `stable`
    /// rows plus the checkpoint's `carried` deltas.
    fn rebase_replicas(
        &self,
        pid: PartitionId,
        stable: u64,
        carried: &[vectorh_txn::LogRecord],
    ) -> Result<()> {
        self.shipper.checkpoint(pid);
        for mgr in self.replicas.read().values() {
            mgr.rebase_partition(pid, stable, carried, &[])?;
        }
        Ok(())
    }

    /// Total stored bytes of a table (compressed, all replicas counted once).
    pub fn table_bytes(&self, name: &str) -> Result<u64> {
        let rt = self.table(name)?;
        Ok(rt.stores.iter().map(|s| s.read().total_bytes()).sum())
    }
}

/// Catalog adapter for the planner.
pub struct EngineCatalog<'a>(pub &'a VectorH);

impl<'a> CatalogInfo for EngineCatalog<'a> {
    fn table(&self, name: &str) -> Result<TableMeta> {
        let catalog = self.0.catalog.read();
        let def = catalog.get(name)?;
        let rows = self.0.table_rows(name).unwrap_or(0);
        Ok(TableMeta {
            name: def.name.clone(),
            schema: def.schema.clone(),
            rows,
            partitioning: def.partitioning.clone(),
            sort_order: def.sort_order.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorh_common::DataType;

    /// A query whose read hits a dead node while another thread is half way
    /// through `reconcile_workers` (worker set shrunk, responsibility not yet
    /// moved) must wait for that reconciliation. Returning at once would plan
    /// every retry on the dead node and leak `NodeDown` to the client.
    #[test]
    fn a_query_failing_mid_reconciliation_waits_for_the_remap() {
        let vh = Arc::new(
            VectorH::start(ClusterConfig {
                nodes: 4,
                rows_per_chunk: 64,
                hdfs_block_size: 8 * 1024,
                ..Default::default()
            })
            .unwrap(),
        );
        vh.create_table(
            TableBuilder::new("t")
                .column("k", DataType::I64)
                .partition_by(&["k"], 8),
        )
        .unwrap();
        vh.insert_rows("t", (0..400).map(|i| vec![Value::I64(i)]).collect())
            .unwrap();
        let rt = vh.table("t").unwrap();
        let victim = rt
            .pids
            .iter()
            .map(|p| vh.responsible(*p))
            .find(|n| *n != vh.session_master())
            .expect("eight partitions on four nodes");

        // The first half of a reconciliation, as the thread that noticed the
        // death would have left it at this instant.
        let reconciling = vh.reconciling.lock();
        vh.fs.kill_node(victim).unwrap();
        vh.workers.write().retain(|w| *w != victim);
        let workers_now = vh.workers();
        let orphaned: Vec<PartitionId> = rt
            .pids
            .iter()
            .copied()
            .filter(|p| vh.responsible(*p) == victim)
            .collect();

        let (tx, rx) = std::sync::mpsc::channel();
        let query = {
            let vh = vh.clone();
            std::thread::spawn(move || tx.send(vh.query("select count(*) from t")))
        };
        let early = rx.recv_timeout(std::time::Duration::from_millis(300));
        assert!(early.is_err(), "answered mid-reconciliation: {early:?}");

        // The second half; then the query's retry finds every partition at a
        // live node.
        vh.remap_placement(&workers_now).unwrap();
        vh.take_over_partitions(&orphaned).unwrap();
        drop(reconciling);
        assert_eq!(rx.recv().unwrap().unwrap(), vec![vec![Value::I64(400)]]);
        query.join().unwrap().unwrap();
    }
}
