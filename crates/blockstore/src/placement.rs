//! Block placement policies.
//!
//! HDFS lets a system register a `BlockPlacementPolicy` class whose
//! `chooseTarget()` receives the file name and returns the datanodes that
//! should store the replicas; it is consulted on appends and during
//! namenode-driven re-replication/rebalancing (§3). [`BlockPlacementPolicy`]
//! is the Rust equivalent. Two implementations ship:
//!
//! * [`DefaultPolicy`] — stock HDFS behaviour: first replica on the writer,
//!   remaining replicas on random distinct nodes. Under failures this
//!   degrades data affinity, which is exactly what the paper shows.
//! * [`AffinityPolicy`] — VectorH's instrumented policy: table-partition
//!   directories are registered with a target node list (the *partition
//!   affinity map*, Figure 2) and every chunk file under such a directory
//!   gets all replicas on exactly those nodes.

use std::collections::HashMap;

use vectorh_common::rng::SplitMix64;
use vectorh_common::sync::RwLock;
use vectorh_common::NodeId;

/// What a policy may inspect when choosing targets — the namenode's view.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Nodes currently alive (failed/decommissioned nodes excluded).
    pub alive: Vec<NodeId>,
    /// Bytes currently stored per node (for balance-aware choices).
    pub used_bytes: HashMap<NodeId, u64>,
    /// Replica locations that already exist and must not be duplicated
    /// (non-empty during re-replication).
    pub existing: Vec<NodeId>,
}

impl ClusterView {
    /// Alive nodes that do not already hold a replica.
    pub fn candidates(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .copied()
            .filter(|n| !self.existing.contains(n))
            .collect()
    }
}

/// The pluggable placement hook (HDFS `BlockPlacementPolicy::chooseTarget`).
pub trait BlockPlacementPolicy: Send + Sync {
    /// Choose up to `wanted` *additional* replica targets for a block of
    /// `path`. `writer` is the datanode issuing the append, when the writer
    /// is a datanode at all. Must not return nodes in `view.existing`, nor
    /// duplicates.
    fn choose_targets(
        &self,
        path: &str,
        writer: Option<NodeId>,
        wanted: usize,
        view: &ClusterView,
    ) -> Vec<NodeId>;

    /// Name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Stock HDFS: writer-local first replica, the rest spread randomly.
pub struct DefaultPolicy {
    rng: RwLock<SplitMix64>,
}

impl DefaultPolicy {
    pub fn new(seed: u64) -> Self {
        DefaultPolicy {
            rng: RwLock::new(SplitMix64::new(seed)),
        }
    }
}

impl BlockPlacementPolicy for DefaultPolicy {
    fn choose_targets(
        &self,
        _path: &str,
        writer: Option<NodeId>,
        wanted: usize,
        view: &ClusterView,
    ) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(wanted);
        let mut candidates = view.candidates();
        if let Some(w) = writer {
            if candidates.contains(&w) && !out.contains(&w) {
                out.push(w);
                candidates.retain(|&n| n != w);
            }
        }
        let mut rng = self.rng.write();
        rng.shuffle(&mut candidates);
        out.extend(
            candidates
                .into_iter()
                .take(wanted.saturating_sub(out.len())),
        );
        out.truncate(wanted);
        out
    }

    fn name(&self) -> &'static str {
        "default"
    }
}

/// VectorH's instrumented policy: directory-prefix → target-node-list map.
///
/// VectorH registers every table-partition directory (e.g.
/// `/vectorh/db/orders/p07/`) with the R nodes of the current partition
/// affinity map. Any file under a registered prefix gets its replicas on
/// exactly those nodes (as many as are alive); unregistered files fall back
/// to default placement.
pub struct AffinityPolicy {
    affinities: RwLock<HashMap<String, Vec<NodeId>>>,
    fallback: DefaultPolicy,
}

impl AffinityPolicy {
    pub fn new(seed: u64) -> Self {
        AffinityPolicy {
            affinities: RwLock::new(HashMap::new()),
            fallback: DefaultPolicy::new(seed),
        }
    }

    /// Register (or update) the target nodes for a directory prefix.
    pub fn set_affinity(&self, dir_prefix: impl Into<String>, nodes: Vec<NodeId>) {
        self.affinities.write().insert(dir_prefix.into(), nodes);
    }

    /// The registered target list for `path`, by longest-prefix match.
    pub fn affinity_of(&self, path: &str) -> Option<Vec<NodeId>> {
        let map = self.affinities.read();
        map.iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, nodes)| nodes.clone())
    }

    /// All registered prefixes (for inspection in tests/benches).
    pub fn registered(&self) -> Vec<(String, Vec<NodeId>)> {
        self.affinities
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl BlockPlacementPolicy for AffinityPolicy {
    fn choose_targets(
        &self,
        path: &str,
        writer: Option<NodeId>,
        wanted: usize,
        view: &ClusterView,
    ) -> Vec<NodeId> {
        if let Some(targets) = self.affinity_of(path) {
            let mut out: Vec<NodeId> = targets
                .into_iter()
                .filter(|n| view.alive.contains(n) && !view.existing.contains(n))
                .take(wanted)
                .collect();
            if out.len() < wanted {
                // Not enough registered nodes alive: top up via fallback so
                // the block still reaches the requested replication.
                let mut inner_view = view.clone();
                inner_view.existing.extend(out.iter().copied());
                let extra =
                    self.fallback
                        .choose_targets(path, writer, wanted - out.len(), &inner_view);
                out.extend(extra);
            }
            out
        } else {
            self.fallback.choose_targets(path, writer, wanted, view)
        }
    }

    fn name(&self) -> &'static str {
        "vectorh-affinity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: usize) -> ClusterView {
        ClusterView {
            alive: (0..n as u32).map(NodeId).collect(),
            used_bytes: HashMap::new(),
            existing: vec![],
        }
    }

    #[test]
    fn default_policy_puts_writer_first() {
        let p = DefaultPolicy::new(1);
        let t = p.choose_targets("/f", Some(NodeId(2)), 3, &view(5));
        assert_eq!(t[0], NodeId(2));
        assert_eq!(t.len(), 3);
        let unique: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn default_policy_handles_small_cluster() {
        let p = DefaultPolicy::new(1);
        let t = p.choose_targets("/f", Some(NodeId(0)), 3, &view(2));
        assert_eq!(t.len(), 2, "can only place on alive nodes");
    }

    #[test]
    fn default_policy_respects_existing() {
        let p = DefaultPolicy::new(1);
        let mut v = view(4);
        v.existing = vec![NodeId(0), NodeId(1)];
        let t = p.choose_targets("/f", Some(NodeId(0)), 2, &v);
        assert!(!t.contains(&NodeId(0)) && !t.contains(&NodeId(1)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn affinity_policy_longest_prefix_wins() {
        let p = AffinityPolicy::new(2);
        p.set_affinity("/db/", vec![NodeId(0)]);
        p.set_affinity("/db/orders/p1/", vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(
            p.affinity_of("/db/orders/p1/chunk-0"),
            Some(vec![NodeId(1), NodeId(2), NodeId(3)])
        );
        assert_eq!(p.affinity_of("/db/other"), Some(vec![NodeId(0)]));
        assert_eq!(p.affinity_of("/elsewhere"), None);
    }

    #[test]
    fn affinity_policy_places_on_registered_nodes() {
        let p = AffinityPolicy::new(3);
        p.set_affinity("/db/r/p0/", vec![NodeId(3), NodeId(1), NodeId(2)]);
        let t = p.choose_targets("/db/r/p0/chunk-1", Some(NodeId(0)), 3, &view(5));
        assert_eq!(t, vec![NodeId(3), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn affinity_policy_tops_up_when_targets_dead() {
        let p = AffinityPolicy::new(4);
        p.set_affinity("/db/r/p0/", vec![NodeId(7), NodeId(1)]); // node7 not alive
        let t = p.choose_targets("/db/r/p0/chunk-1", None, 3, &view(4));
        assert_eq!(t.len(), 3);
        assert!(t.contains(&NodeId(1)));
        assert!(!t.contains(&NodeId(7)));
        let unique: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn affinity_policy_falls_back_for_unregistered() {
        let p = AffinityPolicy::new(5);
        let t = p.choose_targets("/tmp/spill", Some(NodeId(1)), 1, &view(3));
        assert_eq!(t, vec![NodeId(1)]);
    }

    #[test]
    fn rereplication_excludes_existing() {
        let p = AffinityPolicy::new(6);
        p.set_affinity("/db/r/p0/", vec![NodeId(0), NodeId(1), NodeId(2)]);
        let mut v = view(4);
        v.existing = vec![NodeId(0), NodeId(2)];
        let t = p.choose_targets("/db/r/p0/chunk-9", None, 1, &v);
        assert_eq!(t, vec![NodeId(1)]);
    }
}
