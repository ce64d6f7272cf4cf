//! Compact mutable DAG with cycle-safe edge insertion.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use prfpga_model::{TaskGraph, TaskId};

/// Globally-unique structure-version source. Every mutation of any [`Dag`]
/// draws a fresh value, so a derived read-only structure
/// ([`crate::ReachIndex`]) can detect staleness by a single integer compare —
/// soundly even across rollback/re-insert sequences that restore identical
/// node and edge counts, and across distinct `Dag` instances.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// In-memory structure version of one [`Dag`].
///
/// Serialization stores a placeholder `0` and deserialization always draws
/// a fresh globally-unique value: a persisted version number could collide
/// with a live graph's version in a later process, which would let a stale
/// derived structure pass its currency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StructVersion(u64);

impl StructVersion {
    fn fresh() -> Self {
        StructVersion(NEXT_VERSION.fetch_add(1, Ordering::Relaxed))
    }
}

impl Serialize for StructVersion {
    fn serialize(&self, s: &mut serde::ser::Serializer) {
        s.u64(0)
    }
}

impl Deserialize for StructVersion {
    fn deserialize(de: &mut serde::de::Deserializer<'_>) -> Result<Self, serde::de::Error> {
        de.skip()?;
        Ok(StructVersion::fresh())
    }
}

/// Reusable buffers for [`Dag::topo_order_into`].
#[derive(Debug, Clone, Default)]
pub struct TopoScratch {
    indeg: Vec<u32>,
    ready: BinaryHeap<Reverse<NodeId>>,
}

/// Node index; for DAGs built from a [`TaskGraph`] it equals the task index.
pub type NodeId = u32;

/// Returned when an edge insertion would create a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleError {
    /// Source of the rejected edge.
    pub from: NodeId,
    /// Destination of the rejected edge.
    pub to: NodeId,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "edge {} -> {} would create a cycle", self.from, self.to)
    }
}

impl std::error::Error for CycleError {}

/// A size snapshot of a [`Dag`], taken with [`Dag::checkpoint`] and
/// restored with [`Dag::rollback`].
///
/// Node and edge insertion are append-only, so a checkpoint is just the
/// (node count, journal length) pair at snapshot time; rolling back pops
/// everything inserted afterwards in exact reverse order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagCheckpoint {
    nodes: usize,
    edges: usize,
}

/// Adjacency-list DAG supporting dynamic, cycle-checked edge insertion.
///
/// Duplicate edges are silently ignored: the schedulers freely re-insert
/// sequencing arcs that may already exist as data dependencies.
#[derive(Debug, Clone, Eq, Serialize, Deserialize)]
pub struct Dag {
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    edge_count: usize,
    /// Insertion journal of the (deduplicated) edges, in order. Rollback
    /// unwinds its tail; duplicate insertions never journal.
    #[serde(default)]
    journal: Vec<(NodeId, NodeId)>,
    /// Structure version: refreshed from the global counter on every
    /// mutation (including rollback). Not part of equality and
    /// round-trips as a fresh value — it identifies a momentary in-memory
    /// structure, not graph content.
    #[serde(default = "StructVersion::fresh")]
    version: StructVersion,
}

/// Equality is over graph content (adjacency, counts, journal); the
/// in-memory structure version is deliberately excluded so a rolled-back
/// graph compares equal to a freshly built one.
impl PartialEq for Dag {
    fn eq(&self, other: &Self) -> bool {
        self.preds == other.preds
            && self.succs == other.succs
            && self.edge_count == other.edge_count
            && self.journal == other.journal
    }
}

impl Default for Dag {
    fn default() -> Self {
        Dag::with_nodes(0)
    }
}

impl Dag {
    /// DAG with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Dag {
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
            edge_count: 0,
            journal: Vec::new(),
            version: StructVersion::fresh(),
        }
    }

    /// Builds a DAG from a task graph description, deduplicating arcs.
    ///
    /// Returns `Err` if the description contains a cycle.
    pub fn from_taskgraph(graph: &TaskGraph) -> Result<Self, CycleError> {
        let mut dag = Dag::with_nodes(graph.len());
        for &(TaskId(a), TaskId(b)) in &graph.edges {
            dag.add_edge(a, b)?;
        }
        Ok(dag)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the DAG has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Structure version of this graph. Refreshed (to a globally unique
    /// value) by every mutation; derived read-only structures record the
    /// version they were built against and compare it to decide currency.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.0
    }

    /// Appends a fresh isolated node and returns its id. Used by schedulers
    /// that model reconfigurations as extra nodes.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.preds.len() as NodeId;
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.version = StructVersion::fresh();
        id
    }

    /// Direct predecessors of `v`.
    #[inline]
    pub fn preds(&self, v: NodeId) -> &[NodeId] {
        &self.preds[v as usize]
    }

    /// Direct successors of `v`.
    #[inline]
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        &self.succs[v as usize]
    }

    /// True when the arc `from -> to` is present.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succs[from as usize].contains(&to)
    }

    /// Inserts `from -> to`, rejecting self-loops and cycles. Duplicate
    /// arcs are ignored and reported as `Ok`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), CycleError> {
        assert!(
            (from as usize) < self.len() && (to as usize) < self.len(),
            "node out of range"
        );
        if from == to {
            return Err(CycleError { from, to });
        }
        if self.has_edge(from, to) {
            return Ok(());
        }
        // `from -> to` creates a cycle iff `from` is reachable from `to`.
        if crate::reach::is_reachable(self, to, from) {
            return Err(CycleError { from, to });
        }
        self.insert_edge_acyclic(from, to);
        Ok(())
    }

    /// Journaled insertion of an edge the caller has proven acyclic and
    /// non-duplicate, with no probe of its own. Shared by [`Dag::add_edge`]
    /// (after its DFS probe), the index-accelerated insertion of
    /// [`ReachIndex::add_edge`](crate::ReachIndex::add_edge), and callers
    /// that insert arcs pointing forward in a topological order they visit
    /// the graph in.
    pub fn insert_edge_acyclic(&mut self, from: NodeId, to: NodeId) {
        debug_assert!(from != to && !self.has_edge(from, to));
        self.succs[from as usize].push(to);
        self.preds[to as usize].push(from);
        self.edge_count += 1;
        self.journal.push((from, to));
        self.version = StructVersion::fresh();
    }

    /// Snapshot of the current node and edge counts, for [`Dag::rollback`].
    pub fn checkpoint(&self) -> DagCheckpoint {
        DagCheckpoint {
            nodes: self.len(),
            edges: self.journal.len(),
        }
    }

    /// Rewinds the graph to a [`checkpoint`](Dag::checkpoint) taken on this
    /// graph: every edge and node inserted since is removed, in exact
    /// reverse insertion order. Buffer capacity is retained, so the
    /// schedulers' per-iteration sequencing arcs cost no allocation to
    /// undo.
    ///
    /// Panics when the checkpoint describes a larger graph than the current
    /// one (it was taken on a different graph, or `rollback` already passed
    /// it).
    pub fn rollback(&mut self, cp: DagCheckpoint) {
        assert!(
            cp.nodes <= self.len() && cp.edges <= self.journal.len(),
            "checkpoint does not describe a prefix of this graph"
        );
        if cp.nodes < self.len() || cp.edges < self.journal.len() {
            self.version = StructVersion::fresh();
        }
        while self.journal.len() > cp.edges {
            let (from, to) = self.journal.pop().expect("journal length checked");
            // Insertion appended to both adjacency lists, and we unwind in
            // reverse insertion order, so the entry sits at each tail.
            let s = self.succs[from as usize].pop();
            debug_assert_eq!(s, Some(to));
            let p = self.preds[to as usize].pop();
            debug_assert_eq!(p, Some(from));
            self.edge_count -= 1;
        }
        self.preds.truncate(cp.nodes);
        self.succs.truncate(cp.nodes);
    }

    /// Retires node `v`: removes every arc incident to it (both
    /// directions), leaving the node in place as an isolated vertex so no
    /// other node is renumbered. Returns the number of arcs removed.
    ///
    /// This is the online-repair mutation: a finished task imposes no
    /// further precedence, so its arcs are dropped rather than the whole
    /// graph rebuilt. The removed arcs are also purged from the insertion
    /// journal, which means any [`DagCheckpoint`] taken *before* the
    /// retirement no longer describes a prefix of this graph —
    /// [`Dag::rollback`] will reject it. Retirement and checkpoint-based
    /// search must not be interleaved.
    pub fn retire_node(&mut self, v: NodeId) -> usize {
        let vi = v as usize;
        assert!(vi < self.len(), "node out of range");
        let preds = std::mem::take(&mut self.preds[vi]);
        let succs = std::mem::take(&mut self.succs[vi]);
        let removed = preds.len() + succs.len();
        if removed == 0 {
            return 0;
        }
        for &p in &preds {
            self.succs[p as usize].retain(|&x| x != v);
        }
        for &s in &succs {
            self.preds[s as usize].retain(|&x| x != v);
        }
        self.edge_count -= removed;
        self.journal.retain(|&(a, b)| a != v && b != v);
        self.version = StructVersion::fresh();
        removed
    }

    /// Kahn topological order; deterministic (smallest-id first among
    /// ready nodes) so every scheduler run is reproducible.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut scratch = TopoScratch::default();
        self.topo_order_into(&mut scratch, &mut order);
        order
    }

    /// [`Dag::topo_order`] into caller-owned buffers — the allocation-free
    /// variant the schedulers' CPM hot path uses.
    pub fn topo_order_into(&self, scratch: &mut TopoScratch, order: &mut Vec<NodeId>) {
        let n = self.len();
        order.clear();
        order.reserve(n);
        scratch.indeg.clear();
        scratch
            .indeg
            .extend((0..n).map(|v| self.preds[v].len() as u32));
        scratch.ready.clear();
        for (v, &d) in scratch.indeg.iter().enumerate() {
            if d == 0 {
                scratch.ready.push(Reverse(v as NodeId));
            }
        }
        while let Some(Reverse(v)) = scratch.ready.pop() {
            order.push(v);
            for &s in &self.succs[v as usize] {
                scratch.indeg[s as usize] -= 1;
                if scratch.indeg[s as usize] == 0 {
                    scratch.ready.push(Reverse(s));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "DAG invariant violated: cycle present");
    }

    /// Source nodes (no predecessors).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.len() as NodeId)
            .filter(|&v| self.preds[v as usize].is_empty())
            .collect()
    }

    /// Sink nodes (no successors).
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.len() as NodeId)
            .filter(|&v| self.succs[v as usize].is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut d = Dag::with_nodes(4);
        d.add_edge(0, 1).unwrap();
        d.add_edge(0, 2).unwrap();
        d.add_edge(1, 3).unwrap();
        d.add_edge(2, 3).unwrap();
        d
    }

    #[test]
    fn builds_diamond() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.preds(3), &[1, 2]);
        assert_eq!(d.succs(0), &[1, 2]);
        assert_eq!(d.sources(), vec![0]);
        assert_eq!(d.sinks(), vec![3]);
    }

    #[test]
    fn rejects_cycle_and_self_loop() {
        let mut d = diamond();
        assert_eq!(d.add_edge(3, 0), Err(CycleError { from: 3, to: 0 }));
        assert_eq!(d.add_edge(1, 1), Err(CycleError { from: 1, to: 1 }));
        // Rejection leaves the graph untouched.
        assert_eq!(d.edge_count(), 4);
        assert!(!d.has_edge(3, 0));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut d = diamond();
        d.add_edge(0, 1).unwrap();
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn transitive_edge_allowed() {
        let mut d = diamond();
        d.add_edge(0, 3).unwrap();
        assert_eq!(d.edge_count(), 5);
    }

    #[test]
    fn topo_order_is_valid_and_deterministic() {
        let d = diamond();
        let order = d.topo_order();
        assert_eq!(order, vec![0, 1, 2, 3]);
        let mut pos = vec![0usize; d.len()];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for v in 0..d.len() as NodeId {
            for &s in d.succs(v) {
                assert!(pos[v as usize] < pos[s as usize]);
            }
        }
    }

    #[test]
    fn from_taskgraph_dedups() {
        use prfpga_model::ImplId;
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![ImplId(0)]);
        let b = g.add_task("b", vec![ImplId(0)]);
        g.add_edge(a, b);
        g.add_edge(a, b);
        let d = Dag::from_taskgraph(&g).unwrap();
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn from_taskgraph_detects_cycle() {
        use prfpga_model::ImplId;
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![ImplId(0)]);
        let b = g.add_task("b", vec![ImplId(0)]);
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(Dag::from_taskgraph(&g).is_err());
    }

    #[test]
    fn add_node_extends() {
        let mut d = diamond();
        let v = d.add_node();
        assert_eq!(v, 4);
        d.add_edge(3, v).unwrap();
        assert_eq!(d.sinks(), vec![4]);
    }

    #[test]
    fn empty_dag() {
        let d = Dag::with_nodes(0);
        assert!(d.is_empty());
        assert!(d.topo_order().is_empty());
        assert!(d.sources().is_empty());
    }

    #[test]
    fn rollback_restores_exact_graph() {
        let mut d = diamond();
        let base = d.clone();
        let cp = d.checkpoint();
        d.add_edge(0, 3).unwrap();
        d.add_edge(1, 2).unwrap();
        let v = d.add_node();
        d.add_edge(3, v).unwrap();
        assert_eq!(d.edge_count(), 7);
        d.rollback(cp);
        assert_eq!(d, base, "rollback must restore the checkpointed graph");
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 4);
        // The graph stays fully usable after rollback.
        d.add_edge(0, 3).unwrap();
        assert!(d.has_edge(0, 3));
    }

    #[test]
    fn rollback_is_repeatable_and_skips_duplicates() {
        let mut d = diamond();
        let cp = d.checkpoint();
        for _ in 0..3 {
            d.add_edge(0, 1).unwrap(); // duplicate: not journaled
            d.add_edge(0, 3).unwrap();
            assert_eq!(d.edge_count(), 5);
            d.rollback(cp);
            assert_eq!(d.edge_count(), 4);
            assert!(!d.has_edge(0, 3));
            assert!(d.has_edge(0, 1), "base edges survive rollback");
        }
        // Rolling back with nothing to unwind is a no-op.
        d.rollback(cp);
        assert_eq!(d, diamond());
    }

    #[test]
    fn rollback_equals_rebuild() {
        // A rolled-back DAG is indistinguishable from a freshly built one:
        // same adjacency, same topological order, same equality.
        let mut g = TaskGraph::new();
        use prfpga_model::ImplId;
        let ids: Vec<_> = (0..6)
            .map(|i| g.add_task(format!("t{i}"), vec![ImplId(0)]))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(ids[0], ids[3]);
        let mut d = Dag::from_taskgraph(&g).unwrap();
        let cp = d.checkpoint();
        d.add_edge(1, 4).unwrap();
        d.add_edge(2, 5).unwrap();
        d.rollback(cp);
        let fresh = Dag::from_taskgraph(&g).unwrap();
        assert_eq!(d, fresh);
        assert_eq!(d.topo_order(), fresh.topo_order());
    }

    #[test]
    fn version_tracks_structural_mutations_only() {
        let mut d = diamond();
        let v0 = d.version();
        d.add_edge(0, 1).unwrap(); // duplicate: structure untouched
        assert_eq!(d.version(), v0);
        assert!(d.add_edge(3, 0).is_err()); // rejected: structure untouched
        assert_eq!(d.version(), v0);
        let cp = d.checkpoint();
        d.rollback(cp); // nothing to unwind
        assert_eq!(d.version(), v0);

        d.add_edge(0, 3).unwrap();
        let v1 = d.version();
        assert_ne!(v1, v0);
        d.rollback(cp);
        assert_ne!(d.version(), v1, "rollback refreshes the version");
        assert_ne!(
            d.version(),
            v0,
            "restored content must not resurrect the old version"
        );
        assert_eq!(d, diamond(), "equality ignores the version");
        assert_ne!(
            Dag::with_nodes(2).version(),
            Dag::with_nodes(2).version(),
            "versions are globally unique across instances"
        );
    }

    #[test]
    fn retire_node_isolates_without_renumbering() {
        let mut d = diamond();
        let v0 = d.version();
        assert_eq!(d.retire_node(1), 2); // 0->1 and 1->3
        assert_ne!(d.version(), v0);
        assert_eq!(d.len(), 4, "no renumbering");
        assert_eq!(d.edge_count(), 2);
        assert!(d.preds(1).is_empty() && d.succs(1).is_empty());
        assert_eq!(d.succs(0), &[2]);
        assert_eq!(d.preds(3), &[2]);
        // The freed node is re-usable and retiring it again is a no-op.
        assert_eq!(d.retire_node(1), 0);
        d.add_edge(2, 1).unwrap();
        assert_eq!(d.preds(1), &[2]);
        // Topological order still covers every node.
        assert_eq!(d.topo_order().len(), 4);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn retirement_invalidates_earlier_checkpoints() {
        let mut d = diamond();
        let cp = d.checkpoint();
        d.retire_node(0);
        d.rollback(cp);
    }

    #[test]
    #[should_panic(expected = "prefix")]
    fn rollback_rejects_foreign_checkpoint() {
        let big = diamond();
        let cp = big.checkpoint();
        let mut small = Dag::with_nodes(2);
        small.rollback(cp);
    }

    #[test]
    fn topo_order_into_matches_allocating_variant() {
        let d = diamond();
        let mut scratch = TopoScratch::default();
        let mut order = vec![99; 10]; // stale content must be cleared
        d.topo_order_into(&mut scratch, &mut order);
        assert_eq!(order, d.topo_order());
        // Reuse across differently-sized graphs.
        let chain = {
            let mut c = Dag::with_nodes(6);
            for i in 0..5 {
                c.add_edge(i, i + 1).unwrap();
            }
            c
        };
        chain.topo_order_into(&mut scratch, &mut order);
        assert_eq!(order, chain.topo_order());
    }
}
