//! Reachability queries over a [`Dag`]: per-query DFS and a cached bitset
//! transitive closure ([`ReachIndex`]) for the schedulers' hot probe loop.

use std::cell::RefCell;
use std::fmt;

use crate::graph::{CycleError, Dag, NodeId};

/// Thread-local DFS buffers for [`is_reachable`]. The schedulers probe
/// reachability once per candidate (region, task) pair — by far the most
/// frequent DAG query — so the visited set uses epoch marks instead of a
/// fresh allocation (or an `O(V)` clear) per call.
#[derive(Default)]
struct ReachScratch {
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl ReachScratch {
    /// Starts a query over `n` nodes: bumps the epoch (an unmarked node is
    /// one whose mark differs from the current epoch) and sizes the
    /// buffers.
    fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old marks could alias the new epoch.
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.epoch = 1;
        }
        self.stack.clear();
    }
}

thread_local! {
    static REACH_SCRATCH: RefCell<ReachScratch> = RefCell::new(ReachScratch::default());
}

/// True when `to` is reachable from `from` by following arcs forward.
///
/// Iterative DFS; `O(V + E)` worst case, but sequencing-arc insertions in
/// the schedulers overwhelmingly probe short chains, so the early exit
/// dominates in practice. Allocation-free once the thread's scratch is
/// warm.
pub fn is_reachable(dag: &Dag, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    REACH_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.begin(dag.len());
        scratch.stack.push(from);
        scratch.mark[from as usize] = scratch.epoch;
        while let Some(v) = scratch.stack.pop() {
            for &s in dag.succs(v) {
                if s == to {
                    return true;
                }
                if scratch.mark[s as usize] != scratch.epoch {
                    scratch.mark[s as usize] = scratch.epoch;
                    scratch.stack.push(s);
                }
            }
        }
        false
    })
}

/// Shrinks the calling thread's DFS scratch to at most `n` nodes.
///
/// The scratch only ever grows with the largest graph a thread has queried;
/// after a 100k-task run a worker thread would otherwise pin hundreds of
/// kilobytes forever. The scheduler workspace calls this when it is
/// re-targeted at a different instance, bounding the retained capacity by
/// the *current* graph size instead of the historical maximum.
pub fn shrink_scratch_to(n: usize) {
    REACH_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.mark.truncate(n);
        scratch.mark.shrink_to(n);
        scratch.stack.clear();
        scratch.stack.shrink_to(n);
    });
}

/// Peak buffer capacity (in nodes) currently held by the calling thread's
/// DFS scratch — observable so tests can assert the bound
/// [`shrink_scratch_to`] enforces.
pub fn scratch_capacity() -> usize {
    REACH_SCRATCH.with(|cell| {
        let scratch = cell.borrow();
        scratch.mark.capacity().max(scratch.stack.capacity())
    })
}

/// All nodes reachable from `from` (excluding `from` itself unless it lies
/// on a cycle, which a [`Dag`] cannot contain).
pub fn descendants(dag: &Dag, from: NodeId) -> Vec<NodeId> {
    let mut visited = vec![false; dag.len()];
    let mut stack = vec![from];
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        for &s in dag.succs(v) {
            if !visited[s as usize] {
                visited[s as usize] = true;
                out.push(s);
                stack.push(s);
            }
        }
    }
    out.sort_unstable();
    out
}

/// All nodes that can reach `to`.
pub fn ancestors(dag: &Dag, to: NodeId) -> Vec<NodeId> {
    let mut visited = vec![false; dag.len()];
    let mut stack = vec![to];
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        for &p in dag.preds(v) {
            if !visited[p as usize] {
                visited[p as usize] = true;
                out.push(p);
                stack.push(p);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Cached bitset transitive closure over a [`Dag`].
///
/// One row of `n` bits per node, packed into 64-bit words: bit `u` of row
/// `v` is set iff `u` is a proper descendant of `v`. Built in one reverse
/// topological sweep (`row(v) = ⋃_{s ∈ succs(v)} row(s) ∪ {s}`), after
/// which every reachability probe is a single word load — the schedulers
/// probe once per (region, task) candidate pair, by far their most
/// frequent DAG query.
///
/// Staleness is tracked through [`Dag::version`]: the index records the
/// version it matches and [`ReachIndex::add_edge`] keeps it synchronized
/// through dynamic arc insertion (an ancestor-propagation worklist with
/// containment pruning), [`ReachIndex::add_node`] through node growth and
/// [`ReachIndex::retire_node`] through source retirement. Any other
/// mutation — rollback included — bumps the graph's version and the index
/// answers [`ReachIndex::is_current`] `false` until [`ReachIndex::sync`]
/// rebuilds it; the DFS [`is_reachable`] stays the always-correct
/// fallback and oracle.
#[derive(Clone, Default)]
pub struct ReachIndex {
    n: usize,
    /// 64-bit words per row.
    words: usize,
    /// `n * words` words, row-major by source node.
    bits: Vec<u64>,
    /// [`Dag::version`] the closure matches; 0 = never built.
    version: u64,
    /// Scratch row for [`ReachIndex::add_edge`]'s propagated delta.
    delta: Vec<u64>,
    stack: Vec<NodeId>,
    mark: Vec<u32>,
    epoch: u32,
}

impl ReachIndex {
    /// Memory ceiling for the closure bitset. `n` nodes cost `n²` bits
    /// (12.5 MB at 10k); above the ceiling ([`ReachIndex::fits`] false,
    /// around 46k nodes) callers fall back to DFS queries.
    pub const MAX_CLOSURE_BYTES: usize = 256 << 20;

    /// An empty index; sized by the first [`ReachIndex::sync`].
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a closure over `n` nodes stays within
    /// [`ReachIndex::MAX_CLOSURE_BYTES`].
    pub fn fits(n: usize) -> bool {
        (n as u128) * (n.div_ceil(64) as u128) * 8 <= Self::MAX_CLOSURE_BYTES as u128
    }

    /// True when the closure still describes `dag`.
    #[inline]
    pub fn is_current(&self, dag: &Dag) -> bool {
        self.version != 0 && self.version == dag.version()
    }

    /// Rebuilds the closure from `dag` unless already current. `topo` must
    /// be a topological order of `dag` (the scheduler workspace passes the
    /// base graph's [`Dag::topo_order`], taken once per base-graph rebuild).
    pub fn sync(&mut self, dag: &Dag, topo: &[NodeId]) {
        if self.is_current(dag) {
            return;
        }
        let n = dag.len();
        debug_assert_eq!(topo.len(), n, "topo order must cover the graph");
        self.n = n;
        self.words = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(n * self.words, 0);
        for &v in topo.iter().rev() {
            for &s in dag.succs(v) {
                or_row(&mut self.bits, self.words, s as usize, v as usize);
                set_bit(&mut self.bits, self.words, v as usize, s as usize);
            }
        }
        self.version = dag.version();
    }

    /// True when `to` is reachable from `from` — `O(1)`, equivalent to
    /// [`is_reachable`] on the graph the closure matches.
    #[inline]
    pub fn query(&self, from: NodeId, to: NodeId) -> bool {
        from == to
            || self.bits[from as usize * self.words + (to as usize >> 6)] >> (to as usize & 63) & 1
                == 1
    }

    /// The proper descendants of `v` in ascending id order: the set bits
    /// of its closure row, `O(n / 64 + |descendants|)`. Equal to
    /// [`descendants`] on the graph the closure matches.
    pub fn descendants(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let row = &self.bits[v as usize * self.words..(v as usize + 1) * self.words];
        row.iter().enumerate().flat_map(|(i, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some((i * 64 + bit) as NodeId)
            })
        })
    }

    /// [`Dag::add_node`] mirrored through the closure: appends an isolated
    /// node to `dag` and an empty row to the index, which stays current.
    /// When the node count crosses a multiple of 64 every row gains a
    /// word and is moved to the new stride in place, `O(n² / 64)` once
    /// per 64 nodes; otherwise the cost is one row. Panics when the index
    /// is stale.
    pub fn add_node(&mut self, dag: &mut Dag) -> NodeId {
        assert!(self.is_current(dag), "index stale for this graph");
        let v = dag.add_node();
        let (old, n) = (self.words, self.n + 1);
        let words = n.div_ceil(64);
        self.bits.resize(n * words, 0);
        if words != old {
            // Last row first: row `r` moves up to `r * words`, past the
            // end of every lower row still waiting at `r' * old`.
            for r in (0..self.n).rev() {
                self.bits.copy_within(r * old..(r + 1) * old, r * words);
                self.bits[r * words + old..(r + 1) * words].fill(0);
            }
        }
        self.n = n;
        self.words = words;
        self.version = dag.version();
        v
    }

    /// [`Dag::add_edge`] accelerated by the closure: the cycle probe is an
    /// `O(1)` bit test instead of a DFS, and on success the closure is
    /// patched incrementally so it stays current. Accept/reject behaviour
    /// is exactly [`Dag::add_edge`]'s.
    ///
    /// The patch seeds a worklist at `from` with the delta row
    /// `row(to) ∪ {to}` and propagates it to predecessors, pruning at any
    /// ancestor whose row already contains the delta (consistency makes
    /// ancestor rows supersets, so nothing above can change either).
    ///
    /// Panics when the index is not current for `dag`.
    pub fn add_edge(&mut self, dag: &mut Dag, from: NodeId, to: NodeId) -> Result<(), CycleError> {
        assert!(self.is_current(dag), "index stale for this graph");
        assert!(
            (from as usize) < dag.len() && (to as usize) < dag.len(),
            "node out of range"
        );
        if from == to {
            return Err(CycleError { from, to });
        }
        if dag.has_edge(from, to) {
            return Ok(());
        }
        if self.query(to, from) {
            return Err(CycleError { from, to });
        }
        dag.insert_edge_acyclic(from, to);

        let ReachIndex {
            words,
            bits,
            delta,
            stack,
            mark,
            epoch,
            n,
            ..
        } = self;
        let w = *words;
        delta.clear();
        delta.extend_from_slice(&bits[to as usize * w..(to as usize + 1) * w]);
        delta[to as usize >> 6] |= 1u64 << (to as usize & 63);

        if mark.len() < *n {
            mark.resize(*n, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            mark.iter_mut().for_each(|m| *m = 0);
            *epoch = 1;
        }
        stack.clear();
        stack.push(from);
        mark[from as usize] = *epoch;
        while let Some(a) = stack.pop() {
            let row = &mut bits[a as usize * w..(a as usize + 1) * w];
            let mut changed = false;
            for (r, &d) in row.iter_mut().zip(delta.iter()) {
                changed |= (*r | d) != *r;
                *r |= d;
            }
            if changed {
                for &p in dag.preds(a) {
                    if mark[p as usize] != *epoch {
                        mark[p as usize] = *epoch;
                        stack.push(p);
                    }
                }
            }
        }
        self.version = dag.version();
        Ok(())
    }

    /// [`Dag::retire_node`] mirrored through the closure: performs the
    /// retirement on `dag` and patches the index in `O(n / 64)` — no full
    /// re-sync — so a stream of `Finish` events costs one row clear each
    /// instead of an `O(n·E)` closure rebuild.
    ///
    /// Requires `v` to have **no ancestors** (every predecessor already
    /// retired), which is exactly the order tasks finish in: then no
    /// surviving path routes *through* `v`, so the closure update is
    /// precisely "clear row `v`" — every other row already omits `v` (bit
    /// columns for `v` are clear because nothing reaches it) and loses no
    /// other descendant. Panics when the index is stale or `v` still has
    /// predecessors.
    pub fn retire_node(&mut self, dag: &mut Dag, v: NodeId) -> usize {
        assert!(self.is_current(dag), "index stale for this graph");
        assert!((v as usize) < dag.len(), "node out of range");
        assert!(
            dag.preds(v).is_empty(),
            "retire_node requires a source node (all predecessors retired first)"
        );
        debug_assert!(
            (0..self.n as NodeId).all(|a| a == v || !self.query(a, v)),
            "closure says a live ancestor reaches the retiring node"
        );
        let removed = dag.retire_node(v);
        let row = v as usize * self.words;
        self.bits[row..row + self.words].fill(0);
        self.version = dag.version();
        removed
    }
}

impl fmt::Debug for ReachIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReachIndex")
            .field("nodes", &self.n)
            .field("version", &self.version)
            .finish()
    }
}

/// `row(dst) |= row(src)` over packed rows of `words` words each.
fn or_row(bits: &mut [u64], words: usize, src: usize, dst: usize) {
    debug_assert_ne!(src, dst);
    let (s0, d0) = (src * words, dst * words);
    if s0 < d0 {
        let (a, b) = bits.split_at_mut(d0);
        let (src_row, dst_row) = (&a[s0..s0 + words], &mut b[..words]);
        for (d, &s) in dst_row.iter_mut().zip(src_row) {
            *d |= s;
        }
    } else {
        let (a, b) = bits.split_at_mut(s0);
        let (dst_row, src_row) = (&mut a[d0..d0 + words], &b[..words]);
        for (d, &s) in dst_row.iter_mut().zip(src_row) {
            *d |= s;
        }
    }
}

#[inline]
fn set_bit(bits: &mut [u64], words: usize, row: usize, bit: usize) {
    bits[row * words + (bit >> 6)] |= 1u64 << (bit & 63);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain5() -> Dag {
        let mut d = Dag::with_nodes(5);
        for i in 0..4 {
            d.add_edge(i, i + 1).unwrap();
        }
        d
    }

    #[test]
    fn reachability_on_chain() {
        let d = chain5();
        assert!(is_reachable(&d, 0, 4));
        assert!(is_reachable(&d, 2, 2));
        assert!(!is_reachable(&d, 4, 0));
        assert!(!is_reachable(&d, 3, 1));
    }

    #[test]
    fn descendants_and_ancestors() {
        let d = chain5();
        assert_eq!(descendants(&d, 2), vec![3, 4]);
        assert_eq!(ancestors(&d, 2), vec![0, 1]);
        assert_eq!(descendants(&d, 4), Vec::<NodeId>::new());
        assert_eq!(ancestors(&d, 0), Vec::<NodeId>::new());
    }

    #[test]
    fn disconnected_nodes() {
        let mut d = Dag::with_nodes(3);
        d.add_edge(0, 1).unwrap();
        assert!(!is_reachable(&d, 0, 2));
        assert!(!is_reachable(&d, 2, 0));
        assert_eq!(descendants(&d, 2), Vec::<NodeId>::new());
    }

    /// All-pairs agreement between the closure and the DFS oracle.
    fn assert_index_matches_dfs(index: &ReachIndex, dag: &Dag) {
        for a in 0..dag.len() as NodeId {
            for b in 0..dag.len() as NodeId {
                assert_eq!(
                    index.query(a, b),
                    is_reachable(dag, a, b),
                    "query({a}, {b}) disagrees with DFS"
                );
            }
        }
    }

    #[test]
    fn index_matches_dfs_after_build() {
        let mut d = Dag::with_nodes(6);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5)] {
            d.add_edge(a, b).unwrap();
        }
        let mut index = ReachIndex::new();
        index.sync(&d, &d.topo_order());
        assert!(index.is_current(&d));
        assert_index_matches_dfs(&index, &d);
    }

    #[test]
    fn index_add_edge_mirrors_dag_semantics() {
        let mut d = Dag::with_nodes(5);
        d.add_edge(0, 1).unwrap();
        d.add_edge(2, 3).unwrap();
        let mut index = ReachIndex::new();
        index.sync(&d, &d.topo_order());

        // Accepted arc: closure patched incrementally, stays current.
        index.add_edge(&mut d, 1, 2).unwrap();
        assert!(index.is_current(&d));
        assert_index_matches_dfs(&index, &d);

        // Duplicate: Ok, no structural change.
        let v = d.version();
        index.add_edge(&mut d, 1, 2).unwrap();
        assert_eq!(d.version(), v);

        // Self-loop and cycle: rejected exactly like `Dag::add_edge`.
        assert_eq!(
            index.add_edge(&mut d, 2, 2),
            Err(CycleError { from: 2, to: 2 })
        );
        assert_eq!(
            index.add_edge(&mut d, 3, 0),
            Err(CycleError { from: 3, to: 0 })
        );
        assert!(index.is_current(&d), "rejections leave both in sync");
        assert_index_matches_dfs(&index, &d);

        // Long-range arc into a hub: every ancestor row must pick it up.
        index.add_edge(&mut d, 0, 4).unwrap();
        index.add_edge(&mut d, 4, 3).unwrap();
        assert_index_matches_dfs(&index, &d);
    }

    #[test]
    fn index_goes_stale_on_rollback_and_resyncs() {
        let mut d = chain5();
        let cp = d.checkpoint();
        let mut index = ReachIndex::new();
        index.sync(&d, &d.topo_order());
        index.add_edge(&mut d, 0, 4).unwrap();
        d.rollback(cp);
        assert!(!index.is_current(&d), "rollback invalidates the closure");
        index.sync(&d, &d.topo_order());
        assert!(index.is_current(&d));
        assert_index_matches_dfs(&index, &d);
    }

    #[test]
    fn index_retire_node_stays_current_without_resync() {
        let mut d = Dag::with_nodes(6);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)] {
            d.add_edge(a, b).unwrap();
        }
        let mut index = ReachIndex::new();
        index.sync(&d, &d.topo_order());

        // Retire in a finish order (sources first); after each step the
        // closure must still agree with the DFS oracle on the mutated
        // graph *without* any re-sync — the staleness fix under test.
        for v in [0, 1, 2, 3] {
            let removed = index.retire_node(&mut d, v);
            assert!(removed > 0, "node {v} had live out-arcs");
            assert!(
                index.is_current(&d),
                "retire_node({v}) must leave the closure current"
            );
            assert_index_matches_dfs(&index, &d);
        }
        // Retired nodes answer like isolated vertices.
        assert!(!index.query(0, 4));
        assert!(index.query(0, 0));
        // The graph stays usable through the index afterwards.
        index.add_edge(&mut d, 4, 5).unwrap();
        assert_index_matches_dfs(&index, &d);
    }

    #[test]
    #[should_panic(expected = "source node")]
    fn index_retire_node_rejects_live_ancestors() {
        let mut d = chain5();
        let mut index = ReachIndex::new();
        index.sync(&d, &d.topo_order());
        index.retire_node(&mut d, 2); // 1 -> 2 still live
    }

    #[test]
    fn fits_gates_on_quadratic_memory() {
        assert!(ReachIndex::fits(0));
        assert!(ReachIndex::fits(10_000));
        assert!(!ReachIndex::fits(100_000));
        assert!(!ReachIndex::fits(usize::MAX >> 8), "no overflow");
    }

    #[test]
    fn scratch_shrinks_to_requested_bound() {
        // Grow the thread scratch with a large-graph query...
        let mut big = Dag::with_nodes(4096);
        for i in 0..4095 {
            big.add_edge(i, i + 1).unwrap();
        }
        assert!(is_reachable(&big, 0, 4095));
        assert!(scratch_capacity() >= 4096);
        // ...then shrink to a small instance's size: the retained capacity
        // is bounded by the request, not the historical maximum.
        shrink_scratch_to(64);
        assert!(scratch_capacity() <= 4096 / 2, "capacity must shrink");
        // The scratch stays fully usable and regrows on demand.
        assert!(is_reachable(&big, 1, 4095));
        assert!(!is_reachable(&big, 4095, 0));
    }
}
