//! Critical Path Method over a [`Dag`].
//!
//! Implements §V-B: given the DAG and the execution time selected for each
//! node, compute for every node the window `w_t = [T_MIN_t, T_MAX_t]` where
//! `T_MIN` is the earliest start and `T_MAX` the latest completion that does
//! not delay the schedule, the overall makespan (length of the critical
//! path), and the critical flag (zero slack).

use prfpga_model::{Time, TimeWindow};

use crate::graph::{Dag, NodeId, TopoScratch};

/// Reusable buffers for [`CpmAnalysis::recompute`] and the incremental
/// updates ([`CpmAnalysis::apply_arc`], [`CpmAnalysis::apply_duration`]).
///
/// The schedulers re-run CPM after every duration or dependency mutation —
/// the single hottest path of the whole pipeline. One warm scratch makes
/// each recomputation allocation-free, and it carries the topological
/// order the incremental updates propagate along, repaired in place when
/// an inserted arc runs against it. A scratch is paired with the analysis
/// it last recomputed: the incremental methods require that the same
/// scratch was used for the previous `recompute`/`apply_*` call on the
/// same analysis.
#[derive(Debug, Clone, Default)]
pub struct CpmScratch {
    topo: TopoScratch,
    order: Vec<NodeId>,
    t_min: Vec<Time>,
    t_max: Vec<Time>,
    /// `pos[v]` = index of `v` in `order`; valid alongside `order`.
    pos: Vec<usize>,
    /// Worklist of the incremental passes: bit `i` is set iff the node at
    /// topological position `i` is queued. Every pass drains it, so it is
    /// all zero between passes.
    queued: Vec<u64>,
    /// Nodes whose window changed; their critical flags need refreshing.
    dirty: Vec<NodeId>,
    /// Order repair ([`CpmScratch::reorder`]): the nodes found by the
    /// forward and the backward search, their visited marks (all false
    /// between repairs), the search stack and the freed positions.
    forward: Vec<NodeId>,
    backward: Vec<NodeId>,
    seen: Vec<bool>,
    stack: Vec<NodeId>,
    slots: Vec<usize>,
}

impl CpmScratch {
    /// Restores a topological `order` after the arc `from -> to` was
    /// inserted against it (`pos[from] > pos[to]`), by the algorithm of
    /// Pearce and Kelly ("A dynamic topological sort algorithm for
    /// directed acyclic graphs", JEA 2006). Only the nodes that must move
    /// are touched: those reachable from `to` and placed before `from`
    /// (the forward set), and those reaching `from` and placed after `to`
    /// (the backward set). The union of their positions is handed out in
    /// ascending order, first to the backward set and then to the forward
    /// set, each kept in its old relative order. Every other position
    /// keeps its node.
    fn reorder(&mut self, dag: &Dag, from: NodeId, to: NodeId) {
        let (lo, hi) = (self.pos[to as usize], self.pos[from as usize]);
        debug_assert!(lo < hi, "the arc already points forward");
        self.seen.resize(dag.len(), false);
        let pos = &self.pos;
        let seen = &mut self.seen;
        let stack = &mut self.stack;
        // Forward search: everything `to` reaches before `from`'s slot.
        // It cannot reach `from` itself, which would close a cycle.
        self.forward.clear();
        seen[to as usize] = true;
        stack.push(to);
        while let Some(v) = stack.pop() {
            self.forward.push(v);
            for &w in dag.succs(v) {
                if pos[w as usize] < hi && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        // Backward search: everything reaching `from` after `to`'s slot.
        self.backward.clear();
        seen[from as usize] = true;
        stack.push(from);
        while let Some(v) = stack.pop() {
            self.backward.push(v);
            for &w in dag.preds(v) {
                if pos[w as usize] > lo && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        self.forward.sort_unstable_by_key(|&v| pos[v as usize]);
        self.backward.sort_unstable_by_key(|&v| pos[v as usize]);
        self.slots.clear();
        self.slots.extend(
            self.backward
                .iter()
                .chain(&self.forward)
                .map(|&v| pos[v as usize]),
        );
        self.slots.sort_unstable();
        for (&v, &p) in self.backward.iter().chain(&self.forward).zip(&self.slots) {
            self.order[p] = v;
            self.pos[v as usize] = p;
            self.seen[v as usize] = false;
        }
    }

    /// Sizes the worklist for `n` positions (it is all zero, so
    /// truncating is as safe as growing) and queues `seeds`.
    fn queue_seeds(&mut self, n: usize, seeds: impl IntoIterator<Item = NodeId>) {
        self.queued.resize(n.div_ceil(64), 0);
        for s in seeds {
            self.queue(s);
        }
    }

    /// Queues node `v` (a no-op when it already is).
    #[inline]
    fn queue(&mut self, v: NodeId) {
        let p = self.pos[v as usize];
        self.queued[p >> 6] |= 1u64 << (p & 63);
    }

    /// Dequeues the lowest queued position, scanning up from word
    /// `cursor`. Sound because a forward pass only queues successors,
    /// which sit after the node being processed.
    fn pop_lowest(&mut self, cursor: &mut usize) -> Option<NodeId> {
        while let Some(w) = self.queued.get_mut(*cursor) {
            if *w != 0 {
                let p = (*cursor << 6) | w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.order[p]);
            }
            *cursor += 1;
        }
        None
    }

    /// Dequeues the highest queued position, scanning down from word
    /// `cursor`. Sound because a backward pass only queues predecessors,
    /// which sit before the node being processed.
    fn pop_highest(&mut self, cursor: &mut usize) -> Option<NodeId> {
        while let Some(w) = self.queued.get_mut(*cursor) {
            if *w != 0 {
                let b = 63 - w.leading_zeros() as usize;
                *w &= !(1u64 << b);
                return Some(self.order[(*cursor << 6) | b]);
            }
            *cursor = cursor.checked_sub(1)?;
        }
        None
    }
}

/// Result of a CPM pass.
///
/// ```
/// use prfpga_dag::{CpmAnalysis, Dag};
///
/// // 0 -> 1 -> 2 with durations 5, 3, 2: makespan 10, all critical.
/// let mut dag = Dag::with_nodes(3);
/// dag.add_edge(0, 1).unwrap();
/// dag.add_edge(1, 2).unwrap();
/// let cpm = CpmAnalysis::run(&dag, &[5, 3, 2]);
/// assert_eq!(cpm.makespan, 10);
/// assert_eq!(cpm.windows[1].min, 5);
/// assert!(cpm.critical.iter().all(|&c| c));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpmAnalysis {
    /// Per-node execution window `[T_MIN, T_MAX]`.
    pub windows: Vec<TimeWindow>,
    /// Length of the critical path (the ideal unlimited-resource makespan).
    pub makespan: Time,
    /// `critical[v]` iff node `v` has zero slack.
    pub critical: Vec<bool>,
}

impl CpmAnalysis {
    /// Runs CPM assuming every node may start at tick 0.
    pub fn run(dag: &Dag, durations: &[Time]) -> CpmAnalysis {
        Self::run_with_release(dag, durations, None)
    }

    /// Runs CPM with optional per-node release times (lower bounds on the
    /// start tick). Schedulers use release times to model decisions already
    /// fixed: a task whose start has been committed gets its start as
    /// release, and the windows of everything downstream follow.
    pub fn run_with_release(
        dag: &Dag,
        durations: &[Time],
        release: Option<&[Time]>,
    ) -> CpmAnalysis {
        let mut out = CpmAnalysis::default();
        let mut scratch = CpmScratch::default();
        out.recompute(dag, durations, release, &mut scratch);
        out
    }

    /// [`CpmAnalysis::run_with_release`] into `self`, reusing both this
    /// analysis' buffers and the caller-owned `scratch` — no allocation
    /// once the buffers are warm, byte-identical results.
    pub fn recompute(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        release: Option<&[Time]>,
        scratch: &mut CpmScratch,
    ) {
        dag.topo_order_into(&mut scratch.topo, &mut scratch.order);
        let n = dag.len();
        assert_eq!(durations.len(), n, "one duration per node required");
        if let Some(r) = release {
            assert_eq!(r.len(), n, "one release time per node required");
        }
        let CpmScratch {
            order,
            t_min,
            t_max,
            pos,
            ..
        } = scratch;
        pos.clear();
        pos.resize(n, 0);
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }

        // Forward pass: earliest start.
        t_min.clear();
        t_min.resize(n, 0);
        for &v in order.iter() {
            let mut es = release.map_or(0, |r| r[v as usize]);
            for &p in dag.preds(v) {
                es = es.max(t_min[p as usize] + durations[p as usize]);
            }
            t_min[v as usize] = es;
        }
        let makespan = (0..n).map(|v| t_min[v] + durations[v]).max().unwrap_or(0);

        // Backward pass: latest completion.
        t_max.clear();
        t_max.resize(n, makespan);
        for &v in order.iter().rev() {
            let mut lc = makespan;
            for &s in dag.succs(v) {
                lc = lc.min(t_max[s as usize] - durations[s as usize]);
            }
            t_max[v as usize] = lc;
        }

        self.windows.clear();
        self.windows.reserve(n);
        self.critical.clear();
        self.critical.reserve(n);
        for v in 0..n {
            self.windows.push(TimeWindow::new(t_min[v], t_max[v]));
            self.critical.push(t_max[v] - t_min[v] == durations[v]);
        }
        self.makespan = makespan;
    }

    /// Incremental update after `dag.add_edge(from, to)` succeeded: the
    /// earliest starts downstream of `to` and the latest completions
    /// upstream of `from` are re-propagated along the cached topological
    /// order, touching only the nodes whose values actually move. An arc
    /// that runs against the cached order first repairs it in place
    /// (see [`CpmScratch`]), moving only nodes between the arc's ends.
    ///
    /// `scratch` must be the one used for the previous
    /// `recompute`/`apply_*` call on this analysis, with `dag` unchanged
    /// since except for arcs already applied through this method (and arc
    /// removals via rollback, which never invalidate the order); a scratch
    /// sized for another graph gets a full [`CpmAnalysis::recompute`].
    /// Results are byte-identical to a full recompute — earliest/latest
    /// times are the unique fixed point of the window equations.
    pub fn apply_arc(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        from: NodeId,
        to: NodeId,
        scratch: &mut CpmScratch,
    ) {
        let n = dag.len();
        if scratch.order.len() != n || self.windows.len() != n {
            self.recompute(dag, durations, None, scratch);
            return;
        }
        if scratch.pos[from as usize] > scratch.pos[to as usize] {
            scratch.reorder(dag, from, to);
        }
        debug_assert!(order_is_valid(dag, &scratch.pos));
        scratch.dirty.clear();
        if self.propagate_forward(dag, durations, [to], scratch) {
            self.raise_makespan(durations, scratch);
        } else if self.rescan_makespan(durations, dag, scratch) {
            return;
        }
        self.propagate_backward(dag, durations, [from], scratch);
        self.refresh_dirty_critical(durations, scratch);
    }

    /// Incremental update after `durations[v]` changed from `old` (in
    /// either direction): earliest starts are re-propagated from `v`'s
    /// successors and latest completions from its predecessors. Same
    /// scratch-pairing contract and byte-identity guarantee as
    /// [`CpmAnalysis::apply_arc`]; the cached order is always still valid
    /// here since the graph itself did not change.
    pub fn apply_duration(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        v: NodeId,
        old: Time,
        scratch: &mut CpmScratch,
    ) {
        let n = dag.len();
        if scratch.order.len() != n || self.windows.len() != n {
            self.recompute(dag, durations, None, scratch);
            return;
        }
        debug_assert!(order_is_valid(dag, &scratch.pos));
        scratch.dirty.clear();
        scratch.dirty.push(v); // own slack uses the new duration
        let later = self.propagate_forward(dag, durations, dag.succs(v).iter().copied(), scratch);
        if later && durations[v as usize] >= old {
            self.raise_makespan(durations, scratch);
        } else if self.rescan_makespan(durations, dag, scratch) {
            return;
        }
        self.propagate_backward(dag, durations, dag.preds(v).iter().copied(), scratch);
        self.refresh_dirty_critical(durations, scratch);
    }

    /// Worklist pass in ascending topological position: each popped node
    /// gets its earliest start recomputed exactly from its predecessors
    /// (all of which are already final), propagating to successors only on
    /// change. Returns `true` when no earliest start moved earlier — always
    /// the case after an arc insertion or a longer duration on an analysis
    /// that was the fixed point of the graph before the change.
    fn propagate_forward(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        seeds: impl IntoIterator<Item = NodeId>,
        scratch: &mut CpmScratch,
    ) -> bool {
        scratch.queue_seeds(dag.len(), seeds);
        let mut only_later = true;
        let mut cursor = 0;
        while let Some(x) = scratch.pop_lowest(&mut cursor) {
            let es = dag
                .preds(x)
                .iter()
                .map(|&p| self.windows[p as usize].min + durations[p as usize])
                .max()
                .unwrap_or(0);
            if es != self.windows[x as usize].min {
                only_later &= es > self.windows[x as usize].min;
                self.windows[x as usize].min = es;
                scratch.dirty.push(x);
                for &s in dag.succs(x) {
                    scratch.queue(s);
                }
            }
        }
        only_later
    }

    /// Worklist pass in descending topological position: each popped node
    /// gets its latest completion recomputed exactly from its successors,
    /// propagating to predecessors only on change. Only valid while the
    /// makespan is unchanged.
    fn propagate_backward(
        &mut self,
        dag: &Dag,
        durations: &[Time],
        seeds: impl IntoIterator<Item = NodeId>,
        scratch: &mut CpmScratch,
    ) {
        scratch.queue_seeds(dag.len(), seeds);
        let mut cursor = scratch.queued.len().saturating_sub(1);
        while let Some(x) = scratch.pop_highest(&mut cursor) {
            let lc = dag
                .succs(x)
                .iter()
                .map(|&s| self.windows[s as usize].max - durations[s as usize])
                .min()
                .unwrap_or(self.makespan);
            if lc != self.windows[x as usize].max {
                self.windows[x as usize].max = lc;
                scratch.dirty.push(x);
                for &p in dag.preds(x) {
                    scratch.queue(p);
                }
            }
        }
    }

    /// Updates the makespan after a forward pass in which no end moved
    /// earlier (an arc insertion or a longer duration): the new makespan
    /// is the larger of the old one and the moved nodes' ends, since the
    /// old one is the largest end before the change. When it grows, every
    /// latest completion grows with it: a node whose longest path to a
    /// sink did not change keeps `T_MAX = makespan - tail`, and the seeded
    /// backward pass that follows corrects the rest. Every critical flag
    /// is refreshed with the shift, since slack grew everywhere.
    fn raise_makespan(&mut self, durations: &[Time], scratch: &CpmScratch) {
        let makespan = scratch
            .dirty
            .iter()
            .map(|&x| self.windows[x as usize].min + durations[x as usize])
            .fold(self.makespan, Time::max);
        let growth = makespan - self.makespan;
        if growth == 0 {
            return;
        }
        self.makespan = makespan;
        for (v, w) in self.windows.iter_mut().enumerate() {
            w.max += growth;
            self.critical[v] = w.max - w.min == durations[v];
        }
    }

    /// Rescans the makespan after a forward pass that may have moved ends
    /// earlier: a shorter duration, or an earliest start that moved
    /// earlier because the analysis was not the fixed point of the graph
    /// (the repair engine drops a retired node's arcs without an update).
    /// On change, the horizon every slack-free latest completion is
    /// clamped to moves, so the whole backward half is redone along the
    /// cached order (and every critical flag with it); returns `true` in
    /// that case.
    fn rescan_makespan(&mut self, durations: &[Time], dag: &Dag, scratch: &mut CpmScratch) -> bool {
        let n = dag.len();
        let makespan = (0..n)
            .map(|v| self.windows[v].min + durations[v])
            .max()
            .unwrap_or(0);
        if makespan == self.makespan {
            return false;
        }
        self.makespan = makespan;
        for &x in scratch.order.iter().rev() {
            let lc = dag
                .succs(x)
                .iter()
                .map(|&s| self.windows[s as usize].max - durations[s as usize])
                .min()
                .unwrap_or(makespan);
            self.windows[x as usize].max = lc;
        }
        for (v, w) in self.windows.iter().enumerate() {
            self.critical[v] = w.max - w.min == durations[v];
        }
        true
    }

    /// Refreshes the critical flag of every node whose window (or own
    /// duration) changed during the incremental passes.
    fn refresh_dirty_critical(&mut self, durations: &[Time], scratch: &mut CpmScratch) {
        for &x in &scratch.dirty {
            let w = self.windows[x as usize];
            self.critical[x as usize] = w.max - w.min == durations[x as usize];
        }
    }

    /// Extracts one critical path (source to sink through zero-slack nodes),
    /// deterministically preferring smaller node ids.
    pub fn critical_path(&self, dag: &Dag, durations: &[Time]) -> Vec<NodeId> {
        let n = dag.len();
        if n == 0 {
            return Vec::new();
        }
        // Start at the critical source with T_MIN == 0.
        let mut cur = match (0..n as NodeId)
            .filter(|&v| {
                self.critical[v as usize]
                    && self.windows[v as usize].min == 0
                    && dag.preds(v).iter().all(|&p| {
                        !self.critical[p as usize]
                            || self.windows[p as usize].min + durations[p as usize]
                                != self.windows[v as usize].min
                    })
            })
            .min()
        {
            Some(v) => v,
            None => return Vec::new(),
        };
        let mut path = vec![cur];
        loop {
            let end = self.windows[cur as usize].min + durations[cur as usize];
            let next = dag
                .succs(cur)
                .iter()
                .copied()
                .filter(|&s| self.critical[s as usize] && self.windows[s as usize].min == end)
                .min();
            match next {
                Some(s) => {
                    path.push(s);
                    cur = s;
                }
                None => break,
            }
        }
        path
    }
}

/// True when `pos` topologically orders every arc of `dag` (debug check
/// for the incremental updates' order-validity contract).
fn order_is_valid(dag: &Dag, pos: &[usize]) -> bool {
    (0..dag.len() as NodeId).all(|v| {
        dag.succs(v)
            .iter()
            .all(|&s| pos[v as usize] < pos[s as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond: 0 -> {1, 2} -> 3, durations 2, 5, 3, 1.
    fn diamond() -> (Dag, Vec<Time>) {
        let mut d = Dag::with_nodes(4);
        d.add_edge(0, 1).unwrap();
        d.add_edge(0, 2).unwrap();
        d.add_edge(1, 3).unwrap();
        d.add_edge(2, 3).unwrap();
        (d, vec![2, 5, 3, 1])
    }

    #[test]
    fn diamond_windows() {
        let (d, dur) = diamond();
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 8); // 2 + 5 + 1
        assert_eq!(cpm.windows[0], TimeWindow::new(0, 2));
        assert_eq!(cpm.windows[1], TimeWindow::new(2, 7));
        assert_eq!(cpm.windows[2], TimeWindow::new(2, 7));
        assert_eq!(cpm.windows[3], TimeWindow::new(7, 8));
        assert_eq!(cpm.critical, vec![true, true, false, true]);
    }

    #[test]
    fn diamond_critical_path() {
        let (d, dur) = diamond();
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.critical_path(&d, &dur), vec![0, 1, 3]);
    }

    #[test]
    fn release_times_shift_windows() {
        let (d, dur) = diamond();
        let release = vec![0, 10, 0, 0];
        let cpm = CpmAnalysis::run_with_release(&d, &dur, Some(&release));
        assert_eq!(cpm.makespan, 16); // node 1 starts at 10, ends 15, node 3 ends 16
        assert_eq!(cpm.windows[1].min, 10);
        assert_eq!(cpm.windows[3].min, 15);
        // Node 2's latest completion stretches with the new horizon.
        assert_eq!(cpm.windows[2].max, 15);
    }

    #[test]
    fn independent_nodes_all_critical_iff_longest() {
        let mut d = Dag::with_nodes(3);
        let _ = &mut d; // no edges
        let dur = vec![5, 9, 9];
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 9);
        assert_eq!(cpm.critical, vec![false, true, true]);
        assert_eq!(cpm.windows[0], TimeWindow::new(0, 9));
    }

    #[test]
    fn zero_duration_nodes() {
        let mut d = Dag::with_nodes(2);
        d.add_edge(0, 1).unwrap();
        let dur = vec![0, 0];
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 0);
        assert!(cpm.critical.iter().all(|&c| c));
    }

    #[test]
    fn empty_graph() {
        let d = Dag::with_nodes(0);
        let cpm = CpmAnalysis::run(&d, &[]);
        assert_eq!(cpm.makespan, 0);
        assert!(cpm.windows.is_empty());
    }

    #[test]
    fn recompute_matches_run_across_reuses() {
        // One scratch + one analysis reused across graphs of different
        // sizes and shapes must reproduce `run_with_release` exactly.
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        let (d1, dur1) = diamond();
        let release = vec![0, 10, 0, 0];
        let cases: Vec<(Dag, Vec<Time>, Option<Vec<Time>>)> = vec![
            (d1.clone(), dur1.clone(), None),
            (d1, dur1, Some(release)),
            (Dag::with_nodes(0), vec![], None),
            (
                {
                    let mut c = Dag::with_nodes(6);
                    for i in 0..5 {
                        c.add_edge(i, i + 1).unwrap();
                    }
                    c
                },
                vec![1, 2, 3, 4, 5, 6],
                None,
            ),
        ];
        for (dag, dur, rel) in cases {
            cpm.recompute(&dag, &dur, rel.as_deref(), &mut scratch);
            assert_eq!(
                cpm,
                CpmAnalysis::run_with_release(&dag, &dur, rel.as_deref())
            );
        }
    }

    #[test]
    fn apply_arc_matches_full_recompute() {
        // Start from two parallel chains 0->1 and 2->3, then cross-link
        // them arc by arc; after every insertion the incremental analysis
        // must equal a from-scratch run.
        let mut dag = Dag::with_nodes(6);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(2, 3).unwrap();
        let durations = vec![4, 2, 7, 1, 3, 5];
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        for (u, v) in [(1, 3), (0, 2), (3, 4), (4, 5), (1, 5)] {
            dag.add_edge(u, v).unwrap();
            cpm.apply_arc(&dag, &durations, u, v, &mut scratch);
            assert_eq!(
                cpm,
                CpmAnalysis::run(&dag, &durations),
                "after arc {u}->{v}"
            );
        }
    }

    #[test]
    fn apply_arc_against_the_order_repairs_it() {
        // Kahn orders 0..6 by id. The arc 4 -> 1 runs against it: the
        // forward set {1, 2} (what 1 reaches before 4's slot) and the
        // backward set {3, 4} (what reaches 4 after 1's slot) trade the
        // slots 1..=4, the backward set first. Slots 0 and 5 keep their
        // nodes.
        let mut dag = Dag::with_nodes(6);
        dag.add_edge(1, 2).unwrap();
        dag.add_edge(3, 4).unwrap();
        let durations = vec![5, 3, 2, 4, 1, 6];
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        assert_eq!(scratch.order, [0, 1, 2, 3, 4, 5]);
        dag.add_edge(4, 1).unwrap();
        cpm.apply_arc(&dag, &durations, 4, 1, &mut scratch);
        assert_eq!(scratch.order, [0, 3, 4, 1, 2, 5]);
        assert_eq!(scratch.pos, [0, 3, 4, 1, 2, 5]);
        assert_eq!(cpm, CpmAnalysis::run(&dag, &durations));
    }

    /// Random acyclic graphs of 65..=200 nodes (the worklist spans two to
    /// four words) with ids shuffled against topological direction, then
    /// arcs drawn against the current order. After every insertion the
    /// order must be a permutation that orders every arc of the graph,
    /// only the slots between the arc's ends may change hands, and the
    /// analysis must equal a full run.
    #[test]
    fn order_repair_keeps_a_topological_order() {
        use rand::{RngExt, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut repairs = 0;
        for seed in 0..24u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.random_range(65..=200usize);
            let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.random_range(0..=i));
            }
            let mut dag = Dag::with_nodes(n);
            for _ in 0..n {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                if a < b {
                    dag.add_edge(ids[a], ids[b]).unwrap();
                }
            }
            let durations: Vec<Time> = (0..n).map(|_| rng.random_range(0..100)).collect();
            let mut scratch = CpmScratch::default();
            let mut cpm = CpmAnalysis::default();
            cpm.recompute(&dag, &durations, None, &mut scratch);
            for _ in 0..3 * n {
                let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
                let (lo, hi) = (i.min(j), i.max(j));
                let (from, to) = (scratch.order[hi], scratch.order[lo]);
                if lo == hi || dag.add_edge(from, to).is_err() {
                    continue;
                }
                let before = scratch.order.clone();
                cpm.apply_arc(&dag, &durations, from, to, &mut scratch);
                repairs += 1;

                let mut sorted = scratch.order.clone();
                sorted.sort_unstable();
                assert!(
                    sorted.iter().copied().eq(0..n as NodeId),
                    "not a permutation"
                );
                for (p, &v) in scratch.order.iter().enumerate() {
                    assert_eq!(scratch.pos[v as usize], p, "pos out of step");
                }
                for v in 0..n as NodeId {
                    for &s in dag.succs(v) {
                        assert!(
                            scratch.pos[v as usize] < scratch.pos[s as usize],
                            "arc {v} -> {s} points backward"
                        );
                    }
                }
                for p in (0..lo).chain(hi + 1..n) {
                    assert_eq!(scratch.order[p], before[p], "slot {p} moved");
                }
                assert_eq!(cpm, CpmAnalysis::run(&dag, &durations));
            }
        }
        assert!(repairs > 1000, "only {repairs} arcs ran against the order");
    }

    #[test]
    fn apply_duration_matches_full_recompute() {
        // Diamond with duration changes in both directions, including ones
        // that raise and then lower the makespan.
        let (dag, mut durations) = diamond();
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        for (v, d) in [(2usize, 50), (1, 1), (2, 3), (0, 9), (3, 0)] {
            let old = std::mem::replace(&mut durations[v], d);
            cpm.apply_duration(&dag, &durations, v as NodeId, old, &mut scratch);
            assert_eq!(
                cpm,
                CpmAnalysis::run(&dag, &durations),
                "after durations[{v}] = {d}"
            );
        }
    }

    #[test]
    fn earlier_starts_rescan_the_makespan() {
        // 0 -> 1 -> 2 and 3 -> 1; node 0 (10 ticks) sets the makespan 12.
        // Retiring 0 drops its arc without an update, as the repair engine
        // does, so node 1's earliest start is stale. A longer node 3 then
        // moves 1 and 2 *earlier*: the makespan must be rescanned (10, the
        // isolated node 0's end), not raised from the stale 12.
        let mut dag = Dag::with_nodes(4);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(1, 2).unwrap();
        dag.add_edge(3, 1).unwrap();
        let mut durations = vec![10, 1, 1, 1];
        let mut scratch = CpmScratch::default();
        let mut cpm = CpmAnalysis::default();
        cpm.recompute(&dag, &durations, None, &mut scratch);
        assert_eq!(cpm.makespan, 12);
        dag.retire_node(0);
        durations[3] = 2;
        cpm.apply_duration(&dag, &durations, 3, 1, &mut scratch);
        assert_eq!(cpm, CpmAnalysis::run(&dag, &durations));
        assert_eq!(cpm.makespan, 10);
    }

    #[test]
    fn chain_is_fully_critical() {
        let mut d = Dag::with_nodes(4);
        for i in 0..3 {
            d.add_edge(i, i + 1).unwrap();
        }
        let dur = vec![1, 2, 3, 4];
        let cpm = CpmAnalysis::run(&d, &dur);
        assert_eq!(cpm.makespan, 10);
        assert!(cpm.critical.iter().all(|&c| c));
        assert_eq!(cpm.critical_path(&d, &dur), vec![0, 1, 2, 3]);
        // Windows tile the horizon exactly.
        assert_eq!(cpm.windows[2], TimeWindow::new(3, 6));
    }
}
