//! Property-based tests for the DAG substrate.

use proptest::prelude::*;

use prfpga_dag::{reach, CpmAnalysis, CpmScratch, Dag, ReachIndex};
use prfpga_model::Time;

/// Strategy: a random DAG of 2..40 nodes, so every bitset over it fits in
/// one 64-bit word.
fn random_dag() -> impl Strategy<Value = (Dag, Vec<Time>)> {
    random_dag_of(2..40)
}

/// Strategy: a random DAG of 65..=200 nodes, so the CPM worklist and every
/// closure row span two to four 64-bit words.
fn wide_dag() -> impl Strategy<Value = (Dag, Vec<Time>)> {
    random_dag_of(65..201)
}

/// Strategy: a random DAG on `n ∈ sizes` nodes where edges only go from
/// lower to higher index (guaranteeing acyclicity), plus random durations.
fn random_dag_of(sizes: std::ops::Range<usize>) -> impl Strategy<Value = (Dag, Vec<Time>)> {
    sizes.prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
        let durs = proptest::collection::vec(0u64..1000, n);
        (Just(n), edges, durs).prop_map(|(n, edges, durs)| {
            let mut dag = Dag::with_nodes(n);
            for (a, b) in edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    dag.add_edge(lo as u32, hi as u32).unwrap();
                }
            }
            (dag, durs)
        })
    })
}

proptest! {
    /// Topological order contains every node exactly once and respects arcs.
    #[test]
    fn topo_order_is_permutation_respecting_edges((dag, _durs) in random_dag()) {
        let order = dag.topo_order();
        prop_assert_eq!(order.len(), dag.len());
        let mut pos = vec![usize::MAX; dag.len()];
        for (i, &v) in order.iter().enumerate() {
            prop_assert_eq!(pos[v as usize], usize::MAX, "duplicate node in order");
            pos[v as usize] = i;
        }
        for v in 0..dag.len() as u32 {
            for &s in dag.succs(v) {
                prop_assert!(pos[v as usize] < pos[s as usize]);
            }
        }
    }

    /// CPM window coherence: windows fit durations, sources start at their
    /// release, every arc is respected, and the makespan is achieved by at
    /// least one critical sink.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cpm_windows_are_coherent((dag, durs) in random_dag()) {
        let cpm = CpmAnalysis::run(&dag, &durs);
        for v in 0..dag.len() {
            let w = cpm.windows[v];
            prop_assert!(w.fits(durs[v]), "window must fit the duration");
            prop_assert!(w.max <= cpm.makespan);
            // Arc feasibility at earliest times.
            for &s in dag.succs(v as u32) {
                prop_assert!(w.min + durs[v] <= cpm.windows[s as usize].min);
            }
            // Critical <=> zero slack.
            prop_assert_eq!(cpm.critical[v], w.span() == durs[v]);
        }
        let achieved = (0..dag.len())
            .map(|v| cpm.windows[v].min + durs[v])
            .max()
            .unwrap_or(0);
        prop_assert_eq!(achieved, cpm.makespan);
    }

    /// The critical path is a real path whose durations sum to the makespan.
    #[test]
    fn critical_path_sums_to_makespan((dag, durs) in random_dag()) {
        let cpm = CpmAnalysis::run(&dag, &durs);
        let path = cpm.critical_path(&dag, &durs);
        prop_assert!(!path.is_empty());
        for pair in path.windows(2) {
            prop_assert!(dag.has_edge(pair[0], pair[1]));
        }
        let sum: Time = path.iter().map(|&v| durs[v as usize]).sum();
        prop_assert_eq!(sum, cpm.makespan);
    }

    /// Edge insertion never silently corrupts the DAG: after a rejected
    /// insertion the graph still topo-sorts completely.
    #[test]
    fn rejected_edges_leave_dag_intact((mut dag, _durs) in random_dag(), a in 0u32..40, b in 0u32..40) {
        let n = dag.len() as u32;
        let (a, b) = (a % n, b % n);
        let _ = dag.add_edge(a, b); // may fail if it would close a cycle
        let order = dag.topo_order();
        prop_assert_eq!(order.len(), dag.len());
    }

    /// Incremental CPM maintenance equals a from-scratch run after every
    /// mutation of a random interleaved sequence of arc insertions (half
    /// of them against the initial topological order) and duration
    /// changes — the contract the schedulers' workspace-reuse fast path
    /// rests on.
    #[test]
    fn incremental_cpm_equals_full_recompute(
        (dag, durs) in random_dag(),
        muts in proptest::collection::vec((0usize..40, 0usize..40, 0u64..1000), 1..25),
    ) {
        check_incremental_cpm(dag, durs, muts)?;
    }

    /// The bitset closure agrees with the journaled adjacency + DFS oracle
    /// under a random interleaving of edge insertions, checkpoint marks,
    /// rollbacks, and re-syncs — the exact life cycle the schedulers put
    /// the closure through (insert sequencing arcs, roll back a rejected
    /// placement, re-sync on the next `from_workspace`).
    #[test]
    fn closure_matches_adjacency_dfs_through_rollback(
        (dag, _durs) in random_dag(),
        ops in proptest::collection::vec((0usize..40, 0usize..40, 0u8..8), 1..30),
    ) {
        check_closure_through_rollback(dag, ops)?;
    }

    /// Release times only ever push windows later, never earlier.
    #[test]
    fn release_is_monotone((dag, durs) in random_dag(), bump_idx in 0usize..40, bump in 1u64..500) {
        let base = CpmAnalysis::run(&dag, &durs);
        let mut release = vec![0u64; dag.len()];
        let idx = bump_idx % dag.len();
        release[idx] = base.windows[idx].min + bump;
        let shifted = CpmAnalysis::run_with_release(&dag, &durs, Some(&release));
        prop_assert!(shifted.makespan >= base.makespan);
        for v in 0..dag.len() {
            prop_assert!(shifted.windows[v].min >= base.windows[v].min);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// [`incremental_cpm_equals_full_recompute`] on graphs whose worklist
    /// bitset spans several words, with mutations anywhere in the graph.
    #[test]
    fn incremental_cpm_equals_full_recompute_across_words(
        (dag, durs) in wide_dag(),
        muts in proptest::collection::vec((0usize..200, 0usize..200, 0u64..1000), 1..25),
    ) {
        check_incremental_cpm(dag, durs, muts)?;
    }

    /// [`closure_matches_adjacency_dfs_through_rollback`] on graphs
    /// whose closure rows span several words.
    #[test]
    fn closure_matches_adjacency_dfs_through_rollback_across_words(
        (dag, _durs) in wide_dag(),
        ops in proptest::collection::vec((0usize..200, 0usize..200, 0u8..8), 1..30),
    ) {
        check_closure_through_rollback(dag, ops)?;
    }

    /// Growing a current closure node by node through
    /// `ReachIndex::add_node` and `ReachIndex::add_edge` keeps it current
    /// and exact across the re-strides at 64 and 128 nodes: at 63, 64, 65,
    /// 127, 128 and 129 nodes every query agrees with the DFS oracle and
    /// every row iterates exactly the node's descendants, in order.
    #[test]
    fn closure_grows_node_by_node_across_words(
        (dag, _durs) in random_dag_of(40..63),
        deps in proptest::collection::vec(proptest::collection::vec(0usize..200, 0..4), 70),
    ) {
        let mut dag = dag;
        let mut index = ReachIndex::new();
        index.sync(&dag, &dag.topo_order());
        for node_deps in deps {
            let v = index.add_node(&mut dag);
            prop_assert!(index.is_current(&dag));
            for d in node_deps {
                let d = (d % v as usize) as u32;
                index.add_edge(&mut dag, d, v).unwrap();
            }
            if [63, 64, 65, 127, 128, 129].contains(&dag.len()) {
                let n = dag.len() as u32;
                for a in 0..n {
                    for b in 0..n {
                        prop_assert_eq!(
                            index.query(a, b),
                            reach::is_reachable(&dag, a, b),
                            "query({}, {}) at {} nodes", a, b, n
                        );
                    }
                    prop_assert_eq!(
                        index.descendants(a).collect::<Vec<_>>(),
                        reach::descendants(&dag, a),
                        "row {} at {} nodes", a, n
                    );
                }
            }
        }
    }
}

/// Body of the incremental-CPM properties: applies `muts` (an arc
/// insertion when `a != b` and `d` is even, else `durs[a] = d`) and
/// compares windows, makespan and critical flags against a full run
/// after each. The graphs' arcs all run from lower to higher id, so the
/// initial Kahn order is the identity; an arc from the higher to the
/// lower id (`d % 4 == 2`) runs against it, and exercises the order
/// repair whenever the order still places its ends that way.
fn check_incremental_cpm(
    mut dag: Dag,
    mut durs: Vec<Time>,
    muts: Vec<(usize, usize, Time)>,
) -> Result<(), TestCaseError> {
    let n = dag.len();
    let mut scratch = CpmScratch::default();
    let mut cpm = CpmAnalysis::default();
    cpm.recompute(&dag, &durs, None, &mut scratch);
    for (step, (a, b, d)) in muts.into_iter().enumerate() {
        let (a, b) = (a % n, b % n);
        if a != b && d % 2 == 0 {
            let (lo, hi) = ((a.min(b)) as u32, (a.max(b)) as u32);
            let (from, to) = if d % 4 == 2 { (hi, lo) } else { (lo, hi) };
            // Skipped when it would close a cycle, matching how the
            // schedulers probe before inserting.
            if dag.add_edge(from, to).is_err() {
                continue;
            }
            cpm.apply_arc(&dag, &durs, from, to, &mut scratch);
        } else {
            let old = std::mem::replace(&mut durs[a], d);
            cpm.apply_duration(&dag, &durs, a as u32, old, &mut scratch);
        }
        prop_assert_eq!(&cpm, &CpmAnalysis::run(&dag, &durs), "step {}", step);
    }
    Ok(())
}

/// Body of the closure-through-rollback properties: `ops` are
/// `(a, b, kind)` with kinds 0..=3 an edge insertion, 4 a checkpoint, 5 a
/// rollback and 6..=7 a re-sync.
fn check_closure_through_rollback(
    dag0: Dag,
    ops: Vec<(usize, usize, u8)>,
) -> Result<(), TestCaseError> {
    let mut dag = dag0.clone(); // driven through ReachIndex::add_edge
    let mut mirror = dag0; // plain adjacency + DFS oracle
    let n = dag.len();
    let mut index = ReachIndex::new();
    index.sync(&dag, &dag.topo_order());
    let mut marks = Vec::new();
    for (a, b, kind) in ops {
        let (a, b) = ((a % n) as u32, (b % n) as u32);
        match kind {
            // Edge insertion: through the maintained closure when it is
            // current (the schedulers' fast path), plain otherwise.
            0..=3 => {
                let fast = if index.is_current(&dag) {
                    index.add_edge(&mut dag, a, b)
                } else {
                    dag.add_edge(a, b)
                };
                let oracle = mirror.add_edge(a, b);
                prop_assert_eq!(fast.is_ok(), oracle.is_ok());
            }
            // Journal mark / rollback (LIFO, as the schedulers nest them).
            4 => marks.push((dag.checkpoint(), mirror.checkpoint())),
            5 => {
                if let Some((cd, cm)) = marks.pop() {
                    dag.rollback(cd);
                    mirror.rollback(cm);
                }
            }
            // Re-sync, as `SchedState::from_workspace` does per run.
            _ => index.sync(&dag, &dag.topo_order()),
        }
        // Both graphs evolved identically regardless of insertion path.
        prop_assert_eq!(&dag, &mirror);
        // A current closure answers exactly like the DFS for the mutated
        // pair and a strided sample; a stale one must say so.
        if index.is_current(&dag) {
            for i in 0..16u32 {
                let (u, v) = ((a + i) % n as u32, (b + i * 7) % n as u32);
                prop_assert_eq!(index.query(u, v), reach::is_reachable(&dag, u, v));
            }
        }
    }
    // Final all-pairs sweep against a freshly synced closure.
    index.sync(&dag, &dag.topo_order());
    for v in 0..n as u32 {
        for u in 0..n as u32 {
            prop_assert_eq!(index.query(v, u), reach::is_reachable(&mirror, v, u));
        }
        prop_assert_eq!(
            index.descendants(v).collect::<Vec<_>>(),
            reach::descendants(&mirror, v)
        );
    }
    Ok(())
}
