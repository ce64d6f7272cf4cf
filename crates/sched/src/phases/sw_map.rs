//! Phase F — software task mapping (§V-F).
//!
//! Binds every software task to a processor core. Tasks are visited in
//! chronological order of their earliest start; each goes to the core with
//! the smallest induced delay `λ_p` (eq. 8, read as
//! `max(0, max_{t2 ∈ T_p} T_END_{t2} - T_MIN_t)` — the published formula
//! writes `min`, which would make every delay non-positive and contradicts
//! steps 3–4 of the same section). A sequencing arc from the core's last
//! task pins the order.
//!
//! One topological pass over every task takes the ready task with the
//! smallest `(T_MIN, id)` of the windows phase F starts from: the paper's
//! order, since the key strictly grows along an arc whose source has a
//! positive duration (zero-duration ties fall back to the arcs' order).
//! Ancestors are visited first, so a task's earliest start and a core's
//! drain are final when read, and core arcs point forward, so none closes
//! a cycle. One CPM recompute at the end yields the windows.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use prfpga_model::{TaskId, Time};

use crate::state::SchedState;

/// Marks a visited task in [`SwMapScratch::pending`].
const VISITED: u32 = u32::MAX;

/// Buffers of phase F's forward pass, recycled through the scheduler
/// workspace so repeated pipeline runs stay allocation-free.
#[derive(Debug, Default)]
pub(crate) struct SwMapScratch {
    /// Unvisited predecessors per task; [`VISITED`] once visited.
    pending: Vec<u32>,
    /// Tasks whose predecessors are all visited, keyed by `(T_MIN, id)`.
    ready: BinaryHeap<Reverse<(Time, TaskId)>>,
    /// Earliest start per task, final once the task is visited.
    start: Vec<Time>,
    /// Per core: the tick its last task ends, and that task.
    cores: Vec<(Time, Option<TaskId>)>,
}

/// Runs software task mapping; fills `state.core_of` for software tasks,
/// inserts per-core sequencing arcs and recomputes the CPM analysis.
pub fn map_software_tasks(state: &mut SchedState<'_>) {
    let mut f = mem::take(&mut state.sw_map);
    f.start.clear();
    f.start.resize(state.inst.graph.len(), 0);
    f.cores.clear();
    f.cores
        .resize(state.inst.architecture.num_processors, (0, None));
    f.pending.clear();
    f.ready.clear();
    for t in state.inst.graph.task_ids() {
        f.pending.push(state.dag.preds(t.0).len() as u32);
        if f.pending[t.index()] == 0 {
            f.ready.push(Reverse((state.window(t).min, t)));
        }
    }

    while let Some(Reverse((_, t))) = f.ready.pop() {
        let v = t.index();
        f.pending[v] = VISITED;
        if !state.is_hw(t) {
            let t_min = f.start[v];
            // λ_p per core: how long t would wait for the core to drain.
            let (p, &(drain, last)) = f
                .cores
                .iter()
                .enumerate()
                .min_by_key(|&(p, &(drain, _))| (drain.saturating_sub(t_min), p))
                .expect("validated instances have at least one core");
            // A data dependency may already order the two tasks.
            if let Some(last) = last.filter(|l| !state.dag.has_edge(l.0, t.0)) {
                debug_assert_eq!(f.pending[last.index()], VISITED, "arcs point forward");
                state.dag.insert_edge_acyclic(last.0, t.0);
            }
            f.start[v] = t_min.max(drain);
            f.cores[p] = (f.start[v] + state.durations[v], Some(t));
            state.core_of[v] = Some(p);
        }
        let end = f.start[v] + state.durations[v];
        for &s in state.dag.succs(t.0) {
            let s = TaskId(s);
            f.start[s.index()] = f.start[s.index()].max(end);
            f.pending[s.index()] -= 1;
            if f.pending[s.index()] == 0 {
                f.ready.push(Reverse((state.window(s).min, s)));
            }
        }
    }
    state.sw_map = f;
    state
        .cpm
        .recompute(&state.dag, &state.durations, None, &mut state.cpm_scratch);
}

#[cfg(test)]
#[path = "../../tests/arb/mod.rs"]
mod arb;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostPolicy, OrderingPolicy};
    use crate::metrics::MetricWeights;
    use crate::phases::impl_select::{max_t, select_implementations};
    use crate::phases::{regions, sw_balance};
    use prfpga_dag::{CpmAnalysis, NodeId};
    use prfpga_model::{
        Architecture, Device, ImplId, ImplPool, Implementation, ProblemInstance, ResourceVec,
        TaskGraph,
    };
    use proptest::prelude::*;

    /// Phase F as an incremental update, an independent oracle for the
    /// forward pass: software tasks sorted by `(T_MIN, id)` under the
    /// windows phase F starts from; each core's drain rescanned over its
    /// tasks' current occupancies; the arc from the chosen core's last
    /// task inserted through the DFS-probed [`Dag::add_edge`] (and skipped
    /// when it would close a cycle), then folded into the windows by
    /// [`CpmAnalysis::apply_arc`].
    ///
    /// [`Dag::add_edge`]: prfpga_dag::Dag::add_edge
    /// [`CpmAnalysis::apply_arc`]: prfpga_dag::CpmAnalysis::apply_arc
    fn reference_map(state: &mut SchedState<'_>) {
        let mut sw: Vec<TaskId> = state
            .inst
            .graph
            .task_ids()
            .filter(|&t| !state.is_hw(t))
            .collect();
        sw.sort_by_key(|&t| (state.window(t).min, t));
        let mut on_core = vec![Vec::<TaskId>::new(); state.inst.architecture.num_processors];
        for t in sw {
            let t_min = state.window(t).min;
            let p = (0..on_core.len())
                .min_by_key(|&p| {
                    let drain = on_core[p].iter().map(|&u| state.occupancy(u).max).max();
                    (drain.unwrap_or(0).saturating_sub(t_min), p)
                })
                .expect("at least one core");
            if let Some(&last) = on_core[p].last() {
                if state.dag.add_edge(last.0, t.0).is_ok() {
                    let (dag, durations) = (&state.dag, &state.durations);
                    state
                        .cpm
                        .apply_arc(dag, durations, last.0, t.0, &mut state.cpm_scratch);
                }
            }
            on_core[p].push(t);
            state.core_of[t.index()] = Some(p);
        }
    }

    /// The state phase F starts from: phases A–D run on `inst`.
    fn balanced_state(inst: &ProblemInstance, ordering: OrderingPolicy) -> SchedState<'_> {
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(inst));
        let choice = select_implementations(inst, &w, CostPolicy::Full);
        let mut st = SchedState::new(inst, w, choice).unwrap();
        regions::define_regions(&mut st, ordering);
        sw_balance::balance_software_tasks(&mut st);
        st
    }

    /// True when every arc of the state's DAG runs from a smaller to a
    /// larger `(T_MIN, id)` key, so the key order is a topological order.
    /// Positive durations guarantee it; a chain of 0-tick tasks whose ids
    /// fall along it breaks it.
    fn key_order_is_topological(st: &SchedState<'_>) -> bool {
        let key = |v: NodeId| (st.cpm.windows[v as usize].min, v);
        (0..st.dag.len() as NodeId).all(|u| st.dag.succs(u).iter().all(|&v| key(u) < key(v)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Where the `(T_MIN, id)` order phase F starts from respects every
        /// arc, the forward pass maps every software task to the
        /// reference's core and leaves the reference's DAG arcs, in
        /// insertion order, and CPM analysis. Where a zero-duration tie
        /// runs against an arc, the pass visits the tied tasks in the arcs'
        /// order instead, and the two may sequence tied 0-tick tasks on a
        /// core the other way round; the pass's own output must then still
        /// be sound: a core for every software task, the CPM analysis of
        /// its DAG, and no two tasks of one core overlapping.
        #[test]
        fn forward_pass_matches_incremental_reference(
            inst in arb::arb_instance(),
            seed in 0u64..100,
        ) {
            for ordering in [
                OrderingPolicy::EfficiencyIndex,
                OrderingPolicy::RandomizedNonCritical(seed),
            ] {
                let mut pass = balanced_state(&inst, ordering);
                let mut reference = balanced_state(&inst, ordering);
                let same_order = key_order_is_topological(&pass);
                map_software_tasks(&mut pass);
                reference_map(&mut reference);
                if same_order {
                    prop_assert_eq!(&pass.core_of, &reference.core_of);
                    prop_assert_eq!(&pass.dag, &reference.dag);
                    prop_assert_eq!(&pass.cpm, &reference.cpm);
                    continue;
                }
                prop_assert_eq!(&pass.cpm, &CpmAnalysis::run(&pass.dag, &pass.durations));
                let mut slots: Vec<(usize, Time, Time)> = Vec::new();
                for t in inst.graph.task_ids().filter(|&t| !pass.is_hw(t)) {
                    let core = pass.core_of[t.index()];
                    prop_assert!(core.is_some(), "{:?} has no core", t);
                    let occ = pass.occupancy(t);
                    slots.push((core.unwrap_or(0), occ.min, occ.max));
                }
                slots.sort_unstable();
                for w in slots.windows(2) {
                    prop_assert!(w[0].0 != w[1].0 || w[0].2 <= w[1].1, "{:?} overlap", w);
                }
            }
        }
    }

    fn sw_instance(times: &[Time], cores: usize) -> ProblemInstance {
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        for (i, &t) in times.iter().enumerate() {
            let s = pool.add(Implementation::software(format!("s{i}"), t));
            g.add_task(format!("t{i}"), vec![s]);
        }
        ProblemInstance::new(
            "map",
            Architecture::new(cores, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap()
    }

    fn state(inst: &ProblemInstance) -> SchedState<'_> {
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(inst));
        let choice: Vec<ImplId> = inst
            .graph
            .task_ids()
            .map(|t| inst.fastest_sw_impl(t))
            .collect();
        SchedState::new(inst, w, choice).unwrap()
    }

    #[test]
    fn parallel_tasks_spread_over_cores() {
        let inst = sw_instance(&[100, 100], 2);
        let mut st = state(&inst);
        map_software_tasks(&mut st);
        assert_ne!(st.core_of[0], st.core_of[1]);
        // No serialization arc between them: makespan stays 100.
        assert_eq!(st.cpm.makespan, 100);
    }

    #[test]
    fn single_core_serializes_and_propagates_delay() {
        let inst = sw_instance(&[100, 80, 60], 1);
        let mut st = state(&inst);
        map_software_tasks(&mut st);
        assert!(st.core_of.iter().all(|c| *c == Some(0)));
        // All three run back to back.
        assert_eq!(st.cpm.makespan, 240);
    }

    #[test]
    fn picks_least_loaded_core() {
        // Four equal tasks on two cores: 2 + 2.
        let inst = sw_instance(&[50, 50, 50, 50], 2);
        let mut st = state(&inst);
        map_software_tasks(&mut st);
        let on0 = st.core_of.iter().filter(|c| **c == Some(0)).count();
        let on1 = st.core_of.iter().filter(|c| **c == Some(1)).count();
        assert_eq!((on0, on1), (2, 2));
        assert_eq!(st.cpm.makespan, 100);
    }

    #[test]
    fn hardware_tasks_are_ignored() {
        let mut pool = ImplPool::new();
        let s = pool.add(Implementation::software("s", 100));
        let h = pool.add(Implementation::hardware("h", 10, ResourceVec::new(2, 0, 0)));
        let mut g = TaskGraph::new();
        g.add_task("t0", vec![s, h]);
        let inst = ProblemInstance::new(
            "hw",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, vec![h]).unwrap();
        st.open_region(TaskId(0), h);
        map_software_tasks(&mut st);
        assert_eq!(st.core_of[0], None);
    }

    #[test]
    fn dependency_chain_on_one_core_needs_no_extra_delay() {
        let mut pool = ImplPool::new();
        let a = pool.add(Implementation::software("a", 100));
        let b = pool.add(Implementation::software("b", 50));
        let mut g = TaskGraph::new();
        let ta = g.add_task("a", vec![a]);
        let tb = g.add_task("b", vec![b]);
        g.add_edge(ta, tb);
        let inst = ProblemInstance::new(
            "chain",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, vec![a, b]).unwrap();
        map_software_tasks(&mut st);
        assert_eq!(st.cpm.makespan, 150);
    }
}
