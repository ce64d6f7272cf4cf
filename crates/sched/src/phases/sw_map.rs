//! Phase F — software task mapping (§V-F).
//!
//! Binds every software task to a processor core. Tasks are visited in
//! chronological order of their earliest start; each goes to the core with
//! the smallest induced delay `λ_p` (eq. 8, read as
//! `max(0, max_{t2 ∈ T_p} T_END_{t2} - T_MIN_t)` — the published formula
//! writes `min`, which would make every delay non-positive and contradicts
//! steps 3–4 of the same section). A sequencing arc from the core's last
//! task pins the order, and the induced delay is propagated through the
//! dependency graph by the incremental CPM update.

use prfpga_model::{TaskId, Time};
use prfpga_timeline::LaneId;

use crate::state::SchedState;

/// Runs software task mapping; fills `state.core_of` for software tasks
/// and inserts per-core sequencing arcs.
pub fn map_software_tasks(state: &mut SchedState<'_>) {
    let num_cores = state.inst.architecture.num_processors;
    // Snapshot processing order by current T_MIN (phase E anchors starts
    // at T_MIN).
    let mut sw_tasks: Vec<TaskId> = state
        .inst
        .graph
        .task_ids()
        .filter(|&t| !state.is_hw(t))
        .collect();
    sw_tasks.sort_by_key(|&t| (state.window(t).min, t));

    // With positive durations an assigned task's occupancy is final: the
    // sequencing arc added below only delays *descendants* of the newly
    // mapped task, and a descendant's T_MIN exceeds its ancestor's by at
    // least one positive duration, so it cannot sit earlier in the
    // processing order — i.e. it is never already assigned. The drain tick
    // of a core is then exactly its timeline lane's `free_from`, replacing
    // the O(tasks-on-core) rescan per candidate core with an O(1) read.
    // A zero-duration software task voids the argument (a delayed task
    // could already be mapped), so that rare case keeps the rescan.
    let cached_free = sw_tasks.iter().all(|&t| state.durations[t.index()] > 0);

    // Per-core: tasks assigned so far (order of assignment equals time
    // order because we process by ascending T_MIN and enqueue at the end).
    let mut core_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); num_cores];

    for t in sw_tasks {
        let t_min = state.window(t).min;
        // λ_p per core: how long t would wait for the core to drain.
        let (best_core, _lambda) = (0..num_cores)
            .map(|p| {
                let busy_until: Time = if cached_free {
                    state.timeline.free_from(LaneId::core(p))
                } else {
                    core_tasks[p]
                        .iter()
                        .map(|&t2| state.occupancy(t2).max)
                        .max()
                        .unwrap_or(0)
                };
                (p, busy_until.saturating_sub(t_min))
            })
            .min_by_key(|&(p, lambda)| (lambda, p))
            .expect("validated instances have at least one core");

        // Sequencing arc from the core's last task; the delay itself is
        // realized by the CPM pass through this arc.
        let mut arc_added = None;
        if let Some(&last) = core_tasks[best_core].last() {
            // The arc can only create a cycle if `last` depends on `t`;
            // since `last` was chosen among tasks with T_MIN no later than
            // t's and arcs only point forward in CPM time, a cycle here
            // means the two tasks are dependency-ordered t -> last. In that
            // case skip the arc: the data dependency already serializes
            // them on the core.
            //
            // Deliberately NOT `insert_sequencing_arc`: no reachability
            // probe happens after this phase, so paying the closure's
            // ancestor-propagation per core-chain arc (~10k arcs on large
            // graphs) would buy nothing — plain insertion lets the index
            // go stale instead.
            if state.dag.add_edge(last.0, t.0).is_ok() {
                arc_added = Some(last);
            }
        }
        core_tasks[best_core].push(t);
        state.core_of[t.index()] = Some(best_core);
        if let Some(last) = arc_added {
            state.cpm_apply_arc(last, t);
        }
        if cached_free {
            // Commit the (now final) occupancy on the core's lane; the arc
            // just folded in guarantees it starts at or after the drain.
            let occ = state.occupancy(t);
            state
                .timeline
                .reserve(LaneId::core(best_core), occ)
                .expect("occupancy starts at or after the core's drain");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricWeights;
    use crate::phases::impl_select::max_t;
    use prfpga_model::{
        Architecture, Device, ImplId, ImplPool, Implementation, ProblemInstance, ResourceVec,
        TaskGraph,
    };

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
