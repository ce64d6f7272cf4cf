//! Phase G — reconfiguration scheduling and final timing realization
//! (§V-G).
//!
//! Generates one reconfiguration task between every pair of subsequent
//! tasks hosted by the same region (PA does not exploit module reuse —
//! §VII-A notes this explicitly) and serializes all reconfigurations on
//! the single controller. Critical reconfigurations (those whose outgoing
//! task is critical) take precedence, as in the paper.
//!
//! Mechanically this is realized as a discrete-event pass: tasks and
//! reconfigurations start as soon as their predecessors (data arcs, region
//! and core sequencing arcs, their own ingoing task) allow, and the
//! controller, whenever free, picks among the ready reconfigurations the
//! critical one with the earliest release. The paper describes the same
//! scheduling goal through explicit delay propagation; the event-driven
//! formulation computes a fixed point of those propagations directly and
//! cannot leave a stale overlap behind (see DESIGN.md, fidelity notes).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prfpga_dag::CpmAnalysis;
use prfpga_model::{
    Placement, Reconfiguration, RegionId, Schedule, TaskAssignment, TaskId, Time, TimeWindow,
};
use prfpga_timeline::{LaneId, Timeline};

use crate::state::SchedState;

/// One planned reconfiguration before timing.
#[derive(Debug, Clone, Copy)]
struct PlannedRec {
    region: usize,
    fabric: u32,
    t_in: TaskId,
    t_out: TaskId,
    duration: Time,
    critical: bool,
}

/// Runs the timing realization and assembles the final [`Schedule`] on a
/// throwaway controller timeline.
///
/// With `module_reuse` enabled (the paper's future-work extension),
/// consecutive tasks of a region that share an implementation need no
/// reconfiguration between them.
pub fn realize_schedule(state: &SchedState<'_>, module_reuse: bool) -> Schedule {
    realize_schedule_in(state, module_reuse, &mut Timeline::new())
}

/// [`realize_schedule`] on a caller-owned controller timeline (the
/// schedulers pass their workspace's), which it resets first.
pub(crate) fn realize_schedule_in(
    state: &SchedState<'_>,
    module_reuse: bool,
    icap: &mut Timeline,
) -> Schedule {
    icap.reset(0, 0, state.controller_lanes());
    let n = state.inst.graph.len();

    // Criticality of the fully-sequenced graph decides reconfiguration
    // priority.
    let cpm = CpmAnalysis::run(&state.dag, &state.durations);

    // Plan reconfigurations: between subsequent tasks of each region.
    let mut planned: Vec<PlannedRec> = Vec::new();
    for (s, region) in state.regions.iter().enumerate() {
        let dur = state.reconf_time(s);
        for pair in region.tasks.windows(2) {
            if module_reuse
                && state.impl_choice[pair[0].index()] == state.impl_choice[pair[1].index()]
            {
                continue; // same module already configured
            }
            planned.push(PlannedRec {
                region: s,
                fabric: region.fabric,
                t_in: pair[0],
                t_out: pair[1],
                duration: dur,
                critical: cpm.critical[pair[1].index()],
            });
        }
    }
    let m = planned.len();

    // --- Build the event graph: tasks 0..n, reconfigurations n..n+m. ----
    let total = n + m;
    let mut succs: Vec<Vec<(u32, Time)>> = vec![Vec::new(); total];
    let mut pend: Vec<u32> = vec![0; total];
    let mut durations: Vec<Time> = Vec::with_capacity(total);
    durations.extend_from_slice(&state.durations);
    for r in &planned {
        durations.push(r.duration);
    }
    let add =
        |succs: &mut Vec<Vec<(u32, Time)>>, pend: &mut Vec<u32>, a: usize, b: usize, lag: Time| {
            succs[a].push((b as u32, lag));
            pend[b] += 1;
        };
    // All dag arcs (data + sequencing) at zero lag...
    for v in 0..n as u32 {
        for &u in state.dag.succs(v) {
            add(&mut succs, &mut pend, v as usize, u as usize, 0);
        }
    }
    // ...plus a lagged copy of every data arc whose endpoints are not
    // co-located (the communication-cost extension; all-zero costs in the
    // paper's base model make this a no-op) or whose region endpoints sit
    // on different fabrics (the inter-fabric link pays the platform's
    // crossing latency on top of the data cost).
    for (from, to, cost) in state.inst.graph.edges_with_costs() {
        let (pf, pt) = (state.region_of[from.index()], state.region_of[to.index()]);
        let colocated = match (pf, pt) {
            (Some(a), Some(b)) => a == b,
            (None, None) => state.core_of[from.index()] == state.core_of[to.index()],
            _ => false,
        };
        let mut lag = if colocated { 0 } else { cost };
        if let (Some(a), Some(b)) = (pf, pt) {
            if state.regions[a].fabric != state.regions[b].fabric {
                lag += state.crossing_latency();
            }
        }
        if lag > 0 {
            add(&mut succs, &mut pend, from.index(), to.index(), lag);
        }
    }
    for (ri, r) in planned.iter().enumerate() {
        add(&mut succs, &mut pend, r.t_in.index(), n + ri, 0);
        add(&mut succs, &mut pend, n + ri, r.t_out.index(), 0);
    }

    // --- Discrete-event pass. -------------------------------------------
    let mut start: Vec<Time> = vec![0; total];
    let mut done_time: Vec<Time> = vec![0; total];
    let mut task_queue: Vec<u32> = (0..n as u32).filter(|&v| pend[v as usize] == 0).collect();
    // Ready reconfigurations: max-heap on Reverse((non_critical, release,
    // id)) picks critical first, then earliest release, then lowest id.
    let mut icap_ready: BinaryHeap<Reverse<(bool, Time, u32)>> = BinaryHeap::new();
    for ri in 0..m {
        if pend[n + ri] == 0 {
            // A first-in-region reconfiguration (no ingoing task) — cannot
            // happen since pair[0] always precedes, but stay defensive.
            icap_ready.push(Reverse((!planned[ri].critical, 0, ri as u32)));
        }
    }
    // One controller lane per reconfiguration controller (one in the
    // paper's model; its ref. \[8\] generalizes to several), grouped per
    // fabric: fabric `f` owns lanes `[f*k, f*k+k)`. Arbitration is
    // clock-style — `controller_next_free_in`, never a gap backfill — so
    // the event-driven pass keeps its fixed-point semantics. The caller
    // reset the lanes before this pass.
    let k = state.inst.architecture.num_reconfig_controllers.max(1);
    let mut scheduled = 0usize;

    while scheduled < total {
        // Tasks never contend (sequencing arcs serialize them): schedule
        // every ready task at its release time.
        if let Some(v) = task_queue.pop() {
            let vi = v as usize;
            // start[vi] already holds the max end of finished predecessors.
            done_time[vi] = start[vi] + durations[vi];
            scheduled += 1;
            relax(
                vi,
                done_time[vi],
                &succs,
                &mut pend,
                &mut start,
                &mut task_queue,
                &mut icap_ready,
                &planned,
                n,
            );
            continue;
        }
        // No task ready: run one reconfiguration on the least-busy
        // controller.
        if let Some(Reverse((_, release, ri))) = icap_ready.pop() {
            let node = n + ri as usize;
            let fabric = planned[ri as usize].fabric as usize;
            let (ctrl, free) = icap.controller_next_free_in(fabric * k, k);
            let s = free.max(release);
            start[node] = s;
            done_time[node] = s + durations[node];
            icap.reserve(
                LaneId::controller(ctrl),
                TimeWindow::new(s, done_time[node]),
            )
            .expect("reservation starts at the controller's drain tick");
            scheduled += 1;
            relax(
                node,
                done_time[node],
                &succs,
                &mut pend,
                &mut start,
                &mut task_queue,
                &mut icap_ready,
                &planned,
                n,
            );
            continue;
        }
        unreachable!("event graph is acyclic and fully connected to sources");
    }

    // --- Assemble the schedule. ------------------------------------------
    let regions = state.region_set();
    let assignments: Vec<TaskAssignment> = (0..n)
        .map(|i| {
            let placement = match state.region_of[i] {
                Some(s) => Placement::Region(RegionId(s as u32)),
                None => {
                    Placement::Core(state.core_of[i].expect("software tasks mapped in phase F"))
                }
            };
            TaskAssignment {
                impl_id: state.impl_choice[i],
                placement,
                start: start[i],
                end: done_time[i],
            }
        })
        .collect();
    let reconfigurations: Vec<Reconfiguration> = planned
        .iter()
        .enumerate()
        .map(|(ri, r)| Reconfiguration {
            region: RegionId(r.region as u32),
            loads_impl: state.impl_choice[r.t_out.index()],
            outgoing_task: r.t_out,
            start: start[n + ri],
            end: done_time[n + ri],
        })
        .collect();

    Schedule {
        regions,
        assignments,
        reconfigurations,
    }
}

/// Marks `node` finished at `fin`; releases successors whose predecessors
/// are all done.
#[allow(clippy::too_many_arguments)]
fn relax(
    node: usize,
    fin: Time,
    succs: &[Vec<(u32, Time)>],
    pend: &mut [u32],
    start: &mut [Time],
    task_queue: &mut Vec<u32>,
    icap_ready: &mut BinaryHeap<Reverse<(bool, Time, u32)>>,
    planned: &[PlannedRec],
    n: usize,
) {
    for &(u, lag) in &succs[node] {
        let ui = u as usize;
        start[ui] = start[ui].max(fin + lag);
        pend[ui] -= 1;
        if pend[ui] == 0 {
            if ui < n {
                task_queue.push(u);
            } else {
                let ri = ui - n;
                icap_ready.push(Reverse((!planned[ri].critical, start[ui], ri as u32)));
            }
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
    use prfpga_sim::validate_schedule;

    /// Chain a -> b, both hardware in the same region (5 CLB, reconf = 5).
    fn shared_region_fixture() -> (ProblemInstance, Vec<ImplId>) {
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        let sa = pool.add(Implementation::software("sa", 1000));
        let ha = pool.add(Implementation::hardware(
            "ha",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let ta = g.add_task("a", vec![sa, ha]);
        let sb = pool.add(Implementation::software("sb", 1000));
        let hb = pool.add(Implementation::hardware(
            "hb",
            12,
            ResourceVec::new(4, 0, 0),
        ));
        let tb = g.add_task("b", vec![sb, hb]);
        g.add_edge(ta, tb);
        let inst = ProblemInstance::new(
            "rc",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(5, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        (inst, vec![ha, hb])
    }

    #[test]
    fn shared_region_gets_reconfiguration_and_validates() {
        let (inst, choice) = shared_region_fixture();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, choice.clone()).unwrap();
        st.open_region(TaskId(0), choice[0]);
        st.assign_to_region(TaskId(1), choice[1], 0);
        let sched = realize_schedule(&st, false);
        assert_eq!(sched.reconfigurations.len(), 1);
        // a: [0,10); reconf: [10,15); b: [15,27).
        assert_eq!(sched.assignments[0].start, 0);
        assert_eq!(sched.assignments[0].end, 10);
        assert_eq!(sched.reconfigurations[0].start, 10);
        assert_eq!(sched.reconfigurations[0].end, 15);
        assert_eq!(sched.assignments[1].start, 15);
        assert_eq!(sched.makespan(), 27);
        validate_schedule(&inst, &sched).expect("valid");
    }

    #[test]
    fn independent_regions_need_no_reconfigurations() {
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        for i in 0..2 {
            let s = pool.add(Implementation::software(format!("s{i}"), 1000));
            let h = pool.add(Implementation::hardware(
                format!("h{i}"),
                10,
                ResourceVec::new(3, 0, 0),
            ));
            g.add_task(format!("t{i}"), vec![s, h]);
        }
        let inst = ProblemInstance::new(
            "indep",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let choice = vec![ImplId(1), ImplId(3)];
        let mut st = SchedState::new(&inst, w, choice).unwrap();
        st.open_region(TaskId(0), ImplId(1));
        st.open_region(TaskId(1), ImplId(3));
        let sched = realize_schedule(&st, false);
        assert!(sched.reconfigurations.is_empty());
        // Both run in parallel from 0.
        assert_eq!(sched.makespan(), 10);
        validate_schedule(&inst, &sched).expect("valid");
    }

    #[test]
    fn controller_contention_serializes_reconfigurations() {
        // Two regions, each hosting a chain of two tasks; the two
        // reconfigurations become ready around the same time and must not
        // overlap on the controller.
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for i in 0..4 {
            let s = pool.add(Implementation::software(format!("s{i}"), 10_000));
            let h = pool.add(Implementation::hardware(
                format!("h{i}"),
                10,
                ResourceVec::new(5, 0, 0),
            ));
            ids.push(h);
            g.add_task(format!("t{i}"), vec![s, h]);
        }
        // Chains 0 -> 1 and 2 -> 3.
        g.add_edge(TaskId(0), TaskId(1));
        g.add_edge(TaskId(2), TaskId(3));
        let inst = ProblemInstance::new(
            "contend",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, ids.clone()).unwrap();
        st.open_region(TaskId(0), ids[0]);
        st.assign_to_region(TaskId(1), ids[1], 0);
        st.open_region(TaskId(2), ids[2]);
        st.assign_to_region(TaskId(3), ids[3], 1);
        let sched = realize_schedule(&st, false);
        assert_eq!(sched.reconfigurations.len(), 2);
        let mut recs = sched.reconfigurations.clone();
        recs.sort_by_key(|r| r.start);
        assert!(recs[0].end <= recs[1].start, "controller must serialize");
        // One chain pays the contention: 10 + 5 (wait) + 5 + 10 = 30.
        assert_eq!(sched.makespan(), 30);
        validate_schedule(&inst, &sched).expect("valid");
    }

    #[test]
    fn software_tasks_flow_through() {
        let mut pool = ImplPool::new();
        let s0 = pool.add(Implementation::software("s0", 100));
        let mut g = TaskGraph::new();
        g.add_task("t0", vec![s0]);
        let inst = ProblemInstance::new(
            "sw",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, vec![s0]).unwrap();
        st.core_of[0] = Some(0);
        let sched = realize_schedule(&st, false);
        assert_eq!(sched.assignments[0].placement, Placement::Core(0));
        assert_eq!(sched.makespan(), 100);
        validate_schedule(&inst, &sched).expect("valid");
    }
}
