//! Discrete-event ASAP re-execution of a schedule's decisions.
//!
//! [`execute_asap`] strips the *times* off a schedule, keeps its *decisions*
//! (implementation choices, placements, the per-core / per-region / per-ICAP
//! orderings implied by the recorded start times) and replays everything
//! under as-soon-as-possible semantics. The result is the tightest makespan
//! compatible with those decisions:
//!
//! * for a valid schedule, `asap.makespan() <= schedule.makespan()` — the
//!   replay can only remove idle gaps, never add them;
//! * a replay that fails (the implied ordering constraints form a cycle)
//!   proves the schedule inconsistent.

use prfpga_model::{ProblemInstance, RegionId, Schedule, Time, TimeWindow};
use prfpga_timeline::pack_lanes;

use crate::validate::edge_lag;

/// Result of an ASAP replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsapResult {
    /// Earliest-start times per task (indexed by task).
    pub task_starts: Vec<Time>,
    /// Earliest-start times per reconfiguration (same order as in the
    /// schedule).
    pub reconf_starts: Vec<Time>,
    /// Achieved makespan.
    pub makespan: Time,
}

/// Replays the schedule's decisions under ASAP semantics.
///
/// Returns `None` when the constraint graph implied by the schedule is
/// cyclic (which cannot happen for a schedule accepted by
/// [`validate_schedule`](crate::validate_schedule)).
pub fn execute_asap(instance: &ProblemInstance, schedule: &Schedule) -> Option<AsapResult> {
    let n_tasks = instance.graph.len();
    let n_recs = schedule.reconfigurations.len();
    let n = n_tasks + n_recs;
    if schedule.assignments.len() != n_tasks {
        return None;
    }

    // Node durations: tasks then reconfigurations.
    let mut dur: Vec<Time> = Vec::with_capacity(n);
    for a in &schedule.assignments {
        dur.push(instance.impls.get(a.impl_id).time);
    }
    for r in &schedule.reconfigurations {
        dur.push(r.duration());
    }

    // Constraint arcs a -> b with lag: start_b >= start_a + dur_a + lag.
    let mut succs: Vec<Vec<(u32, Time)>> = vec![Vec::new(); n];
    let mut indeg: Vec<u32> = vec![0; n];
    let add =
        |succs: &mut Vec<Vec<(u32, Time)>>, indeg: &mut Vec<u32>, a: usize, b: usize, lag: Time| {
            succs[a].push((b as u32, lag));
            indeg[b] += 1;
        };

    // Data dependencies, with the validator's communication and crossing
    // lag.
    for (i, &(from, to)) in instance.graph.edges.iter().enumerate() {
        let lag = edge_lag(instance, schedule, i);
        add(&mut succs, &mut indeg, from.index(), to.index(), lag);
    }
    // Core sequences.
    for p in 0..instance.architecture.num_processors {
        let seq = schedule.tasks_on_core(p);
        for pair in seq.windows(2) {
            add(&mut succs, &mut indeg, pair[0].index(), pair[1].index(), 0);
        }
    }
    // Region sequences, routed through reconfigurations when present.
    // `rec_for_task[t]` is the reconfiguration whose outgoing task is `t`.
    let mut rec_for_task: Vec<Option<usize>> = vec![None; n_tasks];
    for (ri, r) in schedule.reconfigurations.iter().enumerate() {
        rec_for_task[r.outgoing_task.index()] = Some(ri);
    }
    for s in 0..schedule.regions.len() {
        let seq = schedule.tasks_in_region(RegionId(s as u32));
        for (i, &t) in seq.iter().enumerate() {
            if let Some(ri) = rec_for_task[t.index()] {
                // predecessor task (if any) -> reconfiguration -> task
                if i > 0 {
                    add(&mut succs, &mut indeg, seq[i - 1].index(), n_tasks + ri, 0);
                }
                add(&mut succs, &mut indeg, n_tasks + ri, t.index(), 0);
            } else if i > 0 {
                add(&mut succs, &mut indeg, seq[i - 1].index(), t.index(), 0);
            }
        }
    }
    // Controller serialization in recorded order: each fabric's
    // reconfigurations are greedily re-assigned to that fabric's own k
    // controllers by start time (with k = 1 this is the plain recorded
    // per-fabric sequence). The packing rule is `pack_lanes`, shared with
    // the Gantt/SVG renderers so the replay chains exactly the lanes a
    // human sees drawn.
    let k = instance.architecture.num_reconfig_controllers.max(1);
    let fabric_of = |r: RegionId| schedule.regions.get(r.index()).map_or(0, |rg| rg.fabric);
    let mut rec_order: Vec<usize> = (0..n_recs).collect();
    rec_order.sort_by_key(|&ri| schedule.reconfigurations[ri].start);
    for f in 0..schedule.fabric_span() {
        let on_fabric: Vec<usize> = rec_order
            .iter()
            .copied()
            .filter(|&ri| fabric_of(schedule.reconfigurations[ri].region) == f)
            .collect();
        let windows: Vec<TimeWindow> = on_fabric
            .iter()
            .map(|&ri| {
                let r = &schedule.reconfigurations[ri];
                TimeWindow::new(r.start, r.end)
            })
            .collect();
        let lane_of = pack_lanes(&windows, k);
        let mut ctrl_last: Vec<Option<usize>> = vec![None; k];
        for (&ri, &ctrl) in on_fabric.iter().zip(&lane_of) {
            if let Some(prev) = ctrl_last[ctrl] {
                add(&mut succs, &mut indeg, n_tasks + prev, n_tasks + ri, 0);
            }
            ctrl_last[ctrl] = Some(ri);
        }
    }

    // Longest-path relaxation in topological order (Kahn).
    let mut start: Vec<Time> = vec![0; n];
    let mut ready: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(v) = ready.pop() {
        seen += 1;
        let fin = start[v as usize] + dur[v as usize];
        for &(s, lag) in &succs[v as usize] {
            let su = s as usize;
            start[su] = start[su].max(fin + lag);
            indeg[su] -= 1;
            if indeg[su] == 0 {
                ready.push(s);
            }
        }
    }
    if seen != n {
        return None; // cyclic constraints: inconsistent schedule
    }

    let makespan = (0..n).map(|v| start[v] + dur[v]).max().unwrap_or(0);
    Some(AsapResult {
        task_starts: start[..n_tasks].to_vec(),
        reconf_starts: start[n_tasks..].to_vec(),
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::{
        Architecture, Device, ImplPool, Implementation, Placement, Reconfiguration, Region,
        RegionId, ResourceVec, TaskAssignment, TaskGraph, TaskId,
    };

    fn fixture_with_gap() -> (ProblemInstance, Schedule) {
        let mut impls = ImplPool::new();
        let a_sw = impls.add(Implementation::software("a_sw", 100));
        let a_hw = impls.add(Implementation::hardware(
            "a_hw",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let b_sw = impls.add(Implementation::software("b_sw", 100));
        let b_hw = impls.add(Implementation::hardware(
            "b_hw",
            12,
            ResourceVec::new(4, 0, 0),
        ));
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![a_sw, a_hw]);
        let b = g.add_task("b", vec![b_sw, b_hw]);
        g.add_edge(a, b);
        let inst = ProblemInstance::new(
            "fix",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(20, 4, 4), 1)),
            g,
            impls,
        )
        .unwrap();
        // Deliberate idle gap: reconfiguration could start at 10 but starts
        // at 20; task b could start at 25 but starts at 40.
        let schedule = Schedule {
            regions: vec![Region {
                res: ResourceVec::new(5, 0, 0),
                fabric: 0,
            }],
            assignments: vec![
                TaskAssignment {
                    impl_id: a_hw,
                    placement: Placement::Region(RegionId(0)),
                    start: 0,
                    end: 10,
                },
                TaskAssignment {
                    impl_id: b_hw,
                    placement: Placement::Region(RegionId(0)),
                    start: 40,
                    end: 52,
                },
            ],
            reconfigurations: vec![Reconfiguration {
                region: RegionId(0),
                loads_impl: b_hw,
                outgoing_task: b,
                start: 20,
                end: 25,
            }],
        };
        (inst, schedule)
    }

    #[test]
    fn asap_tightens_gaps() {
        let (inst, s) = fixture_with_gap();
        let asap = execute_asap(&inst, &s).unwrap();
        assert_eq!(asap.task_starts, vec![0, 15]); // 10 exec + 5 reconf
        assert_eq!(asap.reconf_starts, vec![10]);
        assert_eq!(asap.makespan, 27);
        assert!(asap.makespan <= s.makespan());
    }

    #[test]
    fn asap_never_beats_dependencies() {
        let (inst, s) = fixture_with_gap();
        let asap = execute_asap(&inst, &s).unwrap();
        for &(from, to) in &inst.graph.edges {
            let f_end = asap.task_starts[from.index()]
                + inst.impls.get(s.assignments[from.index()].impl_id).time;
            assert!(asap.task_starts[to.index()] >= f_end);
        }
    }

    #[test]
    fn wrong_assignment_count_is_rejected() {
        let (inst, mut s) = fixture_with_gap();
        s.assignments.pop();
        assert!(execute_asap(&inst, &s).is_none());
    }

    #[test]
    fn empty_schedule_on_empty_graph() {
        let impls = ImplPool::new();
        let g = TaskGraph::new();
        let inst = ProblemInstance::new(
            "empty",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(1, 1, 1), 1)),
            g,
            impls,
        )
        .unwrap();
        let asap = execute_asap(&inst, &Schedule::default()).unwrap();
        assert_eq!(asap.makespan, 0);
        assert!(asap.task_starts.is_empty());
        let _ = TaskId(0); // silence import on some cfgs
    }
}
