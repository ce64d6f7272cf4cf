//! Phase D — software task balancing (§V-D).
//!
//! Regions definition may have pushed tasks to software, leaving fabric
//! idle while hardware tasks wait on slow software producers. This phase
//! walks the software tasks that *do* have hardware implementations, in
//! ascending `T_MIN` order, and hoists one back into hardware when:
//!
//! * its start lies beyond the estimated total reconfiguration load
//!   (`T_MIN > totRecTime`, eq. 6) — so adding one more reconfiguration
//!   will not congest the controller; and
//! * some region can host it without window overlap (and without creating
//!   a dependency cycle through the sequencing arcs).

use prfpga_model::TaskId;

use crate::state::SchedState;

/// Runs software task balancing; returns the number of tasks hoisted back
/// to hardware.
pub fn balance_software_tasks(state: &mut SchedState<'_>) -> usize {
    let mut hoisted = 0;
    loop {
        // Candidates: software tasks with hardware implementations,
        // ascending T_MIN under the *current* windows. Re-evaluated after
        // every hoist because windows move.
        let mut cands: Vec<TaskId> = state
            .inst
            .graph
            .task_ids()
            .filter(|&t| !state.is_hw(t) && state.inst.hw_impls(t).next().is_some())
            .collect();
        cands.sort_by_key(|&t| (state.window(t).min, t));

        let tot_rec = state.total_reconf_time();
        let mut moved = false;
        for t in cands {
            if state.window(t).min <= tot_rec {
                continue; // controller estimated busy up to totRecTime
            }
            if let Some((s, imp)) = best_hosting(state, t) {
                state.assign_to_region(t, imp, s);
                hoisted += 1;
                moved = true;
                break; // windows changed; restart scan
            }
        }
        if !moved {
            return hoisted;
        }
    }
}

/// Finds the smallest-bitstream region that can host `t` with its
/// lowest-cost hardware implementation that fits (§V-D step 2: "the
/// hardware implementation with the lowest cost").
fn best_hosting(state: &SchedState<'_>, t: TaskId) -> Option<(usize, prfpga_model::ImplId)> {
    let mut best: Option<(u64, usize, prfpga_model::ImplId)> = None;
    for s in 0..state.regions.len() {
        // Only regions on the task's assigned fabric can host it.
        if state.regions[s].fabric != state.fabric_of[t.index()] {
            continue;
        }
        // Cheapest HW implementation fitting region s.
        let imp = state
            .inst
            .hw_impls(t)
            .filter(|&i| {
                state
                    .inst
                    .impls
                    .get(i)
                    .resources()
                    .fits_in(&state.regions[s].res)
            })
            .min_by_key(|&i| {
                let im = state.inst.impls.get(i);
                (
                    state.weights.cost_micro(
                        &im.resources(),
                        im.time,
                        crate::config::CostPolicy::Full,
                    ),
                    i,
                )
            });
        let Some(imp) = imp else { continue };
        // Window compatibility for the *hardware* duration of `imp`: probe
        // with a temporary window anchored at the task's current T_MIN.
        if !hosting_compatible(state, t, s, imp) {
            continue;
        }
        let bits = state
            .fabric_device(state.regions[s].fabric)
            .bitstream_bits(&state.regions[s].res);
        if best.is_none_or(|(b, ..)| bits < b) {
            best = Some((bits, s, imp));
        }
    }
    best.map(|(_, s, imp)| (s, imp))
}

/// Window-overlap + cycle-safety probe for hoisting `t` into `s`.
fn hosting_compatible(
    state: &SchedState<'_>,
    t: TaskId,
    s: usize,
    imp: prfpga_model::ImplId,
) -> bool {
    let w_min = state.window(t).min;
    let hw_time = state.inst.impls.get(imp).time;
    // Planned occupancy under the hardware implementation: anchored at the
    // task's current T_MIN for the hardware duration.
    let w_t = prfpga_model::TimeWindow::new(w_min, w_min + hw_time);
    for &other in &state.regions[s].tasks {
        if state.occupancy(other).overlaps(&w_t) {
            return false;
        }
    }
    let pos = state.insertion_pos(s, w_min);
    if pos > 0 {
        let prev = state.regions[s].tasks[pos - 1];
        if state.reachable(t.0, prev.0) {
            return false;
        }
    }
    if let Some(&next) = state.regions[s].tasks.get(pos) {
        if state.reachable(next.0, t.0) {
            return false;
        }
    }
    true
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

    /// Instance: t0 HW in a region finishing at 10; t1 is a *software* task
    /// (with an available HW impl) whose window starts late (depends on a
    /// long SW task t2). t1 can be hoisted into t0's region.
    fn fixture() -> ProblemInstance {
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        let s0 = pool.add(Implementation::software("s0", 900));
        let h0 = pool.add(Implementation::hardware(
            "h0",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let t0 = g.add_task("t0", vec![s0, h0]);
        let s2 = pool.add(Implementation::software("s2", 500));
        let t2 = g.add_task("t2", vec![s2]);
        let s1 = pool.add(Implementation::software("s1", 300));
        let h1 = pool.add(Implementation::hardware(
            "h1",
            40,
            ResourceVec::new(4, 0, 0),
        ));
        let t1 = g.add_task("t1", vec![s1, h1]);
        g.add_edge(t2, t1); // t1 starts after the 500-tick software task
        let _ = t0;
        ProblemInstance::new(
            "bal",
            Architecture::new(2, Device::tiny_test(ResourceVec::new(5, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap()
    }

    fn state(inst: &ProblemInstance) -> SchedState<'_> {
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(inst));
        // t0 chosen HW, t1/t2 SW.
        let choice = vec![ImplId(1), ImplId(2), ImplId(3)];
        let mut st = SchedState::new(inst, w, choice).unwrap();
        let h0 = ImplId(1);
        st.open_region(prfpga_model::TaskId(0), h0);
        st
    }

    #[test]
    fn hoists_late_software_task_into_idle_region() {
        let inst = fixture();
        let mut st = state(&inst);
        assert!(!st.is_hw(TaskId(2)));
        // totRecTime = 0 (single task in region); t1's T_MIN = 500 > 0.
        let hoisted = balance_software_tasks(&mut st);
        assert_eq!(hoisted, 1);
        assert!(st.is_hw(TaskId(2)));
        assert_eq!(st.region_of[2], Some(0));
        // Hardware implementation with lowest cost was used (h1 = id 4).
        assert_eq!(st.impl_choice[2], ImplId(4));
        assert_eq!(st.durations[2], 40);
    }

    #[test]
    fn respects_tot_rec_time_gate() {
        let inst = fixture();
        let st = state(&inst);
        // Inflate the estimated reconfiguration load artificially by
        // hosting a second task in the region via a second region trick:
        // instead, shrink t1's T_MIN by removing its dependency — rebuild
        // with t1 independent (T_MIN = 0), so the gate 0 > totRecTime=0
        // fails and nothing is hoisted.
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        let s0 = pool.add(Implementation::software("s0", 900));
        let h0 = pool.add(Implementation::hardware(
            "h0",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        g.add_task("t0", vec![s0, h0]);
        let s1 = pool.add(Implementation::software("s1", 300));
        let h1 = pool.add(Implementation::hardware(
            "h1",
            40,
            ResourceVec::new(4, 0, 0),
        ));
        g.add_task("t1", vec![s1, h1]);
        let inst2 = ProblemInstance::new(
            "bal2",
            Architecture::new(2, Device::tiny_test(ResourceVec::new(5, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst2.architecture.device.max_res, max_t(&inst2));
        let mut st2 = SchedState::new(&inst2, w, vec![ImplId(1), ImplId(2)]).unwrap();
        st2.open_region(TaskId(0), ImplId(1));
        let hoisted = balance_software_tasks(&mut st2);
        assert_eq!(
            hoisted, 0,
            "T_MIN == 0 is not strictly greater than totRecTime"
        );
        assert!(!st2.is_hw(TaskId(1)));
        drop(st);
    }

    #[test]
    fn no_regions_means_no_balancing() {
        let inst = fixture();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, vec![ImplId(0), ImplId(2), ImplId(3)]).unwrap();
        assert_eq!(balance_software_tasks(&mut st), 0);
    }
}
