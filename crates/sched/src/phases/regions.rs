//! Phase C — regions definition (§V-C).
//!
//! Builds the set of reconfigurable regions and assigns every hardware
//! task to one. Processing order is the algorithm's key lever (§IV):
//! critical tasks go first, and within each class tasks are ordered by
//! descending efficiency index (eq. 5) — or randomly for the PA-R
//! non-critical pass. Tasks that cannot be hosted anywhere fall back to
//! their fastest software implementation.

use prfpga_model::{TaskId, TimeWindow};

use crate::config::OrderingPolicy;
use crate::state::SchedState;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs regions definition on `state` (after implementation selection and
/// the initial CPM pass).
pub fn define_regions(state: &mut SchedState<'_>, ordering: OrderingPolicy) {
    // Snapshot criticality and efficiency under the *initial* windows; the
    // paper fixes the processing order once.
    let hw_tasks: Vec<TaskId> = state
        .inst
        .graph
        .task_ids()
        .filter(|&t| state.is_hw(t))
        .collect();

    let eff = |state: &SchedState<'_>, t: TaskId| {
        let imp = state.inst.impls.get(state.impl_choice[t.index()]);
        state.weights.efficiency_micro(&imp.resources(), imp.time)
    };

    let mut critical: Vec<TaskId> = hw_tasks
        .iter()
        .copied()
        .filter(|&t| state.is_critical(t))
        .collect();
    let mut non_critical: Vec<TaskId> = hw_tasks
        .iter()
        .copied()
        .filter(|&t| !state.is_critical(t))
        .collect();

    // Critical tasks: always by descending efficiency (ties: lower id).
    critical.sort_by_key(|&t| (std::cmp::Reverse(eff(state, t)), t));

    // Non-critical tasks: policy-dependent.
    match ordering {
        OrderingPolicy::EfficiencyIndex => {
            non_critical.sort_by_key(|&t| (std::cmp::Reverse(eff(state, t)), t));
        }
        OrderingPolicy::InverseEfficiency => {
            non_critical.sort_by_key(|&t| (eff(state, t), t));
        }
        OrderingPolicy::TaskId => non_critical.sort(),
        OrderingPolicy::RandomizedNonCritical(seed) => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            non_critical.sort();
            non_critical.shuffle(&mut rng);
        }
    }

    for t in critical {
        place_critical(state, t);
    }
    for t in non_critical {
        place_non_critical(state, t);
    }
}

/// §V-C critical-task rule: reuse the smallest-bitstream compatible region,
/// else open a new one, else fall back to software.
fn place_critical(state: &mut SchedState<'_>, t: TaskId) {
    let res = state.chosen_res(t);
    let fabric = state.fabric_of[t.index()];
    let candidate = (0..state.regions.len())
        .filter_map(|s| region_eligible(state, t, s, true).map(|imp| (s, imp)))
        .min_by_key(|&(s, imp)| {
            (
                !reuses_module(state, t, s, imp),
                state
                    .fabric_device(state.regions[s].fabric)
                    .bitstream_bits(&state.regions[s].res),
                s,
            )
        });
    if let Some((s, imp)) = candidate {
        state.assign_to_region(t, imp, s);
    } else if (state.used_resources_on(fabric) + res).fits_in(&state.fabric_cap(fabric)) {
        let imp = state.impl_choice[t.index()];
        state.open_region(t, imp);
    } else {
        state.switch_to_sw(t);
    }
}

/// §V-C non-critical rule: prefer opening a new region (maximize fabric
/// utilization), else reuse a compatible one, else fall back to software.
fn place_non_critical(state: &mut SchedState<'_>, t: TaskId) {
    let res = state.chosen_res(t);
    let fabric = state.fabric_of[t.index()];
    if (state.used_resources_on(fabric) + res).fits_in(&state.fabric_cap(fabric)) {
        let imp = state.impl_choice[t.index()];
        state.open_region(t, imp);
        return;
    }
    let candidate = (0..state.regions.len())
        .filter_map(|s| region_eligible(state, t, s, false).map(|imp| (s, imp)))
        .min_by_key(|&(s, imp)| {
            (
                !reuses_module(state, t, s, imp),
                state
                    .fabric_device(state.regions[s].fabric)
                    .bitstream_bits(&state.regions[s].res),
                s,
            )
        });
    if let Some((s, imp)) = candidate {
        state.assign_to_region(t, imp, s);
    } else {
        state.switch_to_sw(t);
    }
}

/// True when hosting `t` with `imp` in region `s` would land right after a
/// task that already uses `imp`, making the reconfiguration between them
/// unnecessary under module reuse. Only meaningful when the scheduler's
/// `module_reuse` extension is active; used as a placement tie-breaker.
fn reuses_module(state: &SchedState<'_>, t: TaskId, s: usize, imp: prfpga_model::ImplId) -> bool {
    if !state.module_reuse {
        return false;
    }
    let pos = state.insertion_pos(s, state.window(t).min);
    pos.checked_sub(1)
        .map(|i| state.regions[s].tasks[i])
        .is_some_and(|prev| state.impl_choice[prev.index()] == imp)
}

/// Region eligibility for task `t`. Returns the implementation to use when
/// the region can host the task, preferring `t`'s currently selected
/// implementation and falling back to its cheapest (eq. 3) hardware
/// implementation that fits — the same implementation flexibility phase D
/// exercises when it hoists software tasks into regions. A region is
/// eligible when:
///
/// * the region is hosted on `t`'s assigned fabric (always true without a
///   multi-fabric platform);
/// * some hardware implementation of `t` fits the region budget;
/// * no hosted task's occupancy overlaps `t`'s planned occupancy (under
///   the implementation considered);
/// * (critical tasks only) the reconfiguration interval
///   `[occ.min - reconf_s, occ.min)` needed to host `t` after an earlier
///   task exists and overlaps no hosted occupancy;
/// * inserting the sequencing arcs around `t` cannot create a dependency
///   cycle.
pub(crate) fn region_eligible(
    state: &SchedState<'_>,
    t: TaskId,
    s: usize,
    require_reconf_gap: bool,
) -> Option<prfpga_model::ImplId> {
    let region = &state.regions[s];
    if region.fabric != state.fabric_of[t.index()] {
        return None;
    }
    // Pick the implementation this region would host: the current choice
    // if it fits, otherwise the cheapest fitting hardware variant.
    let chosen = state.impl_choice[t.index()];
    let imp = if state.chosen_res(t).fits_in(&region.res) {
        chosen
    } else {
        state
            .inst
            .hw_impls(t)
            .filter(|&i| state.inst.impls.get(i).resources().fits_in(&region.res))
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
            })?
    };
    let w_min = state.window(t).min;
    let w_t = TimeWindow::new(w_min, w_min + state.inst.impls.get(imp).time);
    for &other in &region.tasks {
        if state.occupancy(other).overlaps(&w_t) {
            return None;
        }
    }
    if require_reconf_gap
        && !(state.module_reuse && {
            let pos = state.insertion_pos(s, w_min);
            pos.checked_sub(1)
                .map(|i| region.tasks[i])
                .is_some_and(|prev| state.impl_choice[prev.index()] == imp)
        })
    {
        let has_time_pred = region
            .tasks
            .iter()
            .any(|&o| state.occupancy(o).max <= w_t.min);
        if has_time_pred {
            let reconf = state.reconf_time(s);
            if w_t.min < reconf {
                return None;
            }
            let r_win = TimeWindow::new(w_t.min - reconf, w_t.min);
            if r_win.span() > 0
                && region
                    .tasks
                    .iter()
                    .any(|&o| state.occupancy(o).overlaps(&r_win))
            {
                return None;
            }
        }
    }
    // Cycle safety for the sequencing arcs around the insertion position.
    let pos = state.insertion_pos(s, w_t.min);
    if pos > 0 {
        let prev = region.tasks[pos - 1];
        if state.reachable(t.0, prev.0) {
            return None;
        }
    }
    if let Some(&next) = region.tasks.get(pos) {
        if state.reachable(next.0, t.0) {
            return None;
        }
    }
    Some(imp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostPolicy;
    use crate::metrics::MetricWeights;
    use crate::phases::impl_select::{max_t, select_implementations};
    use prfpga_model::{
        Architecture, Device, ImplPool, Implementation, ProblemInstance, ResourceVec, TaskGraph,
    };

    /// Builds an instance and a ready state (implementation selection done).
    fn setup(
        sets: Vec<Vec<Implementation>>,
        edges: Vec<(u32, u32)>,
        cap: ResourceVec,
    ) -> (ProblemInstance, Vec<prfpga_model::ImplId>) {
        let mut pool = ImplPool::new();
        let mut graph = TaskGraph::new();
        for (i, set) in sets.into_iter().enumerate() {
            let ids: Vec<_> = set.into_iter().map(|imp| pool.add(imp)).collect();
            graph.add_task(format!("t{i}"), ids);
        }
        for (a, b) in edges {
            graph.add_edge(TaskId(a), TaskId(b));
        }
        let inst = ProblemInstance::new(
            "reg",
            Architecture::new(1, Device::tiny_test(cap, 1)),
            graph,
            pool,
        )
        .unwrap();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let choice = select_implementations(&inst, &w, CostPolicy::Full);
        (inst, choice)
    }

    fn run(inst: &ProblemInstance, choice: Vec<prfpga_model::ImplId>) -> SchedState<'_> {
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(inst));
        let mut st = SchedState::new(inst, w, choice).unwrap();
        define_regions(&mut st, OrderingPolicy::EfficiencyIndex);
        st
    }

    fn hw(t: u64, clb: u64) -> Implementation {
        Implementation::hardware(format!("h{t}_{clb}"), t, ResourceVec::new(clb, 0, 0))
    }
    fn sw(t: u64) -> Implementation {
        Implementation::software(format!("s{t}"), t)
    }

    #[test]
    fn parallel_tasks_get_separate_regions() {
        // Two independent HW tasks, plenty of capacity: each opens its own
        // region (no window-compatible sharing since they overlap in time).
        let (inst, choice) = setup(
            vec![vec![sw(1000), hw(10, 5)], vec![sw(1000), hw(10, 5)]],
            vec![],
            ResourceVec::new(20, 0, 0),
        );
        let st = run(&inst, choice);
        assert_eq!(st.regions.len(), 2);
        assert!(st.region_of.iter().all(|r| r.is_some()));
    }

    #[test]
    fn chain_reuses_region_when_capacity_tight() {
        // Chain of three HW tasks, capacity fits only one region: the
        // critical chain shares one region via reconfigurations.
        // Windows: 0-10, 10-20, 20-30; reconf time = 5 (5 CLB x 1 bit / 1).
        // Gap check: w2.min = 10 >= reconf 5 and the reconfiguration
        // interval [5,10) overlaps [0,10)... so sharing is *rejected* for
        // zero-slack chains and tasks fall back to SW once capacity runs
        // out. Give slack by making the middle task SW-only.
        let (inst, choice) = setup(
            vec![
                vec![sw(1000), hw(10, 5)],
                vec![sw(50)],
                vec![sw(1000), hw(10, 5)],
            ],
            vec![(0, 1), (1, 2)],
            ResourceVec::new(5, 0, 0),
        );
        let st = run(&inst, choice);
        // Both HW tasks picked HW (faster than SW 1000); capacity only
        // allows one region; task windows 0-10 and 60-70 are disjoint with
        // a 50-tick gap > reconf 5, so they share region 0.
        assert_eq!(st.regions.len(), 1);
        assert_eq!(st.region_of[0], Some(0));
        assert_eq!(st.region_of[2], Some(0));
        assert_eq!(st.regions[0].tasks, vec![TaskId(0), TaskId(2)]);
    }

    #[test]
    fn overflow_falls_back_to_software() {
        // Three parallel HW tasks, capacity for one region only, windows
        // all overlap: two must fall back to software.
        let (inst, choice) = setup(
            vec![
                vec![sw(1000), hw(10, 5)],
                vec![sw(1000), hw(10, 5)],
                vec![sw(1000), hw(10, 5)],
            ],
            vec![],
            ResourceVec::new(5, 0, 0),
        );
        let st = run(&inst, choice);
        assert_eq!(st.regions.len(), 1);
        let hw_count = st.region_of.iter().filter(|r| r.is_some()).count();
        assert_eq!(hw_count, 1);
        // The software fallbacks now run their 1000-tick implementation.
        let sw_durations: Vec<_> = (0..3)
            .filter(|&i| st.region_of[i].is_none())
            .map(|i| st.durations[i])
            .collect();
        assert_eq!(sw_durations, vec![1000, 1000]);
    }

    #[test]
    fn region_sharing_respects_dependencies() {
        // Diamond: 0 -> {1, 2} -> 3 all HW. 1 and 2 overlap in windows so
        // they cannot share; with capacity for two regions, 1 and 2 get one
        // each and 0/3 reuse them.
        let (inst, choice) = setup(
            vec![
                vec![sw(9000), hw(100, 5)],
                vec![sw(9000), hw(200, 5)],
                vec![sw(9000), hw(150, 5)],
                vec![sw(9000), hw(100, 5)],
            ],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            ResourceVec::new(10, 0, 0),
        );
        let st = run(&inst, choice);
        assert!(st.regions.len() <= 2);
        // Tasks 1 and 2 never share a region (overlapping windows).
        if let (Some(r1), Some(r2)) = (st.region_of[1], st.region_of[2]) {
            assert_ne!(r1, r2);
        }
    }

    #[test]
    fn ordering_policies_change_outcomes_deterministically() {
        let mk = || {
            setup(
                (0..6)
                    .map(|i| vec![sw(5000), hw(100 + i * 37, 4 + (i % 3) * 3)])
                    .collect(),
                vec![(0, 3), (1, 4), (2, 5)],
                ResourceVec::new(14, 0, 0),
            )
        };
        let run_with = |ord: OrderingPolicy| {
            let (inst, choice) = mk();
            let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
            let mut st = SchedState::new(&inst, w, choice).unwrap();
            define_regions(&mut st, ord);
            (st.regions.len(), st.region_of.clone(), st.cpm.makespan)
        };
        // Determinism: same policy twice gives identical results.
        assert_eq!(
            run_with(OrderingPolicy::EfficiencyIndex),
            run_with(OrderingPolicy::EfficiencyIndex)
        );
        assert_eq!(
            run_with(OrderingPolicy::RandomizedNonCritical(5)),
            run_with(OrderingPolicy::RandomizedNonCritical(5))
        );
    }

    #[test]
    fn software_only_tasks_are_untouched() {
        let (inst, choice) = setup(
            vec![vec![sw(10)], vec![sw(20)]],
            vec![(0, 1)],
            ResourceVec::new(100, 0, 0),
        );
        let st = run(&inst, choice);
        assert!(st.regions.is_empty());
        assert_eq!(st.region_of, vec![None, None]);
    }
}
