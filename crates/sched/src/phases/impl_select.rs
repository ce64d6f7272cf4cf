//! Phase A — implementation selection (§V-A).
//!
//! For every task: score each hardware implementation with the cost metric
//! of eq. 3 (relative weighted area + normalized execution time, weighting
//! scarce resources more), pick the cheapest hardware candidate `i_H` and
//! the fastest software candidate `i_S`, then select whichever of the two
//! executes faster.

use prfpga_model::{Device, ImplId, ProblemInstance, Time};

use crate::config::CostPolicy;
use crate::metrics::MetricWeights;

/// Computes `maxT` (eq. 4): the sum over tasks of their fastest
/// implementation time — the all-serial lower-bound horizon used to
/// normalize the cost metric's time term.
pub fn max_t(inst: &ProblemInstance) -> Time {
    inst.graph
        .task_ids()
        .map(|t| {
            inst.graph
                .task(t)
                .impls
                .iter()
                .map(|&i| inst.impls.get(i).time)
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// Phase A as the driver runs it: derives the metric weights (eq. 4) for
/// the (possibly shrunk) device capacity and selects implementations into
/// a caller-owned choice buffer.
pub fn run_phase_into(
    inst: &ProblemInstance,
    device: &Device,
    policy: CostPolicy,
    choice: &mut Vec<ImplId>,
) -> MetricWeights {
    let weights = MetricWeights::new(&device.max_res, max_t(inst));
    select_implementations_into(inst, &weights, policy, choice);
    weights
}

/// Runs implementation selection, returning the chosen implementation per
/// task.
pub fn select_implementations(
    inst: &ProblemInstance,
    weights: &MetricWeights,
    policy: CostPolicy,
) -> Vec<ImplId> {
    let mut choice = Vec::new();
    select_implementations_into(inst, weights, policy, &mut choice);
    choice
}

/// [`select_implementations`] into `choice` (cleared first).
pub fn select_implementations_into(
    inst: &ProblemInstance,
    weights: &MetricWeights,
    policy: CostPolicy,
    choice: &mut Vec<ImplId>,
) {
    choice.clear();
    choice.extend(inst.graph.task_ids().map(|t| {
        // Cheapest hardware implementation by eq. 3 (ties: lower id).
        let best_hw = inst.hw_impls(t).min_by_key(|&i| {
            let imp = inst.impls.get(i);
            (weights.cost_micro(&imp.resources(), imp.time, policy), i)
        });
        // Fastest software implementation (always present).
        let best_sw = inst.fastest_sw_impl(t);
        match best_hw {
            Some(hw) if inst.impls.get(hw).time < inst.impls.get(best_sw).time => hw,
            _ => best_sw,
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::{Architecture, Device, ImplPool, Implementation, ResourceVec, TaskGraph};

    fn build(impl_sets: Vec<Vec<Implementation>>) -> ProblemInstance {
        let mut pool = ImplPool::new();
        let mut graph = TaskGraph::new();
        for (i, set) in impl_sets.into_iter().enumerate() {
            let ids: Vec<ImplId> = set.into_iter().map(|imp| pool.add(imp)).collect();
            graph.add_task(format!("t{i}"), ids);
        }
        ProblemInstance::new(
            "sel",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(1000, 100, 100), 10)),
            graph,
            pool,
        )
        .unwrap()
    }

    fn weights(inst: &ProblemInstance) -> MetricWeights {
        MetricWeights::new(&inst.architecture.device.max_res, max_t(inst))
    }

    #[test]
    fn max_t_sums_fastest_times() {
        let inst = build(vec![
            vec![
                Implementation::software("s", 100),
                Implementation::hardware("h", 10, ResourceVec::new(5, 0, 0)),
            ],
            vec![Implementation::software("s", 40)],
        ]);
        assert_eq!(max_t(&inst), 50);
    }

    #[test]
    fn picks_cost_effective_hw_over_fast_expensive_hw() {
        // Fast-but-huge vs slower-but-small: the huge one eats most of the
        // device (cost ~1 + eps), the small one is much cheaper and still
        // beats software, so it must win.
        let inst = build(vec![
            vec![
                Implementation::software("s", 10_000),
                Implementation::hardware("huge", 100, ResourceVec::new(950, 90, 90)),
                Implementation::hardware("small", 300, ResourceVec::new(50, 5, 5)),
            ],
            // Companion work inflating maxT to a realistic multi-task
            // horizon (eq. 4 sums the fastest times of *all* tasks).
            vec![Implementation::software("other", 2000)],
        ]);
        let w = weights(&inst);
        let choice = select_implementations(&inst, &w, CostPolicy::Full);
        assert_eq!(inst.impls.get(choice[0]).name, "small");
    }

    #[test]
    fn falls_back_to_sw_when_faster() {
        let inst = build(vec![vec![
            Implementation::software("s", 50),
            Implementation::hardware("h", 80, ResourceVec::new(10, 0, 0)),
        ]]);
        let w = weights(&inst);
        let choice = select_implementations(&inst, &w, CostPolicy::Full);
        assert_eq!(inst.impls.get(choice[0]).name, "s");
    }

    #[test]
    fn hw_wins_ties_only_when_strictly_faster() {
        let inst = build(vec![vec![
            Implementation::software("s", 80),
            Implementation::hardware("h", 80, ResourceVec::new(10, 0, 0)),
        ]]);
        let w = weights(&inst);
        let choice = select_implementations(&inst, &w, CostPolicy::Full);
        assert!(inst.impls.get(choice[0]).is_software());
    }

    #[test]
    fn time_only_policy_picks_fastest_hw() {
        let inst = build(vec![vec![
            Implementation::software("s", 10_000),
            Implementation::hardware("huge_fast", 100, ResourceVec::new(950, 90, 90)),
            Implementation::hardware("small_slow", 300, ResourceVec::new(50, 5, 5)),
        ]]);
        let w = weights(&inst);
        let choice = select_implementations(&inst, &w, CostPolicy::TimeOnly);
        assert_eq!(inst.impls.get(choice[0]).name, "huge_fast");
    }

    #[test]
    fn sw_only_task() {
        let inst = build(vec![vec![Implementation::software("s", 7)]]);
        let w = weights(&inst);
        let choice = select_implementations(&inst, &w, CostPolicy::Full);
        assert!(inst.impls.get(choice[0]).is_software());
    }
}
