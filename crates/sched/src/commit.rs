//! The commit layer of the solve/commit seam.
//!
//! Phases A–F are a pure decision core: they mutate a [`SchedState`]
//! (implementation choices, regions, sequencing arcs, core mappings) but
//! commit nothing to the controller timeline. Phase G is where decisions
//! become reservations. This module wraps that realization in a *named
//! journal checkpoint* on the controller [`Timeline`], so the batch path
//! is literally "one big commit": every reservation phase G makes lands in
//! the journal between `checkpoint(BATCH)` and `commit(BATCH)`, and a
//! caller that wanted to abandon the realization could `rollback_to` the
//! checkpoint instead.
//!
//! The batch schedulers gain nothing functionally from the journal — they
//! never roll a realization back; the journal records reservations, it
//! never re-times them. The seam exists for the online repair engine
//! ([`crate::repair::RepairEngine`]), which re-places only an invalidation
//! frontier and uses the same checkpoint/commit discipline per event.

use prfpga_model::Schedule;
use prfpga_timeline::Timeline;

use crate::phases::reconf;
use crate::state::SchedState;

/// Name of the batch pipeline's single commit window.
pub const BATCH_CHECKPOINT: &str = "batch";

/// Applies the decision core's output as one journaled commit: resets the
/// controller lanes, opens the [`BATCH_CHECKPOINT`], runs phase G's timing
/// realization, then commits. Returns the schedule and the number of
/// journal edits the commit covered.
pub(crate) fn commit_batch(
    state: &SchedState<'_>,
    module_reuse: bool,
    icap: &mut Timeline,
) -> (Schedule, u64) {
    icap.reset(0, 0, state.controller_lanes());
    icap.checkpoint(BATCH_CHECKPOINT);
    let schedule = reconf::realize_schedule_prepared(state, module_reuse, icap);
    let edits = icap
        .commit(BATCH_CHECKPOINT)
        .expect("the batch checkpoint was opened above");
    (schedule, edits as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricWeights;
    use crate::phases::impl_select::max_t;
    use prfpga_model::{
        Architecture, Device, ImplPool, Implementation, ProblemInstance, ResourceVec, TaskGraph,
        TaskId,
    };

    /// Chain a -> b sharing one region: one reconfiguration, so the batch
    /// commit covers exactly one journal edit.
    fn chain_state() -> (ProblemInstance, Vec<prfpga_model::ImplId>) {
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
            "commit",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(5, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        (inst, vec![ha, hb])
    }

    #[test]
    fn batch_commit_journals_each_reconfiguration() {
        let (inst, choice) = chain_state();
        let w = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
        let mut st = SchedState::new(&inst, w, choice.clone()).unwrap();
        st.open_region(TaskId(0), choice[0]);
        st.assign_to_region(TaskId(1), choice[1], 0);

        let mut icap = Timeline::new();
        let (committed, edits) = commit_batch(&st, false, &mut icap);
        assert_eq!(committed.reconfigurations.len(), 1);
        assert_eq!(edits, 1);
        // The commit consumed the checkpoint: the journal survives (the
        // reservations are kept) but the name is gone.
        assert!(icap.edits_since(BATCH_CHECKPOINT).is_none());
    }
}
