//! Property-based tests of the PA pipeline's internal invariants, checked
//! phase by phase on random instances (the root-level property tests only
//! see the final schedule; these look inside).

mod arb;

use proptest::prelude::*;

use arb::arb_instance;
use prfpga_dag::CpmAnalysis;
use prfpga_model::ProblemInstance;
use prfpga_sched::config::{CostPolicy, OrderingPolicy};
use prfpga_sched::metrics::MetricWeights;
use prfpga_sched::phases::{impl_select, regions, sw_balance, sw_map};
use prfpga_sched::state::SchedState;

/// The state after phases A–D: regions defined and software balanced.
fn balanced_state(inst: &ProblemInstance, ordering: OrderingPolicy) -> SchedState<'_> {
    let device = &inst.architecture.device;
    let weights = MetricWeights::new(&device.max_res, impl_select::max_t(inst));
    let choice = impl_select::select_implementations(inst, &weights, CostPolicy::Full);
    let mut st = SchedState::new(inst, weights, choice).unwrap();
    regions::define_regions(&mut st, ordering);
    sw_balance::balance_software_tasks(&mut st);
    st
}

fn pipeline_state(inst: &ProblemInstance, ordering: OrderingPolicy) -> SchedState<'_> {
    let mut st = balanced_state(inst, ordering);
    sw_map::map_software_tasks(&mut st);
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Implementation selection always picks from the task's own set, and
    /// only ever picks hardware that is strictly faster than the fastest
    /// software implementation.
    #[test]
    fn impl_selection_invariants(inst in arb_instance()) {
        let w = MetricWeights::new(&inst.architecture.device.max_res, impl_select::max_t(&inst));
        let choice = impl_select::select_implementations(&inst, &w, CostPolicy::Full);
        for (t, &c) in inst.graph.task_ids().zip(choice.iter()) {
            prop_assert!(inst.graph.task(t).impls.contains(&c));
            let imp = inst.impls.get(c);
            if imp.is_hardware() {
                let sw = inst.impls.get(inst.fastest_sw_impl(t)).time;
                prop_assert!(imp.time < sw);
            }
        }
    }

    /// After regions definition (+ balancing + mapping):
    /// * committed region resources never exceed the device capacity;
    /// * every hardware task lives in exactly one region whose budget
    ///   covers its implementation;
    /// * region task sequences are consistent with the (acyclic) DAG;
    /// * every software task has a core.
    #[test]
    fn pipeline_state_invariants(inst in arb_instance()) {
        let st = pipeline_state(&inst, OrderingPolicy::EfficiencyIndex);
        prop_assert!(st.used_resources().fits_in(&st.target.device.max_res));
        // The mutated dependency graph is still acyclic (Dag enforces it,
        // but verify the public invariant end to end).
        prop_assert_eq!(st.dag.topo_order().len(), inst.graph.len());

        let mut seen = vec![false; inst.graph.len()];
        for (s, region) in st.regions.iter().enumerate() {
            for &t in &region.tasks {
                prop_assert!(!seen[t.index()], "task hosted twice");
                seen[t.index()] = true;
                prop_assert_eq!(st.region_of[t.index()], Some(s));
                prop_assert!(st.chosen_res(t).fits_in(&region.res));
                prop_assert!(st.is_hw(t));
            }
        }
        for t in inst.graph.task_ids() {
            if st.is_hw(t) {
                prop_assert!(st.region_of[t.index()].is_some());
            } else {
                prop_assert!(st.core_of[t.index()].is_some());
                prop_assert!(st.core_of[t.index()].unwrap() < inst.architecture.num_processors);
            }
        }
    }

    /// The phases' incremental window updates agree with a full CPM
    /// recompute, after phase D and after phase F's core-chain arcs.
    #[test]
    fn state_matches_cpm_oracle(inst in arb_instance(), seed in 0u64..100) {
        for ordering in [OrderingPolicy::EfficiencyIndex, OrderingPolicy::RandomizedNonCritical(seed)] {
            let mut st = balanced_state(&inst, ordering);
            prop_assert_eq!(&st.cpm, &CpmAnalysis::run(&st.dag, &st.durations));
            sw_map::map_software_tasks(&mut st);
            prop_assert_eq!(&st.cpm, &CpmAnalysis::run(&st.dag, &st.durations));
        }
    }

    /// Every ordering policy yields a pipeline state satisfying the same
    /// invariants (the policies only permute decisions, never break them).
    #[test]
    fn all_orderings_are_safe(inst in arb_instance(), seed in 0u64..100) {
        for ordering in [
            OrderingPolicy::EfficiencyIndex,
            OrderingPolicy::InverseEfficiency,
            OrderingPolicy::TaskId,
            OrderingPolicy::RandomizedNonCritical(seed),
        ] {
            let st = pipeline_state(&inst, ordering);
            prop_assert!(st.used_resources().fits_in(&st.target.device.max_res));
            prop_assert_eq!(st.dag.topo_order().len(), inst.graph.len());
        }
    }

    /// CPM windows stay coherent through the pipeline: occupancy of every
    /// task fits inside its slack window.
    #[test]
    fn occupancies_fit_windows(inst in arb_instance()) {
        let st = pipeline_state(&inst, OrderingPolicy::EfficiencyIndex);
        for t in inst.graph.task_ids() {
            let w = st.window(t);
            let occ = st.occupancy(t);
            prop_assert_eq!(occ.min, w.min);
            prop_assert!(occ.max <= w.max.max(occ.max)); // occ.max = min + dur <= max on coherent windows
            prop_assert!(w.fits(st.durations[t.index()]));
        }
    }
}
