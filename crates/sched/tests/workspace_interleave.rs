//! Pooled-worker regression: one [`SchedWorkspace`] serving *different*
//! instances interleaved must produce schedules byte-identical to
//! dedicated per-instance workspaces.
//!
//! The sharp edge this pins: the workspace caches the base-graph CPM
//! analysis keyed by the chosen [`ImplId`] vector, but `ImplId`s are
//! per-instance pool indices. A server worker alternating between two
//! instances with identical topology and identical chosen indices whose
//! pools carry *different execution times* (here: the same graph with all
//! implementation times scaled ×2, which preserves the selection) must
//! not restore the other instance's cached windows. The workspace keys
//! the cache on the duration vector as well; before that fix this test
//! fails with the ×2 instance inheriting the ×1 instance's CPM.

use prfpga_gen::{GraphConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, CancelToken, ImplId, ProblemInstance, TaskId};
use prfpga_sched::metrics::MetricWeights;
use prfpga_sched::{
    PaRScheduler, PaScheduler, SchedState, SchedWorkspace, SchedulerConfig, VirtualTarget,
};
use prfpga_sim::validate_schedule_sweep;

fn base_instance() -> ProblemInstance {
    TaskGraphGenerator::new(0x1EAF).generate(
        "interleave_a",
        &GraphConfig::standard(24),
        Architecture::zedboard_pr(),
    )
}

/// The same topology and implementation structure with every execution
/// time scaled by `factor`: ratio-preserving, so the schedulers make the
/// same implementation choices while every CPM window differs.
fn scaled_instance(base: &ProblemInstance, factor: u64) -> ProblemInstance {
    let mut inst = base.clone();
    inst.name = format!("{}_x{factor}", base.name);
    for i in 0..inst.impls.len() {
        inst.impls.get_mut(ImplId(i as u32)).time *= factor;
    }
    inst.validate().expect("scaled instance stays valid");
    inst
}

/// The surgical version of the hazard: the *same* workspace, the *same*
/// graph and the *same* chosen `ImplId` vector, but pools whose execution
/// times differ. The initial CPM analysis must be recomputed for the
/// second instance, not restored from the first one's cache. (The
/// pipeline-level tests below can mask this when implementation selection
/// happens to diverge between the siblings; here the choice is forced.)
#[test]
fn workspace_cpm_cache_keys_on_durations() {
    let a = base_instance();
    let b = scaled_instance(&a, 2);
    let choice: Vec<ImplId> = (0..a.graph.len())
        .map(|i| a.fastest_sw_impl(TaskId(i as u32)))
        .collect();
    let weights = MetricWeights::new(&a.architecture.device.max_res, 1);
    let target_a = VirtualTarget::new(&a.architecture, 0);
    let target_b = VirtualTarget::new(&b.architecture, 0);

    // Expected windows for b, from a workspace that never saw a.
    let fresh = SchedState::from_workspace(
        &b,
        &target_b,
        weights.clone(),
        choice.clone(),
        &mut SchedWorkspace::new(),
    )
    .expect("fresh state for b");
    let expect_b = fresh.cpm.windows.clone();

    // A pooled workspace primed by a must reproduce them exactly.
    let mut ws = SchedWorkspace::new();
    let st = SchedState::from_workspace(&a, &target_a, weights.clone(), choice.clone(), &mut ws)
        .expect("state for a");
    let windows_a = st.cpm.windows.clone();
    st.recycle(&mut ws);

    let st = SchedState::from_workspace(&b, &target_b, weights, choice, &mut ws)
        .expect("pooled state for b");
    assert_ne!(windows_a, expect_b, "scaling must move the windows");
    assert_eq!(
        st.cpm.windows, expect_b,
        "pooled workspace restored instance a's stale CPM"
    );
    st.recycle(&mut ws);
    assert_eq!(ws.reuses(), 1, "the graph-level cache must still reuse");
}

#[test]
fn pa_interleaved_instances_match_dedicated_workspaces() {
    let a = base_instance();
    let b = scaled_instance(&a, 2);
    let sched = PaScheduler::new(SchedulerConfig::default());

    let base_a = sched
        .schedule_with_cancel_in(&a, &CancelToken::never(), &mut SchedWorkspace::new())
        .expect("instance a schedules");
    let base_b = sched
        .schedule_with_cancel_in(&b, &CancelToken::never(), &mut SchedWorkspace::new())
        .expect("instance b schedules");
    // The scaling must actually move the answer, or the interleave below
    // could pass vacuously.
    assert_ne!(base_a.schedule.makespan(), base_b.schedule.makespan());

    let mut ws = SchedWorkspace::new();
    for round in 0..3 {
        let ra = sched
            .schedule_with_cancel_in(&a, &CancelToken::never(), &mut ws)
            .expect("interleaved a schedules");
        validate_schedule_sweep(&a, &ra.schedule).expect("interleaved a validates");
        assert_eq!(ra.schedule, base_a.schedule, "round {round}, instance a");

        let rb = sched
            .schedule_with_cancel_in(&b, &CancelToken::never(), &mut ws)
            .expect("interleaved b schedules");
        validate_schedule_sweep(&b, &rb.schedule).expect("interleaved b validates");
        assert_eq!(rb.schedule, base_b.schedule, "round {round}, instance b");
    }
}

#[test]
fn par_interleaved_instances_match_dedicated_workspaces() {
    let a = base_instance();
    let b = scaled_instance(&a, 2);
    let config = SchedulerConfig {
        max_iterations: 6,
        ..Default::default()
    };
    let sched = PaRScheduler::new(config);

    let base_a = sched
        .schedule_with_cancel_in(&a, 1, &CancelToken::never(), &mut SchedWorkspace::new())
        .expect("instance a schedules");
    let base_b = sched
        .schedule_with_cancel_in(&b, 1, &CancelToken::never(), &mut SchedWorkspace::new())
        .expect("instance b schedules");

    let mut ws = SchedWorkspace::new();
    for round in 0..2 {
        let ra = sched
            .schedule_with_cancel_in(&a, 1, &CancelToken::never(), &mut ws)
            .expect("interleaved a schedules");
        assert_eq!(ra.schedule, base_a.schedule, "round {round}, instance a");
        let rb = sched
            .schedule_with_cancel_in(&b, 1, &CancelToken::never(), &mut ws)
            .expect("interleaved b schedules");
        assert_eq!(rb.schedule, base_b.schedule, "round {round}, instance b");
    }
}
