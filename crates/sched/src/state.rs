//! Mutable scheduler state shared by the pipeline phases, plus the
//! reusable workspace that makes repeated `doSchedule` runs
//! allocation-free.

use std::borrow::Cow;
use std::mem;

use prfpga_dag::{reach, CpmAnalysis, CpmScratch, Dag, DagCheckpoint};
use prfpga_model::{
    Device, ImplId, ProblemInstance, Region, ResourceVec, TaskId, Time, TimeWindow,
};
use prfpga_timeline::Timeline;

use crate::driver::VirtualTarget;
use crate::error::SchedError;
use crate::metrics::MetricWeights;
use crate::phases::sw_map::SwMapScratch;

/// A reconfigurable region being built up during regions definition.
#[derive(Debug, Clone)]
pub struct RegionBuild {
    /// Resource budget (`res_{s,r}`); fixed at creation from the first
    /// hosted implementation.
    pub res: ResourceVec,
    /// Fabric hosting the region; fixed at creation from the opening
    /// task's partition assignment (always 0 on a single-fabric target).
    pub fabric: u32,
    /// Hosted tasks, kept sorted by their window start at insertion time.
    pub tasks: Vec<TaskId>,
}

/// The base (data-dependency) graph cached inside a [`SchedWorkspace`]:
/// enough to recognize "same instance as last run" and rewind the DAG to
/// it instead of rebuilding from scratch.
#[derive(Debug, Default)]
struct BaseGraph {
    nodes: usize,
    edges: Vec<(TaskId, TaskId)>,
    checkpoint: Option<DagCheckpoint>,
}

/// All heap buffers one `doSchedule` pipeline run needs, owned separately
/// from the run so they survive it.
///
/// The PA driver restarts the pipeline up to `max_attempts` times and
/// PA-R runs it once per iteration; without a workspace every run
/// re-allocates the DAG adjacency lists, the CPM vectors, the region
/// tables and the per-task maps. Threading one workspace through
/// ([`crate::driver`]'s restart loop, PA-R's iteration loop, one per
/// worker in the parallel variant) makes the steady state allocation-free:
/// the DAG rolls back to a checkpoint of the base graph, CPM recomputes
/// into warm buffers, and region task lists are recycled through a pool.
///
/// Results are byte-identical to the fresh-allocation path — the rollback
/// restores the exact base graph and every buffer is cleared before reuse.
#[derive(Debug, Default)]
pub struct SchedWorkspace {
    dag: Dag,
    impl_choice: Vec<ImplId>,
    durations: Vec<Time>,
    cpm: CpmAnalysis,
    cpm_scratch: CpmScratch,
    regions: Vec<RegionBuild>,
    region_of: Vec<Option<usize>>,
    core_of: Vec<Option<usize>>,
    fabric_of: Vec<u32>,
    region_pool: Vec<Vec<TaskId>>,
    base: BaseGraph,
    /// Implementation choice the cached `base_cpm` was computed under.
    base_choice: Vec<ImplId>,
    /// Durations the cached `base_cpm` was computed from. `base_choice`
    /// alone is not a valid cache key across instances: `ImplId`s are
    /// per-instance pool indices, so a pooled worker can see two
    /// instances with identical topology and identical chosen indices
    /// whose pools carry different execution times.
    base_durations: Vec<Time>,
    /// Initial CPM analysis of the base graph under `base_choice` /
    /// `base_durations`; reused runs with the same choice restore it by
    /// copy instead of recomputing.
    base_cpm: CpmAnalysis,
    /// Phase F's forward-pass buffers.
    sw_map: SwMapScratch,
    /// Controller-lane reservation kernel for phase G's timing realization
    /// (held here, not in the state, because `realize_schedule` reads the
    /// state immutably while committing controller reservations).
    pub(crate) reconf_timeline: Timeline,
    rebuilds: u64,
    reuses: u64,
}

impl SchedWorkspace {
    /// An empty workspace; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the implementation-choice buffer (cleared) so phase A can
    /// fill it without allocating; hand it back via
    /// [`SchedState::from_workspace`].
    pub(crate) fn take_impl_choice(&mut self) -> Vec<ImplId> {
        let mut v = mem::take(&mut self.impl_choice);
        v.clear();
        v
    }

    /// Times a state was built by rewinding the cached base graph instead
    /// of rebuilding it.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Times the base graph had to be (re)built from the instance — 1 for
    /// any sequence of runs over a single instance.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Rewinds `self.dag` to the base graph of `inst`, rebuilding it only
    /// when the cached base does not match the instance. Returns whether
    /// the cached base was reused (vs rebuilt).
    fn reset_graph(&mut self, inst: &ProblemInstance) -> Result<bool, SchedError> {
        let matches = self.base.checkpoint.is_some()
            && self.base.nodes == inst.graph.len()
            && self.base.edges == inst.graph.edges;
        if matches {
            let cp = self.base.checkpoint.expect("checked above");
            self.dag.rollback(cp);
            self.reuses += 1;
        } else {
            self.dag = Dag::from_taskgraph(&inst.graph).map_err(|_| SchedError::CyclicTaskGraph)?;
            self.base = BaseGraph {
                nodes: inst.graph.len(),
                edges: inst.graph.edges.clone(),
                checkpoint: Some(self.dag.checkpoint()),
            };
            self.base_choice.clear();
            self.base_durations.clear();
            // Re-targeting at a new instance is the natural point to stop
            // pinning DFS scratch sized for the previous (possibly much
            // larger) graph.
            reach::shrink_scratch_to(inst.graph.len());
            self.rebuilds += 1;
        }
        Ok(matches)
    }
}

/// The evolving state of one `doSchedule` run: implementation choices,
/// the dependency DAG (data arcs plus sequencing arcs added by the
/// phases), CPM windows and the region set.
#[derive(Debug)]
pub struct SchedState<'a> {
    /// The instance being scheduled.
    pub inst: &'a ProblemInstance,
    /// The target with possibly shrunk capacities, borrowed from the
    /// scheduling loop's ratchet (owned at full capacity when built by
    /// [`SchedState::new`]). Per-fabric arithmetic goes through
    /// [`SchedState::fabric_device`].
    pub target: Cow<'a, VirtualTarget>,
    /// Partition assignment per task (fabric index), filled by the
    /// partition phase; all zeros on a single-fabric target.
    pub fabric_of: Vec<u32>,
    /// Metric weights for the current device capacity.
    pub weights: MetricWeights,
    /// Dependency DAG over the tasks.
    pub dag: Dag,
    /// Chosen implementation per task.
    pub impl_choice: Vec<ImplId>,
    /// Execution time of the chosen implementation per task.
    pub durations: Vec<Time>,
    /// Current CPM analysis (windows + critical set); every mutation keeps
    /// it in sync through [`CpmAnalysis::apply_arc`] /
    /// [`CpmAnalysis::apply_duration`].
    pub cpm: CpmAnalysis,
    /// Regions defined so far.
    pub regions: Vec<RegionBuild>,
    /// Region index per task (`None` = software task).
    pub region_of: Vec<Option<usize>>,
    /// Core index per software task, filled by the mapping phase.
    pub core_of: Vec<Option<usize>>,
    /// Whether the module-reuse extension is active (affects placement
    /// tie-breaking and reconfiguration planning).
    pub module_reuse: bool,
    /// Phase F's forward-pass buffers, fed by the workspace.
    pub(crate) sw_map: SwMapScratch,
    /// Warm CPM buffers for the incremental window updates.
    pub(crate) cpm_scratch: CpmScratch,
    /// Recycled region task lists, fed by the workspace.
    region_pool: Vec<Vec<TaskId>>,
}

impl<'a> SchedState<'a> {
    /// Builds the state after implementation selection, allocating fresh
    /// buffers, against `inst`'s architecture at full capacity. Direct
    /// phase callers (tests, experiments) use this; scheduler loops go
    /// through [`SchedState::from_workspace`].
    pub fn new(
        inst: &'a ProblemInstance,
        weights: MetricWeights,
        impl_choice: Vec<ImplId>,
    ) -> Result<Self, SchedError> {
        let target = Cow::Owned(VirtualTarget::new(&inst.architecture, 0));
        Self::build(
            inst,
            target,
            weights,
            impl_choice,
            &mut SchedWorkspace::new(),
        )
    }

    /// Builds the state out of `ws`'s buffers: the DAG rewinds to the
    /// cached base graph (or is rebuilt on first use / instance change),
    /// the initial CPM pass is restored from the workspace's cache or
    /// recomputed, and every table is cleared, not re-allocated. The buffers return to
    /// `ws` via [`SchedState::recycle`].
    pub fn from_workspace(
        inst: &'a ProblemInstance,
        target: &'a VirtualTarget,
        weights: MetricWeights,
        impl_choice: Vec<ImplId>,
        ws: &mut SchedWorkspace,
    ) -> Result<Self, SchedError> {
        Self::build(inst, Cow::Borrowed(target), weights, impl_choice, ws)
    }

    fn build(
        inst: &'a ProblemInstance,
        target: Cow<'a, VirtualTarget>,
        weights: MetricWeights,
        impl_choice: Vec<ImplId>,
        ws: &mut SchedWorkspace,
    ) -> Result<Self, SchedError> {
        let n = inst.graph.len();
        assert_eq!(impl_choice.len(), n);
        let reused = ws.reset_graph(inst)?;
        let dag = mem::take(&mut ws.dag);

        let mut durations = mem::take(&mut ws.durations);
        durations.clear();
        durations.extend(impl_choice.iter().map(|&i| inst.impls.get(i).time));

        let mut cpm = mem::take(&mut ws.cpm);
        let mut cpm_scratch = mem::take(&mut ws.cpm_scratch);
        if reused && ws.base_choice == impl_choice && ws.base_durations == durations {
            // Same base graph, same implementation choice, same execution
            // times: the initial analysis is identical to the cached one
            // by determinism. The scratch's topological order stays valid
            // — the rollback only removed arcs, which cannot break an
            // order.
            cpm.clone_from(&ws.base_cpm);
        } else {
            cpm.recompute(&dag, &durations, None, &mut cpm_scratch);
            ws.base_choice.clear();
            ws.base_choice.extend_from_slice(&impl_choice);
            ws.base_durations.clone_from(&durations);
            ws.base_cpm.clone_from(&cpm);
        }

        // Recycle last run's region task lists through the pool.
        let mut region_pool = mem::take(&mut ws.region_pool);
        let mut regions = mem::take(&mut ws.regions);
        for r in regions.drain(..) {
            let mut tasks = r.tasks;
            tasks.clear();
            region_pool.push(tasks);
        }

        let mut region_of = mem::take(&mut ws.region_of);
        region_of.clear();
        region_of.resize(n, None);
        let mut core_of = mem::take(&mut ws.core_of);
        core_of.clear();
        core_of.resize(n, None);
        let mut fabric_of = mem::take(&mut ws.fabric_of);
        fabric_of.clear();
        fabric_of.resize(n, 0);

        Ok(SchedState {
            inst,
            target,
            fabric_of,
            weights,
            dag,
            impl_choice,
            durations,
            cpm,
            regions,
            region_of,
            core_of,
            module_reuse: false,
            sw_map: mem::take(&mut ws.sw_map),
            cpm_scratch,
            region_pool,
        })
    }

    /// Hands this run's buffers back to `ws` for the next run. The DAG is
    /// returned with its sequencing arcs still in place; the next
    /// [`SchedState::from_workspace`] rewinds them.
    pub fn recycle(self, ws: &mut SchedWorkspace) {
        ws.dag = self.dag;
        ws.impl_choice = self.impl_choice;
        ws.durations = self.durations;
        ws.cpm = self.cpm;
        ws.cpm_scratch = self.cpm_scratch;
        ws.regions = self.regions;
        ws.region_of = self.region_of;
        ws.core_of = self.core_of;
        ws.fabric_of = self.fabric_of;
        ws.region_pool = self.region_pool;
        ws.sw_map = self.sw_map;
    }

    /// Window of a task under the current CPM analysis.
    #[inline]
    pub fn window(&self, t: TaskId) -> TimeWindow {
        self.cpm.windows[t.index()]
    }

    /// Planned occupancy of a task: `[T_MIN, T_MIN + exe)`. Phase E (§V-E)
    /// anchors every task at its earliest start, so this is the slot a task
    /// is expected to hold on its resource; the window-compatibility checks
    /// of phases C and D compare occupancies (for a critical task the
    /// occupancy *is* its window, since its slack is zero).
    #[inline]
    pub fn occupancy(&self, t: TaskId) -> TimeWindow {
        let w = self.cpm.windows[t.index()];
        TimeWindow::new(w.min, w.min + self.durations[t.index()])
    }

    /// True when the task is on the critical path under the current CPM.
    #[inline]
    pub fn is_critical(&self, t: TaskId) -> bool {
        self.cpm.critical[t.index()]
    }

    /// True when the chosen implementation of `t` is hardware.
    #[inline]
    pub fn is_hw(&self, t: TaskId) -> bool {
        self.inst
            .impls
            .get(self.impl_choice[t.index()])
            .is_hardware()
    }

    /// Resources of the chosen implementation of `t` (zero for software).
    #[inline]
    pub fn chosen_res(&self, t: TaskId) -> ResourceVec {
        self.inst.impls.get(self.impl_choice[t.index()]).resources()
    }

    /// Updates the analysis after `durations[t]` changed from `old` (a
    /// no-op if the duration is in fact unchanged).
    fn windows_after_duration_change(&mut self, t: TaskId, old: Time) {
        if self.durations[t.index()] != old {
            self.cpm
                .apply_duration(&self.dag, &self.durations, t.0, old, &mut self.cpm_scratch);
        }
    }

    /// Switches `t` to its fastest software implementation and refreshes
    /// the windows (§V-C fallback rule).
    pub fn switch_to_sw(&mut self, t: TaskId) {
        let sw = self.inst.fastest_sw_impl(t);
        let old = self.durations[t.index()];
        self.impl_choice[t.index()] = sw;
        self.durations[t.index()] = self.inst.impls.get(sw).time;
        self.region_of[t.index()] = None;
        self.windows_after_duration_change(t, old);
    }

    /// Switches `t` to hardware implementation `imp` hosted in region
    /// `region`, inserting the region sequencing arcs around it, and
    /// refreshes the windows. The caller must have verified ordering
    /// consistency (no cycle) beforehand.
    pub fn assign_to_region(&mut self, t: TaskId, imp: ImplId, region: usize) {
        debug_assert!(self.inst.impls.get(imp).is_hardware());
        let old = self.durations[t.index()];
        self.impl_choice[t.index()] = imp;
        self.durations[t.index()] = self.inst.impls.get(imp).time;
        self.region_of[t.index()] = Some(region);

        // Keep the region's task list sorted by current window start and
        // wire sequencing arcs to the immediate neighbours. Insertion
        // position and neighbours are fixed before any window update.
        let w_min = self.window(t).min;
        let pos = self.insertion_pos(region, w_min);
        let tasks = &mut self.regions[region].tasks;
        tasks.insert(pos, t);
        let prev = pos.checked_sub(1).map(|i| tasks[i]);
        let next = tasks.get(pos + 1).copied();
        self.windows_after_duration_change(t, old);
        if let Some(p) = prev {
            self.dag
                .add_edge(p.0, t.0)
                .expect("caller checked ordering consistency (prev)");
            self.cpm
                .apply_arc(&self.dag, &self.durations, p.0, t.0, &mut self.cpm_scratch);
        }
        if let Some(nx) = next {
            self.dag
                .add_edge(t.0, nx.0)
                .expect("caller checked ordering consistency (next)");
            self.cpm
                .apply_arc(&self.dag, &self.durations, t.0, nx.0, &mut self.cpm_scratch);
        }
    }

    /// Opens a new region sized for `imp` on `t`'s partition fabric and
    /// assigns `t` to it.
    pub fn open_region(&mut self, t: TaskId, imp: ImplId) {
        let res = self.inst.impls.get(imp).resources();
        let fabric = self.fabric_of[t.index()];
        let tasks = self.region_pool.pop().unwrap_or_default();
        debug_assert!(tasks.is_empty());
        self.regions.push(RegionBuild { res, fabric, tasks });
        let region = self.regions.len() - 1;
        let old = self.durations[t.index()];
        self.impl_choice[t.index()] = imp;
        self.durations[t.index()] = self.inst.impls.get(imp).time;
        self.region_of[t.index()] = Some(region);
        self.regions[region].tasks.push(t);
        self.windows_after_duration_change(t, old);
    }

    /// Position at which a task whose window starts at `w_min` would be
    /// inserted into region `s`'s task sequence: after every hosted task
    /// whose window starts no later. Eligibility checks and the actual
    /// insertion share this function so the sequencing arcs always match
    /// the cycle-safety probe.
    pub fn insertion_pos(&self, s: usize, w_min: Time) -> usize {
        self.regions[s]
            .tasks
            .iter()
            .take_while(|&&o| self.cpm.windows[o.index()].min <= w_min)
            .count()
    }

    /// The regions as a schedule carries them: each one's resources and
    /// fabric, in region order. Fixed once phase C has run.
    pub fn region_set(&self) -> Vec<Region> {
        self.regions
            .iter()
            .map(|r| Region {
                res: r.res,
                fabric: r.fabric,
            })
            .collect()
    }

    /// Fabric resources already committed to regions (all fabrics summed).
    pub fn used_resources(&self) -> ResourceVec {
        self.regions.iter().map(|r| r.res).sum()
    }

    /// Resources already committed to regions hosted on fabric `f`.
    pub fn used_resources_on(&self, f: u32) -> ResourceVec {
        self.regions
            .iter()
            .filter(|r| r.fabric == f)
            .map(|r| r.res)
            .sum()
    }

    /// Number of fabrics of the target.
    #[inline]
    pub fn num_fabrics(&self) -> usize {
        self.target.platform.num_fabrics()
    }

    /// The (possibly capacity-shrunk) device describing fabric `f`. Bit
    /// costs and reconfiguration throughput are never shrunk, so timing
    /// arithmetic through this accessor matches the real fabric.
    #[inline]
    pub fn fabric_device(&self, f: u32) -> &Device {
        &self.target.platform.fabrics[f as usize]
    }

    /// Capacity of fabric `f` under the current (possibly shrunk) target.
    #[inline]
    pub fn fabric_cap(&self, f: u32) -> ResourceVec {
        self.fabric_device(f).max_res
    }

    /// Total controller-timeline lanes: `num_reconfig_controllers` per
    /// fabric, fabric `f` owning lanes `[f*k, f*k+k)`.
    #[inline]
    pub fn controller_lanes(&self) -> usize {
        self.inst.architecture.num_reconfig_controllers.max(1) * self.num_fabrics()
    }

    /// Latency added to data edges crossing fabrics.
    #[inline]
    pub fn crossing_latency(&self) -> Time {
        self.target.platform.crossing_latency
    }

    /// Estimated reconfiguration time of region `s` (eq. 2 on `res_s`,
    /// using the hosting fabric's bit costs and throughput).
    #[inline]
    pub fn reconf_time(&self, s: usize) -> Time {
        self.fabric_device(self.regions[s].fabric)
            .reconf_time(&self.regions[s].res)
    }

    /// Estimated total reconfiguration time over all regions (eq. 6):
    /// `sum_s reconf_s * (|T_s| - 1)`.
    pub fn total_reconf_time(&self) -> Time {
        self.regions
            .iter()
            .enumerate()
            .map(|(s, r)| self.reconf_time(s) * (r.tasks.len().saturating_sub(1) as Time))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::{Architecture, ImplPool, Implementation, TaskGraph};

    fn mk_instance() -> ProblemInstance {
        let mut impls = ImplPool::new();
        let mut graph = TaskGraph::new();
        // Three tasks in a chain; each 1 SW (100 ticks) + 1 HW (10 ticks,
        // 5 CLB).
        let mut prev = None;
        for i in 0..3 {
            let sw = impls.add(Implementation::software(format!("s{i}"), 100));
            let hw = impls.add(Implementation::hardware(
                format!("h{i}"),
                10,
                ResourceVec::new(5, 0, 0),
            ));
            let t = graph.add_task(format!("t{i}"), vec![sw, hw]);
            if let Some(p) = prev {
                graph.add_edge(p, t);
            }
            prev = Some(t);
        }
        ProblemInstance::new(
            "st",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(12, 0, 0), 1)),
            graph,
            impls,
        )
        .unwrap()
    }

    fn all_hw_choice(inst: &ProblemInstance) -> Vec<ImplId> {
        inst.graph
            .task_ids()
            .map(|t| inst.hw_impls(t).next().unwrap())
            .collect()
    }

    fn mk_state(inst: &ProblemInstance) -> SchedState<'_> {
        let weights = MetricWeights::new(&inst.architecture.device.max_res, 30);
        SchedState::new(inst, weights, all_hw_choice(inst)).unwrap()
    }

    #[test]
    fn initial_windows_follow_chain() {
        let inst = mk_instance();
        let st = mk_state(&inst);
        assert_eq!(st.cpm.makespan, 30);
        assert!(st.is_critical(TaskId(1)));
        assert!(st.is_hw(TaskId(0)));
    }

    #[test]
    fn switch_to_sw_updates_windows() {
        let inst = mk_instance();
        let mut st = mk_state(&inst);
        st.switch_to_sw(TaskId(1));
        assert_eq!(st.durations[1], 100);
        assert_eq!(st.cpm.makespan, 120);
        assert!(!st.is_hw(TaskId(1)));
        assert_eq!(st.region_of[1], None);
    }

    #[test]
    fn open_and_assign_regions() {
        let inst = mk_instance();
        let mut st = mk_state(&inst);
        let hw0 = st.impl_choice[0];
        let hw1 = st.impl_choice[1];
        st.open_region(TaskId(0), hw0);
        assert_eq!(st.regions.len(), 1);
        assert_eq!(st.used_resources(), ResourceVec::new(5, 0, 0));
        // Put task 1 in the same region: sequencing edge 0 -> 1 already a
        // data edge, no cycle.
        st.assign_to_region(TaskId(1), hw1, 0);
        assert_eq!(st.regions[0].tasks, vec![TaskId(0), TaskId(1)]);
        assert_eq!(st.region_of[1], Some(0));
        // Reconfiguration: 5 CLB * 1 bit / 1 bit-per-tick.
        assert_eq!(st.reconf_time(0), 5);
        assert_eq!(st.total_reconf_time(), 5);
    }

    #[test]
    fn region_tasks_stay_sorted_by_window() {
        let inst = mk_instance();
        let mut st = mk_state(&inst);
        let hw2 = st.impl_choice[2];
        let hw0 = st.impl_choice[0];
        st.open_region(TaskId(2), hw2);
        // Task 0 precedes task 2 in time; inserting it must land first.
        st.assign_to_region(TaskId(0), hw0, 0);
        assert_eq!(st.regions[0].tasks, vec![TaskId(0), TaskId(2)]);
    }

    #[test]
    fn workspace_reuse_matches_fresh_state() {
        // Two runs through one workspace, with mutations in between, must
        // start from the exact state a fresh allocation produces.
        let inst = mk_instance();
        let target = VirtualTarget::new(&inst.architecture, 0);
        let weights = MetricWeights::new(&target.device.max_res, 30);
        let mut ws = SchedWorkspace::new();
        for round in 0..3 {
            let mut st = SchedState::from_workspace(
                &inst,
                &target,
                weights.clone(),
                all_hw_choice(&inst),
                &mut ws,
            )
            .unwrap();
            let fresh = mk_state(&inst);
            assert_eq!(st.dag, fresh.dag, "round {round}: base graph restored");
            assert_eq!(st.cpm, fresh.cpm);
            assert_eq!(st.durations, fresh.durations);
            assert!(st.regions.is_empty());
            assert_eq!(st.region_of, vec![None; 3]);
            // Dirty the state so the next round has something to rewind.
            let hw0 = st.impl_choice[0];
            let hw2 = st.impl_choice[2];
            st.open_region(TaskId(0), hw0);
            st.assign_to_region(TaskId(2), hw2, 0);
            st.switch_to_sw(TaskId(1));
            st.recycle(&mut ws);
        }
        assert_eq!(ws.rebuilds(), 1, "base graph built once");
        assert_eq!(ws.reuses(), 2, "rounds 2 and 3 rewound it");
    }

    #[test]
    fn workspace_rebuilds_on_instance_change() {
        let inst_a = mk_instance();
        let mut inst_b = mk_instance();
        inst_b.graph.edges.pop(); // different dependency structure
        let weights = MetricWeights::new(&inst_a.architecture.device.max_res, 30);
        let mut ws = SchedWorkspace::new();
        for inst in [&inst_a, &inst_b, &inst_a] {
            let target = VirtualTarget::new(&inst.architecture, 0);
            let st = SchedState::from_workspace(
                inst,
                &target,
                weights.clone(),
                all_hw_choice(inst),
                &mut ws,
            )
            .unwrap();
            let fresh = SchedState::new(inst, weights.clone(), all_hw_choice(inst)).unwrap();
            assert_eq!(st.dag, fresh.dag);
            assert_eq!(st.cpm, fresh.cpm);
            st.recycle(&mut ws);
        }
        assert_eq!(ws.rebuilds(), 3, "every instance switch rebuilds");
        assert_eq!(ws.reuses(), 0);
    }

    #[test]
    fn instance_switch_shrinks_dfs_scratch() {
        // Re-targeting the workspace at a smaller instance releases DFS
        // scratch sized for the larger one (via `reach::shrink_scratch_to`).
        let mut big = Dag::with_nodes(8192);
        for i in 0..8191 {
            big.add_edge(i, i + 1).unwrap();
        }
        assert!(reach::is_reachable(&big, 0, 8191));
        assert!(reach::scratch_capacity() >= 8192);
        let inst = mk_instance();
        let target = VirtualTarget::new(&inst.architecture, 0);
        let weights = MetricWeights::new(&target.device.max_res, 30);
        let mut ws = SchedWorkspace::new();
        let st = SchedState::from_workspace(&inst, &target, weights, all_hw_choice(&inst), &mut ws)
            .unwrap();
        st.recycle(&mut ws);
        assert!(
            reach::scratch_capacity() <= 4096,
            "rebuild path must shrink the thread's DFS scratch"
        );
    }
}
