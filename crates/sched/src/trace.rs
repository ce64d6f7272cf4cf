//! Phase-level tracing of the PA pipeline.
//!
//! The driver and every pipeline phase report wall-clock and counters to a
//! [`PhaseObserver`]. The default observer is a no-op (all trait methods
//! have empty bodies), so the untraced paths — PA-R's inner loop, direct
//! phase calls in tests and benches — pay nothing beyond two `Instant`
//! reads per phase. [`PaScheduler::schedule_detailed`] installs a
//! [`TraceRecorder`] and surfaces the resulting [`PhaseTrace`] in
//! [`PaResult::trace`], which the CLI and the bench report render as a
//! per-phase timing table.
//!
//! [`PaScheduler::schedule_detailed`]: crate::PaScheduler::schedule_detailed
//! [`PaResult::trace`]: crate::PaResult

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use prfpga_floorplan::CacheStats;

/// The pipeline phases distinguished by the tracer, in execution order.
///
/// Phase E (start/end anchoring, §V-E) is implicit in the CPM windows and
/// has no code of its own, so it does not appear here; phase H
/// (floorplanning) runs outside `scheduling_time` but is traced alongside
/// the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Phase A — implementation selection (eq. 3–4 weights included).
    ImplSelect,
    /// Phase B — dependency DAG construction and the initial CPM pass.
    CriticalPath,
    /// Fabric partition (between B and C; a no-op on single-fabric
    /// targets): assigns every task a fabric of the platform.
    Partition,
    /// Phase C — regions definition.
    Regions,
    /// Phase D — software task balancing.
    SwBalance,
    /// Phase F — software task mapping.
    SwMap,
    /// Phase G — reconfiguration scheduling / timing realization.
    Reconf,
    /// Phase H — floorplan feasibility check (outside `scheduling_time`).
    Floorplan,
}

impl Phase {
    /// Every phase, in the paper's order (PA asks H right after C).
    pub const ALL: [Phase; 8] = [
        Phase::ImplSelect,
        Phase::CriticalPath,
        Phase::Partition,
        Phase::Regions,
        Phase::SwBalance,
        Phase::SwMap,
        Phase::Reconf,
        Phase::Floorplan,
    ];

    /// Number of distinct phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable dense index, used to address [`PhaseTrace`] arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::ImplSelect => 0,
            Phase::CriticalPath => 1,
            Phase::Partition => 2,
            Phase::Regions => 3,
            Phase::SwBalance => 4,
            Phase::SwMap => 5,
            Phase::Reconf => 6,
            Phase::Floorplan => 7,
        }
    }

    /// Human-readable label matching the paper's phase lettering.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ImplSelect => "A implementation selection",
            Phase::CriticalPath => "B critical path extraction",
            Phase::Partition => "P fabric partition",
            Phase::Regions => "C regions definition",
            Phase::SwBalance => "D software task balancing",
            Phase::SwMap => "F software task mapping",
            Phase::Reconf => "G reconfiguration scheduling",
            Phase::Floorplan => "H floorplanning",
        }
    }

    /// True for the phases whose time the driver books under
    /// `scheduling_time` (everything but floorplanning).
    #[inline]
    pub fn is_scheduling(self) -> bool {
        self != Phase::Floorplan
    }
}

/// Receiver of pipeline progress events.
///
/// Every method has a no-op default body, so implementations override only
/// what they care about and call sites never need to check for an observer.
pub trait PhaseObserver: Send + Sync {
    /// A pipeline run is starting (`attempt` is 1-based; values above 1 are
    /// feasibility restarts with shrunk virtual capacity, §V-H).
    fn pipeline_started(&self, _attempt: usize) {}

    /// A phase finished after `elapsed` wall-clock.
    fn phase_finished(&self, _phase: Phase, _elapsed: Duration) {}

    /// Regions definition ended with `regions` regions hosting `hw_tasks`
    /// hardware tasks, leaving `sw_tasks` in software.
    fn regions_defined(&self, _regions: usize, _hw_tasks: usize, _sw_tasks: usize) {}

    /// Software balancing hoisted `moved` tasks onto the fabric.
    fn tasks_hoisted(&self, _moved: usize) {}

    /// Timing realization planned `count` reconfigurations.
    fn reconfigurations_planned(&self, _count: usize) {}

    /// End-of-run resource-reuse totals: how many pipeline runs rewound a
    /// warm [`SchedWorkspace`] instead of re-allocating, and the
    /// floorplan-feasibility cache's hit/miss and verdict counters.
    ///
    /// [`SchedWorkspace`]: crate::SchedWorkspace
    fn workspace_stats(&self, _workspace_reuses: u64, _floorplan: CacheStats) {}

    /// Timeline-kernel counters of the last pipeline run: committed lane
    /// reservations (core occupancies in phase F plus controller windows
    /// in phase G) and gap/arbitration queries answered.
    fn timeline_stats(&self, _reservations: u64, _gap_queries: u64) {}

    /// End-of-run cancellation counters: checkpoints polled on the call's
    /// [`CancelToken`](prfpga_model::CancelToken) and how many of them
    /// observed the fired state (0 hits = the deadline never fired).
    fn cancel_stats(&self, _cancel_polls: u64, _deadline_hits: u64) {}

    /// The commit layer applied a batch realization covering `edits`
    /// controller-timeline journal edits (one call per pipeline run).
    fn batch_committed(&self, _edits: u64) {}

    /// The repair engine finished one event: `frontier` tasks were
    /// invalidated and re-timed, `moved` of them actually changed their
    /// window, and `full_resolve` says the cascade threshold forced a
    /// from-scratch re-solve instead of a delta repair.
    fn repair_applied(&self, _frontier: u64, _moved: u64, _full_resolve: bool) {}
}

/// The do-nothing observer used by untraced paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PhaseObserver for NoopObserver {}

/// Cheaply-clonable shared handle to an observer, carried by the scheduler
/// state so the phases can report without extra parameters.
#[derive(Clone)]
pub struct ObserverHandle(Arc<dyn PhaseObserver>);

impl ObserverHandle {
    /// Wraps an observer.
    pub fn new(observer: Arc<dyn PhaseObserver>) -> Self {
        ObserverHandle(observer)
    }

    /// The no-op handle.
    pub fn noop() -> Self {
        ObserverHandle(Arc::new(NoopObserver))
    }
}

impl Default for ObserverHandle {
    fn default() -> Self {
        Self::noop()
    }
}

impl std::ops::Deref for ObserverHandle {
    type Target = dyn PhaseObserver;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ObserverHandle(..)")
    }
}

/// Aggregated trace of one scheduler run: per-phase wall-clock summed over
/// restarts, plus the structural counters of the *last* pipeline run (the
/// one whose schedule is returned).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Wall-clock per phase (indexed by [`Phase::index`]), summed over
    /// restarts.
    pub phase_time: [Duration; Phase::COUNT],
    /// Times each phase ran (phase D is skipped when balancing is off).
    /// Under PA, phases A–C run once per attempt and D–G once per run: a
    /// region set the floorplanner rejects ends its attempt after C.
    pub phase_runs: [u32; Phase::COUNT],
    /// Pipeline runs observed (1 = no feasibility restart).
    pub attempts: usize,
    /// Regions defined by the last pipeline run.
    pub regions: usize,
    /// Hardware tasks placed by the last pipeline run.
    pub hw_tasks: usize,
    /// Software tasks left by the last pipeline run.
    pub sw_tasks: usize,
    /// Tasks hoisted to hardware by balancing in the last pipeline run.
    pub balance_moves: usize,
    /// Reconfigurations planned by the last pipeline run.
    pub reconfigurations: usize,
    /// Pipeline runs that rewound a warm workspace instead of
    /// re-allocating (0 when only one run happened on a fresh workspace).
    pub workspace_reuses: u64,
    /// Floorplan-feasibility queries answered from the memoization cache.
    pub fp_cache_hits: u64,
    /// Floorplan-feasibility queries that required a cold solve.
    pub fp_cache_misses: u64,
    /// Cold floorplan solves that found a placement.
    pub fp_feasible: u64,
    /// Cold floorplan solves that proved no placement exists.
    pub fp_infeasible: u64,
    /// The part of `fp_infeasible` settled at the root by the
    /// column-segment coverage bound, without any search.
    pub fp_root_infeasible: u64,
    /// Cold floorplan solves that gave up undecided: the node budget ran
    /// out, or the token or the time limit fired.
    pub fp_timeouts: u64,
    /// DFS nodes the cold floorplan solves used: placement attempts, see
    /// `prfpga_floorplan::NODE_BUDGET`.
    pub fp_nodes: u64,
    /// Lane reservations committed by the last pipeline run's timeline
    /// kernel (core occupancies plus controller windows).
    pub timeline_reservations: u64,
    /// Gap / arbitration queries the last pipeline run's timeline kernel
    /// answered.
    pub timeline_gap_queries: u64,
    /// Cancellation checkpoints polled on the run's `CancelToken` (0 when
    /// the caller did not supply one).
    pub cancel_polls: u64,
    /// Checkpoints that observed the fired deadline (nonzero exactly when
    /// the run was cut short and returned a degraded result).
    pub deadline_hits: u64,
    /// Batch commits applied through the solve/commit seam, summed over
    /// restarts. PA commits once per run: only the accepted attempt, or
    /// the all-software fallback, reaches phase G.
    pub commits: u64,
    /// Controller-timeline journal edits covered by those commits, summed.
    pub commit_edits: u64,
    /// Schedule events the repair engine applied, summed.
    pub repair_events: u64,
    /// Tasks invalidated and re-timed across all repairs, summed.
    pub repair_frontier: u64,
    /// Tasks whose window actually changed across all repairs, summed.
    pub repair_moved: u64,
    /// Repairs that crossed the cascade threshold and fell back to a
    /// from-scratch re-solve.
    pub repair_full_resolves: u64,
}

impl PhaseTrace {
    /// Wall-clock recorded for one phase.
    #[inline]
    pub fn time(&self, phase: Phase) -> Duration {
        self.phase_time[phase.index()]
    }

    /// Sum of the scheduling phases (A–G, excluding floorplanning) — the
    /// traced portion of the driver's `scheduling_time`.
    pub fn scheduling_phase_time(&self) -> Duration {
        Phase::ALL
            .iter()
            .filter(|p| p.is_scheduling())
            .map(|&p| self.time(p))
            .sum()
    }

    /// `(phase, wall-clock, runs)` rows for the phases that actually ran,
    /// in execution order — the data behind the timing tables.
    pub fn rows(&self) -> Vec<(Phase, Duration, u32)> {
        Phase::ALL
            .iter()
            .filter(|p| self.phase_runs[p.index()] > 0)
            .map(|&p| (p, self.time(p), self.phase_runs[p.index()]))
            .collect()
    }

    /// Renders the trace as an aligned plain-text table (used by the CLI).
    pub fn render_table(&self) -> String {
        let total: Duration = self.phase_time.iter().sum();
        let mut out = String::from("phase                           time [ms]   share   runs\n");
        for (phase, time, runs) in self.rows() {
            let share = if total.is_zero() {
                0.0
            } else {
                time.as_secs_f64() / total.as_secs_f64() * 100.0
            };
            out.push_str(&format!(
                "{:<30} {:>10.3} {:>6.1}% {:>6}\n",
                phase.name(),
                time.as_secs_f64() * 1e3,
                share,
                runs,
            ));
        }
        out.push_str(&format!(
            "attempts {} | {} regions, {} hw / {} sw tasks, {} reconfigurations\n",
            self.attempts, self.regions, self.hw_tasks, self.sw_tasks, self.reconfigurations,
        ));
        out.push_str(&format!(
            "workspace reuses {} | floorplan cache {} hits / {} misses\n",
            self.workspace_reuses, self.fp_cache_hits, self.fp_cache_misses,
        ));
        out.push_str(&format!(
            "floorplan verdicts {} feasible / {} infeasible ({} at root) / {} timeouts | {} DFS nodes\n",
            self.fp_feasible,
            self.fp_infeasible,
            self.fp_root_infeasible,
            self.fp_timeouts,
            self.fp_nodes,
        ));
        out.push_str(&format!(
            "timeline {} reservations / {} gap queries\n",
            self.timeline_reservations, self.timeline_gap_queries,
        ));
        out.push_str(&format!(
            "cancellation {} polls / {} deadline hits\n",
            self.cancel_polls, self.deadline_hits,
        ));
        if self.commits > 0 {
            out.push_str(&format!(
                "commit {} batches / {} journal edits\n",
                self.commits, self.commit_edits,
            ));
        }
        if self.repair_events > 0 {
            out.push_str(&format!(
                "repair {} events / {} frontier / {} moved / {} full re-solves\n",
                self.repair_events,
                self.repair_frontier,
                self.repair_moved,
                self.repair_full_resolves,
            ));
        }
        out
    }
}

/// A [`PhaseObserver`] that accumulates a [`PhaseTrace`] behind a mutex.
///
/// Durations sum across restarts; structural counters overwrite, so after
/// the run they describe the pipeline pass whose schedule was kept.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<PhaseTrace>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the trace accumulated so far.
    pub fn snapshot(&self) -> PhaseTrace {
        self.inner.lock().clone()
    }
}

impl PhaseObserver for TraceRecorder {
    fn pipeline_started(&self, attempt: usize) {
        let mut t = self.inner.lock();
        t.attempts = t.attempts.max(attempt);
    }

    fn phase_finished(&self, phase: Phase, elapsed: Duration) {
        let mut t = self.inner.lock();
        t.phase_time[phase.index()] += elapsed;
        t.phase_runs[phase.index()] += 1;
    }

    fn regions_defined(&self, regions: usize, hw_tasks: usize, sw_tasks: usize) {
        let mut t = self.inner.lock();
        t.regions = regions;
        t.hw_tasks = hw_tasks;
        t.sw_tasks = sw_tasks;
    }

    fn tasks_hoisted(&self, moved: usize) {
        self.inner.lock().balance_moves = moved;
    }

    fn reconfigurations_planned(&self, count: usize) {
        self.inner.lock().reconfigurations = count;
    }

    fn workspace_stats(&self, workspace_reuses: u64, floorplan: CacheStats) {
        let mut t = self.inner.lock();
        t.workspace_reuses = workspace_reuses;
        t.fp_cache_hits = floorplan.hits;
        t.fp_cache_misses = floorplan.misses;
        t.fp_feasible = floorplan.feasible;
        t.fp_infeasible = floorplan.infeasible;
        t.fp_root_infeasible = floorplan.root_infeasible;
        t.fp_timeouts = floorplan.timeouts;
        t.fp_nodes = floorplan.nodes;
    }

    fn timeline_stats(&self, reservations: u64, gap_queries: u64) {
        let mut t = self.inner.lock();
        t.timeline_reservations = reservations;
        t.timeline_gap_queries = gap_queries;
    }

    fn cancel_stats(&self, cancel_polls: u64, deadline_hits: u64) {
        let mut t = self.inner.lock();
        t.cancel_polls = cancel_polls;
        t.deadline_hits = deadline_hits;
    }

    // Commit/repair counters ACCUMULATE (unlike the last-run structural
    // counters above): a trace over a restart loop or an event stream
    // reports totals, not the final step.
    fn batch_committed(&self, edits: u64) {
        let mut t = self.inner.lock();
        t.commits += 1;
        t.commit_edits += edits;
    }

    fn repair_applied(&self, frontier: u64, moved: u64, full_resolve: bool) {
        let mut t = self.inner.lock();
        t.repair_events += 1;
        t.repair_frontier += frontier;
        t.repair_moved += moved;
        t.repair_full_resolves += u64::from(full_resolve);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::COUNT, 8);
    }

    #[test]
    fn recorder_accumulates_time_and_overwrites_counters() {
        let rec = TraceRecorder::new();
        rec.pipeline_started(1);
        rec.phase_finished(Phase::Regions, Duration::from_millis(2));
        rec.regions_defined(4, 10, 5);
        rec.pipeline_started(2);
        rec.phase_finished(Phase::Regions, Duration::from_millis(3));
        rec.regions_defined(2, 6, 9);
        rec.reconfigurations_planned(7);
        let t = rec.snapshot();
        assert_eq!(t.attempts, 2);
        assert_eq!(t.time(Phase::Regions), Duration::from_millis(5));
        assert_eq!(t.phase_runs[Phase::Regions.index()], 2);
        assert_eq!((t.regions, t.hw_tasks, t.sw_tasks), (2, 6, 9));
        assert_eq!(t.reconfigurations, 7);
    }

    #[test]
    fn scheduling_phase_time_excludes_floorplan() {
        let rec = TraceRecorder::new();
        rec.phase_finished(Phase::ImplSelect, Duration::from_millis(1));
        rec.phase_finished(Phase::Floorplan, Duration::from_millis(100));
        let t = rec.snapshot();
        assert_eq!(t.scheduling_phase_time(), Duration::from_millis(1));
    }

    #[test]
    fn rows_skip_never_run_phases() {
        let rec = TraceRecorder::new();
        rec.phase_finished(Phase::SwMap, Duration::from_millis(1));
        let t = rec.snapshot();
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Phase::SwMap);
        assert!(t.render_table().contains("F software task mapping"));
    }

    #[test]
    fn workspace_stats_overwrite_and_render() {
        let rec = TraceRecorder::new();
        let fp = |hits, misses, root_infeasible| CacheStats {
            hits,
            misses,
            feasible: 1,
            infeasible: misses - 2,
            root_infeasible,
            timeouts: 1,
            nodes: 7 * misses,
        };
        rec.workspace_stats(3, fp(10, 2, 0));
        rec.workspace_stats(5, fp(12, 4, 1));
        let t = rec.snapshot();
        assert_eq!(
            (t.workspace_reuses, t.fp_cache_hits, t.fp_cache_misses),
            (5, 12, 4)
        );
        assert_eq!(
            (
                t.fp_feasible,
                t.fp_infeasible,
                t.fp_root_infeasible,
                t.fp_timeouts,
                t.fp_nodes
            ),
            (1, 2, 1, 1, 28)
        );
        let table = t.render_table();
        assert!(table.contains("workspace reuses 5 | floorplan cache 12 hits / 4 misses"));
        assert!(table.contains(
            "floorplan verdicts 1 feasible / 2 infeasible (1 at root) / 1 timeouts | 28 DFS nodes"
        ));
    }

    #[test]
    fn timeline_stats_overwrite_and_render() {
        let rec = TraceRecorder::new();
        rec.timeline_stats(8, 20);
        rec.timeline_stats(11, 24);
        let t = rec.snapshot();
        assert_eq!((t.timeline_reservations, t.timeline_gap_queries), (11, 24));
        assert!(t
            .render_table()
            .contains("timeline 11 reservations / 24 gap queries"));
    }

    #[test]
    fn cancel_stats_overwrite_and_render() {
        let rec = TraceRecorder::new();
        rec.cancel_stats(40, 0);
        rec.cancel_stats(55, 2);
        let t = rec.snapshot();
        assert_eq!((t.cancel_polls, t.deadline_hits), (55, 2));
        assert!(t
            .render_table()
            .contains("cancellation 55 polls / 2 deadline hits"));
    }

    #[test]
    fn commit_and_repair_counters_accumulate() {
        let rec = TraceRecorder::new();
        rec.batch_committed(3);
        rec.batch_committed(5);
        rec.repair_applied(10, 4, false);
        rec.repair_applied(200, 180, true);
        let t = rec.snapshot();
        assert_eq!((t.commits, t.commit_edits), (2, 8));
        assert_eq!(
            (
                t.repair_events,
                t.repair_frontier,
                t.repair_moved,
                t.repair_full_resolves
            ),
            (2, 210, 184, 1)
        );
        let table = t.render_table();
        assert!(table.contains("commit 2 batches / 8 journal edits"));
        assert!(table.contains("repair 2 events / 210 frontier / 184 moved / 1 full re-solves"));
    }

    #[test]
    fn commit_lines_hidden_when_seam_unused() {
        let t = PhaseTrace::default();
        let table = t.render_table();
        assert!(!table.contains("commit "));
        assert!(!table.contains("repair "));
    }

    #[test]
    fn noop_observer_is_default() {
        let h = ObserverHandle::default();
        // All events are accepted and discarded.
        h.pipeline_started(1);
        h.phase_finished(Phase::Reconf, Duration::from_secs(1));
        assert_eq!(format!("{h:?}"), "ObserverHandle(..)");
    }
}
