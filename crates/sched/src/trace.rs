//! Phase-level tracing of the PA pipeline.
//!
//! A [`PhaseTrace`] is a plain value that the scheduler driver owns. The
//! driver times each phase call and reads the counters from the scheduler
//! state or from the phase's return value; the phases themselves report
//! nothing. [`PaScheduler::schedule_detailed`] returns the trace in
//! [`PaResult::trace`], which the CLI and the bench report render as a
//! per-phase timing table. PA-R's candidate runs record into a trace they
//! drop.
//!
//! Per-phase times and run counts add up over restarts. Structural
//! counters (regions, tasks, reconfigurations, timeline, workspace,
//! floorplan and cancellation) hold the values of the last pass that
//! reported them, so after the run they describe the pass whose schedule
//! was kept. Commit counts accumulate.
//!
//! [`PaScheduler::schedule_detailed`]: crate::PaScheduler::schedule_detailed
//! [`PaResult::trace`]: crate::PaResult

use std::time::{Duration, Instant};

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
    /// Reconfiguration windows the last pipeline run's phase G reserved
    /// on its controller timeline.
    pub timeline_reservations: u64,
    /// Gap / arbitration queries the last pipeline run's controller
    /// timeline answered.
    pub timeline_gap_queries: u64,
    /// Cancellation checkpoints polled on the run's `CancelToken` (0 when
    /// the caller did not supply one).
    pub cancel_polls: u64,
    /// Checkpoints that observed the fired deadline (nonzero exactly when
    /// the run was cut short and returned a degraded result).
    pub deadline_hits: u64,
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
        out
    }

    /// Pipeline run number `attempt` (1-based) is starting; values above 1
    /// are feasibility restarts with shrunk virtual capacity (§V-H).
    pub(crate) fn pipeline_started(&mut self, attempt: usize) {
        self.attempts = self.attempts.max(attempt);
    }

    /// Adds one run of `phase` that took `elapsed`.
    pub(crate) fn phase_finished(&mut self, phase: Phase, elapsed: Duration) {
        self.phase_time[phase.index()] += elapsed;
        self.phase_runs[phase.index()] += 1;
    }

    /// Runs `f` as one run of `phase`, adding its wall-clock.
    pub(crate) fn timed<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.phase_finished(phase, t0.elapsed());
        out
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
    fn phase_time_and_runs_add_up_over_restarts() {
        let mut t = PhaseTrace::default();
        t.pipeline_started(1);
        t.phase_finished(Phase::Regions, Duration::from_millis(2));
        t.pipeline_started(2);
        t.phase_finished(Phase::Regions, Duration::from_millis(3));
        assert_eq!(t.attempts, 2);
        assert_eq!(t.time(Phase::Regions), Duration::from_millis(5));
        assert_eq!(t.phase_runs[Phase::Regions.index()], 2);
    }

    #[test]
    fn timed_adds_one_run() {
        let mut t = PhaseTrace::default();
        t.phase_finished(Phase::SwMap, Duration::from_millis(5));
        assert_eq!(t.timed(Phase::SwMap, || 7), 7);
        assert_eq!(t.phase_runs[Phase::SwMap.index()], 2);
        assert!(t.time(Phase::SwMap) >= Duration::from_millis(5));
    }

    #[test]
    fn scheduling_phase_time_excludes_floorplan() {
        let mut t = PhaseTrace::default();
        t.phase_finished(Phase::ImplSelect, Duration::from_millis(1));
        t.phase_finished(Phase::Floorplan, Duration::from_millis(100));
        assert_eq!(t.scheduling_phase_time(), Duration::from_millis(1));
    }

    #[test]
    fn rows_skip_never_run_phases() {
        let mut t = PhaseTrace::default();
        t.phase_finished(Phase::SwMap, Duration::from_millis(1));
        let rows = t.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, Phase::SwMap);
        assert!(t.render_table().contains("F software task mapping"));
    }

    #[test]
    fn counter_lines_render() {
        let t = PhaseTrace {
            workspace_reuses: 5,
            fp_cache_hits: 12,
            fp_cache_misses: 4,
            fp_feasible: 1,
            fp_infeasible: 2,
            fp_root_infeasible: 1,
            fp_timeouts: 1,
            fp_nodes: 28,
            timeline_reservations: 11,
            timeline_gap_queries: 24,
            cancel_polls: 55,
            deadline_hits: 2,
            ..PhaseTrace::default()
        };
        let table = t.render_table();
        assert!(table.contains("workspace reuses 5 | floorplan cache 12 hits / 4 misses"));
        assert!(table.contains(
            "floorplan verdicts 1 feasible / 2 infeasible (1 at root) / 1 timeouts | 28 DFS nodes"
        ));
        assert!(table.contains("timeline 11 reservations / 24 gap queries"));
        assert!(table.contains("cancellation 55 polls / 2 deadline hits"));
    }
}
