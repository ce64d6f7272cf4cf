//! Event-driven delta repair of a committed schedule.
//!
//! The batch pipeline answers "how do we run this task graph?" once,
//! offline. A deployed system then watches the plan meet reality: tasks
//! finish early or late, estimates get revised, work is cancelled, new
//! work arrives. Re-running the full pipeline per perturbation is wasteful
//! — a single late finish usually moves only the tasks downstream of it.
//! The [`RepairEngine`] re-times only the *invalidation frontier* of each
//! event and re-places the frontier's controller reservations, falling
//! back to a from-scratch re-solve only when the frontier would cascade
//! across most of the live graph.
//!
//! ## Repair model
//!
//! The engine keeps placements fixed and re-times. Per event it:
//!
//! 1. revises the perturbed task's duration (the instance gets a cloned
//!    implementation carrying the observed time, so re-solves and
//!    validators see a consistent problem);
//! 2. computes the frontier — the strict descendants of the seed task
//!    across data, region-sequencing and core-sequencing arcs — read off
//!    the seed's row of the bitset [`ReachIndex`] when current, by a
//!    graph walk otherwise;
//! 3. re-times the frontier with the same fixed-point rule as phase G
//!    (every start is exactly the max of its predecessors' ends plus
//!    communication lag), re-placing the frontier's reconfigurations into
//!    controller-lane gaps between the untouched ones;
//! 4. retires finished source tasks from the dependency DAG
//!    ([`Dag::retire_node`]), folding their ends into per-successor
//!    release floors so later repairs shrink with the remaining horizon.
//!
//! The engine has no notion of "now": an early finish may pull downstream
//! reservations earlier than the event's own tick. A deployment would add
//! a wall-clock floor; the repair algebra is unchanged by one.
//!
//! ## Exactness
//!
//! An on-time [`ScheduleEvent::Finish`] (observed end equals the committed
//! end) short-circuits to a zero-task frontier — the schedule is already a
//! fixed point, so repaired and untouched schedules agree exactly. The
//! differential harness (`tests/repair_differential.rs`) pins this, and
//! bounds every repaired makespan against a from-scratch re-solve.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prfpga_dag::{CpmAnalysis, CpmScratch, Dag, NodeId, ReachIndex};
use prfpga_model::{
    Implementation, Placement, ProblemInstance, RegionId, Schedule, ScheduleEvent, TaskAssignment,
    TaskId, Time, TimeWindow,
};
use prfpga_timeline::{LaneId, Timeline};

use crate::config::SchedulerConfig;
use crate::driver::PaScheduler;
use crate::error::SchedError;

/// Tuning of the repair engine.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Cascade threshold in percent of the *live* (non-retired) task
    /// count: when an event's frontier exceeds it, the engine abandons the
    /// delta repair and re-solves the revised instance from scratch — past
    /// that point the full pipeline is both cheaper and better (it may
    /// also re-place).
    pub cascade_threshold_pct: u32,
    /// Scheduler configuration used by the full re-solve fallback.
    pub sched: SchedulerConfig,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            cascade_threshold_pct: 50,
            sched: SchedulerConfig::default(),
        }
    }
}

/// Accumulated repair totals, read through [`RepairEngine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Events applied.
    pub events: u64,
    /// Tasks invalidated and re-timed, summed over events.
    pub frontier_tasks: u64,
    /// Tasks whose window actually changed, summed over events.
    pub moved_tasks: u64,
    /// Reconfigurations re-placed, summed over events.
    pub recs_replaced: u64,
    /// Events that crossed the cascade threshold into a full re-solve.
    pub full_resolves: u64,
    /// Tasks retired from the dependency DAG so far.
    pub retired_tasks: u64,
}

/// What one [`RepairEngine::apply`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Tasks invalidated by the event (0 = the schedule was already a
    /// fixed point, e.g. an on-time finish).
    pub frontier: usize,
    /// Invalidated tasks whose window actually changed.
    pub moved: usize,
    /// Reconfigurations re-placed on the controller lanes.
    pub recs_replaced: usize,
    /// True when the cascade threshold forced a from-scratch re-solve.
    pub full_resolve: bool,
    /// Makespan of the repaired schedule.
    pub makespan: Time,
}

/// Why a repair was refused. The engine's schedule is unchanged when an
/// error is returned.
#[derive(Debug)]
pub enum RepairError {
    /// The event names a task the instance does not have.
    UnknownTask(TaskId),
    /// The event perturbs a task that already finished (or was cancelled).
    TaskFinished(TaskId),
    /// An arrival depends on a task the instance does not have.
    UnknownDependency(TaskId),
    /// The event needs a capability the engine does not model — currently
    /// only revising a region task whose reconfiguration was elided by
    /// module reuse (the revision would break the impl-equality the elision
    /// relies on).
    Unsupported(String),
    /// The baseline schedule contradicts the instance (not produced by the
    /// pipeline, or corrupted).
    InvalidBaseline(String),
    /// The full re-solve fallback failed.
    Solve(SchedError),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::UnknownTask(t) => write!(f, "event names unknown task {t:?}"),
            RepairError::TaskFinished(t) => write!(f, "task {t:?} already finished"),
            RepairError::UnknownDependency(t) => write!(f, "arrival depends on unknown task {t:?}"),
            RepairError::Unsupported(s) => write!(f, "unsupported repair: {s}"),
            RepairError::InvalidBaseline(s) => write!(f, "invalid baseline schedule: {s}"),
            RepairError::Solve(e) => write!(f, "full re-solve failed: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// A reconfiguration's position in the sequencing structure: the region
/// task it waits on (`t_in`) and the one it enables (`t_out`, the model's
/// `outgoing_task`).
#[derive(Debug, Clone, Copy)]
struct RecArc {
    t_in: TaskId,
    t_out: TaskId,
}

/// The online repair engine: owns the revised instance and the live
/// schedule, applies [`ScheduleEvent`]s one by one.
#[derive(Debug)]
pub struct RepairEngine {
    inst: ProblemInstance,
    schedule: Schedule,
    config: RepairConfig,
    /// Data + region-chain + core-chain arcs; retired tasks are isolated.
    dag: Dag,
    reach: ReachIndex,
    /// Criticality oracle for reconfiguration priority (kept incrementally
    /// current under duration revisions; rebuilt on arrivals and
    /// re-solves; *not* updated on retirement — it only orders recs).
    cpm: CpmAnalysis,
    scratch: CpmScratch,
    durations: Vec<Time>,
    /// Finished (or cancelled) tasks: no further events may target them,
    /// but until they retire they stay *retimeable*, floating with their
    /// predecessors. See [`RepairEngine::collect_frontier`].
    finished: Vec<bool>,
    retired: Vec<bool>,
    /// Per-task lower bound on the start tick, inherited from retired
    /// predecessors (their arcs are gone; their ends persist here).
    release_floor: Vec<Time>,
    /// Communication lag of each costed, non-colocated data edge, as
    /// `(to, lag)` pairs listed under the edge's source task.
    lags: Vec<Vec<(NodeId, Time)>>,
    /// Parallel to `schedule.reconfigurations`.
    recs: Vec<RecArc>,
    /// Task -> index of the reconfiguration that loads it (None for
    /// software tasks and region-first tasks).
    rec_of_task: Vec<Option<u32>>,
    /// Task -> index of the reconfiguration waiting on it (the rec whose
    /// `t_in` it is; at most one, since region sequences are chains).
    rec_after_task: Vec<Option<u32>>,
    icap: Timeline,
    retime: RetimeScratch,
    stats: RepairStats,
    /// Monotonic counter naming revised-implementation clones.
    revisions: u64,
}

/// The buffers one [`RepairEngine::retime`] call works in, owned by the
/// engine so an event allocates nothing in proportion to the graph. The
/// per-node and per-reconfiguration arrays are indexed by id and written
/// only at the ids the event touches; `in_f` and `rec_in_f` are cleared
/// at those ids when the next event starts.
#[derive(Debug, Default)]
struct RetimeScratch {
    /// The frontier in ascending id order.
    frontier: Vec<NodeId>,
    /// `in_f[v]` iff `v` is in `frontier`.
    in_f: Vec<bool>,
    /// Frontier reconfigurations, in no particular order.
    f_recs: Vec<u32>,
    /// `rec_in_f[ri]` iff `ri` is in `f_recs`.
    rec_in_f: Vec<bool>,
    /// Kahn state of the event pass, valid at frontier ids.
    pend: Vec<u32>,
    start: Vec<Time>,
    end: Vec<Time>,
    rec_pend: Vec<u32>,
    rec_release: Vec<Time>,
    task_queue: Vec<NodeId>,
    ready_recs: BinaryHeap<Reverse<(bool, Time, u32)>>,
    /// Every reconfiguration id, sorted by `(start, id)` before each
    /// replay. Kept between events, where few starts move, so the sort
    /// sees a nearly sorted input.
    by_start: Vec<u32>,
    /// Drain tick of each controller lane during the replay.
    lane_free: Vec<Time>,
}

impl RetimeScratch {
    /// Forgets the previous event's frontier and sizes the arrays for `n`
    /// tasks and `recs` reconfigurations.
    fn begin(&mut self, n: usize, recs: usize) {
        for &v in &self.frontier {
            self.in_f[v as usize] = false;
        }
        for &ri in &self.f_recs {
            self.rec_in_f[ri as usize] = false;
        }
        self.frontier.clear();
        self.f_recs.clear();
        if self.in_f.len() < n {
            self.in_f.resize(n, false);
            self.pend.resize(n, 0);
            self.start.resize(n, 0);
            self.end.resize(n, 0);
        }
        if self.rec_in_f.len() < recs {
            self.rec_in_f.resize(recs, false);
            self.rec_pend.resize(recs, 0);
            self.rec_release.resize(recs, 0);
        }
        if self.by_start.len() != recs {
            self.by_start.clear();
            self.by_start.extend(0..recs as u32);
        }
    }
}

impl RepairEngine {
    /// Builds the engine over a committed `(instance, schedule)` pair —
    /// normally the output of [`PaScheduler::schedule`].
    ///
    /// [`PaScheduler::schedule`]: crate::PaScheduler::schedule
    pub fn new(
        inst: ProblemInstance,
        schedule: Schedule,
        config: RepairConfig,
    ) -> Result<Self, RepairError> {
        let n = inst.graph.len();
        if schedule.assignments.len() != n {
            return Err(RepairError::InvalidBaseline(format!(
                "{} assignments for {} tasks",
                schedule.assignments.len(),
                n
            )));
        }
        let mut engine = RepairEngine {
            inst,
            schedule,
            config,
            dag: Dag::with_nodes(0),
            reach: ReachIndex::new(),
            cpm: CpmAnalysis::default(),
            scratch: CpmScratch::default(),
            durations: Vec::new(),
            finished: vec![false; n],
            retired: vec![false; n],
            release_floor: vec![0; n],
            lags: Vec::new(),
            recs: Vec::new(),
            rec_of_task: Vec::new(),
            rec_after_task: Vec::new(),
            icap: Timeline::new(),
            retime: RetimeScratch::default(),
            stats: RepairStats::default(),
            revisions: 0,
        };
        engine.rebuild_model()?;
        Ok(engine)
    }

    /// The live (repaired-so-far) schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The revised instance: original tasks plus arrivals, with observed /
    /// revised execution times substituted into the implementation pool.
    pub fn instance(&self) -> &ProblemInstance {
        &self.inst
    }

    /// Accumulated repair totals.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// True once `task` finished (or was cancelled).
    pub fn is_finished(&self, task: TaskId) -> bool {
        self.finished.get(task.index()).copied().unwrap_or(false)
    }

    /// Applies one event, returning what the repair did.
    pub fn apply(&mut self, event: &ScheduleEvent) -> Result<RepairOutcome, RepairError> {
        let outcome = match *event {
            ScheduleEvent::Finish { task, actual } => self.apply_finish(task, actual)?,
            ScheduleEvent::DurationRevised { task, duration } => {
                self.apply_revision(task, duration, false)?
            }
            ScheduleEvent::Cancel { task } => self.apply_revision(task, 0, true)?,
            ScheduleEvent::Arrive {
                ref name,
                sw_time,
                ref deps,
            } => self.apply_arrival(name, sw_time, deps)?,
        };
        self.stats.events += 1;
        self.stats.frontier_tasks += outcome.frontier as u64;
        self.stats.moved_tasks += outcome.moved as u64;
        self.stats.recs_replaced += outcome.recs_replaced as u64;
        self.stats.full_resolves += u64::from(outcome.full_resolve);
        Ok(outcome)
    }

    /// Applies every event of a trace in order, stopping at the first
    /// refusal.
    pub fn apply_all(
        &mut self,
        events: &[ScheduleEvent],
    ) -> Result<Vec<RepairOutcome>, RepairError> {
        events.iter().map(|e| self.apply(e)).collect()
    }

    // --- Event handlers. --------------------------------------------------

    fn apply_finish(&mut self, task: TaskId, actual: Time) -> Result<RepairOutcome, RepairError> {
        self.check_live(task)?;
        let a = &self.schedule.assignments[task.index()];
        let (start, committed_end) = (a.start, a.end);
        // The task physically ran: its start stands and its end is the
        // observation. An `actual` before the committed start is clamped to
        // a zero duration (the event stream outran the plan; the repair
        // still converges, the instance just records a free task).
        let new_dur = actual.saturating_sub(start);
        self.finished[task.index()] = true;
        let outcome = if actual == committed_end {
            // On-time: the schedule is already a fixed point of the window
            // equations; nothing to invalidate. This short-circuit is what
            // makes repaired and untouched schedules *exactly* equal on
            // on-time traces.
            RepairOutcome {
                frontier: 0,
                moved: 0,
                recs_replaced: 0,
                full_resolve: false,
                makespan: self.schedule.makespan(),
            }
        } else {
            self.revise_impl(task, new_dur)?;
            self.schedule.assignments[task.index()].end = start + new_dur;
            // The seed stays out of the frontier: its window is an
            // observation, not a decision — in particular its loading
            // reconfiguration must not move.
            self.retime(task, false)?
        };
        self.try_retire_from(task);
        Ok(outcome)
    }

    fn apply_revision(
        &mut self,
        task: TaskId,
        duration: Time,
        cancel: bool,
    ) -> Result<RepairOutcome, RepairError> {
        self.check_live(task)?;
        if self.durations[task.index()] == duration && !cancel {
            return Ok(RepairOutcome {
                frontier: 0,
                moved: 0,
                recs_replaced: 0,
                full_resolve: false,
                makespan: self.schedule.makespan(),
            });
        }
        self.revise_impl(task, duration)?;
        // The task has not run: its own window is a decision, so the seed
        // joins the frontier (start recomputed from unchanged predecessors,
        // end from the new duration; its reconfiguration may shift).
        let outcome = self.retime(task, true)?;
        if cancel {
            self.finished[task.index()] = true;
            self.try_retire_from(task);
        }
        Ok(outcome)
    }

    fn apply_arrival(
        &mut self,
        name: &str,
        sw_time: Time,
        deps: &[TaskId],
    ) -> Result<RepairOutcome, RepairError> {
        let n = self.inst.graph.len();
        for &d in deps {
            if d.index() >= n {
                return Err(RepairError::UnknownDependency(d));
            }
        }

        // Instance growth: one software implementation, one task, the data
        // edges. Arrivals carry no communication cost.
        let imp = self
            .inst
            .impls
            .add(Implementation::software(name.to_string(), sw_time));
        let t = self.inst.graph.add_task(name.to_string(), vec![imp]);
        for &d in deps {
            self.inst.graph.add_edge(d, t);
        }

        // Model growth, patched into the closure when it stays within its
        // memory ceiling. Retired dependencies have no arcs anymore; their
        // ends arrive through the release floor instead.
        let v = if self.reach.is_current(&self.dag) && ReachIndex::fits(self.dag.len() + 1) {
            self.reach.add_node(&mut self.dag)
        } else {
            self.dag.add_node()
        };
        debug_assert_eq!(v as usize, t.index());
        let mut floor = 0;
        for &d in deps {
            if self.retired[d.index()] {
                floor = floor.max(self.schedule.assignments[d.index()].end);
            } else {
                self.add_arc(d.index() as NodeId, v);
            }
        }
        self.durations.push(sw_time);
        self.finished.push(false);
        self.retired.push(false);
        self.release_floor.push(floor);
        self.rec_of_task.push(None);
        self.rec_after_task.push(None);

        // Least-delay core choice (the phase-F rule specialized to one
        // appended task): earliest start over cores = max(dependency ends,
        // core drain), argmin, ties to the lowest core.
        let release = deps
            .iter()
            .map(|&d| self.schedule.assignments[d.index()].end)
            .max()
            .unwrap_or(0)
            .max(floor);
        let cores = self.inst.architecture.num_processors.max(1);
        // Each core's tail: the last task of its sequence (see
        // `core_sequence`), in one pass.
        let mut tails: Vec<Option<TaskId>> = vec![None; cores];
        for (i, a) in self.schedule.assignments.iter().enumerate() {
            if let Placement::Core(p) = a.placement {
                if let Some(tail) = tails.get_mut(p) {
                    let l = tail.map(|l| &self.schedule.assignments[l.index()]);
                    if l.is_none_or(|l| (a.start, a.end) >= (l.start, l.end)) {
                        *tail = Some(TaskId(i as u32));
                    }
                }
            }
        }
        let mut best = (usize::MAX, Time::MAX, None::<TaskId>);
        for (p, &last) in tails.iter().enumerate() {
            let drain = last.map_or(0, |l| self.schedule.assignments[l.index()].end);
            let candidate = release.max(drain);
            if candidate < best.1 || (candidate == best.1 && p < best.0) {
                best = (p, candidate, last);
            }
        }
        let (core, start, last) = best;
        if let Some(l) = last {
            // Core-sequencing arc behind the core's current tail, unless
            // the tail is retired (then the floor already orders them).
            if self.retired[l.index()] {
                self.release_floor[t.index()] =
                    self.release_floor[t.index()].max(self.schedule.assignments[l.index()].end);
            } else {
                self.add_arc(l.index() as NodeId, v);
            }
        }
        self.schedule.assignments.push(TaskAssignment {
            impl_id: imp,
            placement: Placement::Core(core),
            start,
            end: start + sw_time,
        });

        // The criticality oracle is recomputed in full: it is not updated
        // on retirement, and this recompute is what brings it back in
        // step with the retired graph.
        self.cpm
            .recompute(&self.dag, &self.durations, None, &mut self.scratch);

        Ok(RepairOutcome {
            frontier: 1,
            moved: 1,
            recs_replaced: 0,
            full_resolve: false,
            makespan: self.schedule.makespan(),
        })
    }

    /// Inserts the arc `from -> to` into a new node, through the closure
    /// while it is current. Duplicates are ignored.
    fn add_arc(&mut self, from: NodeId, to: NodeId) {
        let added = if self.reach.is_current(&self.dag) {
            self.reach.add_edge(&mut self.dag, from, to)
        } else {
            self.dag.add_edge(from, to)
        };
        added.expect("an arc into a new node cannot close a cycle");
    }

    // --- Duration revision. ----------------------------------------------

    fn check_live(&self, task: TaskId) -> Result<(), RepairError> {
        if task.index() >= self.inst.graph.len() {
            return Err(RepairError::UnknownTask(task));
        }
        if self.finished[task.index()] {
            return Err(RepairError::TaskFinished(task));
        }
        Ok(())
    }

    /// Substitutes a cloned implementation carrying `new_dur` for `task`'s
    /// chosen one — in the pool, the task's implementation list, the
    /// assignment and every reconfiguration that loads it — so the revised
    /// instance validates and re-solves consistently.
    fn revise_impl(&mut self, task: TaskId, new_dur: Time) -> Result<(), RepairError> {
        let ti = task.index();
        // A module-reuse schedule may have elided the reconfiguration
        // between equal implementations; a revision clones the impl under a
        // new id, which would break the equality the elision relies on —
        // for the revised task (no loading rec of its own) or for the next
        // task in the region (reusing the revised task's module).
        if let Placement::Region(r) = self.schedule.assignments[ti].placement {
            let seq = self.schedule.tasks_in_region(r);
            let pos = seq
                .iter()
                .position(|&x| x == task)
                .expect("assignment places the task in this region");
            if pos > 0 && self.rec_of_task[ti].is_none() {
                return Err(RepairError::Unsupported(format!(
                    "task {task:?} shares its module with its region predecessor (module reuse)"
                )));
            }
            if let Some(&next) = seq.get(pos + 1) {
                if self.rec_of_task[next.index()].is_none() {
                    return Err(RepairError::Unsupported(format!(
                        "task {next:?} reuses task {task:?}'s module (module reuse)"
                    )));
                }
            }
        }

        let old_id = self.schedule.assignments[ti].impl_id;
        let old = self.inst.impls.get(old_id).clone();
        let name = format!("{}@rev{}", old.name, self.revisions);
        self.revisions += 1;
        let revised = if old.is_hardware() {
            Implementation::hardware(name, new_dur, old.resources())
        } else {
            Implementation::software(name, new_dur)
        };
        let new_id = self.inst.impls.add(revised);
        let impls = &mut self.inst.graph.tasks[ti].impls;
        match impls.iter().position(|&i| i == old_id) {
            Some(pos) => impls[pos] = new_id,
            None => impls.push(new_id),
        }
        self.schedule.assignments[ti].impl_id = new_id;
        if let Some(ri) = self.rec_of_task[ti] {
            self.schedule.reconfigurations[ri as usize].loads_impl = new_id;
        }
        let old_dur = std::mem::replace(&mut self.durations[ti], new_dur);
        self.cpm.apply_duration(
            &self.dag,
            &self.durations,
            ti as NodeId,
            old_dur,
            &mut self.scratch,
        );
        Ok(())
    }

    // --- Frontier re-timing. ---------------------------------------------

    /// Collects into `sc.frontier`, in ascending id order, the strict
    /// descendants of `seed` among unretired tasks (plus the seed itself
    /// when `include_seed` and it is unfinished), and marks them in
    /// `sc.in_f`. The descendants are the seed's closure row when the
    /// closure is current, a DFS otherwise.
    ///
    /// Finished descendants stay in: every arc among unretired tasks must
    /// keep holding. While finishes arrive in plan order, a finished task
    /// is never downstream of a live one, so this only moves cancelled
    /// tasks' zero-width placeholders. A full re-solve re-plans finished
    /// tasks too, and may put one behind a live task on a core or region;
    /// that window is a plan, not an observation, and must follow its
    /// predecessor.
    fn collect_frontier(&self, sc: &mut RetimeScratch, seed: TaskId, include_seed: bool) {
        let s = seed.index() as NodeId;
        if self.reach.is_current(&self.dag) {
            sc.frontier.extend(self.reach.descendants(s));
        } else {
            // `in_f` doubles as the visited set and `task_queue` as the
            // stack; both are free until the event pass.
            sc.task_queue.clear();
            sc.task_queue.push(s);
            while let Some(v) = sc.task_queue.pop() {
                for &x in self.dag.succs(v) {
                    if !sc.in_f[x as usize] {
                        sc.in_f[x as usize] = true;
                        sc.frontier.push(x);
                        sc.task_queue.push(x);
                    }
                }
            }
            for &v in &sc.frontier {
                sc.in_f[v as usize] = false;
            }
            sc.frontier.sort_unstable();
        }
        sc.frontier.retain(|&v| !self.retired[v as usize]);
        if include_seed && !self.finished[seed.index()] {
            let at = sc.frontier.partition_point(|&v| v < s);
            sc.frontier.insert(at, s);
        }
        for &v in &sc.frontier {
            sc.in_f[v as usize] = true;
        }
    }

    /// Re-times the frontier seeded at `seed` (placements fixed), or falls
    /// back to a full re-solve past the cascade threshold.
    fn retime(&mut self, seed: TaskId, include_seed: bool) -> Result<RepairOutcome, RepairError> {
        let mut sc = std::mem::take(&mut self.retime);
        let outcome = self.retime_in(&mut sc, seed, include_seed);
        self.retime = sc;
        outcome
    }

    /// [`RepairEngine::retime`] over the engine's scratch, taken out of
    /// `self` for the call.
    fn retime_in(
        &mut self,
        sc: &mut RetimeScratch,
        seed: TaskId,
        include_seed: bool,
    ) -> Result<RepairOutcome, RepairError> {
        let n = self.dag.len();
        sc.begin(n, self.recs.len());
        self.collect_frontier(sc, seed, include_seed);
        if sc.frontier.is_empty() {
            return Ok(RepairOutcome {
                frontier: 0,
                moved: 0,
                recs_replaced: 0,
                full_resolve: false,
                makespan: self.schedule.makespan(),
            });
        }

        let live = (n - self.stats.retired_tasks as usize).max(1);
        if sc.frontier.len() * 100 > live * self.config.cascade_threshold_pct as usize {
            return self.full_resolve(sc.frontier.len());
        }

        // Frontier reconfigurations: those loading a frontier task, plus
        // any waiting on one (a frontier `t_in` normally implies a
        // frontier `t_out` via the region chain arc, but a finished
        // `t_out` drops out — its reconfiguration must still follow the
        // moving task it waits on).
        for &v in &sc.frontier {
            let vi = v as usize;
            for ri in [self.rec_of_task[vi], self.rec_after_task[vi]]
                .into_iter()
                .flatten()
            {
                if !sc.rec_in_f[ri as usize] {
                    sc.rec_in_f[ri as usize] = true;
                    sc.f_recs.push(ri);
                }
            }
        }

        // Kahn state over the frontier: pending counts and base releases
        // seeded from the *fixed* surroundings (non-frontier predecessor
        // ends, retired-predecessor floors).
        for &v in &sc.frontier {
            let vi = v as usize;
            let mut release = self.release_floor[vi];
            let mut pend = u32::from(self.rec_of_task[vi].is_some());
            for &p in self.dag.preds(v) {
                if sc.in_f[p as usize] {
                    pend += 1;
                } else {
                    let lag = self.lag(p, v);
                    release = release.max(self.schedule.assignments[p as usize].end + lag);
                }
            }
            sc.pend[vi] = pend;
            sc.start[vi] = release;
        }
        for &ri in &sc.f_recs {
            let t_in = self.recs[ri as usize].t_in.index();
            if sc.in_f[t_in] {
                sc.rec_pend[ri as usize] = 1;
            } else {
                sc.rec_pend[ri as usize] = 0;
                sc.rec_release[ri as usize] = self.schedule.assignments[t_in].end;
            }
        }

        // Controller lanes: replay the untouched reconfigurations into each
        // fabric's k-lane group, in start order, each onto the lane of the
        // group that drains first (ties to the lowest lane): the greedy
        // interval packing of `pack_lanes`, which cannot fail on windows
        // that came from a k-lane-per-fabric schedule. Then place the
        // frontier's into the remaining gaps. Fabric `f` owns lanes
        // `[f*k, f*k+k)`.
        let k = self.inst.architecture.num_reconfig_controllers.max(1);
        let nf = self.inst.architecture.num_fabrics();
        if !sc.f_recs.is_empty() {
            self.icap.reset(0, 0, nf * k);
            let recs = &self.schedule.reconfigurations;
            sc.by_start.sort_by_key(|&ri| (recs[ri as usize].start, ri));
            sc.lane_free.clear();
            sc.lane_free.resize(nf * k, 0);
            for &ri in &sc.by_start {
                if sc.rec_in_f[ri as usize] {
                    continue;
                }
                let base = self.rec_fabric(ri) as usize * k;
                let lane = (base..base + k)
                    .min_by_key(|&c| (sc.lane_free[c], c))
                    .expect("k >= 1");
                let r = &self.schedule.reconfigurations[ri as usize];
                sc.lane_free[lane] = sc.lane_free[lane].max(r.end);
                self.icap
                    .reserve(LaneId::controller(lane), TimeWindow::new(r.start, r.end))
                    .map_err(|_| {
                        RepairError::InvalidBaseline(
                            "committed reconfigurations overlap beyond the controller count"
                                .to_string(),
                        )
                    })?;
            }
        }

        // Discrete-event pass, mirroring phase G: ready frontier tasks
        // start exactly at their release (sequencing arcs serialize lanes);
        // ready reconfigurations contend for controller gaps, critical
        // first, earliest release next, lowest id last.
        sc.task_queue.clear();
        sc.task_queue
            .extend(sc.frontier.iter().filter(|&&v| sc.pend[v as usize] == 0));
        sc.ready_recs.clear();
        for &ri in &sc.f_recs {
            if sc.rec_pend[ri as usize] == 0 {
                let crit = self.critical(self.recs[ri as usize].t_out);
                sc.ready_recs
                    .push(Reverse((!crit, sc.rec_release[ri as usize], ri)));
            }
        }

        let mut done = 0usize;
        let total = sc.frontier.len() + sc.f_recs.len();
        while done < total {
            if let Some(v) = sc.task_queue.pop() {
                let vi = v as usize;
                let end = sc.start[vi] + self.durations[vi];
                sc.end[vi] = end;
                done += 1;
                for &s in self.dag.succs(v) {
                    let si = s as usize;
                    if !sc.in_f[si] {
                        continue;
                    }
                    sc.start[si] = sc.start[si].max(end + self.lag(v, s));
                    sc.pend[si] -= 1;
                    if sc.pend[si] == 0 {
                        sc.task_queue.push(s);
                    }
                }
                // The reconfiguration this task feeds (if any) becomes
                // ready once the task vacates the region.
                if let Some(ri) = self.rec_after_task[vi] {
                    if sc.rec_in_f[ri as usize] && sc.rec_pend[ri as usize] > 0 {
                        sc.rec_pend[ri as usize] = 0;
                        sc.rec_release[ri as usize] = end;
                        let crit = self.critical(self.recs[ri as usize].t_out);
                        sc.ready_recs.push(Reverse((!crit, end, ri)));
                    }
                }
                continue;
            }
            if let Some(Reverse((_, release, ri))) = sc.ready_recs.pop() {
                let rec = &self.schedule.reconfigurations[ri as usize];
                let dur = rec.end - rec.start;
                // Argmin over the hosting fabric's lanes of the earliest
                // gap fitting the reconfiguration, ties to the lowest lane.
                let base = self.rec_fabric(ri) as usize * k;
                let mut best = (Time::MAX, base);
                for lane in base..base + k {
                    let s = self
                        .icap
                        .earliest_fit(LaneId::controller(lane), release, dur);
                    if s < best.0 {
                        best = (s, lane);
                    }
                }
                let (s, lane) = best;
                self.icap
                    .reserve(LaneId::controller(lane), TimeWindow::new(s, s + dur))
                    .expect("earliest_fit returned a free gap");
                let rec = &mut self.schedule.reconfigurations[ri as usize];
                rec.start = s;
                rec.end = s + dur;
                done += 1;
                let out = self.recs[ri as usize].t_out.index();
                // A finished `t_out` is not retimed (the rec is a tail
                // following its moving `t_in`); a live one waits for it.
                if sc.in_f[out] {
                    sc.start[out] = sc.start[out].max(s + dur);
                    sc.pend[out] -= 1;
                    if sc.pend[out] == 0 {
                        sc.task_queue.push(out as NodeId);
                    }
                }
                continue;
            }
            unreachable!("frontier is descendant-closed and acyclic");
        }

        // Write the re-timed windows back.
        let mut moved = 0usize;
        for &v in &sc.frontier {
            let vi = v as usize;
            let a = &mut self.schedule.assignments[vi];
            if a.start != sc.start[vi] || a.end != sc.end[vi] {
                moved += 1;
            }
            a.start = sc.start[vi];
            a.end = sc.end[vi];
        }

        Ok(RepairOutcome {
            frontier: sc.frontier.len(),
            moved,
            recs_replaced: sc.f_recs.len(),
            full_resolve: false,
            makespan: self.schedule.makespan(),
        })
    }

    fn critical(&self, t: TaskId) -> bool {
        self.cpm.critical.get(t.index()).copied().unwrap_or(false)
    }

    /// Fabric hosting reconfiguration `ri`'s region (0 on single-device
    /// schedules).
    fn rec_fabric(&self, ri: u32) -> u32 {
        let region = self.schedule.reconfigurations[ri as usize].region;
        self.schedule.regions[region.0 as usize].fabric
    }

    fn lag(&self, from: NodeId, to: NodeId) -> Time {
        self.lags
            .get(from as usize)
            .and_then(|l| l.iter().find(|&&(t, _)| t == to))
            .map_or(0, |&(_, lag)| lag)
    }

    // --- Full re-solve fallback. -----------------------------------------

    /// Re-runs the batch pipeline on the revised instance and rebuilds the
    /// repair model around its output. Finished flags persist; retirement
    /// is re-derived against the new plan. The re-solve re-plans the whole
    /// horizon — committed history survives only through the revised
    /// durations (a deployment would pin executed prefixes with release
    /// floors; see DESIGN.md).
    fn full_resolve(&mut self, frontier: usize) -> Result<RepairOutcome, RepairError> {
        let pa = PaScheduler::new(self.config.sched.clone());
        self.schedule = pa.schedule(&self.inst).map_err(RepairError::Solve)?;
        self.rebuild_model()?;
        Ok(RepairOutcome {
            frontier,
            moved: frontier,
            recs_replaced: 0,
            full_resolve: true,
            makespan: self.schedule.makespan(),
        })
    }

    /// (Re)derives every model structure from `(inst, schedule)`: the
    /// sequencing DAG, reachability closure, criticality oracle,
    /// communication lags, reconfiguration arcs — then re-retires the
    /// finished prefix.
    fn rebuild_model(&mut self) -> Result<(), RepairError> {
        let n = self.inst.graph.len();
        self.finished.resize(n, false);
        self.retired = vec![false; n];
        self.release_floor = vec![0; n];
        self.stats.retired_tasks = 0;

        self.durations.clear();
        for a in &self.schedule.assignments {
            self.durations.push(self.inst.impls.get(a.impl_id).time);
        }

        // Sequencing DAG: data edges, then region chains, then core chains
        // (deduplicated; chain arcs between data-dependent tasks already
        // exist).
        let mut dag = Dag::with_nodes(n);
        let chain_err = |kind: &str, a: TaskId, b: TaskId| {
            RepairError::InvalidBaseline(format!(
                "{kind} sequence {a:?} -> {b:?} closes a cycle against the data edges"
            ))
        };
        for &(from, to) in &self.inst.graph.edges {
            if !dag.has_edge(from.index() as NodeId, to.index() as NodeId) {
                dag.add_edge(from.index() as NodeId, to.index() as NodeId)
                    .map_err(|_| chain_err("data", from, to))?;
            }
        }
        let mut region_seqs: Vec<Vec<TaskId>> = Vec::with_capacity(self.schedule.regions.len());
        for r in 0..self.schedule.regions.len() {
            let seq = self.schedule.tasks_in_region(RegionId(r as u32));
            for pair in seq.windows(2) {
                if !dag.has_edge(pair[0].index() as NodeId, pair[1].index() as NodeId) {
                    dag.add_edge(pair[0].index() as NodeId, pair[1].index() as NodeId)
                        .map_err(|_| chain_err("region", pair[0], pair[1]))?;
                }
            }
            region_seqs.push(seq);
        }
        for p in 0..self.inst.architecture.num_processors {
            for pair in self.core_sequence(p).windows(2) {
                if !dag.has_edge(pair[0].index() as NodeId, pair[1].index() as NodeId) {
                    dag.add_edge(pair[0].index() as NodeId, pair[1].index() as NodeId)
                        .map_err(|_| chain_err("core", pair[0], pair[1]))?;
                }
            }
        }
        self.dag = dag;
        if ReachIndex::fits(n) {
            self.reach.sync(&self.dag);
        }
        self.cpm
            .recompute(&self.dag, &self.durations, None, &mut self.scratch);

        // Communication lags of non-colocated data edges, plus the
        // platform's crossing latency when the endpoints' regions sit on
        // different fabrics — the same lag rule phase G applies.
        for l in &mut self.lags {
            l.clear();
        }
        self.lags.resize_with(n, Vec::new);
        let crossing = self.inst.architecture.crossing_latency();
        for (from, to, cost) in self.inst.graph.edges_with_costs() {
            let pa = &self.schedule.assignments[from.index()].placement;
            let pb = &self.schedule.assignments[to.index()].placement;
            let colocated = match (pa, pb) {
                (Placement::Region(a), Placement::Region(b)) => a == b,
                (Placement::Core(a), Placement::Core(b)) => a == b,
                _ => false,
            };
            let mut lag = if colocated { 0 } else { cost };
            if let (Placement::Region(a), Placement::Region(b)) = (pa, pb) {
                if self.schedule.regions[a.0 as usize].fabric
                    != self.schedule.regions[b.0 as usize].fabric
                {
                    lag += crossing;
                }
            }
            if lag > 0 {
                // A repeated data edge overwrites the earlier lag.
                let to = to.index() as NodeId;
                let out = &mut self.lags[from.index()];
                match out.iter_mut().find(|(t, _)| *t == to) {
                    Some(slot) => slot.1 = lag,
                    None => out.push((to, lag)),
                }
            }
        }

        // Reconfiguration arcs: each rec waits on the region predecessor of
        // its outgoing task.
        self.recs.clear();
        self.rec_of_task = vec![None; n];
        self.rec_after_task = vec![None; n];
        for (ri, rec) in self.schedule.reconfigurations.iter().enumerate() {
            let seq = &region_seqs[rec.region.0 as usize];
            let pos = seq
                .iter()
                .position(|&x| x == rec.outgoing_task)
                .ok_or_else(|| {
                    RepairError::InvalidBaseline(format!(
                        "reconfiguration {ri} loads {:?} outside its region",
                        rec.outgoing_task
                    ))
                })?;
            if pos == 0 {
                return Err(RepairError::InvalidBaseline(format!(
                    "reconfiguration {ri} precedes the region-first task {:?}",
                    rec.outgoing_task
                )));
            }
            let out = rec.outgoing_task.index();
            if self.rec_of_task[out].is_some() {
                return Err(RepairError::InvalidBaseline(format!(
                    "task {:?} is loaded by two reconfigurations",
                    rec.outgoing_task
                )));
            }
            self.rec_of_task[out] = Some(ri as u32);
            let t_in = seq[pos - 1];
            if self.rec_after_task[t_in.index()].is_some() {
                return Err(RepairError::InvalidBaseline(format!(
                    "task {t_in:?} feeds two reconfigurations"
                )));
            }
            self.rec_after_task[t_in.index()] = Some(ri as u32);
            self.recs.push(RecArc {
                t_in,
                t_out: rec.outgoing_task,
            });
        }

        // Re-derive retirement from the (persisted) finished flags.
        for t in 0..n {
            if self.finished[t] {
                self.try_retire_from(TaskId(t as u32));
            }
        }
        Ok(())
    }

    /// The tasks on core `p` in execution order: by start, then end, then
    /// id. Ordering by end as well puts a zero-width task (cancelled, or
    /// finished with its duration clamped to 0) before a task starting at
    /// the same tick, so each chain arc holds in the schedule it was read
    /// from.
    fn core_sequence(&self, p: usize) -> Vec<TaskId> {
        let mut seq = self.schedule.tasks_on_core(p);
        seq.sort_by_key(|t| {
            let a = &self.schedule.assignments[t.index()];
            (a.start, a.end)
        });
        seq
    }

    // --- Retirement. ------------------------------------------------------

    /// Retires `t` if it is a finished source, cascading to successors
    /// that become finished sources in turn. Ends fold into successor
    /// release floors before the arcs drop.
    fn try_retire_from(&mut self, t: TaskId) {
        let mut queue = vec![t.index() as NodeId];
        while let Some(v) = queue.pop() {
            let vi = v as usize;
            if !self.finished[vi] || self.retired[vi] || !self.dag.preds(v).is_empty() {
                continue;
            }
            let succs: Vec<NodeId> = self.dag.succs(v).to_vec();
            let end = self.schedule.assignments[vi].end;
            for &s in &succs {
                let lag = self.lag(v, s);
                let floor = &mut self.release_floor[s as usize];
                *floor = (*floor).max(end + lag);
            }
            if self.reach.is_current(&self.dag) {
                self.reach.retire_node(&mut self.dag, v);
            } else {
                self.dag.retire_node(v);
            }
            self.retired[vi] = true;
            self.stats.retired_tasks += 1;
            queue.extend(succs.into_iter().filter(|&s| self.finished[s as usize]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;
    use prfpga_sim::validate_schedule;

    fn engine_for(seed: u64, n: usize) -> RepairEngine {
        let inst = TaskGraphGenerator::new(seed).generate(
            &format!("rep{n}"),
            &GraphConfig::standard(n),
            Architecture::zedboard_pr(),
        );
        let schedule = PaScheduler::new(SchedulerConfig::default())
            .schedule(&inst)
            .unwrap();
        RepairEngine::new(inst, schedule, RepairConfig::default()).unwrap()
    }

    /// First task (by start tick) that has at least one successor.
    fn early_task(engine: &RepairEngine) -> TaskId {
        let mut ids: Vec<TaskId> = (0..engine.instance().graph.len() as u32)
            .map(TaskId)
            .collect();
        ids.sort_by_key(|t| engine.schedule().assignment(*t).start);
        ids.into_iter()
            .find(|t| !engine.dag.succs(t.index() as NodeId).is_empty())
            .expect("generated graphs have edges")
    }

    #[test]
    fn on_time_finish_changes_nothing() {
        let mut engine = engine_for(11, 30);
        let before = engine.schedule().clone();
        let t = early_task(&engine);
        let actual = before.assignment(t).end;
        let out = engine
            .apply(&ScheduleEvent::Finish { task: t, actual })
            .unwrap();
        assert_eq!(out.frontier, 0);
        assert_eq!(out.moved, 0);
        assert_eq!(engine.schedule(), &before);
        assert!(engine.is_finished(t));
    }

    #[test]
    fn late_finish_pushes_descendants_and_validates() {
        let mut engine = engine_for(12, 40);
        let t = early_task(&engine);
        let committed = engine.schedule().assignment(t).end;
        let out = engine
            .apply(&ScheduleEvent::Finish {
                task: t,
                actual: committed + 500,
            })
            .unwrap();
        assert!(out.frontier > 0, "descendants must be invalidated");
        assert_eq!(engine.schedule().assignment(t).end, committed + 500);
        validate_schedule(engine.instance(), engine.schedule()).expect("repaired schedule valid");
        assert!(out.makespan >= committed + 500);
    }

    #[test]
    fn early_finish_pulls_schedule_in() {
        // Cascade disabled: this pins the *delta* path. (A full re-solve
        // re-runs the heuristic pipeline on the revised instance and may
        // legitimately land on a slightly different makespan.)
        let inst = TaskGraphGenerator::new(13).generate(
            "early",
            &GraphConfig::standard(40),
            Architecture::zedboard_pr(),
        );
        let schedule = PaScheduler::new(SchedulerConfig::default())
            .schedule(&inst)
            .unwrap();
        let mut engine = RepairEngine::new(
            inst,
            schedule,
            RepairConfig {
                cascade_threshold_pct: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let t = early_task(&engine);
        let a = engine.schedule().assignment(t);
        let (start, committed) = (a.start, a.end);
        if committed == start {
            return; // zero-duration task; nothing to pull
        }
        let before = engine.schedule().makespan();
        let out = engine
            .apply(&ScheduleEvent::Finish {
                task: t,
                actual: start,
            })
            .unwrap();
        assert!(!out.full_resolve);
        validate_schedule(engine.instance(), engine.schedule()).expect("valid");
        // A pure CPM retime (no reconfiguration re-placement) is the
        // monotone fixed point: shrinking an input never grows it. With
        // contended controller gaps the greedy re-placement may trade a
        // little; only the exact property is pinned.
        if out.recs_replaced == 0 {
            assert!(out.makespan <= before, "pure retime is monotone");
        }
    }

    #[test]
    fn cancel_zeroes_and_retires_sources() {
        let mut engine = engine_for(14, 30);
        // Cancel a source task (no predecessors): it must retire.
        let src = (0..engine.instance().graph.len())
            .map(|i| TaskId(i as u32))
            .find(|t| engine.dag.preds(t.index() as NodeId).is_empty())
            .unwrap();
        engine.apply(&ScheduleEvent::Cancel { task: src }).unwrap();
        assert!(engine.is_finished(src));
        assert!(engine.retired[src.index()]);
        assert_eq!(engine.durations[src.index()], 0);
        validate_schedule(engine.instance(), engine.schedule()).expect("valid");
        // A second event against it is refused.
        assert!(matches!(
            engine.apply(&ScheduleEvent::Cancel { task: src }),
            Err(RepairError::TaskFinished(_))
        ));
    }

    #[test]
    fn arrival_lands_on_least_loaded_core_after_deps() {
        let mut engine = engine_for(15, 30);
        let dep = early_task(&engine);
        let out = engine
            .apply(&ScheduleEvent::Arrive {
                name: "late-job".into(),
                sw_time: 777,
                deps: vec![dep],
            })
            .unwrap();
        let n = engine.instance().graph.len();
        let t = TaskId(n as u32 - 1);
        let a = engine.schedule().assignment(t);
        assert!(matches!(a.placement, Placement::Core(_)));
        assert_eq!(a.end - a.start, 777);
        assert!(a.start >= engine.schedule().assignment(dep).end);
        assert_eq!(out.frontier, 1);
        validate_schedule(engine.instance(), engine.schedule()).expect("valid");
    }

    #[test]
    fn cascade_threshold_forces_full_resolve() {
        let inst = TaskGraphGenerator::new(16).generate(
            "cascade",
            &GraphConfig::standard(30),
            Architecture::zedboard_pr(),
        );
        let schedule = PaScheduler::new(SchedulerConfig::default())
            .schedule(&inst)
            .unwrap();
        let mut engine = RepairEngine::new(
            inst,
            schedule,
            RepairConfig {
                cascade_threshold_pct: 0, // every nonempty frontier cascades
                ..Default::default()
            },
        )
        .unwrap();
        let t = early_task(&engine);
        let committed = engine.schedule().assignment(t).end;
        let out = engine
            .apply(&ScheduleEvent::Finish {
                task: t,
                actual: committed + 100,
            })
            .unwrap();
        assert!(out.full_resolve);
        assert_eq!(engine.stats().full_resolves, 1);
        validate_schedule(engine.instance(), engine.schedule()).expect("valid after re-solve");
    }

    #[test]
    fn stats_accumulate_across_events() {
        let mut engine = engine_for(17, 40);
        let t = early_task(&engine);
        let committed = engine.schedule().assignment(t).end;
        engine
            .apply(&ScheduleEvent::Finish {
                task: t,
                actual: committed + 50,
            })
            .unwrap();
        engine
            .apply(&ScheduleEvent::Arrive {
                name: "x".into(),
                sw_time: 10,
                deps: vec![],
            })
            .unwrap();
        let s = engine.stats();
        assert_eq!(s.events, 2);
        assert!(s.frontier_tasks >= 1);
        assert!(s.retired_tasks >= 1, "the finished task's sources retire");
    }

    /// Without a current closure (past its memory ceiling) the engine
    /// walks the graph for each frontier and grows the plain graph on
    /// arrivals; every outcome and the final schedule must match the
    /// closure path's, arrivals past 128 nodes included.
    #[test]
    fn graph_walk_frontier_matches_closure_row() {
        use prfpga_gen::{EventConfig, EventTraceGenerator};

        let inst = TaskGraphGenerator::new(19).generate(
            "walk",
            &GraphConfig::standard(120),
            Architecture::zedboard_pr(),
        );
        let schedule = PaScheduler::new(SchedulerConfig::default())
            .schedule(&inst)
            .unwrap();
        let trace =
            EventTraceGenerator::new(23).generate(&inst, &schedule, &EventConfig::standard(120));
        let config = RepairConfig {
            cascade_threshold_pct: 100,
            ..Default::default()
        };
        let mut closure =
            RepairEngine::new(inst.clone(), schedule.clone(), config.clone()).unwrap();
        let mut walk = RepairEngine::new(inst, schedule, config).unwrap();
        walk.reach = ReachIndex::new();
        for ev in &trace.events {
            assert_eq!(
                closure.apply(ev).unwrap(),
                walk.apply(ev).unwrap(),
                "{ev:?}"
            );
        }
        assert!(!walk.reach.is_current(&walk.dag));
        assert!(closure.reach.is_current(&closure.dag));
        assert!(closure.dag.len() > 128, "arrivals cross a word boundary");
        assert_eq!(closure.schedule(), walk.schedule());
        assert_eq!(closure.stats(), walk.stats());
    }

    #[test]
    fn unknown_task_is_refused() {
        let mut engine = engine_for(18, 20);
        assert!(matches!(
            engine.apply(&ScheduleEvent::Cancel { task: TaskId(9999) }),
            Err(RepairError::UnknownTask(_))
        ));
        assert!(matches!(
            engine.apply(&ScheduleEvent::Arrive {
                name: "y".into(),
                sw_time: 5,
                deps: vec![TaskId(9999)],
            }),
            Err(RepairError::UnknownDependency(_))
        ));
    }
}
