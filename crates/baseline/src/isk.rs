//! IS-k: iterative optimal scheduling of k tasks at a time (paper ref. \[6\]).

use std::time::{Duration, Instant};

use prfpga_dag::{CpmAnalysis, Dag};
use prfpga_floorplan::{FloorplanOutcome, Floorplanner, FloorplannerConfig, QueryStats};
use prfpga_model::{CancelToken, ProblemInstance, Schedule, TaskId, Time};
use prfpga_sched::{SchedError, VirtualTarget};

use crate::partial::{PartialSchedule, TaskOption};

/// Configuration of the IS-k scheduler.
#[derive(Debug, Clone)]
pub struct IsKConfig {
    /// Window size `k` (the paper evaluates IS-1 and IS-5).
    pub k: usize,
    /// Module reuse (ref. \[6\] supports it; §VII-A notes IS-k exploits it).
    pub module_reuse: bool,
    /// Branch-and-bound node budget per window; when exhausted the best
    /// incumbent found so far is committed (0 = unbounded). Stands in for
    /// Gurobi's internal limits and keeps worst-case windows bounded.
    pub node_budget: u64,
    /// Floorplanner settings for the final feasibility check.
    pub floorplan: FloorplannerConfig,
    /// Capacity shrink factor on floorplan failure, as in PA.
    pub shrink_factor: (u64, u64),
    /// Maximum shrink-and-restart attempts.
    pub max_attempts: usize,
}

impl IsKConfig {
    /// IS-1: the cheap greedy end of the spectrum.
    pub fn is1() -> Self {
        IsKConfig {
            k: 1,
            ..Self::is5()
        }
    }

    /// IS-5: the expensive high-quality end evaluated in the paper.
    pub fn is5() -> Self {
        IsKConfig {
            k: 5,
            module_reuse: true,
            node_budget: 300_000,
            floorplan: FloorplannerConfig::default(),
            shrink_factor: (85, 100),
            max_attempts: 8,
        }
    }
}

/// Diagnostics of one IS-k run.
#[derive(Debug, Clone)]
pub struct IsKResult {
    /// The floorplan-feasible schedule.
    pub schedule: Schedule,
    /// Branch-and-bound nodes explored, summed over windows and restarts.
    pub nodes_explored: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Pipeline runs (1 = no capacity shrink was needed).
    pub attempts: usize,
}

/// The IS-k iterative scheduler.
#[derive(Debug, Clone)]
pub struct IsKScheduler {
    config: IsKConfig,
}

impl IsKScheduler {
    /// Creates an IS-k scheduler.
    pub fn new(config: IsKConfig) -> Self {
        IsKScheduler { config }
    }

    /// Convenience constructor for a given `k` with default settings.
    pub fn with_k(k: usize) -> Self {
        IsKScheduler::new(IsKConfig {
            k: k.max(1),
            ..IsKConfig::is5()
        })
    }

    /// Schedules `inst`, returning only the schedule.
    pub fn schedule(&self, inst: &ProblemInstance) -> Result<Schedule, prfpga_sched::SchedError> {
        self.schedule_detailed(inst).map(|r| r.schedule)
    }

    /// Schedules `inst` with diagnostics: iterate windows of `k` tasks in
    /// list order, solve each window exactly, commit; then check the
    /// floorplan and restart with shrunk virtual capacity on failure.
    pub fn schedule_detailed(&self, inst: &ProblemInstance) -> Result<IsKResult, SchedError> {
        self.schedule_with_cancel(inst, &CancelToken::never())
    }

    /// [`schedule_detailed`](Self::schedule_detailed) honouring a
    /// cooperative [`CancelToken`].
    ///
    /// Unlike PA/PA-R, IS-k has no cheap anytime fallback of its own — a
    /// half-committed window prefix is not a schedule — so a fired token
    /// yields a clean [`SchedError::DeadlineExceeded`]. The branch-and-bound
    /// descent polls the token once per node and unwinds every applied move
    /// through the timeline's rollback journal before returning, so the
    /// partial-schedule state is fully rewound on the error path.
    pub fn schedule_with_cancel(
        &self,
        inst: &ProblemInstance,
        cancel: &CancelToken,
    ) -> Result<IsKResult, SchedError> {
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;
        let t0 = Instant::now();
        let order = list_order(inst)?;
        let planner = Floorplanner::new(self.config.floorplan.clone());
        let mut nodes_total = 0u64;
        // IS-k (ref. [6]) schedules onto one device. On a multi-fabric
        // platform it keeps to fabric 0: every region it opens lands there
        // (see `PartialSchedule::into_schedule`), so capacity and
        // reconfiguration times come from that fabric of the shrinking
        // target, not from the platform's sum-capacity relaxation. On one
        // fabric, fabric 0 is the device itself.
        let max_attempts = self.config.max_attempts.max(1);
        let mut target = VirtualTarget::new(&inst.architecture, max_attempts);

        for attempt in 1..=max_attempts {
            if cancel.is_cancelled() {
                return Err(SchedError::DeadlineExceeded);
            }
            let (schedule, nodes) = self.run_windows(inst, &target, &order, cancel)?;
            nodes_total += nodes;
            let outcome = planner.check(
                &inst.architecture,
                &schedule.regions,
                cancel,
                &mut QueryStats::default(),
            );
            if let FloorplanOutcome::Feasible(_) = outcome {
                return Ok(IsKResult {
                    schedule,
                    nodes_explored: nodes_total,
                    elapsed: t0.elapsed(),
                    attempts: attempt,
                });
            }
            // A cancellation-induced Timeout is not a capacity verdict:
            // surface the deadline instead of shrinking and retrying.
            if cancel.is_cancelled() {
                return Err(SchedError::DeadlineExceeded);
            }
            target.shrink(self.config.shrink_factor);
        }

        // All-software fallback.
        target.zero();
        let (schedule, nodes) = self.run_windows(inst, &target, &order, cancel)?;
        nodes_total += nodes;
        Ok(IsKResult {
            schedule,
            nodes_explored: nodes_total,
            elapsed: t0.elapsed(),
            attempts: max_attempts + 1,
        })
    }

    /// Runs the iterative window loop against fabric 0 of the (possibly
    /// capacity-shrunk) `target`. `Err(DeadlineExceeded)` when `cancel`
    /// fires mid-window; the in-progress window is rolled back before
    /// returning.
    fn run_windows(
        &self,
        inst: &ProblemInstance,
        target: &VirtualTarget,
        order: &[TaskId],
        cancel: &CancelToken,
    ) -> Result<(Schedule, u64), SchedError> {
        let mut ps = PartialSchedule::new(inst, &target.platform.fabrics[0]);
        let mut nodes = 0u64;
        for window in order.chunks(self.config.k.max(1)) {
            let mut search = WindowSearch {
                window,
                module_reuse: self.config.module_reuse,
                budget: if self.config.node_budget == 0 {
                    u64::MAX
                } else {
                    self.config.node_budget
                },
                nodes: 0,
                best_cost: Time::MAX,
                best: None,
                cancel,
                cancelled: false,
            };
            search.dfs(&mut ps, 0, &mut Vec::with_capacity(window.len()));
            nodes += search.nodes;
            if search.cancelled {
                // No partial commit: a half-explored window's incumbent may
                // be arbitrarily bad and later windows would still need
                // search time the deadline no longer affords.
                return Err(SchedError::DeadlineExceeded);
            }
            let plan = search
                .best
                .expect("software options always exist, so every window has a solution");
            for (t, opt) in window.iter().zip(plan.iter()) {
                ps.apply(*t, opt);
            }
        }
        Ok((ps.into_schedule(), nodes))
    }
}

/// List order: topological, tie-broken by earliest CPM start under the
/// fastest implementations, then id — the natural ready-list priority.
fn list_order(inst: &ProblemInstance) -> Result<Vec<TaskId>, prfpga_sched::SchedError> {
    let dag =
        Dag::from_taskgraph(&inst.graph).map_err(|_| prfpga_sched::SchedError::CyclicTaskGraph)?;
    let durations: Vec<Time> = inst
        .graph
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
        .collect();
    let cpm = CpmAnalysis::run(&dag, &durations);
    let mut order: Vec<TaskId> = inst.graph.task_ids().collect();
    // Stable priority sort, then repair to a true topological order.
    order.sort_by_key(|&t| (cpm.windows[t.index()].min, t));
    // Kahn repair: pick, among ready tasks, the one earliest in `order`.
    let mut rank = vec![0usize; order.len()];
    for (i, &t) in order.iter().enumerate() {
        rank[t.index()] = i;
    }
    let mut indeg: Vec<u32> = (0..dag.len() as u32)
        .map(|v| dag.preds(v).len() as u32)
        .collect();
    let mut ready: Vec<TaskId> = inst
        .graph
        .task_ids()
        .filter(|t| indeg[t.index()] == 0)
        .collect();
    let mut out = Vec::with_capacity(order.len());
    while !ready.is_empty() {
        let (pos, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| rank[t.index()])
            .unwrap();
        let t = ready.swap_remove(pos);
        out.push(t);
        for &s in dag.succs(t.0) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(TaskId(s));
            }
        }
    }
    Ok(out)
}

/// Depth-first branch-and-bound over one window.
struct WindowSearch<'a> {
    window: &'a [TaskId],
    module_reuse: bool,
    budget: u64,
    nodes: u64,
    best_cost: Time,
    best: Option<Vec<TaskOption>>,
    cancel: &'a CancelToken,
    cancelled: bool,
}

impl WindowSearch<'_> {
    /// In-place depth-first search: each branch is applied to `ps`,
    /// explored, and reverted through the timeline's rollback journal —
    /// no per-branch clone of the partial schedule. A fired [`CancelToken`]
    /// sets `cancelled` and unwinds; the undo discipline guarantees `ps` is
    /// back to its pre-window state when the root call returns.
    fn dfs(&mut self, ps: &mut PartialSchedule<'_>, depth: usize, chosen: &mut Vec<TaskOption>) {
        if self.cancelled {
            return;
        }
        if depth == self.window.len() {
            if ps.makespan < self.best_cost {
                self.best_cost = ps.makespan;
                self.best = Some(chosen.clone());
            }
            return;
        }
        // One cancellation poll per internal node, mirroring the node
        // budget's granularity.
        if self.cancel.is_cancelled() {
            self.cancelled = true;
            return;
        }
        if self.nodes >= self.budget && self.best.is_some() {
            return;
        }
        let t = self.window[depth];
        let mut options = ps.enumerate_options(t, self.module_reuse);
        debug_assert!(
            !options.is_empty(),
            "software fallback guarantees at least one option"
        );
        // Explore promising branches first: earliest completion.
        options.sort_by_key(|o| (o.end, o.start));
        for opt in options {
            // Bound: a partial makespan already at/above the incumbent
            // cannot improve (times only grow).
            if ps.makespan.max(opt.end) >= self.best_cost {
                continue;
            }
            self.nodes += 1;
            let mv = ps.apply(t, &opt);
            chosen.push(opt);
            self.dfs(ps, depth + 1, chosen);
            chosen.pop();
            ps.undo(mv);
            if self.cancelled {
                return;
            }
            if self.nodes >= self.budget && self.best.is_some() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;
    use prfpga_sim::validate_schedule;

    fn instance(n: usize, seed: u64) -> ProblemInstance {
        TaskGraphGenerator::new(seed).generate(
            &format!("isk{n}"),
            &GraphConfig::standard(n),
            Architecture::zedboard(),
        )
    }

    #[test]
    fn is1_produces_valid_schedules() {
        let isk = IsKScheduler::new(IsKConfig::is1());
        for n in [5usize, 12, 25] {
            let inst = instance(n, 31);
            let s = isk.schedule(&inst).unwrap();
            validate_schedule(&inst, &s).expect("valid");
            assert!(s.makespan() > 0);
        }
    }

    #[test]
    fn is3_produces_valid_schedules() {
        let isk = IsKScheduler::with_k(3);
        let inst = instance(12, 37);
        let s = isk.schedule(&inst).unwrap();
        validate_schedule(&inst, &s).expect("valid");
    }

    #[test]
    fn larger_k_never_worse_on_first_window() {
        // With n <= k the whole problem is solved exactly in one window,
        // so IS-n is at least as good as IS-1 on the same instance.
        let inst = instance(6, 41);
        let greedy = IsKScheduler::new(IsKConfig::is1())
            .schedule(&inst)
            .unwrap()
            .makespan();
        let exact = IsKScheduler::new(IsKConfig {
            k: 6,
            node_budget: 0,
            ..IsKConfig::is5()
        })
        .schedule(&inst)
        .unwrap()
        .makespan();
        assert!(exact <= greedy);
    }

    #[test]
    fn module_reuse_helps_shared_implementations() {
        // Chain of three tasks sharing one hardware implementation on a
        // device with room for exactly one region: with module reuse there
        // are no reconfigurations at all.
        use prfpga_model::{Device, ImplPool, Implementation, ResourceVec, TaskGraph};
        let mut pool = ImplPool::new();
        let sw = pool.add(Implementation::software("sw", 1000));
        let hw = pool.add(Implementation::hardware(
            "hw",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let mut g = TaskGraph::new();
        let mut prev = None;
        for i in 0..3 {
            let t = g.add_task(format!("t{i}"), vec![sw, hw]);
            if let Some(p) = prev {
                g.add_edge(p, t);
            }
            prev = Some(t);
        }
        let inst = ProblemInstance::new(
            "mr",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(5, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let with = IsKScheduler::new(IsKConfig {
            module_reuse: true,
            ..IsKConfig::is1()
        })
        .schedule(&inst)
        .unwrap();
        let without = IsKScheduler::new(IsKConfig {
            module_reuse: false,
            ..IsKConfig::is1()
        })
        .schedule(&inst)
        .unwrap();
        validate_schedule(&inst, &with).expect("valid");
        validate_schedule(&inst, &without).expect("valid");
        assert!(with.reconfigurations.is_empty());
        assert_eq!(with.makespan(), 30);
        assert!(without.makespan() > with.makespan());
    }

    #[test]
    fn determinism() {
        let inst = instance(15, 43);
        let isk = IsKScheduler::new(IsKConfig::is1());
        assert_eq!(isk.schedule(&inst).unwrap(), isk.schedule(&inst).unwrap());
    }

    #[test]
    fn node_budget_caps_search() {
        let inst = instance(10, 47);
        let tight = IsKScheduler::new(IsKConfig {
            k: 5,
            node_budget: 50,
            ..IsKConfig::is5()
        });
        let r = tight.schedule_detailed(&inst).unwrap();
        validate_schedule(&inst, &r.schedule).expect("valid");
        // The budget is per window (2 windows of 5) and per attempt.
        assert!(r.nodes_explored <= 50 * 2 * r.attempts as u64 + 1000);
    }

    #[test]
    fn cancellation_yields_clean_deadline_error() {
        let inst = instance(12, 53);
        let isk = IsKScheduler::new(IsKConfig::is5());
        let baseline_token = CancelToken::never();
        let baseline = isk.schedule_with_cancel(&inst, &baseline_token).unwrap();
        let total = baseline_token.polls();
        assert!(total > 0, "the run must cross cancellation checkpoints");
        for n in [1, 2, total / 2 + 1, total] {
            let tok = CancelToken::fire_on_poll(n);
            match isk.schedule_with_cancel(&inst, &tok) {
                Err(SchedError::DeadlineExceeded) => {
                    assert!(tok.deadline_hits() >= 1);
                }
                Ok(res) => assert_eq!(
                    res.schedule, baseline.schedule,
                    "a token firing after the last checkpoint cannot change the result"
                ),
                Err(e) => panic!("cancellation must never surface as {e}"),
            }
        }
        // The never-firing path is unperturbed by the sweep machinery.
        let again = isk.schedule_detailed(&inst).unwrap();
        assert_eq!(again.schedule, baseline.schedule);
    }

    #[test]
    fn rejects_invalid_instances() {
        use prfpga_model::{Device, ImplPool, ResourceVec, TaskGraph};
        let mut g = TaskGraph::new();
        g.add_task("t", vec![]);
        let inst = ProblemInstance {
            name: "bad".into(),
            architecture: Architecture::new(1, Device::tiny_test(ResourceVec::new(1, 1, 1), 1)),
            graph: g,
            impls: ImplPool::new(),
        };
        assert!(IsKScheduler::new(IsKConfig::is1()).schedule(&inst).is_err());
    }
}
