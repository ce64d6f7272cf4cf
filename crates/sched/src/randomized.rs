//! The randomized scheduler variant PA-R (§VI, Algorithm 1).
//!
//! PA-R relaxes the fixed efficiency-index ordering for *non-critical*
//! hardware tasks during regions definition: each iteration draws a fresh
//! random ordering, runs the core pipeline (`doSchedule`), and — only when
//! the new schedule improves on the incumbent — pays for a floorplan
//! check. Floorplan-infeasible candidates are simply discarded (no
//! capacity-shrinking restarts, unlike the deterministic PA). The search
//! runs until a wall-clock budget or an iteration cap expires, whichever
//! comes first, and returns the best feasible schedule found.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use prfpga_floorplan::{
    CacheStats, FeasibilityCache, FloorplanOutcome, Floorplanner, DEFAULT_CACHE_CAPACITY,
};
use prfpga_model::{CancelToken, Device, Platform, ProblemInstance, Schedule, Time};

use crate::config::{OrderingPolicy, SchedulerConfig};
use crate::driver::{do_schedule_in, ImplSelectMemo, PaScheduler};
use crate::error::SchedError;
use crate::state::SchedWorkspace;
use crate::trace::ObserverHandle;

/// A point on PA-R's anytime-convergence curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergencePoint {
    /// Iteration (1-based) at which the improvement landed.
    pub iteration: usize,
    /// Wall-clock elapsed since the search started.
    pub elapsed: Duration,
    /// The improved (floorplan-feasible) makespan.
    pub makespan: Time,
}

/// Result of a PA-R run.
#[derive(Debug, Clone)]
pub struct PaRResult {
    /// Best floorplan-feasible schedule found.
    pub schedule: Schedule,
    /// Iterations executed.
    pub iterations: usize,
    /// Every improvement, in order — the data behind the paper's Fig. 6.
    pub trace: Vec<ConvergencePoint>,
    /// Wall-clock of the whole search.
    pub elapsed: Duration,
    /// Iterations that rewound the warm workspace instead of re-allocating.
    pub workspace_reuses: u64,
    /// Floorplan-feasibility cache counters (all-zero when the device
    /// carries no geometry).
    pub fp_cache: CacheStats,
    /// True when the run's [`CancelToken`] fired mid-search: the returned
    /// schedule is the incumbent at cancellation time (or the degraded PA
    /// fallback if nothing feasible existed yet). Always `false` when no
    /// deadline was set; a naturally exhausted `time_budget` does not count
    /// as degradation.
    pub degraded: bool,
    /// Cancellation checkpoints this call polled on its token.
    pub cancel_polls: u64,
    /// Checkpoints that observed the fired deadline.
    pub deadline_hits: u64,
}

impl PaRResult {
    /// Search throughput in iterations per second (0 when the clock did
    /// not tick).
    pub fn iterations_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.iterations as f64 / secs
        } else {
            0.0
        }
    }
}

/// The randomized scheduler (*PA-R*).
#[derive(Debug, Clone, Default)]
pub struct PaRScheduler {
    config: SchedulerConfig,
}

impl PaRScheduler {
    /// Creates a PA-R scheduler; `config.time_budget`, `config.max_iterations`
    /// and `config.seed` drive the search.
    pub fn new(config: SchedulerConfig) -> Self {
        PaRScheduler { config }
    }

    /// Schedules `inst`, returning only the best schedule.
    pub fn schedule(&self, inst: &ProblemInstance) -> Result<Schedule, SchedError> {
        self.schedule_detailed(inst).map(|r| r.schedule)
    }

    /// Runs the randomized search (Algorithm 1) with full diagnostics.
    pub fn schedule_detailed(&self, inst: &ProblemInstance) -> Result<PaRResult, SchedError> {
        self.schedule_with_cancel_in(inst, &CancelToken::never(), &mut SchedWorkspace::new())
    }

    /// [`schedule_detailed`](Self::schedule_detailed) honouring a
    /// cooperative [`CancelToken`], against a caller-owned
    /// [`SchedWorkspace`]; every exit leaves `ws` rewound and reusable.
    ///
    /// PA-R is *anytime*: the search polls `cancel` once per iteration and
    /// around every floorplan check; when the token fires it returns the
    /// best feasible incumbent found so far flagged
    /// [`PaRResult::degraded`], or — if no feasible candidate exists yet —
    /// the deterministic PA's degraded fallback. With a never-firing token
    /// the result is byte-identical to
    /// [`schedule_detailed`](Self::schedule_detailed).
    pub fn schedule_with_cancel_in(
        &self,
        inst: &ProblemInstance,
        cancel: &CancelToken,
        ws: &mut SchedWorkspace,
    ) -> Result<PaRResult, SchedError> {
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;

        let polls0 = cancel.polls();
        let hits0 = cancel.deadline_hits();
        let mut target = VirtualTarget::new(inst, &self.config);
        let start = Instant::now();
        let deadline = start + self.config.time_budget;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

        // One workspace and one feasibility cache persist across every
        // iteration; verdicts are exact, so memoizing them cannot change
        // the search trajectory.
        let mut memo = ImplSelectMemo::default();
        let cache = FeasibilityCache::new(
            Floorplanner::new(self.config.floorplan.clone()),
            DEFAULT_CACHE_CAPACITY,
        );

        let mut best: Option<Schedule> = None;
        let mut best_makespan = Time::MAX;
        let mut trace = Vec::new();
        let mut iterations = 0usize;
        let mut cancelled = false;

        loop {
            if self.config.max_iterations > 0 && iterations >= self.config.max_iterations {
                break;
            }
            // Always run at least one iteration so a zero budget still
            // returns a schedule.
            if iterations > 0 && Instant::now() >= deadline {
                break;
            }
            if cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            iterations += 1;
            let schedule = target.run(ws, inst, &self.config, rng.random(), &mut memo);
            let makespan = schedule.makespan();
            if makespan < best_makespan {
                // Pay for the floorplanner only on improvement (Algorithm 1).
                let outcome = cache.check(&inst.architecture, &schedule.regions, cancel);
                if let FloorplanOutcome::Feasible(_) = outcome {
                    best_makespan = makespan;
                    best = Some(schedule);
                    trace.push(ConvergencePoint {
                        iteration: iterations,
                        elapsed: start.elapsed(),
                        makespan,
                    });
                } else {
                    // A non-feasible verdict caused by the token firing
                    // mid-solve is a Timeout, not a capacity statement:
                    // break before it can consume a ratchet shrink.
                    if cancel.is_cancelled() {
                        cancelled = true;
                        break;
                    }
                    target.shrink(self.config.shrink_factor);
                }
            }
        }

        let workspace_reuses = ws.reuses();
        let fp_cache = cache.stats();
        let (schedule, degraded) = match best {
            Some(schedule) => (schedule, cancelled),
            // Every random candidate was floorplan-infeasible (or the token
            // fired before one could be checked): fall back to the
            // deterministic PA, whose shrinking loop always terminates with
            // a feasible (possibly all-software, possibly degraded)
            // schedule. The token is passed through, so a fired deadline
            // short-circuits the fallback to PA's bounded degraded path.
            None => {
                let pa = PaScheduler::new(self.config.clone())
                    .schedule_with_cancel_in(inst, cancel, ws)?;
                (pa.schedule, cancelled || pa.degraded)
            }
        };
        Ok(PaRResult {
            schedule,
            iterations,
            trace,
            elapsed: start.elapsed(),
            workspace_reuses,
            fp_cache,
            degraded,
            cancel_polls: cancel.polls() - polls0,
            deadline_hits: cancel.deadline_hits() - hits0,
        })
    }

    /// Parallel PA-R: `threads` workers explore disjoint seed streams and
    /// share the incumbent under a mutex. The result is deterministic for
    /// a fixed `(seed, max_iterations, threads)` triple when the iteration
    /// cap is used (each worker owns an equal slice of the iteration
    /// budget); under a pure wall-clock budget the outcome depends on
    /// timing, as in any anytime search.
    ///
    /// `cancel` is shared by all workers: each polls it once per iteration
    /// (poll counts aggregate across workers) and stops as soon as it
    /// fires. The incumbent at cancellation time is returned; with none,
    /// the deterministic PA's (possibly degraded) fallback runs under the
    /// same token.
    pub fn schedule_parallel(
        &self,
        inst: &ProblemInstance,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<Schedule, SchedError> {
        let threads = threads.max(1);
        if threads == 1 {
            return self
                .schedule_with_cancel_in(inst, cancel, &mut SchedWorkspace::new())
                .map(|r| r.schedule);
        }
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;

        let best: Mutex<(Time, Option<Schedule>)> = Mutex::new((Time::MAX, None));
        let deadline = Instant::now() + self.config.time_budget;
        let per_worker_iters = if self.config.max_iterations > 0 {
            self.config.max_iterations.div_ceil(threads)
        } else {
            0
        };
        // All workers share one feasibility cache (solves happen outside
        // its lock); each owns a private workspace. Verdicts are exact, so
        // sharing cannot perturb any worker's search trajectory.
        let shared_cache = FeasibilityCache::new(
            Floorplanner::new(self.config.floorplan.clone()),
            DEFAULT_CACHE_CAPACITY,
        );

        crossbeam::thread::scope(|scope| {
            for w in 0..threads {
                let best = &best;
                let config = &self.config;
                let cache = shared_cache.clone();
                scope.spawn(move |_| {
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(w as u64 * 0x9E37));
                    // Per-worker capacity ratchet.
                    let mut target = VirtualTarget::new(inst, config);
                    let mut ws = SchedWorkspace::new();
                    let mut memo = ImplSelectMemo::default();
                    let mut iters = 0usize;
                    loop {
                        if per_worker_iters > 0 && iters >= per_worker_iters {
                            break;
                        }
                        if iters > 0 && Instant::now() >= deadline {
                            break;
                        }
                        if cancel.is_cancelled() {
                            break;
                        }
                        iters += 1;
                        let schedule = target.run(&mut ws, inst, config, rng.random(), &mut memo);
                        let makespan = schedule.makespan();
                        if makespan < best.lock().0 {
                            let outcome =
                                cache.check(&inst.architecture, &schedule.regions, cancel);
                            if let FloorplanOutcome::Feasible(_) = outcome {
                                let mut guard = best.lock();
                                if makespan < guard.0 {
                                    *guard = (makespan, Some(schedule));
                                }
                            } else {
                                target.shrink(config.shrink_factor);
                            }
                        }
                    }
                });
            }
        })
        .expect("PA-R worker panicked");

        let (_, found) = best.into_inner();
        match found {
            Some(s) => Ok(s),
            None => PaScheduler::new(self.config.clone())
                .schedule_with_cancel_in(inst, cancel, &mut SchedWorkspace::new())
                .map(|r| r.schedule),
        }
    }
}

/// PA-R's virtual capacity ratchet. Algorithm 1 discards floorplan-
/// infeasible candidates outright, but a pipeline run that packs the
/// fabric to 100% is *systematically* unplaceable on a column grid, so
/// repeating it at the same capacity would starve the search. Whenever an
/// improving candidate fails the floorplan, subsequent iterations schedule
/// against a shrunken virtual capacity — the same lever the deterministic
/// PA's restart loop uses (§V-H). On platform instances the virtual
/// platform shrinks in lockstep with the relaxation device.
struct VirtualTarget {
    device: Device,
    platform: Option<Platform>,
    shrinks_left: usize,
}

impl VirtualTarget {
    fn new(inst: &ProblemInstance, config: &SchedulerConfig) -> Self {
        VirtualTarget {
            device: inst.architecture.device.clone(),
            platform: inst.architecture.platform.clone(),
            shrinks_left: config.max_attempts.max(1),
        }
    }

    /// One pipeline run at the current virtual capacity, with the
    /// non-critical hardware tasks ordered by `order_seed`.
    fn run(
        &self,
        ws: &mut SchedWorkspace,
        inst: &ProblemInstance,
        config: &SchedulerConfig,
        order_seed: u64,
        memo: &mut ImplSelectMemo,
    ) -> Schedule {
        do_schedule_in(
            ws,
            inst,
            &self.device,
            self.platform.as_ref(),
            config,
            OrderingPolicy::RandomizedNonCritical(order_seed),
            &ObserverHandle::noop(),
            Some(memo),
        )
    }

    /// Shrinks the virtual capacity by `(num, den)` while shrinks remain.
    fn shrink(&mut self, (num, den): (u64, u64)) {
        if self.shrinks_left > 0 {
            self.device.scale_capacity_in_place(num, den);
            if let Some(p) = self.platform.as_mut() {
                p.scale_capacity_in_place(num, den);
            }
            self.shrinks_left -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;
    use prfpga_sim::validate_schedule;

    fn config_iters(iters: usize) -> SchedulerConfig {
        SchedulerConfig {
            max_iterations: iters,
            time_budget: Duration::from_secs(60),
            ..Default::default()
        }
    }

    fn instance(n: usize, seed: u64) -> ProblemInstance {
        TaskGraphGenerator::new(seed).generate(
            &format!("par{n}"),
            &GraphConfig::standard(n),
            Architecture::zedboard(),
        )
    }

    #[test]
    fn finds_valid_schedules() {
        let inst = instance(20, 11);
        let par = PaRScheduler::new(config_iters(8));
        let r = par.schedule_detailed(&inst).unwrap();
        assert_eq!(r.iterations, 8);
        assert!(!r.trace.is_empty());
        validate_schedule(&inst, &r.schedule).expect("valid");
    }

    #[test]
    fn trace_is_monotonically_improving() {
        let inst = instance(30, 13);
        let par = PaRScheduler::new(config_iters(12));
        let r = par.schedule_detailed(&inst).unwrap();
        for pair in r.trace.windows(2) {
            assert!(pair[1].makespan < pair[0].makespan);
            assert!(pair[1].iteration > pair[0].iteration);
        }
        assert_eq!(
            r.schedule.makespan(),
            r.trace.last().unwrap().makespan,
            "returned schedule is the last improvement"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed_and_iterations() {
        let inst = instance(25, 17);
        let par = PaRScheduler::new(config_iters(6));
        let a = par.schedule(&inst).unwrap();
        let b = par.schedule(&inst).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_iterations_never_hurt() {
        let inst = instance(40, 19);
        let short = PaRScheduler::new(config_iters(2))
            .schedule(&inst)
            .unwrap()
            .makespan();
        let long = PaRScheduler::new(config_iters(16))
            .schedule(&inst)
            .unwrap()
            .makespan();
        assert!(long <= short, "more search cannot worsen the incumbent");
    }

    #[test]
    fn parallel_variant_returns_valid_schedules() {
        let inst = instance(20, 23);
        let par = PaRScheduler::new(config_iters(8));
        let s = par
            .schedule_parallel(&inst, 4, &CancelToken::never())
            .unwrap();
        validate_schedule(&inst, &s).expect("valid");
    }

    #[test]
    fn reuse_counters_and_throughput_are_reported() {
        let inst = TaskGraphGenerator::new(31).generate(
            "counters",
            &GraphConfig::standard(30),
            Architecture::zedboard_pr(),
        );
        let r = PaRScheduler::new(config_iters(10))
            .schedule_detailed(&inst)
            .unwrap();
        assert_eq!(
            r.workspace_reuses, 9,
            "10 iterations over one instance rewind the workspace 9 times"
        );
        // The device carries geometry and at least one improvement was
        // floorplan-checked, so the cache saw traffic.
        assert!(r.fp_cache.hits + r.fp_cache.misses > 0);
        assert!(r.elapsed > Duration::ZERO);
        assert!(r.iterations_per_sec() > 0.0);
    }

    #[test]
    fn zero_budget_still_returns_a_schedule() {
        let inst = instance(15, 29);
        let cfg = SchedulerConfig {
            time_budget: Duration::ZERO,
            max_iterations: 0,
            ..Default::default()
        };
        let s = PaRScheduler::new(cfg).schedule(&inst).unwrap();
        validate_schedule(&inst, &s).expect("valid");
    }
}
