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
use prfpga_model::{CancelToken, ProblemInstance, Schedule, Time};

use crate::config::{OrderingPolicy, SchedulerConfig};
use crate::driver::{do_schedule_in, ImplSelectMemo, PaScheduler, VirtualTarget};
use crate::error::SchedError;
use crate::state::SchedWorkspace;
use crate::trace::PhaseTrace;

/// A point on PA-R's anytime-convergence curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergencePoint {
    /// Iteration (1-based) at which the improvement landed, counted by the
    /// worker that found it (the only worker of a serial run).
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
    /// Iterations executed, summed over workers.
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
        self.schedule_with_cancel_in(inst, 1, &CancelToken::never(), &mut SchedWorkspace::new())
    }

    /// Algorithm 1 by `threads` workers (at least one), honouring a
    /// cooperative [`CancelToken`]; worker 0 runs on the calling thread in
    /// the caller-owned [`SchedWorkspace`], and every exit leaves `ws`
    /// rewound and reusable.
    ///
    /// The workers explore disjoint seed streams and share the incumbent
    /// and the feasibility cache; worker 0 uses the configured seed, so one
    /// thread is the serial search. The result is deterministic for a
    /// fixed `(seed, max_iterations, threads)` triple when the iteration
    /// cap is used (each worker owns an equal slice of the iteration
    /// budget); under a pure wall-clock budget the outcome depends on
    /// timing, as in any anytime search.
    ///
    /// PA-R is *anytime*: every worker polls `cancel` once per iteration
    /// and around every floorplan check (poll counts aggregate across
    /// workers); when the token fires it returns the best feasible
    /// incumbent found so far flagged [`PaRResult::degraded`], or — if no
    /// feasible candidate exists yet — the deterministic PA's degraded
    /// fallback. With a never-firing token and one thread the result is
    /// byte-identical to [`schedule_detailed`](Self::schedule_detailed).
    pub fn schedule_with_cancel_in(
        &self,
        inst: &ProblemInstance,
        threads: usize,
        cancel: &CancelToken,
        ws: &mut SchedWorkspace,
    ) -> Result<PaRResult, SchedError> {
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;

        let config = &self.config;
        let polls0 = cancel.polls();
        let hits0 = cancel.deadline_hits();
        let start = Instant::now();
        let deadline = start + config.time_budget;
        let threads = threads.max(1);
        let quota = config.max_iterations.div_ceil(threads);
        // One feasibility cache for every worker and iteration (solves
        // happen outside its lock); verdicts are exact, so memoizing them
        // cannot change any worker's search trajectory.
        let cache = FeasibilityCache::new(
            Floorplanner::new(config.floorplan.clone()),
            DEFAULT_CACHE_CAPACITY,
        );
        let incumbent = Mutex::new(Incumbent {
            makespan: Time::MAX,
            schedule: None,
            trace: Vec::new(),
        });

        let worker = |w: usize, ws: &mut SchedWorkspace| -> WorkerEnd {
            let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(w as u64 * 0x9E37));
            let mut target = VirtualTarget::new(&inst.architecture, config.max_attempts.max(1));
            let mut memo = ImplSelectMemo::default();
            let mut iterations = 0usize;
            let mut cancelled = false;
            loop {
                if quota > 0 && iterations >= quota {
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
                let schedule = do_schedule_in(
                    ws,
                    inst,
                    &target,
                    config,
                    OrderingPolicy::RandomizedNonCritical(rng.random()),
                    &mut PhaseTrace::default(),
                    Some(&mut memo),
                );
                let makespan = schedule.makespan();
                if makespan >= incumbent.lock().makespan {
                    continue;
                }
                // Pay for the floorplanner only on improvement (Algorithm 1).
                let outcome = cache.check(&inst.architecture, &schedule.regions, cancel);
                if let FloorplanOutcome::Feasible(_) = outcome {
                    let mut best = incumbent.lock();
                    if makespan < best.makespan {
                        best.makespan = makespan;
                        best.schedule = Some(schedule);
                        best.trace.push(ConvergencePoint {
                            iteration: iterations,
                            elapsed: start.elapsed(),
                            makespan,
                        });
                    }
                } else if cancel.is_cancelled() {
                    // A non-feasible verdict caused by the token firing
                    // mid-solve is a Timeout, not a capacity statement:
                    // stop before it can consume a ratchet shrink.
                    cancelled = true;
                    break;
                } else {
                    target.shrink(config.shrink_factor);
                }
            }
            WorkerEnd {
                iterations,
                cancelled,
                workspace_reuses: ws.reuses(),
            }
        };

        let ends = crossbeam::thread::scope(|scope| {
            let worker = &worker;
            let helpers: Vec<_> = (1..threads)
                .map(|w| scope.spawn(move |_| worker(w, &mut SchedWorkspace::new())))
                .collect();
            let mut ends = vec![worker(0, ws)];
            ends.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("PA-R worker panicked")),
            );
            ends
        })
        .expect("PA-R worker panicked");

        let iterations = ends.iter().map(|e| e.iterations).sum();
        let workspace_reuses = ends.iter().map(|e| e.workspace_reuses).sum();
        let cancelled = ends.iter().any(|e| e.cancelled);
        let fp_cache = cache.stats();
        let Incumbent {
            schedule: best,
            trace,
            ..
        } = incumbent.into_inner();
        let (schedule, degraded) = match best {
            Some(schedule) => (schedule, cancelled),
            // Every random candidate was floorplan-infeasible (or the token
            // fired before one could be checked): fall back to the
            // deterministic PA, whose shrinking loop always terminates with
            // a feasible (possibly all-software, possibly degraded)
            // schedule. The token is passed through, so a fired deadline
            // short-circuits the fallback to PA's bounded degraded path.
            None => {
                let pa =
                    PaScheduler::new(config.clone()).schedule_with_cancel_in(inst, cancel, ws)?;
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
}

/// The best floorplan-feasible schedule found so far, shared by the
/// workers, with the improvements that led to it.
struct Incumbent {
    makespan: Time,
    schedule: Option<Schedule>,
    trace: Vec<ConvergencePoint>,
}

/// What one worker reports when its loop ends.
struct WorkerEnd {
    iterations: usize,
    /// The worker stopped because the token fired.
    cancelled: bool,
    workspace_reuses: u64,
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
        let r = par
            .schedule_with_cancel_in(&inst, 4, &CancelToken::never(), &mut SchedWorkspace::new())
            .unwrap();
        validate_schedule(&inst, &r.schedule).expect("valid");
        assert_eq!(r.iterations, 8, "each of 4 workers runs 2 iterations");
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
