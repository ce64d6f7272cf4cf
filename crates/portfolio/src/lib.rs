//! # prfpga-portfolio
//!
//! A deadline-aware portfolio driver: race several schedulers (PA, PA-R,
//! IS-k) on the same instance under one latency budget and keep the best
//! answer available when the budget expires.
//!
//! Related work (Chen et al., Ding et al.) runs multiple partitioning/
//! scheduling/floorplanning strategies and keeps the best result; this
//! crate reproduces that pattern on top of the workspace's cooperative
//! cancellation layer:
//!
//! * every member runs on its own thread (the bench crate's
//!   [`parallel_map`] fan-out) with a *child* [`CancelToken`] of one shared
//!   race token, so a single deadline — or a winner lock — cuts every
//!   member off at its next checkpoint;
//! * PA and PA-R are anytime: cut short, they contribute their best
//!   feasible schedule flagged degraded. IS-k reports a clean
//!   [`SchedError::DeadlineExceeded`] instead;
//! * if no member produced anything (pathologically tight deadlines), the
//!   HEFT list scheduler — a fast, search-free single pass — is the last
//!   resort, so the portfolio returns a valid schedule for every deadline.
//!
//! Two racing modes:
//!
//! * **best-makespan-by-deadline** (default): wait for every member (each
//!   bounded by the deadline) and return the best feasible schedule,
//!   preferring non-degraded results on makespan ties. Deterministic for a
//!   fixed member list and seeds when no deadline fires.
//! * **first-feasible-wins**: the first member to complete with a
//!   non-degraded feasible schedule cancels the rest. Lower latency,
//!   timing-dependent winner.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prfpga_baseline::{HeftScheduler, IsKConfig, IsKScheduler};
use prfpga_model::{CancelToken, ProblemInstance, Schedule, Time};
use prfpga_sched::{parallel_map, ExecPolicy};
use prfpga_sched::{
    PaRScheduler, PaScheduler, PhaseTrace, SchedError, SchedWorkspace, SchedulerConfig,
};

/// One scheduler in the race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Member {
    /// The deterministic PA pipeline with capacity-shrinking restarts.
    Pa,
    /// The randomized PA-R search (serial; seeds come from the shared
    /// [`SchedulerConfig`]).
    PaR,
    /// The IS-k window branch-and-bound with the given window size.
    IsK(usize),
    /// The HEFT-style list scheduler (also the implicit last resort).
    Heft,
}

/// What one [`Member::run`] produced.
#[derive(Debug, Clone)]
pub struct MemberRun {
    /// The member's schedule.
    pub schedule: Schedule,
    /// The member was cut short and returned its anytime result (PA and
    /// PA-R only).
    pub degraded: bool,
    /// PA's per-phase trace; empty for every other member.
    pub trace: PhaseTrace,
}

impl Member {
    /// Runs this scheduler on `inst` under `cancel`, in `ws` — the one
    /// place that maps a member to its scheduler and configuration. PA-R
    /// runs serially. IS-k takes `k` (at least 1) and the floorplanner,
    /// shrink factor and attempt cap of `cfg` over [`IsKConfig::is5`];
    /// IS-k and HEFT leave `ws` untouched.
    pub fn run(
        self,
        inst: &ProblemInstance,
        cfg: &SchedulerConfig,
        cancel: &CancelToken,
        ws: &mut SchedWorkspace,
    ) -> Result<MemberRun, SchedError> {
        let (schedule, degraded, trace) = match self {
            Member::Pa => {
                let r = PaScheduler::new(cfg.clone()).schedule_with_cancel_in(inst, cancel, ws)?;
                (r.schedule, r.degraded, r.trace)
            }
            Member::PaR => {
                let r =
                    PaRScheduler::new(cfg.clone()).schedule_with_cancel_in(inst, 1, cancel, ws)?;
                (r.schedule, r.degraded, PhaseTrace::default())
            }
            Member::IsK(k) => {
                let isk = IsKScheduler::new(IsKConfig {
                    k: k.max(1),
                    floorplan: cfg.floorplan.clone(),
                    shrink_factor: cfg.shrink_factor,
                    max_attempts: cfg.max_attempts,
                    ..IsKConfig::is5()
                });
                let r = isk.schedule_with_cancel(inst, cancel)?;
                (r.schedule, false, PhaseTrace::default())
            }
            Member::Heft => (
                HeftScheduler::new().schedule(inst)?,
                false,
                PhaseTrace::default(),
            ),
        };
        Ok(MemberRun {
            schedule,
            degraded,
            trace,
        })
    }
}

impl fmt::Display for Member {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Member::Pa => write!(f, "PA"),
            Member::PaR => write!(f, "PA-R"),
            Member::IsK(k) => write!(f, "IS-{k}"),
            Member::Heft => write!(f, "HEFT"),
        }
    }
}

/// Default member set: the paper's three main algorithms, cheapest
/// baseline variant for IS-k.
pub fn default_members() -> Vec<Member> {
    vec![Member::Pa, Member::PaR, Member::IsK(1)]
}

/// Configuration of a [`Portfolio`] run.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// The racing members; empty means [`default_members`].
    pub members: Vec<Member>,
    /// Wall-clock budget for the whole race (`None` = unbounded). Minted
    /// into the shared race token when [`Portfolio::run`] starts.
    pub deadline: Option<Duration>,
    /// Scheduler configuration shared by every member (seeds, iteration
    /// caps, floorplanner settings, …).
    pub sched: SchedulerConfig,
    /// First-feasible-wins mode: the first member finishing with a
    /// non-degraded feasible schedule cancels the rest. Off by default
    /// (best-makespan-by-deadline).
    pub first_feasible_wins: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            members: default_members(),
            deadline: None,
            sched: SchedulerConfig::default(),
            first_feasible_wins: false,
        }
    }
}

/// Per-member diagnostics of one race.
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// Which scheduler ran.
    pub member: Member,
    /// Makespan of the member's schedule (`None` when it produced none).
    pub makespan: Option<Time>,
    /// The member was cut short and returned its anytime result.
    pub degraded: bool,
    /// The member aborted with [`SchedError::DeadlineExceeded`].
    pub deadline_exceeded: bool,
    /// Cancellation checkpoints the member polled on its child token.
    pub cancel_polls: u64,
    /// Checkpoints that observed the fired deadline.
    pub deadline_hits: u64,
    /// Member wall-clock.
    pub elapsed: Duration,
}

/// Result of a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// The winning schedule.
    pub schedule: Schedule,
    /// The member that produced it.
    pub winner: Member,
    /// The winning schedule is an anytime (cut-short) result, or the
    /// HEFT last resort had to step in.
    pub degraded: bool,
    /// At least one member observed the fired deadline.
    pub deadline_hit: bool,
    /// Cancellation polls summed over all member tokens.
    pub cancel_polls: u64,
    /// Deadline hits summed over all member tokens.
    pub deadline_hits: u64,
    /// Wall-clock of the whole race.
    pub elapsed: Duration,
    /// Per-member diagnostics, in member order.
    pub reports: Vec<MemberReport>,
}

impl PortfolioResult {
    /// Renders the race as an aligned plain-text report (used by the CLI's
    /// `--trace`).
    pub fn render_report(&self) -> String {
        let mut out = format!(
            "portfolio: winner {} | makespan {} | degraded {} | deadline {}\n",
            self.winner,
            self.schedule.makespan(),
            if self.degraded { "yes" } else { "no" },
            if self.deadline_hit { "hit" } else { "not hit" },
        );
        out.push_str(&format!(
            "cancellation {} polls / {} deadline hits across members\n",
            self.cancel_polls, self.deadline_hits,
        ));
        out.push_str("member   makespan   degraded   deadline   polls    hits   time [ms]\n");
        for r in &self.reports {
            out.push_str(&format!(
                "{:<8} {:>8} {:>10} {:>10} {:>7} {:>7} {:>11.3}\n",
                r.member.to_string(),
                r.makespan.map_or_else(|| "-".into(), |m| m.to_string()),
                if r.degraded { "yes" } else { "no" },
                if r.deadline_exceeded { "yes" } else { "no" },
                r.cancel_polls,
                r.deadline_hits,
                r.elapsed.as_secs_f64() * 1e3,
            ));
        }
        out
    }
}

/// Pre-warmed per-member scheduler workspaces, so a pooled caller (one
/// race after another on a server worker thread) runs the whole race
/// allocation-free in the steady state. Slot `i` always serves member
/// slot `i`, so PA and PA-R re-hit their own cached base graphs.
#[derive(Debug, Default)]
pub struct PortfolioWorkspaces {
    slots: Vec<SchedWorkspace>,
}

impl PortfolioWorkspaces {
    /// Empty pool; slots are created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(SchedWorkspace::new());
        }
    }

    /// Base-graph reuses summed over member workspaces.
    pub fn reuses(&self) -> u64 {
        self.slots.iter().map(SchedWorkspace::reuses).sum()
    }

    /// Base-graph rebuilds summed over member workspaces.
    pub fn rebuilds(&self) -> u64 {
        self.slots.iter().map(SchedWorkspace::rebuilds).sum()
    }
}

/// The portfolio driver.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    config: PortfolioConfig,
}

impl Portfolio {
    /// Creates a portfolio driver.
    pub fn new(config: PortfolioConfig) -> Self {
        Portfolio { config }
    }

    /// Races the configured members on `inst`.
    ///
    /// Always returns a schedule when the instance is valid and acyclic:
    /// anytime members degrade instead of failing, and the HEFT last
    /// resort covers the case where every member was cut off before
    /// producing anything. The returned schedule is sweep-validated in
    /// debug builds.
    pub fn run(&self, inst: &ProblemInstance) -> Result<PortfolioResult, SchedError> {
        self.run_with_cancel_in(inst, &CancelToken::never(), &mut PortfolioWorkspaces::new())
    }

    /// [`Portfolio::run`] with the race token layered under a caller-owned
    /// `parent` and member workspaces drawn from a caller-owned `pool` —
    /// the server entry point: the parent is the per-request token (itself
    /// a child of a per-connection token, so a client disconnect reaches
    /// every member at its next checkpoint), and a worker thread reuses
    /// one pool across requests so the steady state allocates nothing.
    ///
    /// Behaviour is identical to [`Portfolio::run`]: the configured
    /// deadline is minted as a budget *under* `parent` (whichever fires
    /// first wins), and a winner lock in first-feasible mode cancels only
    /// this race, never the parent.
    pub fn run_with_cancel_in(
        &self,
        inst: &ProblemInstance,
        parent: &CancelToken,
        pool: &mut PortfolioWorkspaces,
    ) -> Result<PortfolioResult, SchedError> {
        inst.validate()
            .map_err(|e| SchedError::InvalidInstance(e.to_string()))?;
        let start = Instant::now();
        let members = if self.config.members.is_empty() {
            default_members()
        } else {
            self.config.members.clone()
        };
        let race = match self.config.deadline {
            Some(d) => parent.with_budget(d),
            None => parent.child(),
        };

        // One thread per member; each polls a child of the race token, so
        // the shared deadline — or a winner lock — reaches all of them
        // while per-member poll counters stay separate. Each member slot
        // owns its pooled workspace for the duration of the race (the
        // mutex is uncontended — one lock per item).
        pool.ensure(members.len());
        let items: Vec<(Member, Mutex<&mut SchedWorkspace>)> = members
            .iter()
            .copied()
            .zip(pool.slots.iter_mut().map(Mutex::new))
            .collect();
        let runs: Vec<(MemberReport, Option<Schedule>, Option<SchedError>)> = parallel_map(
            &items,
            ExecPolicy::Threads(items.len()),
            |_, (member, slot)| {
                let token = race.child();
                let t0 = Instant::now();
                let ws = &mut **slot.lock().expect("workspace slot lock");
                let outcome = member.run(inst, &self.config.sched, &token, ws);
                let elapsed = t0.elapsed();
                let (schedule, degraded, deadline_exceeded, error) = match outcome {
                    Ok(run) => {
                        if self.config.first_feasible_wins && !run.degraded {
                            // Winner locked: everyone else is cancelled at
                            // their next checkpoint.
                            race.cancel();
                        }
                        (Some(run.schedule), run.degraded, false, None)
                    }
                    Err(SchedError::DeadlineExceeded) => (None, false, true, None),
                    Err(e) => (None, false, false, Some(e)),
                };
                let report = MemberReport {
                    member: *member,
                    makespan: schedule.as_ref().map(Schedule::makespan),
                    degraded,
                    deadline_exceeded,
                    cancel_polls: token.polls(),
                    deadline_hits: token.deadline_hits(),
                    elapsed,
                };
                (report, schedule, error)
            },
        );

        let mut reports = Vec::with_capacity(runs.len());
        let mut schedules: Vec<Option<Schedule>> = Vec::with_capacity(runs.len());
        let mut first_error = None;
        for (report, schedule, error) in runs {
            reports.push(report);
            schedules.push(schedule);
            if first_error.is_none() {
                first_error = error;
            }
        }

        // Best-makespan winner; on ties prefer non-degraded results, then
        // member order — deterministic for a fixed member list.
        let winner_idx = schedules
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.makespan())))
            .min_by_key(|&(i, makespan)| (makespan, reports[i].degraded, i))
            .map(|(i, _)| i);

        let (schedule, winner, degraded) = match winner_idx {
            Some(i) => (
                schedules[i].take().expect("winner filter kept Some"),
                members[i],
                reports[i].degraded,
            ),
            // Nothing survived the deadline: the search-free HEFT pass is
            // the guaranteed-terminating last resort. A non-deadline member
            // error (e.g. a cyclic graph) would make HEFT fail identically,
            // so surface the original error in that case.
            None => match HeftScheduler::new().schedule(inst) {
                Ok(s) => (s, Member::Heft, true),
                Err(e) => return Err(first_error.unwrap_or(e)),
            },
        };

        debug_assert!(
            prfpga_sim::validate_schedule_sweep(inst, &schedule).is_ok(),
            "portfolio winner must be a valid schedule"
        );
        let deadline_hit = reports
            .iter()
            .any(|r| r.deadline_hits > 0 || r.deadline_exceeded || r.degraded);
        Ok(PortfolioResult {
            schedule,
            winner,
            degraded,
            deadline_hit,
            cancel_polls: reports.iter().map(|r| r.cancel_polls).sum(),
            deadline_hits: reports.iter().map(|r| r.deadline_hits).sum(),
            elapsed: start.elapsed(),
            reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;
    use prfpga_sim::validate_schedule_sweep;

    fn instance(n: usize, seed: u64) -> ProblemInstance {
        TaskGraphGenerator::new(seed).generate(
            &format!("pf{n}"),
            &GraphConfig::standard(n),
            Architecture::zedboard_pr(),
        )
    }

    fn iter_capped_config() -> SchedulerConfig {
        // Iteration-capped PA-R so runs are deterministic and fast.
        SchedulerConfig {
            max_iterations: 4,
            time_budget: Duration::from_secs(120),
            ..Default::default()
        }
    }

    #[test]
    fn no_deadline_race_returns_best_member() {
        let inst = instance(20, 5);
        let cfg = PortfolioConfig {
            sched: iter_capped_config(),
            ..Default::default()
        };
        let r = Portfolio::new(cfg).run(&inst).unwrap();
        validate_schedule_sweep(&inst, &r.schedule).expect("valid");
        assert!(!r.degraded);
        assert!(!r.deadline_hit);
        assert_eq!(r.deadline_hits, 0);
        assert!(r.cancel_polls > 0, "members polled their tokens");
        // The winner's makespan is the minimum over the member reports.
        let best = r
            .reports
            .iter()
            .filter_map(|m| m.makespan)
            .min()
            .expect("all members complete without a deadline");
        assert_eq!(r.schedule.makespan(), best);
    }

    #[test]
    fn zero_deadline_still_returns_valid_schedule() {
        let inst = instance(25, 7);
        let cfg = PortfolioConfig {
            deadline: Some(Duration::ZERO),
            sched: iter_capped_config(),
            ..Default::default()
        };
        let r = Portfolio::new(cfg).run(&inst).unwrap();
        validate_schedule_sweep(&inst, &r.schedule).expect("valid");
        assert!(r.deadline_hit, "a zero deadline fires on the first poll");
        assert!(r.deadline_hits > 0);
    }

    #[test]
    fn first_feasible_wins_returns_valid_schedule() {
        let inst = instance(15, 9);
        let cfg = PortfolioConfig {
            first_feasible_wins: true,
            sched: iter_capped_config(),
            ..Default::default()
        };
        let r = Portfolio::new(cfg).run(&inst).unwrap();
        validate_schedule_sweep(&inst, &r.schedule).expect("valid");
        assert!(!r.degraded, "some member finished cleanly");
    }

    #[test]
    fn single_member_portfolio_matches_standalone_pa() {
        let inst = instance(20, 11);
        let cfg = PortfolioConfig {
            members: vec![Member::Pa],
            sched: iter_capped_config(),
            ..Default::default()
        };
        let r = Portfolio::new(cfg).run(&inst).unwrap();
        let standalone = PaScheduler::new(iter_capped_config())
            .schedule(&inst)
            .unwrap();
        assert_eq!(r.schedule, standalone);
        assert_eq!(r.winner, Member::Pa);
    }

    #[test]
    fn pooled_races_match_fresh_workspaces() {
        let inst = instance(20, 5);
        let pf = Portfolio::new(PortfolioConfig {
            sched: iter_capped_config(),
            ..Default::default()
        });
        let base = pf.run(&inst).unwrap();

        // One pool, repeated races: byte-identical winners, and the PA /
        // PA-R slots start rewinding instead of rebuilding.
        let mut pool = PortfolioWorkspaces::new();
        for round in 0..3 {
            let r = pf
                .run_with_cancel_in(&inst, &CancelToken::never(), &mut pool)
                .unwrap();
            assert_eq!(r.schedule, base.schedule, "round {round}");
            assert_eq!(r.winner, base.winner, "round {round}");
        }
        assert!(pool.rebuilds() > 0);
        assert!(pool.reuses() > 0, "pooled races must rewind, not rebuild");
    }

    #[test]
    fn cancelled_parent_token_reaches_the_race() {
        let inst = instance(20, 5);
        let pf = Portfolio::new(PortfolioConfig {
            sched: iter_capped_config(),
            ..Default::default()
        });
        let parent = CancelToken::never();
        parent.cancel();
        let mut pool = PortfolioWorkspaces::new();
        let r = pf.run_with_cancel_in(&inst, &parent, &mut pool).unwrap();
        validate_schedule_sweep(&inst, &r.schedule).expect("valid");
        assert!(
            r.degraded,
            "with the parent already fired every member is cut short"
        );
        // The pool survives the cancellation and serves a clean race next.
        let clean = pf
            .run_with_cancel_in(&inst, &CancelToken::never(), &mut pool)
            .unwrap();
        assert_eq!(clean.schedule, pf.run(&inst).unwrap().schedule);
    }

    #[test]
    fn member_labels_render() {
        assert_eq!(Member::Pa.to_string(), "PA");
        assert_eq!(Member::PaR.to_string(), "PA-R");
        assert_eq!(Member::IsK(5).to_string(), "IS-5");
        assert_eq!(Member::Heft.to_string(), "HEFT");
        let inst = instance(10, 13);
        let r = Portfolio::new(PortfolioConfig {
            sched: iter_capped_config(),
            ..Default::default()
        })
        .run(&inst)
        .unwrap();
        let report = r.render_report();
        assert!(report.contains("winner"));
        assert!(report.contains("deadline hits across members"));
    }
}
