//! Portfolio-level properties:
//!
//! * with an effectively infinite deadline the race is just "run every
//!   member and keep the best": the winner's makespan must equal the best
//!   standalone member run with the same seeds and configuration;
//! * under *any* deadline — including zero — the portfolio returns a
//!   schedule that passes the independent sweep validator, never an error;
//! * the acceptance scenario from the issue: a 120-task instance under a
//!   50 ms deadline still yields a validated schedule and a named winner.

use std::time::Duration;

use prfpga::baseline::{IsKConfig, IsKScheduler};
use prfpga::floorplan::FloorplannerConfig;
use prfpga::portfolio::{Member, Portfolio, PortfolioConfig};
use prfpga::prelude::*;

fn instance(tasks: usize, seed: u64) -> ProblemInstance {
    prfpga::gen::TaskGraphGenerator::new(seed).generate(
        &format!("portfolio_t{tasks}_s{seed}"),
        &prfpga::gen::GraphConfig::standard(tasks),
        Architecture::zedboard_pr(),
    )
}

/// Deterministic scheduler config: iteration-capped PA-R and a pinned
/// floorplanner (a time limit the node budget always beats, small
/// candidate cap) so repeated runs are byte-identical and never depend on
/// the wall-clock backstop.
fn pinned_config() -> SchedulerConfig {
    SchedulerConfig {
        max_iterations: 4,
        time_budget: Duration::from_secs(600),
        floorplan: FloorplannerConfig {
            time_limit: Duration::from_secs(600),
            max_candidates_per_region: 8,
        },
        ..Default::default()
    }
}

#[test]
fn infinite_deadline_winner_equals_best_standalone_member() {
    let cfg = pinned_config();
    for (tasks, seed) in [(15usize, 3u64), (20, 8), (25, 21)] {
        let inst = instance(tasks, seed);
        let r = Portfolio::new(PortfolioConfig {
            deadline: Some(Duration::from_secs(3600)),
            sched: cfg.clone(),
            ..Default::default()
        })
        .run(&inst)
        .unwrap();
        validate_schedule_sweep(&inst, &r.schedule).expect("valid winner");
        assert!(!r.degraded, "nothing degrades under an hour-long deadline");

        let standalone = [
            PaScheduler::new(cfg.clone()).schedule(&inst).unwrap(),
            PaRScheduler::new(cfg.clone()).schedule(&inst).unwrap(),
            Member::IsK(1)
                .run(
                    &inst,
                    &cfg,
                    &CancelToken::never(),
                    &mut SchedWorkspace::new(),
                )
                .unwrap()
                .schedule,
        ];
        let best = standalone.iter().map(Schedule::makespan).min().unwrap();
        assert_eq!(
            r.schedule.makespan(),
            best,
            "{}: winner {} vs standalone best",
            inst.name,
            r.winner
        );
    }
}

#[test]
fn every_deadline_yields_a_validated_schedule() {
    let inst = instance(25, 17);
    for ms in [0u64, 1, 5, 50] {
        let r = Portfolio::new(PortfolioConfig {
            deadline: Some(Duration::from_millis(ms)),
            sched: pinned_config(),
            ..Default::default()
        })
        .run(&inst)
        .unwrap_or_else(|e| panic!("deadline {ms}ms: portfolio errored: {e}"));
        validate_schedule_sweep(&inst, &r.schedule)
            .unwrap_or_else(|e| panic!("deadline {ms}ms: invalid schedule: {e:?}"));
        assert!(r.schedule.makespan() > 0, "deadline {ms}ms");
    }
}

/// The issue's acceptance scenario: 120 tasks, 50 ms — a budget far too
/// small for a full search in a debug build — must still produce a
/// validated (possibly degraded) schedule with a named winner, not an
/// error.
#[test]
fn acceptance_120_tasks_under_50ms_deadline() {
    let inst = instance(120, 9);
    let r = Portfolio::new(PortfolioConfig {
        deadline: Some(Duration::from_millis(50)),
        sched: SchedulerConfig::default(),
        ..Default::default()
    })
    .run(&inst)
    .expect("portfolio answers under any deadline");
    validate_schedule_sweep(&inst, &r.schedule).expect("valid schedule");
    assert!(r.schedule.makespan() > 0);
    // The winner is one of the configured members or the HEFT last resort.
    assert!(
        matches!(
            r.winner,
            Member::Pa | Member::PaR | Member::IsK(_) | Member::Heft
        ),
        "unexpected winner {}",
        r.winner
    );
    assert_eq!(r.reports.len(), 3, "one report per default member");
    // The report renders without panicking and names the winner.
    assert!(r.render_report().contains("winner"));
}

/// Under the default scheduler configuration, the IS-k and HEFT members
/// reproduce their standalone presets exactly, so a caller that runs them
/// through [`Member::run`] (the CLI's `is1`, `is5` and `heft`) gets the
/// same schedules as the presets.
#[test]
fn default_config_members_match_standalone_presets() {
    let cfg = SchedulerConfig::default();
    let inst = instance(20, 8);
    let run = |member: Member| {
        member
            .run(
                &inst,
                &cfg,
                &CancelToken::never(),
                &mut SchedWorkspace::new(),
            )
            .unwrap()
    };
    for (k, preset) in [(1, IsKConfig::is1()), (5, IsKConfig::is5())] {
        let r = run(Member::IsK(k));
        assert!(!r.degraded);
        assert_eq!(
            r.schedule,
            IsKScheduler::new(preset).schedule(&inst).unwrap(),
            "IS-{k}"
        );
    }
    assert_eq!(
        run(Member::Heft).schedule,
        HeftScheduler::new().schedule(&inst).unwrap()
    );
    // PA's run carries its phase trace; the other members' traces are empty.
    assert!(!run(Member::Pa).trace.rows().is_empty());
    assert!(run(Member::IsK(1)).trace.rows().is_empty());
}
