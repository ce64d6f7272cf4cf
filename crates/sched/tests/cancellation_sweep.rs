//! Cancellation-point coverage: fire a [`CancelToken`] test double at the
//! N-th poll for *every* N reached by a full un-cancelled run, and assert
//! that each firing yields either a valid degraded schedule or a result
//! byte-identical to the baseline — never a panic or an invalid schedule.
//!
//! Each cancelled run goes through the *same* [`SchedWorkspace`], and after
//! every firing an un-cancelled run through that workspace must reproduce
//! the baseline byte-for-byte: cancellation may not leave partially-applied
//! state behind (rewind safety).
//!
//! The floorplanner config is pinned for determinism: an effectively
//! unlimited `time_limit` (so the wall-clock backstop never fires, the
//! search is bounded by the solver's node budget alone, and poll counts
//! are reproducible across debug/release builds) and a small candidate
//! cap (so the exact search stays a few thousand nodes — enough to reach
//! the mid-DFS cancellation checkpoints, small enough that the quadratic
//! sweep finishes in seconds).

use std::time::Duration;

use prfpga_floorplan::FloorplannerConfig;
use prfpga_gen::{GraphConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, ProblemInstance};
use prfpga_sched::{CancelToken, PaRScheduler, PaScheduler, SchedWorkspace, SchedulerConfig};
use prfpga_sim::validate_schedule_sweep;

fn instance() -> ProblemInstance {
    TaskGraphGenerator::new(0xBEEF).generate(
        "cancel_sweep",
        &GraphConfig::standard(12),
        Architecture::zedboard_pr(),
    )
}

fn sweep_config() -> SchedulerConfig {
    SchedulerConfig {
        floorplan: FloorplannerConfig {
            time_limit: Duration::from_secs(600),
            max_candidates_per_region: 8,
        },
        ..Default::default()
    }
}

/// PA: every poll index yields Ok (degraded or baseline-identical), the
/// schedule always validates, and the workspace stays reusable.
#[test]
fn pa_survives_cancellation_at_every_poll() {
    let inst = instance();
    let sched = PaScheduler::new(sweep_config());
    let mut ws = SchedWorkspace::new();

    let never = CancelToken::never();
    let baseline = sched
        .schedule_with_cancel_in(&inst, &never, &mut ws)
        .expect("baseline run is feasible");
    let total = never.polls();
    assert_eq!(total, 39, "PA's checkpoint count moved");
    assert!(!baseline.degraded);

    for n in 1..=total {
        let tok = CancelToken::fire_on_poll(n);
        let r = sched
            .schedule_with_cancel_in(&inst, &tok, &mut ws)
            .unwrap_or_else(|e| panic!("poll {n}/{total}: PA errored: {e}"));
        validate_schedule_sweep(&inst, &r.schedule)
            .unwrap_or_else(|e| panic!("poll {n}/{total}: invalid schedule: {e:?}"));
        if !r.degraded {
            // The token fired after the search finished (or not at all):
            // the result must be exactly the baseline.
            assert_eq!(r.schedule, baseline.schedule, "poll {n}/{total}");
            assert_eq!(r.attempts, baseline.attempts, "poll {n}/{total}");
        }

        // Rewind safety: the same workspace immediately reproduces the
        // baseline when nothing fires.
        let clean = sched
            .schedule_with_cancel_in(&inst, &CancelToken::never(), &mut ws)
            .expect("post-cancellation run is feasible");
        assert_eq!(
            clean.schedule, baseline.schedule,
            "workspace corrupted after firing at poll {n}/{total}"
        );
        assert_eq!(clean.attempts, baseline.attempts, "poll {n}/{total}");
    }
}

/// PA-R (serial): same sweep over the randomized search, including its
/// incumbent bookkeeping and the PA fallback when nothing feasible exists
/// at cancellation time.
#[test]
fn par_survives_cancellation_at_every_poll() {
    let inst = instance();
    let sched = PaRScheduler::new(SchedulerConfig {
        max_iterations: 3,
        time_budget: Duration::from_secs(600),
        ..sweep_config()
    });
    let mut ws = SchedWorkspace::new();

    let never = CancelToken::never();
    let baseline = sched
        .schedule_with_cancel_in(&inst, 1, &never, &mut ws)
        .expect("baseline run is feasible");
    let total = never.polls();
    assert_eq!(total, 48, "PA-R's checkpoint count moved");
    assert!(!baseline.degraded);

    for n in 1..=total {
        let tok = CancelToken::fire_on_poll(n);
        let r = sched
            .schedule_with_cancel_in(&inst, 1, &tok, &mut ws)
            .unwrap_or_else(|e| panic!("poll {n}/{total}: PA-R errored: {e}"));
        validate_schedule_sweep(&inst, &r.schedule)
            .unwrap_or_else(|e| panic!("poll {n}/{total}: invalid schedule: {e:?}"));
        if !r.degraded {
            assert_eq!(r.schedule, baseline.schedule, "poll {n}/{total}");
            assert_eq!(r.iterations, baseline.iterations, "poll {n}/{total}");
        }

        let clean = sched
            .schedule_with_cancel_in(&inst, 1, &CancelToken::never(), &mut ws)
            .expect("post-cancellation run is feasible");
        assert_eq!(
            clean.schedule, baseline.schedule,
            "workspace corrupted after firing at poll {n}/{total}"
        );
        assert_eq!(clean.iterations, baseline.iterations, "poll {n}/{total}");
    }
}

/// Multi-threaded PA-R runs the serial search's loop on every worker, so it
/// inherits its cancellation rules: a token fired at any of the first
/// polls (counted across all workers) still yields a sweep-valid schedule.
#[test]
fn parallel_par_survives_cancellation_at_early_polls() {
    let inst = instance();
    let sched = PaRScheduler::new(SchedulerConfig {
        max_iterations: 8,
        time_budget: Duration::from_secs(600),
        ..sweep_config()
    });
    for threads in [2, 4] {
        let never = CancelToken::never();
        sched
            .schedule_with_cancel_in(&inst, threads, &never, &mut SchedWorkspace::new())
            .expect("baseline run is feasible");
        assert!(never.polls() > 0);
        for n in 1..=never.polls().min(40) {
            let r = sched
                .schedule_with_cancel_in(
                    &inst,
                    threads,
                    &CancelToken::fire_on_poll(n),
                    &mut SchedWorkspace::new(),
                )
                .unwrap_or_else(|e| panic!("{threads} threads, poll {n}: errored: {e}"));
            validate_schedule_sweep(&inst, &r.schedule)
                .unwrap_or_else(|e| panic!("{threads} threads, poll {n}: invalid schedule: {e:?}"));
        }
    }
}

/// Poll counts of the test-double and never tokens are deterministic:
/// repeating an identical run observes the identical number of
/// cancellation checkpoints, which is what makes the exhaustive sweeps
/// above meaningful. (Only wall-clock deadlines are nondeterministic, and
/// the pinned config never arms one.)
#[test]
fn poll_counts_are_deterministic_and_cover_the_floorplan_search() {
    let inst = instance();
    let sched = PaScheduler::new(sweep_config());
    let mut counts = Vec::new();
    for _ in 0..3 {
        let tok = CancelToken::never();
        let mut ws = SchedWorkspace::new();
        sched
            .schedule_with_cancel_in(&inst, &tok, &mut ws)
            .expect("feasible");
        counts.push(tok.polls());
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
    // The sweep must reach checkpoints *inside* the floorplanner's exact
    // search, not only the pipeline-level ones. PA itself polls a handful
    // of times per attempt; anything well beyond that is DFS polling.
    assert!(
        counts[0] > 20,
        "expected mid-floorplan-search polls, got only {}",
        counts[0]
    );
    assert_eq!(
        CancelToken::never().deadline_hits(),
        0,
        "a never token records no hits"
    );
}
