//! Repair-cost-vs-perturbation study (`BENCH_repair.json`).
//!
//! The point of the repair engine is that reacting to one runtime event
//! must cost a small fraction of re-running the whole PA pipeline. This
//! study pins that claim: per size (1k / 10k tasks) it commits a baseline
//! PA schedule, synthesizes standard-mix event traces of increasing length
//! (k = 1, 8, 64), replays each through [`RepairEngine`] — pinned to the
//! delta path, cascade disabled — and reports the mean per-event repair
//! cost against the full-pipeline re-solve cost on the same machine — the
//! `speedup` and `repair_us_per_event` columns are the figures the CI
//! gates defend (a move of more than the tolerance the wrong way vs the
//! committed baseline fails the run).
//!
//! Every repaired schedule is revalidated with the sweep-line validator
//! before its numbers are counted.

use std::time::Instant;

use prfpga_gen::{EventConfig, EventTraceGenerator, GraphConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, ProblemInstance, Schedule};
use prfpga_sched::{PaScheduler, RepairConfig, RepairEngine, SchedulerConfig};
use prfpga_sim::validate_schedule_sweep;

use crate::scale::median;
use crate::trajectory::{Better, Gate, Row};

/// Seed of the repair corpus (instances and traces are pure functions of
/// it, so every run replays identical work).
pub const REPAIR_SEED: u64 = 0x000E_7A11;

/// The repair study's CI gates: the per-event speedup over a re-solve,
/// and the per-event repair cost itself. The speedup falls whenever PA
/// gets faster, so only the second gate pins the engine's own cost.
pub const REPAIR_GATES: &[Gate] = &[
    Gate {
        metric: "speedup",
        better: Better::Higher,
    },
    Gate {
        metric: "repair_us_per_event",
        better: Better::Lower,
    },
];

/// Generates the deterministic instance for one size.
pub fn repair_instance(tasks: usize) -> ProblemInstance {
    TaskGraphGenerator::new(REPAIR_SEED).generate(
        &format!("repair_{tasks}"),
        &GraphConfig::standard(tasks),
        Architecture::zedboard_pr(),
    )
}

/// Commits the baseline PA schedule for `inst`, returning it with the
/// pipeline's wall-clock in microseconds (the re-solve cost).
pub fn baseline_with_resolve_us(inst: &ProblemInstance) -> (Schedule, f64) {
    let scheduler = PaScheduler::new(SchedulerConfig::default());
    // Median of three runs: the re-solve cost is the denominator of the
    // headline speedup, so a one-off scheduling hiccup must not skew it.
    let mut us = [0.0f64; 3];
    let mut schedule = None;
    for slot in &mut us {
        let t0 = Instant::now();
        let s = scheduler.schedule(inst).expect("generated instance solves");
        *slot = t0.elapsed().as_secs_f64() * 1e6;
        schedule = Some(s);
    }
    (schedule.expect("three runs happened"), median(&mut us))
}

/// Replays of each trace; the row reports the median replay.
const REPLAYS: usize = 5;

/// Measures one `(size, events)` point, row `"<tasks> tasks / <events>
/// events"`: replays a standard-mix trace of `events` events against a
/// fresh engine five times and times the repairs. The metrics are
/// `resolve_us` (the full PA pipeline an online system would otherwise
/// pay per event), `repair_us_per_event` (mean repair wall-clock of the
/// median replay; a 1-event trace times one event of a few
/// milliseconds, which one replay cannot resolve to the CI gate's 20%),
/// `speedup` (their ratio, the study's headline figure), `full_resolves`
/// (events escalated to a re-solve), `frontier_tasks` (tasks re-timed
/// over the trace) and the makespan before and after the trace, in ticks.
pub fn measure_repair_row(
    inst: &ProblemInstance,
    baseline: &Schedule,
    resolve_us: f64,
    events: usize,
) -> Row {
    let trace = EventTraceGenerator::new(REPAIR_SEED ^ events as u64).generate(
        inst,
        baseline,
        &EventConfig::standard(events),
    );
    // The engine is pinned to the delta path (cascade disabled): this study
    // measures the cost of frontier retiming itself, and the cascade
    // fallback's cost *is* the `resolve_us` column — early events on a deep
    // DAG invalidate most of the graph, so the default 50% threshold would
    // turn nearly every measurement into a full re-solve and the speedup
    // into a tautological 1x.
    let config = RepairConfig {
        cascade_threshold_pct: 100,
        ..RepairConfig::default()
    };
    let mut us = [0.0f64; REPLAYS];
    let mut engine = None;
    for slot in &mut us {
        let mut e = RepairEngine::new(inst.clone(), baseline.clone(), config.clone())
            .expect("PA baselines satisfy the engine's preconditions");
        let t0 = Instant::now();
        for ev in &trace.events {
            e.apply(ev).expect("generated traces replay cleanly");
        }
        *slot = t0.elapsed().as_secs_f64() * 1e6;
        engine = Some(e);
    }
    let engine = engine.expect("at least one replay happened");
    validate_schedule_sweep(engine.instance(), engine.schedule())
        .expect("repaired schedule validates");

    let stats = engine.stats();
    let per_event = median(&mut us) / trace.events.len().max(1) as f64;
    Row::new(
        format!("{} tasks / {} events", inst.graph.len(), trace.events.len()),
        &[],
        &[
            ("resolve_us", resolve_us),
            ("repair_us_per_event", per_event),
            ("speedup", resolve_us / per_event.max(1e-3)),
            ("full_resolves", stats.full_resolves as f64),
            ("frontier_tasks", stats.frontier_tasks as f64),
            ("makespan_before", baseline.makespan() as f64),
            ("makespan_after", engine.schedule().makespan() as f64),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_row_on_small_instance() {
        let inst = repair_instance(60);
        let (baseline, resolve_us) = baseline_with_resolve_us(&inst);
        let row = measure_repair_row(&inst, &baseline, resolve_us, 8);
        assert_eq!(row.key, "60 tasks / 8 events");
        assert!(row.metric("repair_us_per_event").unwrap() > 0.0);
        assert!(row.metric("speedup").unwrap() > 0.0);
    }
}
