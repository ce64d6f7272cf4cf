//! Differential oracles for the online repair engine.
//!
//! A seeded corpus of event traces is replayed against committed PA
//! schedules, and every repair is checked three ways:
//!
//! * **validity** — after *every* event, the repaired schedule passes the
//!   independent sweep-line validator against the revised instance;
//! * **exactness** — a trace of nothing but exactly-on-schedule finishes
//!   leaves the schedule byte-identical (the repair engine only reacts to
//!   deviations);
//! * **quality** — after a full perturbation trace, the repaired makespan
//!   stays within a pinned bound of what the batch pipeline produces when
//!   re-solving the revised instance from scratch. Delta repair keeps all
//!   placements fixed, so it legitimately trails a full re-plan — but it
//!   must not fall off a cliff.

use prfpga::prelude::*;
use prfpga::sched::RepairStats;

/// Corpus shape: enough seeds to exercise cancels, revisions, arrivals
/// and both early and late finishes, small enough for a debug-build CI
/// step.
const SIZES: [usize; 2] = [30, 60];
const SEEDS: [u64; 3] = [1, 7, 42];

fn committed(tasks: usize, seed: u64) -> (ProblemInstance, Schedule) {
    let inst = TaskGraphGenerator::new(seed).generate(
        &format!("repair_diff_{tasks}_{seed}"),
        &prfpga::gen::GraphConfig::standard(tasks),
        Architecture::zedboard_pr(),
    );
    let schedule = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .expect("generated instances solve");
    (inst, schedule)
}

/// Every repaired schedule passes the sweep-line validator after every
/// single event of every corpus trace — not only at the end, so the
/// first invalid intermediate state names its event.
#[test]
fn every_repair_step_validates() {
    for &tasks in &SIZES {
        for &seed in &SEEDS {
            let (inst, schedule) = committed(tasks, seed);
            let trace = EventTraceGenerator::new(seed ^ 0xE7).generate(
                &inst,
                &schedule,
                &EventConfig::standard(tasks / 2),
            );
            let mut engine =
                RepairEngine::new(inst, schedule, RepairConfig::default()).expect("clean baseline");
            for (i, ev) in trace.events.iter().enumerate() {
                engine
                    .apply(ev)
                    .unwrap_or_else(|e| panic!("{tasks}/{seed}: event {i} ({ev:?}) refused: {e}"));
                validate_schedule_sweep(engine.instance(), engine.schedule()).unwrap_or_else(|e| {
                    panic!("{tasks}/{seed}: invalid schedule after event {i} ({ev:?}): {e:?}")
                });
            }
        }
    }
}

/// Regression: a trace whose full re-solves re-plan finished tasks. The
/// re-solve puts finished task 37 (its observed duration clamped to 0)
/// on core 1 behind live task 14, and 14's late finish at event 29 must
/// push 37 along instead of overlapping it. Same instance and trace as
/// `prfpga generate --tasks 60 --seed 13` and `prfpga replay --events 60
/// --seed 4` at the default cascade threshold.
#[test]
fn full_resolves_keep_replanned_finished_tasks_retimeable() {
    let inst = TaskGraphGenerator::new(13).generate(
        "cli_t60_s13",
        &prfpga::gen::GraphConfig::standard(60),
        Architecture::zedboard_pr(),
    );
    let schedule = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .expect("generated instances solve");
    let trace = EventTraceGenerator::new(4).generate(&inst, &schedule, &EventConfig::standard(60));
    let mut engine =
        RepairEngine::new(inst, schedule, RepairConfig::default()).expect("clean baseline");
    let mut resolves = 0;
    for (i, ev) in trace.events.iter().enumerate() {
        let out = engine
            .apply(ev)
            .unwrap_or_else(|e| panic!("event {i} ({ev:?}) refused: {e}"));
        resolves += usize::from(out.full_resolve);
        validate_schedule_sweep(engine.instance(), engine.schedule())
            .unwrap_or_else(|e| panic!("invalid schedule after event {i} ({ev:?}): {e:?}"));
    }
    assert!(resolves > 0, "the trace exercises the full re-solve");
}

/// An on-time trace is a no-op: the repaired schedule is byte-identical
/// to the committed baseline and no task ever moves.
#[test]
fn on_time_traces_leave_the_schedule_byte_identical() {
    for &tasks in &SIZES {
        for &seed in &SEEDS {
            let (inst, schedule) = committed(tasks, seed);
            let trace = EventTraceGenerator::new(seed).generate(
                &inst,
                &schedule,
                &EventConfig::on_time(tasks),
            );
            assert_eq!(trace.events.len(), tasks, "every task finishes");
            let mut engine = RepairEngine::new(inst, schedule.clone(), RepairConfig::default())
                .expect("clean baseline");
            for ev in &trace.events {
                let out = engine.apply(ev).expect("on-time finishes never fail");
                assert_eq!(
                    out.frontier, 0,
                    "{tasks}/{seed}: on-time finish invalidated"
                );
                assert_eq!(out.moved, 0);
            }
            assert_eq!(
                *engine.schedule(),
                schedule,
                "{tasks}/{seed}: on-time replay must not disturb the schedule"
            );
            let RepairStats {
                moved_tasks,
                recs_replaced,
                full_resolves,
                ..
            } = engine.stats();
            assert_eq!((moved_tasks, recs_replaced, full_resolves), (0, 0, 0));
        }
    }
}

/// After a full standard-mix trace, the delta-repaired makespan stays
/// within a pinned factor of a from-scratch PA re-solve on the revised
/// instance (which may re-place everything). The bound is deliberately
/// loose — fixed placements cost real schedule length under heavy
/// perturbation — but pins the engine against silent quality cliffs.
#[test]
fn repaired_makespan_tracks_the_full_resolve() {
    const BOUND: f64 = 1.5;
    for &tasks in &SIZES {
        for &seed in &SEEDS {
            let (inst, schedule) = committed(tasks, seed);
            let trace = EventTraceGenerator::new(seed ^ 0xBEEF).generate(
                &inst,
                &schedule,
                &EventConfig::standard(tasks / 3),
            );
            let mut engine =
                RepairEngine::new(inst, schedule, RepairConfig::default()).expect("clean baseline");
            for ev in &trace.events {
                engine
                    .apply(ev)
                    .unwrap_or_else(|e| panic!("{tasks}/{seed}: {e}"));
            }
            let repaired = engine.schedule().makespan();
            let resolved = PaScheduler::new(SchedulerConfig::default())
                .schedule(engine.instance())
                .expect("revised instances solve")
                .makespan();
            assert!(
                repaired as f64 <= resolved as f64 * BOUND,
                "{tasks}/{seed}: repaired makespan {repaired} vs re-solve {resolved} exceeds {BOUND}x"
            );
        }
    }
}

/// FNV-1a (64-bit) folded over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Output pin: one FNV-1a digest over every `RepairOutcome` (a refused
/// event folds in its error text), the engine's closing `RepairStats`
/// and the final schedule and revised instance JSON of seeded
/// standard-mix traces on three targets: the single-controller zedboard,
/// the four-fabric Alveo U250 with two controllers per fabric and the
/// dual zedboard with three. Each target runs traces with the cascade
/// off (delta path only) and one at the default threshold (full
/// re-solves included). Each trace has as many events as the instance
/// has tasks, so its arrivals carry the graph past 128 nodes. A change
/// to the engine that claims identical output must leave the constant
/// alone, in debug and release builds.
#[test]
fn repair_trace_digest_is_pinned() {
    use prfpga::gen::GraphConfig;

    let targets = [
        ("zedboard", 120, Architecture::zedboard_pr()),
        (
            "alveo_u250",
            120,
            Architecture::on_platform(2, Platform::alveo_u250()).with_reconfig_controllers(2),
        ),
        (
            "dual_zedboard",
            120,
            Architecture::on_platform(2, Platform::dual_zedboard()).with_reconfig_controllers(3),
        ),
    ];
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (name, tasks, arch) in targets {
        let inst = TaskGraphGenerator::new(5).generate(
            &format!("repair_pin_{name}"),
            &GraphConfig::standard(tasks),
            arch,
        );
        let schedule = PaScheduler::new(SchedulerConfig::default())
            .schedule(&inst)
            .expect("generated instances solve");
        for (cascade_threshold_pct, seed) in [(100, 3u64), (100, 9), (50, 21)] {
            let trace = EventTraceGenerator::new(seed).generate(
                &inst,
                &schedule,
                &EventConfig::standard(tasks),
            );
            let config = RepairConfig {
                cascade_threshold_pct,
                ..RepairConfig::default()
            };
            let mut engine =
                RepairEngine::new(inst.clone(), schedule.clone(), config).expect("clean baseline");
            for ev in &trace.events {
                match engine.apply(ev) {
                    Ok(o) => {
                        for field in [
                            o.frontier as u64,
                            o.moved as u64,
                            o.recs_replaced as u64,
                            u64::from(o.full_resolve),
                            o.makespan,
                        ] {
                            hash = fnv1a(hash, &field.to_le_bytes());
                        }
                    }
                    Err(e) => hash = fnv1a(hash, e.to_string().as_bytes()),
                }
            }
            let s = engine.stats();
            for field in [
                s.frontier_tasks,
                s.moved_tasks,
                s.recs_replaced,
                s.full_resolves,
                s.retired_tasks,
            ] {
                hash = fnv1a(hash, &field.to_le_bytes());
            }
            let json = serde_json::to_string(engine.schedule()).expect("schedules serialize");
            hash = fnv1a(hash, json.as_bytes());
            hash = fnv1a(hash, engine.instance().to_json().as_bytes());
        }
    }
    assert_eq!(
        hash, 12_354_851_052_507_089_637,
        "repair outcomes or repaired schedules changed"
    );
}
