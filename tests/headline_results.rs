//! Locks the reproduction's headline qualitative results as executable
//! assertions. Everything here is fully deterministic (fixed seeds,
//! deterministic schedulers), so a failure means an algorithm change moved
//! a paper-level conclusion — which should be a conscious decision.

use prfpga::baseline::IsKConfig;
use prfpga::floorplan::FloorplannerConfig;
use prfpga::gen::SuiteConfig;
use prfpga::prelude::*;

/// Mini-suite in the contention regime where the paper's effect lives.
///
/// Four graphs per group: the per-group effect is a *mean* comparison, and
/// with only two samples a single adversarial instance can flip a group's
/// sign (observed at 50 tasks). Four keeps the suite fast while making the
/// group means representative of the distribution.
fn groups() -> Vec<Vec<ProblemInstance>> {
    SuiteConfig {
        groups: vec![30, 50, 70],
        graphs_per_group: 4,
        seed: 0x5EED_2016,
    }
    .generate(&Architecture::zedboard_pr())
}

fn mean_makespan<F: Fn(&ProblemInstance) -> Schedule>(group: &[ProblemInstance], f: F) -> f64 {
    group
        .iter()
        .map(|inst| {
            let s = f(inst);
            validate_schedule(inst, &s).expect("valid");
            s.makespan() as f64
        })
        .sum::<f64>()
        / group.len() as f64
}

/// Figure 3's sign: PA beats IS-1 on average in every medium/large group.
#[test]
fn pa_beats_is1_at_medium_and_large_sizes() {
    let pa = PaScheduler::new(SchedulerConfig::default());
    let is1 = IsKScheduler::new(IsKConfig::is1());
    for group in groups() {
        let n = group[0].graph.len();
        let pa_mean = mean_makespan(&group, |i| pa.schedule(i).unwrap());
        let is1_mean = mean_makespan(&group, |i| is1.schedule(i).unwrap());
        assert!(
            pa_mean < is1_mean,
            "{n} tasks: PA mean {pa_mean:.0} must beat IS-1 mean {is1_mean:.0}"
        );
    }
}

/// PA-R with a fixed iteration budget never loses to the deterministic PA
/// ordering by much, and improves on it on average (it explores a superset
/// of orderings and keeps the best feasible one). The floorplan time limit
/// is generous, so the node budget alone decides every verdict and the
/// comparison is the same in any build profile.
#[test]
fn par_improves_on_pa_on_average() {
    let cfg = SchedulerConfig {
        floorplan: FloorplannerConfig {
            time_limit: std::time::Duration::from_secs(600),
            ..Default::default()
        },
        ..Default::default()
    };
    let pa = PaScheduler::new(cfg.clone());
    let par = PaRScheduler::new(SchedulerConfig {
        max_iterations: 12,
        time_budget: std::time::Duration::from_secs(120),
        ..cfg
    });
    let mut pa_total = 0.0;
    let mut par_total = 0.0;
    for group in groups() {
        pa_total += mean_makespan(&group, |i| pa.schedule(i).unwrap());
        par_total += mean_makespan(&group, |i| par.schedule(i).unwrap());
    }
    assert!(
        par_total <= pa_total * 1.02,
        "PA-R ({par_total:.0}) should not lose to PA ({pa_total:.0}) beyond noise"
    );
}

/// The PA schedule is robust to reconfiguration-bandwidth degradation
/// while IS-1 (which leans on reconfiguration-heavy region queueing)
/// degrades much faster — the mechanism behind the paper's premise.
#[test]
fn pa_is_more_robust_to_slow_reconfiguration_than_is1() {
    let suite = SuiteConfig {
        groups: vec![60],
        graphs_per_group: 2,
        seed: 0x5EED_2016,
    };
    let fast = suite.generate(&Architecture::zedboard()); // 400 MB/s ICAP
    let slow = suite.generate(&Architecture::zedboard_pr()); // 50 MB/s
    let pa = PaScheduler::new(SchedulerConfig::default());
    let is1 = IsKScheduler::new(IsKConfig::is1());

    let pa_fast = mean_makespan(&fast[0], |i| pa.schedule(i).unwrap());
    let pa_slow = mean_makespan(&slow[0], |i| pa.schedule(i).unwrap());
    let is1_fast = mean_makespan(&fast[0], |i| is1.schedule(i).unwrap());
    let is1_slow = mean_makespan(&slow[0], |i| is1.schedule(i).unwrap());

    let pa_degradation = pa_slow / pa_fast;
    let is1_degradation = is1_slow / is1_fast;
    assert!(
        pa_degradation < is1_degradation,
        "8x slower reconfiguration must hurt IS-1 (x{is1_degradation:.2}) more than PA (x{pa_degradation:.2})"
    );
}

/// The generated suite sits in the paper's operating regime: reconfiguring
/// a typical region costs the same order of magnitude as executing a task.
#[test]
fn suite_reconfiguration_cost_is_comparable_to_task_time() {
    let group = &groups()[0];
    let inst = &group[0];
    let device = &inst.architecture.device;
    // Mean selected-implementation-sized reconfiguration vs mean HW time.
    let mut rec_sum = 0u64;
    let mut hw_sum = 0u64;
    let mut n = 0u64;
    for t in inst.graph.task_ids() {
        if let Some(i) = inst.hw_impls(t).next() {
            let imp = inst.impls.get(i);
            rec_sum += device.reconf_time(&imp.resources());
            hw_sum += imp.time;
            n += 1;
        }
    }
    let rec_mean = rec_sum / n;
    let hw_mean = hw_sum / n;
    assert!(
        rec_mean * 10 > hw_mean && rec_mean < hw_mean * 10,
        "reconfiguration ({rec_mean}) and execution ({hw_mean}) must be within 10x"
    );
}
