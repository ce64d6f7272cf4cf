//! Anytime behaviour of the randomized scheduler PA-R.
//!
//! Reproduces the paper's Figure-6 methodology on one instance: run PA-R
//! with growing budgets and watch the best schedule improve, then compare
//! the single-thread search against the crossbeam-parallel variant.
//!
//! Run with: `cargo run --release --example randomized_tuning`

use std::time::{Duration, Instant};

use prfpga::gen::{GraphConfig, TaskGraphGenerator};
use prfpga::prelude::*;
use prfpga::sched::randomized::PaRResult;

fn main() {
    let instance = TaskGraphGenerator::new(0x7E57).generate(
        "tuning_app",
        &GraphConfig::standard(60),
        Architecture::zedboard(),
    );

    // Reference point: the deterministic PA.
    let pa = PaScheduler::new(SchedulerConfig::default())
        .schedule(&instance)
        .unwrap();
    validate_schedule(&instance, &pa).expect("valid");
    println!(
        "PA (deterministic, one shot): makespan {} ticks\n",
        pa.makespan()
    );

    // Anytime curve: fixed iteration budgets, fixed seed -> reproducible.
    println!("PA-R anytime curve (single thread):");
    println!(
        "{:>12} {:>12} {:>14}",
        "iterations", "makespan", "improvements"
    );
    for iters in [1usize, 4, 16, 64] {
        let cfg = SchedulerConfig {
            max_iterations: iters,
            time_budget: Duration::from_secs(600),
            ..Default::default()
        };
        let r: PaRResult = PaRScheduler::new(cfg).schedule_detailed(&instance).unwrap();
        validate_schedule(&instance, &r.schedule).expect("valid");
        println!(
            "{:>12} {:>12} {:>14}",
            iters,
            r.schedule.makespan(),
            r.trace.len()
        );
    }

    // The full improvement trace for one longer run.
    let cfg = SchedulerConfig {
        max_iterations: 64,
        time_budget: Duration::from_secs(600),
        ..Default::default()
    };
    let r = PaRScheduler::new(cfg).schedule_detailed(&instance).unwrap();
    println!("\nimprovement trace of the 64-iteration run:");
    for p in &r.trace {
        println!(
            "  iteration {:>3} @ {:>8.3} ms -> makespan {}",
            p.iteration,
            p.elapsed.as_secs_f64() * 1e3,
            p.makespan
        );
    }

    // Parallel search: same wall-clock budget, more workers.
    println!("\nparallel PA-R (200 ms budget):");
    for threads in [1usize, 4] {
        let cfg = SchedulerConfig {
            time_budget: Duration::from_millis(200),
            max_iterations: 0,
            ..Default::default()
        };
        let t0 = Instant::now();
        let r = PaRScheduler::new(cfg)
            .schedule_with_cancel_in(
                &instance,
                threads,
                &CancelToken::never(),
                &mut SchedWorkspace::new(),
            )
            .unwrap();
        validate_schedule(&instance, &r.schedule).expect("valid");
        println!(
            "  {threads} thread(s): makespan {} ticks, {} iterations in {:.0} ms",
            r.schedule.makespan(),
            r.iterations,
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
}
