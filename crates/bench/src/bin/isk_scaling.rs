//! IS-k runtime scaling: the claim behind Table I's right-hand columns.
//!
//! The paper's IS-k pays an exponential (MILP) cost per window that grows
//! with k and with the task count. Our branch-and-bound substitute runs
//! under a node budget by default; this study lifts the budget on small
//! instances to expose the same explosion, and reports nodes explored —
//! a hardware-independent cost measure.
//!
//! Sweep points are independent, so they fan out over the parallel suite
//! executor (`--threads N` / `--serial` / `PRFPGA_THREADS`); node counts
//! and makespans are deterministic, only the wall-clock column varies.

use prfpga_baseline::{IsKConfig, IsKScheduler};
use prfpga_bench::report::markdown_table;
use prfpga_gen::{GraphConfig, TaskGraphGenerator};
use prfpga_model::Architecture;
use prfpga_sched::{parallel_map, ExecPolicy};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exec = ExecPolicy::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "running IS-k scaling on {} thread(s); seconds are most faithful with --serial",
        exec.threads()
    );
    println!("### IS-k cost scaling (branch-and-bound nodes, unbounded budget)\n");

    // Scaling in k on one 12-task instance.
    let inst = TaskGraphGenerator::new(0x15C).generate(
        "isk_scaling",
        &GraphConfig::standard(12),
        Architecture::zedboard_pr(),
    );
    let ks: Vec<usize> = (1..=4).collect();
    let rows = parallel_map(&ks, exec, |_, &k| {
        let isk = IsKScheduler::new(IsKConfig {
            k,
            node_budget: 0,
            ..IsKConfig::is5()
        });
        let r = isk.schedule_detailed(&inst).expect("schedulable");
        vec![
            format!("IS-{k}"),
            r.nodes_explored.to_string(),
            format!("{:.3}", r.elapsed.as_secs_f64()),
            r.schedule.makespan().to_string(),
        ]
    });
    println!(
        "12-task instance, window size sweep:\n\n{}",
        markdown_table(&["algorithm", "nodes", "seconds", "makespan"], &rows)
    );

    // Scaling in n for k = 3.
    let sizes = [8usize, 12, 16, 20];
    let rows = parallel_map(&sizes, exec, |_, &n| {
        let inst = TaskGraphGenerator::new(0x15C).generate(
            &format!("isk_n{n}"),
            &GraphConfig::standard(n),
            Architecture::zedboard_pr(),
        );
        let isk = IsKScheduler::new(IsKConfig {
            k: 3,
            node_budget: 0,
            ..IsKConfig::is5()
        });
        let r = isk.schedule_detailed(&inst).expect("schedulable");
        vec![
            n.to_string(),
            r.nodes_explored.to_string(),
            format!("{:.3}", r.elapsed.as_secs_f64()),
        ]
    });
    println!(
        "IS-3, task-count sweep:\n\n{}",
        markdown_table(&["# tasks", "nodes", "seconds"], &rows)
    );
}
