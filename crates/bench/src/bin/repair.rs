//! Repair-cost-vs-perturbation trajectory: `BENCH_repair.json`.
//!
//! Per size, commits a baseline PA schedule, replays standard-mix event
//! traces of increasing length through the repair engine and reports the
//! mean per-event repair cost against the full-pipeline re-solve cost.
//!
//! ```text
//! repair [--sizes 1000,10000] [--events 1,8,64]
//!        [--out BENCH_repair.json] [--check <baseline.json>]
//!        [--tolerance-pct 20]
//! ```
//!
//! With `--check`, the run exits non-zero when any point's speedup drops
//! more than the tolerance below the baseline file, or its per-event
//! repair cost rises more than the tolerance above it (CI's repair
//! gates).

use prfpga_bench::{
    baseline_with_resolve_us, flag, measure_repair_row, repair_instance, rows_table, warmup_run,
    write_and_check, Trajectory, REPAIR_GATES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes: Vec<usize> = flag(&args, "--sizes")
        .unwrap_or_else(|| "1000,10000".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--sizes takes task counts"))
        .collect();
    sizes.sort_unstable();
    let events: Vec<usize> = flag(&args, "--events")
        .unwrap_or_else(|| "1,8,64".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--events takes counts"))
        .collect();

    eprintln!("repair study: sizes {sizes:?}, trace lengths {events:?}");
    // Same rationale as the scaling study: the first PA run of a fresh
    // process pays page faults and allocator growth.
    warmup_run();

    let mut rows = Vec::new();
    for &tasks in &sizes {
        let inst = repair_instance(tasks);
        let (baseline, resolve_us) = baseline_with_resolve_us(&inst);
        eprintln!("  {tasks} tasks: full re-solve {:.0} us", resolve_us);
        for &k in &events {
            rows.push(measure_repair_row(&inst, &baseline, resolve_us, k));
        }
    }

    println!("### Repair cost vs perturbation\n");
    println!(
        "{}",
        rows_table(
            &rows,
            &[
                "resolve_us",
                "repair_us_per_event",
                "speedup",
                "full_resolves",
                "makespan_before",
                "makespan_after",
            ]
        )
    );

    write_and_check(&Trajectory::new("repair", rows), &args, REPAIR_GATES);
}
