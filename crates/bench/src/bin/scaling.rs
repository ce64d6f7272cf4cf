//! Task-graph scaling trajectory: `BENCH_scaling.json`.
//!
//! The paper's evaluation tops out at 100-task graphs; the ROADMAP's
//! north star needs three orders of magnitude more. This study streams a
//! deterministic corpus of large generated instances through the PA
//! pipeline, one PA-R end-to-end run per size,
//! and a DFS-vs-closure reachability microbenchmark, and writes the
//! per-size throughput / phase-median / peak-RSS trajectory to JSON so
//! cross-PR regressions are machine-checkable.
//!
//! ```text
//! scaling [--sizes 1000,10000] [--instances N] [--par-iters N]
//!         [--out BENCH_scaling.json] [--check <baseline.json>]
//!         [--tolerance-pct 20] [--no-reach-bench] [--no-partition-bench]
//!         [--threads N | --serial]
//! ```
//!
//! With `--check`, the run exits non-zero when any size's throughput
//! drops more than the tolerance below the baseline file, or its peak RSS
//! rises more than the tolerance above it (CI's scaling-smoke gate). Each
//! instance's PA run is timed `SCALING_REPEATS` times and reports its
//! median. A size row compares only with a baseline row taken with the
//! same `--instances`, `--par-iters`, thread count and repeat count, so a
//! check against a baseline taken with other flags or an older repeat
//! count fails; the committed
//! `BENCH_scaling.json` is taken with CI's flags (`--instances 1
//! --par-iters 0 --serial`). Sizes run ascending so the monotonic `VmHWM`
//! figure is attributable per size. The reach and partition probes are
//! recorded, not gated.

use prfpga_bench::{
    flag, measure_scaling_row, partition_quality_bench, reach_microbench, rows_table, warmup_run,
    write_and_check, ScalingStudyConfig, Trajectory, SCALING_GATES,
};
use prfpga_sched::ExecPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exec = ExecPolicy::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut sizes: Vec<usize> = flag(&args, "--sizes")
        .unwrap_or_else(|| "1000,10000".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--sizes takes task counts"))
        .collect();
    sizes.sort_unstable();
    let mut config = ScalingStudyConfig::default();
    if let Some(v) = flag(&args, "--instances") {
        config.instances = v.parse().expect("--instances takes a count");
    }
    if let Some(v) = flag(&args, "--par-iters") {
        config.par_iterations = v.parse().expect("--par-iters takes a count");
    }

    eprintln!(
        "scaling study: sizes {sizes:?}, {} instance(s)/size, {} thread(s)",
        config.instances,
        exec.threads()
    );
    // Unmeasured warmup: a fresh process pays page faults and allocator
    // growth on its first PA run, which skews the smallest (sub-second)
    // size by 20%+ — enough to trip the CI throughput gate spuriously.
    warmup_run();
    let mut rows: Vec<_> = sizes
        .iter()
        .map(|&tasks| {
            let t0 = std::time::Instant::now();
            let row = measure_scaling_row(tasks, &config, exec);
            eprintln!("  {}: {:.1} s total", row.key, t0.elapsed().as_secs_f64());
            row
        })
        .collect();

    println!("### Task-graph scaling trajectory\n");
    println!(
        "{}",
        rows_table(
            &rows,
            &[
                "edges",
                "sched_ms_median",
                "tasks_per_sec",
                "par_ms",
                "peak_rss_kb"
            ]
        )
    );

    let mut probes = Vec::new();
    if !args.iter().any(|a| a == "--no-reach-bench") {
        // One probe-heavy size: the closure's O(1) lookup vs the DFS.
        let tasks = sizes
            .iter()
            .copied()
            .find(|&n| n >= 10_000)
            .unwrap_or(*sizes.last().expect("at least one size"));
        probes.push(reach_microbench(tasks, 20_000));
    }
    if !args.iter().any(|a| a == "--no-partition-bench") {
        // Fixed small size so the row tracks the partition heuristic's
        // quality, not generator scaling.
        probes.push(partition_quality_bench(120));
    }
    if !probes.is_empty() {
        println!(
            "{}",
            rows_table(
                &probes,
                &[
                    "dfs_ns_per_query",
                    "index_ns_per_query",
                    "speedup",
                    "makespan_partitioned",
                    "makespan_relaxed",
                    "overhead_pct"
                ]
            )
        );
    }
    rows.extend(probes);

    write_and_check(&Trajectory::new("scaling", rows), &args, SCALING_GATES);
}
