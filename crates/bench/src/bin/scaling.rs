//! Task-graph scaling trajectory: `BENCH_scaling.json`.
//!
//! The paper's evaluation tops out at 100-task graphs; the ROADMAP's
//! north star needs three orders of magnitude more. This study streams a
//! deterministic corpus of large generated instances through the PA
//! pipeline (CSR/bitset fast paths on), one PA-R end-to-end run per size,
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
//! rises more than the tolerance above it (CI's scaling-smoke gate). Peak
//! RSS compares only between runs with the same `--instances`,
//! `--par-iters` and thread count, so a check against a baseline taken
//! with other flags fails; the committed `BENCH_scaling.json` is taken
//! with CI's flags (`--instances 1 --par-iters 0 --serial`). Sizes run
//! ascending so the monotonic `VmHWM` figure is attributable per size.

use prfpga_bench::report::markdown_table;
use prfpga_bench::{
    check_scaling_regression, measure_scaling_entry, partition_quality_bench, reach_microbench,
    warmup_run, PartitionBench, ReachBench, ScalingReport, ScalingStudyConfig,
};
use prfpga_sched::ExecPolicy;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

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
    let out = flag(&args, "--out").unwrap_or_else(|| "BENCH_scaling.json".into());
    let tolerance: f64 = flag(&args, "--tolerance-pct")
        .map(|v| v.parse().expect("--tolerance-pct takes a percentage"))
        .unwrap_or(20.0);

    eprintln!(
        "scaling study: sizes {sizes:?}, {} instance(s)/size, {} thread(s)",
        config.instances,
        exec.threads()
    );
    // Unmeasured warmup: a fresh process pays page faults and allocator
    // growth on its first PA run, which skews the smallest (sub-second)
    // size by 20%+ — enough to trip the CI throughput gate spuriously.
    warmup_run();
    let entries = sizes
        .iter()
        .map(|&tasks| {
            let t0 = std::time::Instant::now();
            let entry = measure_scaling_entry(tasks, &config, exec);
            eprintln!(
                "  {tasks} tasks: {:.0} tasks/s, median {:.1} ms, {:.1} s total",
                entry.tasks_per_sec,
                entry.sched_ms_median,
                t0.elapsed().as_secs_f64()
            );
            entry
        })
        .collect();

    let reach: Vec<ReachBench> = if args.iter().any(|a| a == "--no-reach-bench") {
        Vec::new()
    } else {
        // One probe-heavy size: the closure's O(1) lookup vs the DFS.
        let tasks = sizes
            .iter()
            .copied()
            .find(|&n| n >= 10_000)
            .unwrap_or(*sizes.last().expect("at least one size"));
        let b = reach_microbench(tasks, 20_000);
        eprintln!(
            "  reach @ {tasks}: DFS {:.0} ns/query, closure {:.1} ns/query ({:.1}x)",
            b.dfs_ns_per_query, b.index_ns_per_query, b.speedup
        );
        vec![b]
    };

    // Partition-quality probe: fixed small size so the row tracks the
    // heuristic's quality, not generator scaling.
    let partition: Vec<PartitionBench> = if args.iter().any(|a| a == "--no-partition-bench") {
        Vec::new()
    } else {
        let b = partition_quality_bench(120);
        eprintln!(
            "  partition @ {} tasks on {}: {} ticks vs {} relaxed ({:+.1}%)",
            b.tasks, b.platform, b.makespan_partitioned, b.makespan_relaxed, b.overhead_pct
        );
        vec![b]
    };

    let report = ScalingReport {
        schema: ScalingReport::SCHEMA.into(),
        entries,
        reach,
        partition,
    };

    println!("### Task-graph scaling trajectory\n");
    let rows: Vec<Vec<String>> = report
        .entries
        .iter()
        .map(|e| {
            vec![
                e.tasks.to_string(),
                e.edges.to_string(),
                format!("{:.1}", e.sched_ms_median),
                format!("{:.0}", e.tasks_per_sec),
                format!("{:.1}", e.par_ms),
                e.peak_rss_kb.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "# tasks",
                "edges",
                "PA median ms",
                "tasks/s",
                "PA-R ms",
                "peak RSS kB"
            ],
            &rows
        )
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write scaling report");
    eprintln!("wrote {out}");

    if let Some(baseline_path) = flag(&args, "--check") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline: ScalingReport =
            serde_json::from_str(&text).expect("baseline parses as a scaling report");
        match check_scaling_regression(&baseline, &report, tolerance) {
            Ok(()) => eprintln!("throughput and peak RSS within {tolerance}% of {baseline_path}"),
            Err(msg) => {
                eprintln!("SCALING REGRESSION vs {baseline_path}: {msg}");
                std::process::exit(1);
            }
        }
    }
}
