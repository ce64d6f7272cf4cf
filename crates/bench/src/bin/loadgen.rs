//! Service load generator: `BENCH_server.json`.
//!
//! Replays seeded synthetic traffic against the scheduling daemon —
//! 60-task portfolio requests under 50 ms deadlines with a 10 ms inner
//! budget, over the in-process transport — sweep-validates every
//! response client-side, and writes the throughput / latency /
//! deadline-hit row.
//!
//! ```text
//! loadgen [--requests N] [--threads N] [--tcp]
//!         [--out BENCH_server.json] [--check <baseline.json>]
//!         [--tolerance-pct 20] [--min-hit-rate <pct>]
//! ```
//!
//! A single invalid schedule fails the run, and so does a deadline-hit
//! rate under `--min-hit-rate`; both are checked before the row is
//! written. With `--check`, the run also exits non-zero when throughput
//! drops more than the tolerance below the baseline file (CI's service
//! smoke gate).

use prfpga_bench::{
    flag, rows_table, run_server_load, write_and_check, LoadConfig, Trajectory, SERVER_GATES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = LoadConfig::default();
    if let Some(v) = flag(&args, "--requests") {
        config.requests = v.parse().expect("--requests takes a count");
    }
    if let Some(v) = flag(&args, "--threads") {
        config.workers = v.parse().expect("--threads takes a count");
    }
    config.tcp = args.iter().any(|a| a == "--tcp");
    let min_hit_rate: f64 = flag(&args, "--min-hit-rate")
        .map(|v| v.parse().expect("--min-hit-rate takes a percentage"))
        .unwrap_or(0.0);

    eprintln!(
        "loadgen: {} requests -> {} worker(s), {}",
        config.requests,
        config.workers,
        if config.tcp { "tcp" } else { "in-proc" },
    );

    let row = run_server_load(&config);
    println!(
        "{}",
        rows_table(
            std::slice::from_ref(&row),
            &[
                "ok",
                "errors",
                "req_per_sec",
                "p50_us",
                "p99_us",
                "deadline_hit_rate_pct",
                "workspace_reuses",
                "workspace_rebuilds",
            ]
        )
    );

    let metric = |name| row.metric(name).expect("load rows carry every metric");
    if metric("invalid_schedules") > 0.0 {
        eprintln!(
            "INVALID SCHEDULES: {} responses failed sweep validation",
            metric("invalid_schedules")
        );
        std::process::exit(1);
    }
    if metric("deadline_hit_rate_pct") < min_hit_rate {
        eprintln!(
            "DEADLINE HIT RATE {:.1}% below the {min_hit_rate}% floor",
            metric("deadline_hit_rate_pct")
        );
        std::process::exit(1);
    }
    write_and_check(&Trajectory::new("server", vec![row]), &args, SERVER_GATES);
}
