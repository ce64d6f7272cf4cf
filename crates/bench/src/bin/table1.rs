//! Regenerates Table I: algorithm execution times vs task-graph size.

use prfpga_bench::experiments::{run_suite_exec, table1_section, Algo};
use prfpga_bench::{phase_trace_section, Scale};
use prfpga_sched::ExecPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exec = ExecPolicy::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let scale = Scale::from_env();
    eprintln!(
        "running Table I at {scale:?} scale on {} thread(s); timings are most faithful with --serial",
        exec.threads()
    );
    let results = run_suite_exec(
        &scale.config(),
        &[Algo::Pa, Algo::Is1, Algo::Is5, Algo::ParTimed],
        exec,
    );
    println!("{}", table1_section(&results));
    println!();
    println!("{}", phase_trace_section(&results));
}
