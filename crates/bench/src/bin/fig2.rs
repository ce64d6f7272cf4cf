//! Regenerates Figure 2: average schedule makespan per group for PA,
//! PA-R, IS-1 and IS-5.

use prfpga_bench::experiments::{fig2_section, run_suite_exec, Algo};
use prfpga_bench::Scale;
use prfpga_sched::ExecPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exec = ExecPolicy::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let scale = Scale::from_env();
    eprintln!(
        "running Figure 2 at {scale:?} scale on {} thread(s)",
        exec.threads()
    );
    let results = run_suite_exec(
        &scale.config(),
        &[Algo::Pa, Algo::ParTimed, Algo::Is1, Algo::Is5],
        exec,
    );
    println!("{}", fig2_section(&results));
}
