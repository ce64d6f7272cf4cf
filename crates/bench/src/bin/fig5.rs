//! Regenerates Figure 5: average improvement of time-matched PA-R over
//! IS-5 (paper: IS-5 wins at 10 tasks; PA-R averages 22.3% beyond 20).

use prfpga_bench::experiments::{improvement_section, improvement_summaries, run_suite_exec, Algo};
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
        "running Figure 5 at {scale:?} scale on {} thread(s) (PA-R budget = measured IS-5 time)",
        exec.threads()
    );
    let results = run_suite_exec(&scale.config(), &[Algo::ParTimed, Algo::Is5], exec);
    let summaries = improvement_summaries(&results, Algo::ParTimed, Algo::Is5);
    println!(
        "{}",
        improvement_section(
            "Figure 5 — average improvement of PA-R over IS-5, time-matched [%]",
            &summaries
        )
    );
}
