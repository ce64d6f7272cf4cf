//! Regenerates Figure 3: average improvement of PA over IS-1
//! (paper: 14.8% on average, peaking for 20-60 task graphs).

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
        "running Figure 3 at {scale:?} scale on {} thread(s)",
        exec.threads()
    );
    let results = run_suite_exec(&scale.config(), &[Algo::Pa, Algo::Is1], exec);
    let summaries = improvement_summaries(&results, Algo::Pa, Algo::Is1);
    println!(
        "{}",
        improvement_section(
            "Figure 3 — average improvement of PA over IS-1 [%]",
            &summaries
        )
    );
}
