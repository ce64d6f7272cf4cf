//! Runs the full evaluation and prints one Markdown report covering
//! Table I and Figures 2-6. The per-figure binaries exist for targeted
//! runs; this one shares a single suite execution across all sections.
//!
//! Instances fan out over the parallel suite executor (`--threads N`,
//! `--serial`, or `PRFPGA_THREADS`); every table is byte-identical across
//! thread counts except for measured wall-clocks. The Fig. 6 convergence
//! traces always run serially — they measure anytime-search behaviour
//! under a wall-clock budget, which concurrent workers would distort.

use prfpga_bench::experiments::{
    fig2_section, fig6_section, fig6_traces, improvement_section, improvement_summaries,
    run_suite_exec, table1_section, Algo,
};
use prfpga_bench::{phase_trace_section, Scale};
use prfpga_sched::ExecPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exec = ExecPolicy::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let scale = Scale::from_env();
    let cfg = scale.config();
    eprintln!(
        "running ALL experiments at {scale:?} scale on {} thread(s) \
         (PRFPGA_SCALE=full for the paper suite; --serial for measurement-grade timings)",
        exec.threads()
    );

    let results = run_suite_exec(
        &cfg,
        &[Algo::Pa, Algo::ParTimed, Algo::Is1, Algo::Is5, Algo::Heft],
        exec,
    );

    println!("# prfpga experiment report ({scale:?} scale)\n");
    println!("{}\n", table1_section(&results));
    println!("{}\n", phase_trace_section(&results));
    println!("{}\n", fig2_section(&results));
    println!(
        "{}\n",
        improvement_section(
            "Figure 3 — average improvement of PA over IS-1 [%]",
            &improvement_summaries(&results, Algo::Pa, Algo::Is1)
        )
    );
    println!(
        "{}\n",
        improvement_section(
            "Figure 4 — average improvement of PA over IS-5 [%]",
            &improvement_summaries(&results, Algo::Pa, Algo::Is5)
        )
    );
    println!(
        "{}\n",
        improvement_section(
            "Figure 5 — average improvement of PA-R over IS-5, time-matched [%]",
            &improvement_summaries(&results, Algo::ParTimed, Algo::Is5)
        )
    );
    println!(
        "{}\n",
        improvement_section(
            "Extra — average improvement of PA over HEFT [%]",
            &improvement_summaries(&results, Algo::Pa, Algo::Heft)
        )
    );
    let traces = fig6_traces(&cfg);
    println!("{}", fig6_section(&traces));
}
