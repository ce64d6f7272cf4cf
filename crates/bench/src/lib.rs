//! # prfpga-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VII):
//!
//! | Artifact | Binary | What it reports |
//! |---|---|---|
//! | Table I | `table1` | algorithm execution times vs task count (PA split into scheduling/floorplanning/total; IS-1; PA-R / IS-5) |
//! | Fig. 2 | `fig2` | average schedule makespan per group for PA, PA-R, IS-1, IS-5 |
//! | Fig. 3 | `fig3` | average improvement of PA over IS-1 |
//! | Fig. 4 | `fig4` | average improvement of PA over IS-5 |
//! | Fig. 5 | `fig5` | average improvement of time-matched PA-R over IS-5 |
//! | Fig. 6 | `fig6` | PA-R best-makespan-vs-time convergence on 5 graphs |
//! | Ablations | `ablation_*` | ordering / cost metric / balancing studies |
//! | All | `all_experiments` | runs everything and emits a Markdown report |
//!
//! Beyond the paper, `scaling`, `repair` and `loadgen` write the
//! `BENCH_{scaling,repair,server}.json` trajectories in one schema, each
//! gated in CI by one regression check ([`trajectory`]).
//!
//! Instances come from the deterministic generator (`prfpga-gen`); every
//! schedule is revalidated by `prfpga-sim` before its makespan is
//! counted. The harness honours a `PRFPGA_SCALE` environment variable:
//! `smoke` (default: fewer/smaller graphs, trimmed IS-5 budget, for CI)
//! or `full` (the paper's 10x10 suite).

#![warn(missing_docs)]

pub mod experiments;
pub mod repair;
pub mod report;
pub mod runners;
pub mod scale;
pub mod server_load;
pub mod trajectory;

pub use repair::{
    baseline_with_resolve_us, measure_repair_row, repair_instance, REPAIR_GATES, REPAIR_SEED,
};
pub use report::{improvement_pct, mean, phase_trace_section, sample_std, GroupSummary};
pub use runners::{run_heft, run_isk, run_pa, run_par_iters, run_par_timed, InstanceResult};
pub use scale::{
    measure_scaling_row, partition_quality_bench, peak_rss_kb, reach_microbench, scaling_instances,
    warmup_run, Scale, ScaleConfig, ScalingStudyConfig, SCALING_GATES,
};
pub use server_load::{run_server_load, LoadConfig, SERVER_GATES};
pub use trajectory::{
    check_regression, flag, rows_table, write_and_check, Better, Gate, Metric, Row, Trajectory,
};
