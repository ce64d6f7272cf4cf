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

pub use repair::{
    baseline_with_resolve_us, check_repair_regression, measure_repair_entry, repair_instance,
    RepairEntry, RepairReport, REPAIR_SEED,
};
pub use report::{improvement_pct, mean, phase_trace_section, sample_std, GroupSummary};
pub use runners::{run_heft, run_isk, run_pa, run_par_iters, run_par_timed, InstanceResult};
pub use scale::{
    check_scaling_regression, measure_scaling_entry, partition_quality_bench, peak_rss_kb,
    reach_microbench, scaling_instances, warmup_run, PartitionBench, PhaseMs, ReachBench, Scale,
    ScaleConfig, ScalingEntry, ScalingReport, ScalingStudyConfig,
};
pub use server_load::{check_server_regression, run_server_load, LoadConfig, ServerLoadReport};
