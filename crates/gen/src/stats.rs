//! Instance and suite statistics.
//!
//! §VII-B of the paper attributes the variance of its improvements to
//! graph parallelism and implementation trade-offs. These helpers compute
//! the corresponding descriptive statistics for any instance or suite so
//! reports can characterize what the schedulers actually faced.

use prfpga_dag::{Dag, LevelProfile};
use prfpga_model::{ProblemInstance, Time};
use serde::{Deserialize, Serialize};

/// Descriptive statistics of one instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of dependency arcs.
    pub edges: usize,
    /// DAG depth (levels).
    pub depth: usize,
    /// Maximum structural parallelism (widest level).
    pub max_parallelism: u32,
    /// Average level width x100.
    pub avg_parallelism_x100: u64,
    /// Mean software execution time.
    pub mean_sw_time: Time,
    /// Mean fastest-hardware execution time (tasks with hardware only).
    pub mean_hw_time: Time,
    /// Software-over-hardware slowdown x100 (0 when no hardware exists).
    pub sw_slowdown_x100: u64,
    /// Sum of the chosen-at-minimum CLB demands over all tasks' smallest
    /// hardware variants, as a per-mille fraction of device CLBs — how
    /// over-subscribed the fabric is if every task wanted hardware at once.
    pub min_hw_clb_pressure_pm: u64,
    /// Tasks that share an implementation set with some other task.
    pub shared_impl_tasks: usize,
}

/// Computes [`InstanceStats`].
pub fn instance_stats(inst: &ProblemInstance) -> InstanceStats {
    let dag = Dag::from_taskgraph(&inst.graph).expect("validated instance is acyclic");
    let profile = LevelProfile::new(&dag);

    let mut sw_sum: u128 = 0;
    let mut sw_n = 0u64;
    let mut hw_sum: u128 = 0;
    let mut hw_n = 0u64;
    let mut min_clb_sum: u64 = 0;
    for t in inst.graph.task_ids() {
        let sw = inst.impls.get(inst.fastest_sw_impl(t)).time;
        sw_sum += sw as u128;
        sw_n += 1;
        if let Some(best_hw) = inst.hw_impls(t).map(|i| inst.impls.get(i).time).min() {
            hw_sum += best_hw as u128;
            hw_n += 1;
        }
        if let Some(min_clb) = inst
            .hw_impls(t)
            .map(|i| inst.impls.get(i).resources().0[0])
            .min()
        {
            min_clb_sum += min_clb;
        }
    }
    let mean_sw_time = if sw_n == 0 {
        0
    } else {
        (sw_sum / sw_n as u128) as Time
    };
    let mean_hw_time = if hw_n == 0 {
        0
    } else {
        (hw_sum / hw_n as u128) as Time
    };
    let sw_slowdown_x100 = if mean_hw_time == 0 {
        0
    } else {
        (mean_sw_time as u128 * 100 / mean_hw_time as u128) as u64
    };
    let device_clb = inst.architecture.device.max_res.0[0].max(1);
    let min_hw_clb_pressure_pm = min_clb_sum * 1000 / device_clb;

    // Shared implementation sets.
    let mut counts = std::collections::HashMap::new();
    for t in &inst.graph.tasks {
        *counts.entry(t.impls.clone()).or_insert(0usize) += 1;
    }
    let shared_impl_tasks = inst
        .graph
        .tasks
        .iter()
        .filter(|t| counts[&t.impls] > 1)
        .count();

    InstanceStats {
        tasks: inst.graph.len(),
        edges: inst.graph.edges.len(),
        depth: profile.depth(),
        max_parallelism: profile.max_width(),
        avg_parallelism_x100: profile.avg_width_x100(),
        mean_sw_time,
        mean_hw_time,
        sw_slowdown_x100,
        min_hw_clb_pressure_pm,
        shared_impl_tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GraphConfig, TaskGraphGenerator, Topology};
    use prfpga_model::Architecture;

    #[test]
    fn stats_of_generated_instance_are_plausible() {
        let inst = TaskGraphGenerator::new(5).generate(
            "stats",
            &GraphConfig::standard(40),
            Architecture::zedboard_pr(),
        );
        let st = instance_stats(&inst);
        assert_eq!(st.tasks, 40);
        assert!(st.edges >= 39, "layered graphs connect every non-source");
        assert!(st.depth > 1 && st.depth < 40);
        assert!(st.max_parallelism >= 2);
        assert!(st.mean_hw_time > 0);
        assert!(
            st.sw_slowdown_x100 >= 300 && st.sw_slowdown_x100 <= 700,
            "software slowdown within the generator's envelope, got {}",
            st.sw_slowdown_x100
        );
        assert!(st.min_hw_clb_pressure_pm > 0);
    }

    #[test]
    fn chain_stats() {
        let cfg = GraphConfig {
            topology: Topology::Chain,
            ..GraphConfig::standard(10)
        };
        let inst = TaskGraphGenerator::new(1).generate("c", &cfg, Architecture::zedboard_pr());
        let st = instance_stats(&inst);
        assert_eq!(st.depth, 10);
        assert_eq!(st.max_parallelism, 1);
        assert_eq!(st.avg_parallelism_x100, 100);
    }

    #[test]
    fn sharing_is_counted() {
        let inst = TaskGraphGenerator::new(3).generate(
            "share",
            &GraphConfig::standard(100),
            Architecture::zedboard_pr(),
        );
        let st = instance_stats(&inst);
        assert!(st.shared_impl_tasks >= 2, "15% share rate over 100 tasks");
    }
}
