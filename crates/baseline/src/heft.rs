//! HEFT-style list scheduler adapted to the PDR setting.
//!
//! Classic HEFT (Topcuoglu et al.) ranks tasks by *upward rank* — the
//! longest path to a sink using mean execution times — and assigns each,
//! in rank order, to the processor finishing it earliest. Here the
//! "processors" are the cores plus the reconfigurable fabric (existing
//! regions, with reconfiguration and module-reuse accounting, or a new
//! region while capacity lasts), reusing the option enumeration of
//! [`PartialSchedule`]. It is an extra baseline beyond the paper, cheap
//! and order-robust, useful to sanity-check both PA and IS-k.

use prfpga_dag::Dag;
use prfpga_model::{ProblemInstance, Schedule, TaskId, Time};

use crate::partial::PartialSchedule;

/// The HEFT-style scheduler.
#[derive(Debug, Clone, Default)]
pub struct HeftScheduler {
    /// Exploit module reuse when placing hardware tasks.
    pub module_reuse: bool,
}

impl HeftScheduler {
    /// Creates the scheduler (module reuse on).
    pub fn new() -> Self {
        HeftScheduler { module_reuse: true }
    }

    /// Schedules `inst` by upward-rank order + earliest-finish placement.
    pub fn schedule(&self, inst: &ProblemInstance) -> Result<Schedule, prfpga_sched::SchedError> {
        inst.validate()
            .map_err(|e| prfpga_sched::SchedError::InvalidInstance(e.to_string()))?;
        let dag = Dag::from_taskgraph(&inst.graph)
            .map_err(|_| prfpga_sched::SchedError::CyclicTaskGraph)?;
        let ranks = upward_ranks(inst, &dag);

        // Rank order, repaired to a topological order (highest rank first
        // among ready tasks).
        let mut indeg: Vec<u32> = (0..dag.len() as u32)
            .map(|v| dag.preds(v).len() as u32)
            .collect();
        let mut ready: Vec<TaskId> = inst
            .graph
            .task_ids()
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        // Like IS-k, HEFT opens every region on fabric 0.
        let mut ps = PartialSchedule::new(inst, inst.architecture.fabric(0));
        while !ready.is_empty() {
            let (pos, _) = ready
                .iter()
                .enumerate()
                .max_by_key(|(_, t)| (ranks[t.index()], std::cmp::Reverse(t.0)))
                .unwrap();
            let t = ready.swap_remove(pos);
            let options = ps.enumerate_options(t, self.module_reuse);
            let best = options
                .into_iter()
                .min_by_key(|o| (o.end, o.start))
                .expect("software fallback always offers an option");
            ps.apply(t, &best);
            for &s in dag.succs(t.0) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(TaskId(s));
                }
            }
        }
        Ok(ps.into_schedule())
    }
}

/// Upward ranks with mean execution time over each task's implementations.
fn upward_ranks(inst: &ProblemInstance, dag: &Dag) -> Vec<Time> {
    let mean: Vec<Time> = inst
        .graph
        .task_ids()
        .map(|t| {
            let impls = &inst.graph.task(t).impls;
            let sum: Time = impls.iter().map(|&i| inst.impls.get(i).time).sum();
            sum / impls.len() as Time
        })
        .collect();
    let mut rank = vec![0 as Time; dag.len()];
    for &v in dag.topo_order().iter().rev() {
        let best_succ = dag
            .succs(v)
            .iter()
            .map(|&s| rank[s as usize])
            .max()
            .unwrap_or(0);
        rank[v as usize] = mean[v as usize] + best_succ;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;
    use prfpga_sim::validate_schedule;

    #[test]
    fn produces_valid_schedules() {
        let heft = HeftScheduler::new();
        for (n, seed) in [(8usize, 3u64), (20, 5), (40, 7)] {
            let inst = TaskGraphGenerator::new(seed).generate(
                &format!("heft{n}"),
                &GraphConfig::standard(n),
                Architecture::zedboard(),
            );
            let s = heft.schedule(&inst).unwrap();
            validate_schedule(&inst, &s).expect("valid");
        }
    }

    #[test]
    fn valid_on_multi_fabric_platforms() {
        use prfpga_model::Platform;
        let heft = HeftScheduler::new();
        for platform in [Platform::alveo_u250(), Platform::dual_zedboard()] {
            let inst = TaskGraphGenerator::new(11).generate(
                "heft_multi",
                &GraphConfig::standard(120),
                Architecture::on_platform(2, platform),
            );
            let s = heft.schedule(&inst).unwrap();
            validate_schedule(&inst, &s).expect("valid");
        }
    }

    #[test]
    fn ranks_decrease_along_edges() {
        let inst = TaskGraphGenerator::new(11).generate(
            "rank",
            &GraphConfig::standard(15),
            Architecture::zedboard(),
        );
        let dag = Dag::from_taskgraph(&inst.graph).unwrap();
        let ranks = upward_ranks(&inst, &dag);
        for &(a, b) in &inst.graph.edges {
            assert!(ranks[a.index()] > ranks[b.index()]);
        }
    }

    #[test]
    fn determinism() {
        let inst = TaskGraphGenerator::new(13).generate(
            "det",
            &GraphConfig::standard(25),
            Architecture::zedboard(),
        );
        let heft = HeftScheduler::new();
        assert_eq!(heft.schedule(&inst).unwrap(), heft.schedule(&inst).unwrap());
    }
}
