//! The quality axis: the CPM lower bound every validated makespan is
//! divided by.

use prfpga_dag::{CpmAnalysis, Dag};
use prfpga_model::{ProblemInstance, Time};

/// Length of the critical path when every task runs its fastest
/// implementation and resources are unlimited — no valid schedule of
/// `inst` can finish earlier.
///
/// # Panics
/// When the task graph is cyclic or a task has no implementation; the
/// benchmark only feeds it instances that passed validation.
pub fn cpm_lower_bound(inst: &ProblemInstance) -> Time {
    let dag = Dag::from_taskgraph(&inst.graph).expect("validated task graphs are acyclic");
    let durations: Vec<Time> = inst
        .graph
        .task_ids()
        .map(|t| {
            inst.graph
                .task(t)
                .impls
                .iter()
                .map(|&i| inst.impls.get(i).time)
                .min()
                .expect("every task has an implementation")
        })
        .collect();
    CpmAnalysis::run(&dag, &durations).makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_gen::{GraphConfig, SuiteConfig, TaskGraphGenerator};
    use prfpga_model::Architecture;

    /// Longest path by Bellman-Ford-style relaxation over the edge list:
    /// no topological order, no CPM code.
    fn relaxation_bound(inst: &ProblemInstance) -> Time {
        let n = inst.graph.len();
        let dur: Vec<Time> = (0..n)
            .map(|t| {
                let node = &inst.graph.tasks[t];
                node.impls
                    .iter()
                    .map(|&i| inst.impls.get(i).time)
                    .min()
                    .unwrap()
            })
            .collect();
        let mut end = dur.clone();
        loop {
            let mut changed = false;
            for &(a, b) in &inst.graph.edges {
                let cand = end[a.index()] + dur[b.index()];
                if cand > end[b.index()] {
                    end[b.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        end.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn cpm_bound_matches_an_independent_recomputation() {
        let arch = Architecture::zedboard_pr();
        let suite = SuiteConfig {
            groups: vec![10, 40, 100],
            graphs_per_group: 4,
            seed: 7,
        };
        let mut insts: Vec<ProblemInstance> = suite.generate(&arch).concat();
        insts.push(TaskGraphGenerator::new(3).generate("big", &GraphConfig::standard(600), arch));
        for inst in &insts {
            let bound = cpm_lower_bound(inst);
            assert!(bound > 0, "{}", inst.name);
            assert_eq!(bound, relaxation_bound(inst), "{}", inst.name);
        }
    }
}
