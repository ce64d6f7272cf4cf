//! Structural analyses: level decomposition and parallelism profile.
//!
//! §VII-B of the paper observes that the improvement of the proposed
//! schedulers depends on how much parallelism the task graph exposes.
//! These helpers quantify that: the ASAP level of each node, the width of
//! each level, and the resulting average/maximum parallelism — used by the
//! generator's tests and by the experiment reports to characterize suites.

use crate::graph::{Dag, NodeId};

/// Level decomposition of a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelProfile {
    /// ASAP level (longest edge-count distance from any source) per node.
    pub level: Vec<u32>,
    /// Number of nodes on each level.
    pub widths: Vec<u32>,
}

impl LevelProfile {
    /// Computes the profile.
    pub fn new(dag: &Dag) -> LevelProfile {
        let mut level = vec![0u32; dag.len()];
        for v in dag.topo_order() {
            for &s in dag.succs(v) {
                level[s as usize] = level[s as usize].max(level[v as usize] + 1);
            }
        }
        let depth = level.iter().copied().max().map_or(0, |d| d + 1);
        let mut widths = vec![0u32; depth as usize];
        for &l in &level {
            widths[l as usize] += 1;
        }
        LevelProfile { level, widths }
    }

    /// Number of levels (0 for an empty DAG).
    pub fn depth(&self) -> usize {
        self.widths.len()
    }

    /// Maximum number of structurally parallel nodes.
    pub fn max_width(&self) -> u32 {
        self.widths.iter().copied().max().unwrap_or(0)
    }

    /// Average level width in hundredths (integer, reproducible):
    /// `100 * nodes / depth`.
    pub fn avg_width_x100(&self) -> u64 {
        if self.widths.is_empty() {
            return 0;
        }
        let nodes: u64 = self.widths.iter().map(|&w| w as u64).sum();
        nodes * 100 / self.widths.len() as u64
    }

    /// Level of one node.
    pub fn level_of(&self, v: NodeId) -> u32 {
        self.level[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_width_one() {
        let mut d = Dag::with_nodes(4);
        for i in 0..3 {
            d.add_edge(i, i + 1).unwrap();
        }
        let p = LevelProfile::new(&d);
        assert_eq!(p.depth(), 4);
        assert_eq!(p.max_width(), 1);
        assert_eq!(p.avg_width_x100(), 100);
        assert_eq!(p.level, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fork_join_profile() {
        // 0 -> {1,2,3} -> 4
        let mut d = Dag::with_nodes(5);
        for i in 1..=3 {
            d.add_edge(0, i).unwrap();
            d.add_edge(i, 4).unwrap();
        }
        let p = LevelProfile::new(&d);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.widths, vec![1, 3, 1]);
        assert_eq!(p.max_width(), 3);
        assert_eq!(p.avg_width_x100(), 166);
        assert_eq!(p.level_of(4), 2);
    }

    #[test]
    fn level_is_longest_path_not_shortest() {
        // 0 -> 1 -> 2 and 0 -> 2: node 2 sits at level 2.
        let mut d = Dag::with_nodes(3);
        d.add_edge(0, 1).unwrap();
        d.add_edge(1, 2).unwrap();
        d.add_edge(0, 2).unwrap();
        let p = LevelProfile::new(&d);
        assert_eq!(p.level, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_isolated() {
        assert_eq!(LevelProfile::new(&Dag::with_nodes(0)).depth(), 0);
        let p = LevelProfile::new(&Dag::with_nodes(3));
        assert_eq!(p.depth(), 1);
        assert_eq!(p.max_width(), 3);
    }
}
