//! The standard benchmark suite of the paper's evaluation.

use serde::{Deserialize, Serialize};

use prfpga_model::{Architecture, Platform, ProblemInstance};

use crate::topology::{GraphConfig, TaskGraphGenerator};

/// Resolves a named generated profile `(tasks, seed, platform, cores)` to
/// its instance — the *canonical* resolution shared by the scheduling
/// server and its load generator, so a client that regenerates the
/// profile locally (e.g. to sweep-validate a response) is guaranteed the
/// byte-identical instance the server scheduled.
///
/// `platform` is a platform-catalog name (`None` = `xc7z020`); a 1-fabric
/// platform gets the CLI's default sustained configuration throughput of
/// 400 bits/tick.
pub fn service_instance(
    tasks: usize,
    seed: u64,
    platform: Option<&str>,
    cores: usize,
) -> Result<ProblemInstance, String> {
    let name = platform.unwrap_or("xc7z020");
    let mut platform = Platform::by_name(name)?;
    if platform.num_fabrics() == 1 {
        platform.fabrics[0].rec_freq = 400;
    }
    Ok(TaskGraphGenerator::new(seed).generate(
        &format!("svc_t{tasks}_s{seed}"),
        &GraphConfig::standard(tasks),
        Architecture::on_platform(cores, platform),
    ))
}

/// Configuration of a benchmark suite: `groups` gives the task count of
/// each group, `graphs_per_group` the number of instances per group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// Task count per group (the paper: `[10, 20, ..., 100]`).
    pub groups: Vec<usize>,
    /// Instances per group (the paper: 10).
    pub graphs_per_group: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            groups: (1..=10).map(|g| g * 10).collect(),
            graphs_per_group: 10,
            seed: 0x5EED_2016,
        }
    }
}

impl SuiteConfig {
    /// A reduced suite for fast CI runs: 4 groups x 3 graphs.
    pub fn smoke() -> Self {
        SuiteConfig {
            groups: vec![10, 20, 40, 60],
            graphs_per_group: 3,
            seed: 0x5EED_2016,
        }
    }

    /// Generates the suite against `architecture`: one `Vec` of instances
    /// per group, in group order. Fully deterministic.
    pub fn generate(&self, architecture: &Architecture) -> Vec<Vec<ProblemInstance>> {
        self.groups
            .iter()
            .map(|&n| {
                (0..self.graphs_per_group)
                    .map(|i| {
                        let seed = self
                            .seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((n as u64) << 16)
                            .wrapping_add(i as u64);
                        TaskGraphGenerator::new(seed).generate(
                            &format!("g{n}_i{i}"),
                            &GraphConfig::standard(n),
                            architecture.clone(),
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

/// The paper's full evaluation suite on the ZedBoard (at the effective
/// 50 MB/s configuration throughput): 10 groups x 10 pseudo-random graphs
/// with 10..100 tasks.
pub fn standard_suite() -> Vec<Vec<ProblemInstance>> {
    SuiteConfig::default().generate(&Architecture::zedboard_pr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_shape() {
        let suite = SuiteConfig::smoke().generate(&Architecture::zedboard());
        assert_eq!(suite.len(), 4);
        for (gi, group) in suite.iter().enumerate() {
            assert_eq!(group.len(), 3);
            for inst in group {
                assert_eq!(inst.graph.len(), SuiteConfig::smoke().groups[gi]);
            }
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = SuiteConfig::smoke().generate(&Architecture::zedboard());
        let b = SuiteConfig::smoke().generate(&Architecture::zedboard());
        assert_eq!(a, b);
    }

    #[test]
    fn groups_differ_and_instances_differ() {
        let suite = SuiteConfig::smoke().generate(&Architecture::zedboard());
        assert_ne!(suite[0][0], suite[0][1]);
        assert_ne!(suite[0][0].graph, suite[1][0].graph);
    }

    #[test]
    fn standard_suite_is_paper_shaped() {
        // Only build the config (generating all 100 graphs here would slow
        // the unit-test run; the integration tests and harness do that).
        let cfg = SuiteConfig::default();
        assert_eq!(cfg.groups, vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(cfg.graphs_per_group, 10);
    }
}
