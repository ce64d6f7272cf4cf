//! Scheduler configuration and ablation switches.

use std::time::Duration;

use prfpga_floorplan::FloorplannerConfig;

/// How hardware tasks are ordered during regions definition (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// The paper's PA ordering: critical tasks first, then by descending
    /// efficiency index (eq. 5) within each class.
    EfficiencyIndex,
    /// PA-R: critical tasks first by efficiency; *non-critical* tasks in a
    /// random order drawn from the given seed (§VI).
    RandomizedNonCritical(u64),
    /// Ablation: inverse efficiency ordering (worst-first) — demonstrates
    /// that the efficiency index carries signal.
    InverseEfficiency,
    /// Ablation: plain task-id order (no intelligence).
    TaskId,
}

/// Which terms of the implementation cost metric (eq. 3) are active.
/// Ablation switch; the paper always uses both terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostPolicy {
    /// Resource term + time term (the paper's metric).
    #[default]
    Full,
    /// Resource term only.
    ResourceOnly,
    /// Time term only (degenerates towards fastest-implementation-first,
    /// the behaviour the paper's Figure 1 warns about).
    TimeOnly,
}

/// Full configuration of the PA / PA-R schedulers.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Ordering of hardware tasks in regions definition.
    pub ordering: OrderingPolicy,
    /// Cost metric variant for implementation selection.
    pub cost_policy: CostPolicy,
    /// Whether phase D (software task balancing) runs.
    pub sw_balancing: bool,
    /// Floorplanner settings for the feasibility check.
    pub floorplan: FloorplannerConfig,
    /// Capacity shrink factor applied when the floorplanner rejects a
    /// solution, as `(numerator, denominator)`; the paper shrinks "by a
    /// constant factor".
    pub shrink_factor: (u64, u64),
    /// Maximum shrink-and-restart attempts before falling back to the
    /// all-software schedule.
    pub max_attempts: usize,
    /// Time budget for PA-R (ignored by the deterministic PA).
    pub time_budget: Duration,
    /// Maximum PA-R iterations regardless of budget (0 = unbounded). This
    /// keeps experiments reproducible: the harness fixes iterations, not
    /// wall-clock.
    pub max_iterations: usize,
    /// Seed for PA-R's ordering randomization.
    pub seed: u64,
    /// Module reuse (the paper's future-work extension): consecutive tasks
    /// in a region that share the same hardware implementation skip the
    /// intervening reconfiguration, and regions whose in-place module
    /// already matches are preferred during regions definition. Off by
    /// default — the paper's PA does not exploit reuse (§VII-A).
    pub module_reuse: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            ordering: OrderingPolicy::EfficiencyIndex,
            cost_policy: CostPolicy::Full,
            sw_balancing: true,
            floorplan: FloorplannerConfig::default(),
            shrink_factor: (85, 100),
            max_attempts: 8,
            time_budget: Duration::from_secs(2),
            max_iterations: 0,
            seed: 0xAC0_FFEE,
            module_reuse: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let c = SchedulerConfig::default();
        assert_eq!(c.ordering, OrderingPolicy::EfficiencyIndex);
        assert_eq!(c.cost_policy, CostPolicy::Full);
        assert!(c.sw_balancing);
        assert!(c.shrink_factor.0 < c.shrink_factor.1);
        assert!(c.max_attempts > 0);
    }
}
