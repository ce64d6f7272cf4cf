//! Fabric partition: assigns every task to a fabric of the platform.
//!
//! Runs between phase B (CPM) and phase C (regions definition) on
//! multi-fabric platforms; on one fabric it is a no-op, so the paper's
//! single-device pipeline runs exactly phases A–H. The phase follows
//! the greedy-then-refine shape of integrated partitioning/scheduling
//! approaches (Chen et al., arXiv 1803.03748): partitioning decisions are
//! made *before* region formation so phases C/D can enforce per-fabric
//! capacity, instead of bolting a partition onto a finished schedule.
//!
//! * **Seed** — a min-cut-flavored banding of the level profile: tasks are
//!   walked grouped by weakly-connected component (components share no
//!   edges, so splitting *between* them is free) and, within a component,
//!   in CPM window order (`T_MIN`, then id), then dealt into contiguous
//!   bands, one per fabric, sized proportionally to each fabric's capacity
//!   share. Contiguous level bands cut few edges on layered DAGs: an edge
//!   crosses only when its endpoints straddle a band boundary inside one
//!   component.
//! * **Refine** — bounded deterministic improvement passes. A hardware
//!   task moves to the fabric minimizing the weighted cut of its incident
//!   edges; edge weights combine the crossing latency with the edge's data
//!   cost and are doubled when both endpoints are CPM-critical, so the
//!   refinement is scored by the same lower bound the rest of the pipeline
//!   optimizes against. Moves respect a per-fabric load budget
//!   (capacity-proportional share of the total chosen-implementation
//!   load, with one-task slack so refinement never deadlocks).
//!
//! The partition fixes `fabric_of` per task; phase C opens regions on the
//! opening task's fabric and never co-hosts tasks across fabrics. Phases
//! B–F otherwise ignore the crossing latency (the CPM lower bound is
//! node-weighted); phase G, the validator and the repair engine enforce it
//! on the realized schedule, so the partition's cut minimization is
//! heuristic slack, not a hard constraint.

use prfpga_model::TaskId;

use crate::state::SchedState;

/// Number of refinement passes; each is a full deterministic sweep.
const REFINE_PASSES: usize = 3;

/// Assigns every task a fabric in `state.fabric_of`. No-op on one fabric,
/// where `fabric_of` stays all zeros.
pub fn partition_tasks(state: &mut SchedState<'_>) {
    let nf = state.num_fabrics();
    if nf == 1 {
        return;
    }
    seed_bands(state, nf);
    refine(state, nf);
}

/// Scalar load a task puts on its fabric: total units of its chosen
/// implementation (zero for software tasks).
#[inline]
fn load(state: &SchedState<'_>, t: TaskId) -> u128 {
    state.chosen_res(t).total() as u128
}

/// Tasks in banding order: weakly-connected component first (cutting
/// between components is free), then CPM window start, then id.
fn level_order(state: &SchedState<'_>) -> Vec<TaskId> {
    let comp = component_keys(state);
    let mut order: Vec<TaskId> = state.inst.graph.task_ids().collect();
    order.sort_by_key(|&t| (comp[t.index()], state.window(t).min, t));
    order
}

/// Weakly-connected component label per task: the smallest task id in the
/// component (union-find with path halving).
fn component_keys(state: &SchedState<'_>) -> Vec<u32> {
    let n = state.inst.graph.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    for (from, to, _) in state.inst.graph.edges_with_costs() {
        let (a, b) = (find(&mut parent, from.0), find(&mut parent, to.0));
        // Union by id: the smaller id becomes the root, so roots double as
        // deterministic component keys.
        let (lo, hi) = (a.min(b), a.max(b));
        parent[hi as usize] = lo;
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// Cumulative capacity-proportional load target for fabrics `0..=f` (equal
/// shares when every capacity was shrunk to zero).
fn prefix_target(state: &SchedState<'_>, total_load: u128, nf: usize, f: usize) -> u128 {
    let caps: Vec<u128> = (0..nf)
        .map(|g| state.fabric_cap(g as u32).total() as u128)
        .collect();
    let total_cap: u128 = caps.iter().sum();
    if total_cap == 0 {
        return total_load * (f as u128 + 1) / nf as u128;
    }
    let prefix: u128 = caps[..=f].iter().sum();
    total_load * prefix / total_cap
}

fn seed_bands(state: &mut SchedState<'_>, nf: usize) {
    let order = level_order(state);
    let total_load: u128 = order.iter().map(|&t| load(state, t)).sum();
    let mut f = 0usize;
    let mut cum: u128 = 0;
    for &t in &order {
        while f < nf - 1 && cum >= prefix_target(state, total_load, nf, f) {
            f += 1;
        }
        state.fabric_of[t.index()] = f as u32;
        cum += load(state, t);
    }
}

/// Weight of edge `(u, v)` in the cut objective: what a crossing would add
/// to the lag phase G imposes (crossing latency plus the data cost the
/// same-fabric colocation could have avoided), doubled when both endpoints
/// are CPM-critical so the refinement protects the lower bound first.
fn edge_weight(state: &SchedState<'_>, u: TaskId, v: TaskId, cost: u64) -> u128 {
    let base = state.crossing_latency() as u128 + cost as u128;
    if state.is_critical(u) && state.is_critical(v) {
        base * 2
    } else {
        base
    }
}

fn refine(state: &mut SchedState<'_>, nf: usize) {
    let n = state.inst.graph.len();
    // Weighted adjacency over hardware-chosen task pairs (only those can
    // ever both land in regions and pay a crossing).
    let mut adj: Vec<Vec<(TaskId, u128)>> = vec![Vec::new(); n];
    for (from, to, cost) in state.inst.graph.edges_with_costs() {
        if !state.is_hw(from) || !state.is_hw(to) {
            continue;
        }
        let w = edge_weight(state, from, to, cost);
        if w == 0 {
            continue;
        }
        adj[from.index()].push((to, w));
        adj[to.index()].push((from, w));
    }

    // Per-fabric load accounting and capacity-proportional budgets.
    let order = level_order(state);
    let hw_tasks: Vec<TaskId> = order.iter().copied().filter(|&t| state.is_hw(t)).collect();
    let total_load: u128 = hw_tasks.iter().map(|&t| load(state, t)).sum();
    let max_single: u128 = hw_tasks.iter().map(|&t| load(state, t)).max().unwrap_or(0);
    let budget: Vec<u128> = (0..nf)
        .map(|f| {
            let lo = if f == 0 {
                0
            } else {
                prefix_target(state, total_load, nf, f - 1)
            };
            prefix_target(state, total_load, nf, f) - lo + max_single
        })
        .collect();
    let mut fabric_load: Vec<u128> = vec![0; nf];
    for &t in &hw_tasks {
        fabric_load[state.fabric_of[t.index()] as usize] += load(state, t);
    }

    for _ in 0..REFINE_PASSES {
        let mut moved = false;
        for &t in &hw_tasks {
            let a = state.fabric_of[t.index()] as usize;
            // Cut cost of hosting t on each fabric.
            let mut cut: Vec<u128> = vec![0; nf];
            for &(u, w) in &adj[t.index()] {
                let fu = state.fabric_of[u.index()] as usize;
                for (f, c) in cut.iter_mut().enumerate() {
                    if f != fu {
                        *c += w;
                    }
                }
            }
            let lt = load(state, t);
            let best = (0..nf)
                .filter(|&b| b == a || fabric_load[b] + lt <= budget[b])
                .min_by_key(|&b| (cut[b], b))
                .unwrap_or(a);
            if best != a && cut[best] < cut[a] {
                state.fabric_of[t.index()] = best as u32;
                fabric_load[a] -= lt;
                fabric_load[best] += lt;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricWeights;
    use prfpga_model::{
        Architecture, Device, ImplPool, Implementation, Platform, ProblemInstance, ResourceVec,
        TaskGraph,
    };

    /// Two independent chains of hw tasks; an ideal 2-fabric partition
    /// puts each chain on its own fabric (zero cut).
    fn two_chain_instance(platform: Platform) -> ProblemInstance {
        let mut impls = ImplPool::new();
        let mut graph = TaskGraph::new();
        for c in 0..2 {
            let mut prev = None;
            for i in 0..4 {
                let sw = impls.add(Implementation::software(format!("s{c}{i}"), 1000));
                let hw = impls.add(Implementation::hardware(
                    format!("h{c}{i}"),
                    100,
                    ResourceVec::new(500, 4, 2),
                ));
                let t = graph.add_task(format!("t{c}{i}"), vec![sw, hw]);
                if let Some(p) = prev {
                    graph.add_edge_with_cost(p, t, 10);
                }
                prev = Some(t);
            }
        }
        ProblemInstance::new(
            "chains",
            Architecture::on_platform(2, platform),
            graph,
            impls,
        )
        .unwrap()
    }

    fn all_hw_choice(inst: &ProblemInstance) -> Vec<prfpga_model::ImplId> {
        inst.graph
            .task_ids()
            .map(|t| inst.hw_impls(t).next().unwrap())
            .collect()
    }

    #[test]
    fn single_fabric_platform_stays_all_zero() {
        let inst = two_chain_instance(Platform::single(Device::xc7z020()));
        let weights = MetricWeights::new(&inst.architecture.device.max_res, 30);
        let mut st = SchedState::new(&inst, weights, all_hw_choice(&inst)).unwrap();
        partition_tasks(&mut st);
        assert!(st.fabric_of.iter().all(|&f| f == 0));
    }

    #[test]
    fn refinement_uncuts_independent_chains() {
        let inst = two_chain_instance(Platform::dual_zedboard());
        let weights = MetricWeights::new(&inst.architecture.device.max_res, 30);
        let mut st = SchedState::new(&inst, weights, all_hw_choice(&inst)).unwrap();
        partition_tasks(&mut st);
        // Both fabrics used (the seed splits by load) and no chain is cut:
        // every edge stays intra-fabric.
        for (from, to, _) in st.inst.graph.edges_with_costs() {
            assert_eq!(
                st.fabric_of[from.index()],
                st.fabric_of[to.index()],
                "edge {from:?}->{to:?} crosses fabrics"
            );
        }
        let used: std::collections::BTreeSet<u32> = st.fabric_of.iter().copied().collect();
        assert_eq!(used.len(), 2, "load balancing spreads the two chains");
    }

    #[test]
    fn partition_is_deterministic() {
        let inst = two_chain_instance(Platform::alveo_u250());
        let weights = MetricWeights::new(&inst.architecture.device.max_res, 30);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut st = SchedState::new(&inst, weights.clone(), all_hw_choice(&inst)).unwrap();
            partition_tasks(&mut st);
            runs.push(st.fabric_of.clone());
        }
        assert_eq!(runs[0], runs[1]);
    }
}
