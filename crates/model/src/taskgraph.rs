//! Application task graphs.
//!
//! A [`TaskGraph`] is the DAG `G = (T, E)` of §III: nodes are application
//! tasks, arcs are data dependencies. Each task references its available
//! implementations in the instance's [`ImplPool`](crate::ImplPool).
//!
//! The struct here is a plain serializable description; algorithmic
//! machinery (topological order, CPM, delay propagation) lives in
//! `prfpga-dag`, which builds its indexed representation from this one.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::implementation::ImplId;

/// Index of a task inside its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an edge inside its [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// One application task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskNode {
    /// Debug/report label.
    pub name: String,
    /// Available implementations (`I_t`); must contain at least one
    /// software implementation per §III's standing assumption.
    pub impls: Vec<ImplId>,
}

/// The application DAG.
///
/// ```
/// use prfpga_model::{ImplId, TaskGraph};
///
/// let mut g = TaskGraph::new();
/// let producer = g.add_task("producer", vec![ImplId(0)]);
/// let consumer = g.add_task("consumer", vec![ImplId(1)]);
/// g.add_edge_with_cost(producer, consumer, 250); // 250-tick transfer
/// assert!(g.validate_structure().is_ok());
/// assert_eq!(g.edge_cost(0), 250);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskGraph {
    /// Tasks, indexed by [`TaskId`].
    pub tasks: Vec<TaskNode>,
    /// Dependency arcs `(from, to)`: `to` consumes data produced by `from`.
    pub edges: Vec<(TaskId, TaskId)>,
    /// Optional per-edge communication cost in ticks, aligned with
    /// `edges`; missing entries mean zero. The cost is charged when the
    /// producer and consumer are *not* co-located on the same core or
    /// region (the §VIII future-work extension — the paper's base model
    /// folds communication into execution times, i.e. all zeros).
    #[serde(default)]
    pub edge_costs: Vec<crate::time::Time>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, impls: Vec<ImplId>) -> TaskId {
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        self.tasks.push(TaskNode {
            name: name.into(),
            impls,
        });
        id
    }

    /// Adds a dependency arc (zero communication cost); duplicates are
    /// allowed in the description and deduplicated by the DAG substrate.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> EdgeId {
        self.add_edge_with_cost(from, to, 0)
    }

    /// Adds a dependency arc carrying `cost` ticks of communication when
    /// its endpoints are not co-located.
    pub fn add_edge_with_cost(
        &mut self,
        from: TaskId,
        to: TaskId,
        cost: crate::time::Time,
    ) -> EdgeId {
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        // Keep edge_costs aligned even if earlier edges were added through
        // deserialized descriptions that omitted the field.
        while self.edge_costs.len() < self.edges.len() {
            self.edge_costs.push(0);
        }
        self.edges.push((from, to));
        self.edge_costs.push(cost);
        id
    }

    /// Communication cost of edge `i` (zero when unspecified).
    #[inline]
    pub fn edge_cost(&self, i: usize) -> crate::time::Time {
        self.edge_costs.get(i).copied().unwrap_or(0)
    }

    /// Iterates `(from, to, cost)` triples.
    pub fn edges_with_costs(
        &self,
    ) -> impl Iterator<Item = (TaskId, TaskId, crate::time::Time)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (a, b, self.edge_cost(i)))
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Looks up a task.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id.index()]
    }

    /// Structural sanity: edge endpoints in range, no self-loops, no
    /// dependency cycles, and every task has at least one implementation.
    pub fn validate_structure(&self) -> Result<(), ModelError> {
        let n = self.tasks.len() as u32;
        for &(a, b) in &self.edges {
            if a.0 >= n || b.0 >= n {
                return Err(ModelError::DanglingEdge { from: a.0, to: b.0 });
            }
            if a == b {
                return Err(ModelError::SelfLoop { task: a.0 });
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.impls.is_empty() {
                return Err(ModelError::NoImplementations { task: i as u32 });
            }
        }
        // Kahn's algorithm over flat successor lists (task `v`'s are
        // `targets[offsets[v]..offsets[v + 1]]`): if not every task
        // drains, the arcs carry a cycle. Duplicate edges inflate
        // in-degrees symmetrically, which is fine.
        let n = n as usize;
        let mut indeg = vec![0u32; n];
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &self.edges {
            indeg[b.index()] += 1;
            offsets[a.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; self.edges.len()];
        for &(a, b) in &self.edges {
            targets[fill[a.index()] as usize] = b.0;
            fill[a.index()] += 1;
        }
        let mut ready: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut drained = 0;
        while let Some(v) = ready.pop() {
            drained += 1;
            let v = v as usize;
            for &s in &targets[offsets[v] as usize..offsets[v + 1] as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if drained != n {
            return Err(ModelError::Cycle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imp(i: u32) -> Vec<ImplId> {
        vec![ImplId(i)]
    }

    #[test]
    fn build_and_validate() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", imp(0));
        let b = g.add_task("b", imp(1));
        g.add_edge(a, b);
        assert_eq!(g.len(), 2);
        assert!(g.validate_structure().is_ok());
        assert_eq!(g.task(a).name, "a");
        assert_eq!(g.task_ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", imp(0));
        g.add_edge(a, a);
        assert!(matches!(
            g.validate_structure(),
            Err(ModelError::SelfLoop { task: 0 })
        ));
    }

    #[test]
    fn rejects_dangling_edge() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", imp(0));
        g.add_edge(a, TaskId(7));
        assert!(matches!(
            g.validate_structure(),
            Err(ModelError::DanglingEdge { from: 0, to: 7 })
        ));
    }

    #[test]
    fn rejects_cycle() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", imp(0));
        let b = g.add_task("b", imp(1));
        let c = g.add_task("c", imp(2));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        assert!(matches!(g.validate_structure(), Err(ModelError::Cycle)));
    }

    #[test]
    fn rejects_implementation_free_task() {
        let mut g = TaskGraph::new();
        g.add_task("bare", vec![]);
        assert!(matches!(
            g.validate_structure(),
            Err(ModelError::NoImplementations { task: 0 })
        ));
    }
}
