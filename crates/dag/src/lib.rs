//! # prfpga-dag
//!
//! Dependency-graph substrate for the `prfpga` schedulers.
//!
//! The paper's algorithms keep mutating a task dependency graph: region
//! assignment inserts sequencing arcs between tasks sharing a reconfigurable
//! region (§V-C), software mapping inserts arcs between tasks sharing a core
//! (§V-F), and every implementation switch changes node durations and
//! requires the Critical Path Method windows to be recomputed (§V-B). This
//! crate provides exactly that machinery:
//!
//! * [`Dag`] — a compact adjacency-list DAG with cycle-safe dynamic edge
//!   insertion and cached topological order;
//! * [`CpmAnalysis`] — forward/backward CPM pass producing per-node
//!   time windows `[T_MIN, T_MAX]`, the schedule makespan and the critical
//!   set;
//! * [`reach`] — reachability queries used to avoid creating cycles when
//!   sequencing arcs are inserted: per-query DFS plus the cached bitset
//!   closure [`ReachIndex`] for the schedulers' probe-heavy loops.

#![warn(missing_docs)]

pub mod cpm;
pub mod graph;
pub mod levels;
pub mod reach;

pub use cpm::{CpmAnalysis, CpmScratch};
pub use graph::{CycleError, Dag, DagCheckpoint, NodeId, TopoScratch};
pub use levels::LevelProfile;
pub use reach::ReachIndex;
