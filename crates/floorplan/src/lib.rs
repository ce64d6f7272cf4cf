//! # prfpga-floorplan
//!
//! Floorplanning substrate: decides whether a set of reconfigurable regions
//! admits a feasible placement on a column-based FPGA fabric.
//!
//! The paper delegates this question to the MILP floorplanner of its
//! ref. \[3\] (Rabozzi et al., FCCM 2015) solved with Gurobi, *with no
//! objective function* — the scheduler only needs a yes/no answer within a
//! small time budget (§V-H). This crate reproduces that contract with an
//! exact combinatorial search:
//!
//! 1. [`candidates`] enumerates, per region, the *minimal feasible
//!    rectangles* on the fabric grid — every rectangle that satisfies the
//!    region's CLB/BRAM/DSP demand and is minimal in width for its column
//!    origin and row span (the "feasible placements detection" idea of
//!    ref. \[3\]);
//! 2. [`solver`] counts, per region, the fewest column segments of each
//!    kind any of its candidates covers. Disjoint rectangles cover
//!    disjoint segments, so when these minima sum past the fabric's
//!    segments of some kind the answer is `Infeasible` at once, with no
//!    search and no clock check;
//! 3. otherwise it sorts each region's candidates by one packed key, runs
//!    greedy pre-passes over a bitset occupancy grid (`rows × ⌈cols/64⌉`
//!    words), then a most-constrained-first backtracking search for a
//!    pairwise-disjoint selection, bounded by [`NODE_BUDGET`] nodes, where
//!    a node is one placement attempt. Every attempt re-checks the segment
//!    bound against the segments it would leave free, then narrows each
//!    unplaced region's domain of free candidates, and is undone without
//!    descending when some domain comes out empty (forward checking). A
//!    domain is a bitset over the region's sorted candidates, narrowed by
//!    a few word-wide ANDs against per-list overlap masks that are built
//!    only when every greedy pass has failed.
//!
//! The search is exact: [`FloorplanOutcome::Infeasible`] is a proof, while
//! [`FloorplanOutcome::Timeout`] is returned when the node budget runs out
//! first, or the caller's token or the wall-clock backstop fires (callers
//! treat it as "not feasible now", exactly as the paper treats a
//! floorplanner failure).

#![warn(missing_docs)]

pub mod cache;
pub mod candidates;
mod occupancy;
pub mod rect;
pub mod render;
pub mod solver;

pub use cache::{CacheStats, FeasibilityCache, DEFAULT_CACHE_CAPACITY};
pub use rect::Rect;
pub use render::render_fabric;
pub use solver::{FloorplanOutcome, Floorplanner, FloorplannerConfig, NODE_BUDGET};
