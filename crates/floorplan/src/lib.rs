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
//! 2. [`solver`] counts, per region, its minimal rectangles and the fewest
//!    column segments of each kind any of them covers, reading only the
//!    minimal column runs. Disjoint rectangles cover disjoint segments, so
//!    when these minima sum past the fabric's segments of some kind the
//!    answer is `Infeasible` at once, with no candidate keyed, no search
//!    and no clock check;
//! 3. otherwise it packs each region's candidates into one order key each,
//!    sorted only as far as the greedy pre-passes over a bitset occupancy
//!    grid (`rows × ⌈cols/64⌉` words) read them. Only when every greedy
//!    pass fails are the lists sorted in full for a most-constrained-first
//!    backtracking search for a pairwise-disjoint selection, bounded by
//!    [`NODE_BUDGET`] nodes, where a node is one placement attempt. Every
//!    attempt re-checks the segment bound against the segments it would
//!    leave free, then narrows each unplaced region's domain of free
//!    candidates, and is undone without descending when some domain comes
//!    out empty (forward checking). A domain is a bitset over the region's
//!    sorted candidates, narrowed by a few word-wide ANDs against per-list
//!    overlap masks that are built only for the search.
//!
//! The search is exact: [`FloorplanOutcome::Infeasible`] is a proof, while
//! [`FloorplanOutcome::Timeout`] is returned when the node budget runs out
//! first, or the caller's token or the wall-clock backstop fires (callers
//! treat it as "not feasible now", exactly as the paper treats a
//! floorplanner failure).

#![warn(missing_docs)]

pub mod candidates;
mod occupancy;
pub mod rect;
pub mod render;
pub mod solver;

pub use rect::Rect;
pub use render::render_fabric;
pub use solver::{FloorplanOutcome, Floorplanner, FloorplannerConfig, QueryStats, NODE_BUDGET};
