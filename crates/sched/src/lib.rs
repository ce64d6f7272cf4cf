//! # prfpga-sched
//!
//! The paper's contribution: resource-efficient scheduling of task graphs
//! onto SoCs with processor cores and a partially-reconfigurable FPGA.
//!
//! Two schedulers are provided:
//!
//! * [`PaScheduler`] — the fast deterministic heuristic (the paper's *PA*),
//!   an eight-phase pipeline (§V):
//!   implementation selection → critical path extraction → regions
//!   definition → software task balancing → start/end computation →
//!   software task mapping → reconfiguration scheduling → feasibility
//!   check (floorplanning, with capacity-shrinking restarts);
//! * [`PaRScheduler`] — the randomized variant (*PA-R*, §VI, Algorithm 1):
//!   the region-definition ordering for non-critical hardware tasks is
//!   randomized and the core pipeline re-runs under a time budget, keeping
//!   the best floorplan-feasible schedule.
//!
//! The guiding idea is *resource efficiency* (§IV): prefer hardware
//! implementations with a high execution-time-to-area ratio, because they
//! spread load over more, smaller reconfigurable regions — more hardware
//! parallelism, fewer and cheaper reconfigurations.
//!
//! ## Fidelity notes
//!
//! Decision-making follows the paper phase by phase (cost metric eq. 3,
//! efficiency index eq. 5, region rules of §V-C, balancing rule eq. 6,
//! mapping delay eq. 8). Two mechanical refinements are documented in
//! `DESIGN.md`: (1) the final timing realization (paper §V-G) is computed
//! by a discrete-event pass that serializes reconfigurations on the single
//! controller with critical-first priority — equivalent in spirit to the
//! paper's delay-propagation formulation but immune to its
//! reinvalidation corner cases; (2) eq. 8's `min` is read as `max` (the
//! published formula would make every delay non-positive, which
//! contradicts its surrounding text).

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod error;
pub mod exec;
pub mod metrics;
pub mod phases;
pub mod randomized;
pub mod repair;
pub mod state;
pub mod trace;

pub use config::{CostPolicy, OrderingPolicy, SchedulerConfig};
pub use driver::{PaResult, PaScheduler, VirtualTarget};
pub use error::SchedError;
pub use exec::{parallel_map, ExecPolicy};
pub use repair::{RepairConfig, RepairEngine, RepairError, RepairOutcome, RepairStats};
// The cancellation kernel lives in `prfpga-model` (so leaf crates can accept
// tokens without a dependency cycle) and is re-exported here as the
// scheduler-facing API surface.
pub use prfpga_model::{Budget, CancelToken, FakeClock};
pub use randomized::{ConvergencePoint, PaRResult, PaRScheduler};
pub use state::{SchedState, SchedWorkspace};
pub use trace::{Phase, PhaseTrace};
