//! # prfpga
//!
//! Umbrella crate for the `prfpga` workspace: a from-scratch, open-source
//! reproduction of *"Resource-Efficient Scheduling for
//! Partially-Reconfigurable FPGA-based Systems"* (Purgato, Tantillo,
//! Rabozzi, Sciuto, Santambrogio — IPDPS Workshops 2016).
//!
//! The workspace provides:
//!
//! * [`model`] — the problem vocabulary (devices, resources, task graphs,
//!   implementations, schedules);
//! * [`dag`] — the dependency-graph substrate (topological order, CPM time
//!   windows, cycle-safe sequencing arcs);
//! * [`timeline`] — the typed lane-reservation kernel (core / region /
//!   reconfiguration-controller lanes, gap queries, snapshot/rollback)
//!   shared by the schedulers, the baselines and the simulator;
//! * [`floorplan`] — a tile-grid fabric model and an exact feasibility
//!   floorplanner standing in for the MILP floorplanner of the paper's
//!   ref. \[3\];
//! * [`sched`] — the paper's contribution: the deterministic PA scheduler
//!   and the randomized PA-R variant;
//! * [`baseline`] — the IS-k iterative exact scheduler (paper ref. \[6\]) and
//!   a HEFT-style list scheduler for comparison;
//! * [`portfolio`] — a deadline-aware driver racing PA, PA-R and IS-k under
//!   one cooperative cancellation token, with anytime (degraded) results;
//! * [`sim`] — an independent schedule validator, discrete-event executor
//!   and ASCII Gantt renderer;
//! * [`gen`] — the seeded synthetic benchmark-suite generator reproducing
//!   the paper's evaluation workload.
//!
//! ## Quickstart
//!
//! ```
//! use prfpga::prelude::*;
//!
//! // Build the paper's Figure-1 style toy application.
//! let mut impls = ImplPool::new();
//! let sw = impls.add(Implementation::software("t1_sw", 10_000));
//! let hw_fast = impls.add(Implementation::hardware(
//!     "t1_fast", 400, ResourceVec::new(4000, 40, 80)));
//! let hw_eff = impls.add(Implementation::hardware(
//!     "t1_eff", 900, ResourceVec::new(900, 8, 10)));
//! let mut graph = TaskGraph::new();
//! let t1 = graph.add_task("t1", vec![sw, hw_fast, hw_eff]);
//! let t2 = graph.add_task("t2", vec![sw, hw_eff]);
//! graph.add_edge(t1, t2);
//!
//! let instance = ProblemInstance::new(
//!     "toy", Architecture::zedboard(), graph, impls).unwrap();
//!
//! // Schedule with the deterministic PA heuristic...
//! let schedule = PaScheduler::new(SchedulerConfig::default())
//!     .schedule(&instance)
//!     .expect("feasible schedule");
//!
//! // ...and check it with the independent validator.
//! validate_schedule(&instance, &schedule).expect("valid schedule");
//! assert!(schedule.makespan() > 0);
//! ```

pub use prfpga_baseline as baseline;
pub use prfpga_dag as dag;
pub use prfpga_floorplan as floorplan;
pub use prfpga_gen as gen;
pub use prfpga_model as model;
pub use prfpga_portfolio as portfolio;
pub use prfpga_sched as sched;
pub use prfpga_sim as sim;
pub use prfpga_timeline as timeline;

/// Convenient glob-import surface covering the common API.
pub mod prelude {
    pub use prfpga_baseline::{HeftScheduler, IsKScheduler};
    pub use prfpga_gen::{EventConfig, EventTraceGenerator, SuiteConfig, TaskGraphGenerator};
    pub use prfpga_model::{
        Architecture, Device, EventTrace, FabricId, ImplId, ImplKind, ImplPool, Implementation,
        Placement, Platform, ProblemInstance, Reconfiguration, Region, RegionId, ResourceKind,
        ResourceVec, Schedule, ScheduleEvent, TaskGraph, TaskId, Time, TimeWindow,
    };
    pub use prfpga_portfolio::{Member, Portfolio, PortfolioConfig};
    pub use prfpga_sched::{
        Budget, CancelToken, CostPolicy, FakeClock, OrderingPolicy, PaRScheduler, PaScheduler,
        RepairConfig, RepairEngine, RepairOutcome, SchedWorkspace, SchedulerConfig,
    };
    pub use prfpga_sim::{validate_schedule, validate_schedule_sweep};
}
