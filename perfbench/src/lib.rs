//! The repository's benchmark: three workloads that drive the workspace
//! crates through their public API only, check every output, and report
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//!
//! * `paper-batch` — the paper's standard suite through PA, one instance
//!   at a time: JSON bytes in, sweep-validated schedule JSON out.
//! * `repair-stream` — standard-mix event traces through the repair
//!   engine on a 500-task committed baseline.
//! * `serve-mixed` — the daemon in-process on loopback TCP under seeded
//!   open-loop Poisson traffic.
//!
//! See `README.md` next to this crate for why each workload exists.

use std::collections::BTreeMap;
use std::time::Duration;

pub mod batch;
pub mod bound;
pub mod probe;
pub mod repair;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

pub use trace::Tracer;

/// End-to-end metrics with their units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("makespan_over_lb", "ratio"),
    ("deadline_hit_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units, in report order. Every traced run
/// reports all of them; a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("floorplan.ms", "ms"),
    ("floorplan.runs", "count"),
    ("floorplan.limit_ops_pct", "%"),
    ("floorplan.cache_hit_pct", "%"),
    ("sched.impl_select_ms", "ms"),
    ("sched.critical_path_ms", "ms"),
    ("sched.partition_ms", "ms"),
    ("sched.regions_ms", "ms"),
    ("sched.sw_balance_ms", "ms"),
    ("sched.sw_map_ms", "ms"),
    ("sched.reconf_ms", "ms"),
    ("sched.attempts", "count"),
    ("timeline.reservations", "count"),
    ("timeline.gap_queries", "count"),
    ("repair.apply_us", "us"),
    ("repair.frontier", "count"),
    ("repair.moved", "count"),
    ("repair.full_resolves", "count"),
    ("model.parse_ms", "ms"),
    ("model.encode_ms", "ms"),
    ("sim.validate_ms", "ms"),
    ("portfolio.win_pct.pa", "%"),
    ("portfolio.win_pct.pa-r", "%"),
    ("portfolio.win_pct.is-1", "%"),
    ("portfolio.win_pct.heft", "%"),
    ("portfolio.degraded_pct", "%"),
    ("server.outside_ms", "ms"),
    ("server.non_search_ms", "ms"),
    ("server.queue_peak", "count"),
    ("server.rejected", "count"),
    ("server.workspace_reuse_pct", "%"),
    ("gen.ms", "ms"),
    ("load.lag_ms", "ms"),
    ("load.samples", "count"),
    ("load.tail_pct", "%"),
    ("env.ref_ms", "ms"),
    ("self.harness_pct", "%"),
    ("self.model_pct", "%"),
    ("self.sched_pct", "%"),
    ("self.floorplan_pct", "%"),
    ("self.sim_pct", "%"),
    ("self.server_pct", "%"),
    ("self.transport_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Share of the root spans' summed wall-clock their leaf spans must
/// account for in a traced run; below it the run fails.
pub const COVERAGE_FLOOR_PCT: f64 = 95.0;

/// What one timed phase of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started.
    pub attempted: u64,
    /// Ops that ended in a typed error or an admission rejection.
    pub failed: u64,
    /// Correctness violations (invalid schedules, makespans below the
    /// bound, unexpected replies); any entry fails the run.
    pub violations: Vec<String>,
    /// Per-op latency of the ops that succeeded, ms.
    pub latencies_ms: Vec<f64>,
    /// Validated makespan over the CPM bound, one per checked schedule.
    pub ratios: Vec<f64>,
    /// Ops answered `ok` within their deadline (an op without one counts
    /// when it succeeds).
    pub on_time: u64,
    /// Ops that succeeded.
    pub completed: u64,
    /// Seconds `ops_per_s` divides by: the timed phase's wall-clock, but
    /// on `repair-stream` only the time spent replaying events.
    pub elapsed_s: f64,
    /// Per-layer metrics the workload measured (traced phases only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Name of the root spans coverage is checked on: one per op, or one
    /// per trace on `repair-stream`.
    pub root: &'static str,
    /// The phase's spans (traced phases only).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a correctness violation.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }
}

/// A workload after set-up, ready to run timed phases.
pub trait Workload {
    /// Runs one timed phase of `window` wall-clock, recording spans when
    /// `traced`. Ops start in the same order on every call.
    fn run(&mut self, window: Duration, traced: bool) -> Outcome;

    /// Input generation and serialization time of the set-up, ms.
    fn gen_ms(&self) -> f64;
}

/// Converts a duration to fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["paper-batch", "repair-stream", "serve-mixed"];

/// The seed a run uses when none is given: `SuiteConfig`'s default, so
/// `paper-batch` then runs exactly the paper's standard suite.
pub const DEFAULT_SEED: u64 = 0x5EED_2016;

/// How big the `repair-stream` inputs are; the other workloads run the
/// fixed paper suite at every size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `repair-stream`: tasks of the committed instance.
    pub repair_tasks: usize,
    /// `repair-stream`: distinct event traces.
    pub repair_traces: usize,
    /// `repair-stream`: events per trace.
    pub repair_events: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        repair_tasks: 500,
        repair_traces: 240,
        repair_events: 240,
    };

    /// Sizes small enough for a unit test.
    pub const TINY: Size = Size {
        repair_tasks: 120,
        repair_traces: 2,
        repair_events: 30,
    };
}

/// Sets `workload` up from `seed` for phases of up to `seconds`; `None`
/// for an unknown workload name.
pub fn setup(workload: &str, seed: u64, seconds: f64, size: &Size) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "paper-batch" => Box::new(batch::Batch::setup(seed)),
        "repair-stream" => Box::new(repair::RepairStream::setup(
            seed,
            size.repair_tasks,
            size.repair_traces,
            size.repair_events,
            size.repair_events / 4,
        )),
        "serve-mixed" => Box::new(serve::ServeMixed::setup(seed, seconds)),
        _ => return None,
    })
}
