//! Experiment scale selection and the task-graph scaling study.
//!
//! The paper's protocol ran Gurobi-backed IS-k for minutes per instance on
//! a 2013 i7; our reproduction keeps the *protocol* and exposes two scales
//! so both CI (`smoke`) and a patient full run (`full`) are practical. The
//! qualitative shapes the paper reports hold at both scales.
//!
//! The second half of this module is the *task-graph axis* study behind
//! `BENCH_scaling.json` (the `scaling` binary): it streams generated
//! 1k–100k-task instances through the PA pipeline, measures per-size
//! throughput, phase-breakdown medians and peak RSS as [`Row`]s of a
//! trajectory; its throughput and peak-RSS
//! gates make a regression against the committed baseline fail loudly
//! instead of accumulating silently.

use std::time::{Duration, Instant};

use prfpga_baseline::IsKConfig;
use prfpga_dag::{reach, Dag, ReachIndex};
use prfpga_gen::{GraphConfig, SuiteConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, Platform, ProblemInstance};
use prfpga_sched::{Phase, SchedulerConfig};
use prfpga_sim::validate_schedule_sweep;

use crate::trajectory::{Better, Gate, Metric, Row};
use prfpga_sched::exec::{parallel_map, ExecPolicy};

/// Which scale the harness runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced suite, trimmed IS-5 node budget. Minutes, not hours.
    Smoke,
    /// The paper's full 10 groups x 10 graphs.
    Full,
}

impl Scale {
    /// Reads `PRFPGA_SCALE` (`smoke` | `full`), defaulting to smoke.
    pub fn from_env() -> Scale {
        match std::env::var("PRFPGA_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Smoke,
        }
    }

    /// Materializes the knob settings for this scale.
    pub fn config(self) -> ScaleConfig {
        match self {
            Scale::Smoke => ScaleConfig {
                suite: SuiteConfig {
                    groups: (1..=10).map(|g| g * 10).collect(),
                    graphs_per_group: 3,
                    seed: 0x5EED_2016,
                },
                is5: IsKConfig {
                    node_budget: 20_000,
                    ..IsKConfig::is5()
                },
                fig6_budget: Duration::from_secs(3),
                fig6_sizes: vec![20, 40, 60, 80, 100],
                par_min_budget: Duration::from_millis(50),
            },
            Scale::Full => ScaleConfig {
                suite: SuiteConfig::default(),
                is5: IsKConfig {
                    node_budget: 300_000,
                    ..IsKConfig::is5()
                },
                fig6_budget: Duration::from_secs(30),
                fig6_sizes: vec![20, 40, 60, 80, 100],
                par_min_budget: Duration::from_millis(200),
            },
        }
    }
}

/// Materialized knobs for one scale.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Benchmark suite shape.
    pub suite: SuiteConfig,
    /// IS-5 configuration (node budget is the lever).
    pub is5: IsKConfig,
    /// PA-R budget for the Fig. 6 convergence study.
    pub fig6_budget: Duration,
    /// Task counts for Fig. 6.
    pub fig6_sizes: Vec<usize>,
    /// Floor for the time-matched PA-R budget in Fig. 5 (an IS-5 run can
    /// finish in microseconds on tiny graphs; PA-R still deserves a few
    /// iterations, as the paper always grants it at least one).
    pub par_min_budget: Duration,
}

// ---------------------------------------------------------------------------
// Task-graph scaling study (`BENCH_scaling.json`).
// ---------------------------------------------------------------------------

/// Seed of the scaling corpus; instances are a pure function of
/// `(SCALING_SEED, tasks, index)`, so every run measures identical work.
pub const SCALING_SEED: u64 = 0x5CA_1E06;

/// The scaling study's CI gates: per-size throughput and peak RSS.
pub const SCALING_GATES: &[Gate] = &[
    Gate {
        metric: "tasks_per_sec",
        better: Better::Higher,
    },
    Gate {
        metric: "peak_rss_kb",
        better: Better::Lower,
    },
];

/// Knobs of one scaling-study run.
#[derive(Debug, Clone)]
pub struct ScalingStudyConfig {
    /// Instances per size.
    pub instances: usize,
    /// PA-R iterations for the per-size end-to-end randomized run.
    pub par_iterations: usize,
    /// Scheduler configuration (PA's defaults unless overridden).
    pub sched: SchedulerConfig,
}

impl Default for ScalingStudyConfig {
    fn default() -> Self {
        ScalingStudyConfig {
            instances: 3,
            par_iterations: 2,
            sched: SchedulerConfig::default(),
        }
    }
}

/// Generates the deterministic corpus for one size.
pub fn scaling_instances(tasks: usize, count: usize) -> Vec<ProblemInstance> {
    let generator = TaskGraphGenerator::new(SCALING_SEED);
    (0..count)
        .map(|i| {
            generator.generate(
                &format!("scale_{tasks}_{i}"),
                &GraphConfig::standard(tasks),
                Architecture::zedboard_pr(),
            )
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process in kB; 0 when unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

pub(crate) fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One unmeasured PA run on a small corpus instance, priming page tables,
/// allocator arenas and code paths so a fresh process's first *measured*
/// run is not 20%+ slower than steady state — enough, on sub-second
/// sizes, to trip the CI throughput gate without any real regression.
pub fn warmup_run() {
    let inst = &scaling_instances(1000, 1)[0];
    let r = prfpga_sched::PaScheduler::new(SchedulerConfig::default())
        .schedule(inst)
        .expect("validated instance");
    std::hint::black_box(r);
}

/// PA runs timed per instance. Each instance reports its median run: at
/// 1k tasks one run takes a few ms, and the host's run-to-run spread is
/// wider than the CI gate's 20%.
pub const SCALING_REPEATS: usize = 5;

/// Measures one size point, row `"<tasks> tasks"`: PA over every instance
/// of the corpus (fanned out under `exec`), [`SCALING_REPEATS`] timed runs
/// per instance, PA-R end-to-end on the first instance, every schedule
/// revalidated with the sweep-line validator (the quadratic oracle is
/// impractical at 50k+ tasks).
///
/// The setup is `instances`, `threads` (1 = serial), `par_iterations`
/// (0 = PA-R leg skipped) and `repeats`: peak RSS grows with the instances
/// run at once and with the PA-R leg. The metrics are `edges` of the first
/// instance (corpus fingerprint), `sched_ms_median` (median over instances
/// of each instance's median PA wall-clock), `tasks_per_sec` (total tasks
/// over the *summed* per-instance median PA wall-clock, so comparable
/// across thread counts), `par_ms` (the PA-R leg), `peak_rss_kb` (`VmHWM`
/// after this size, 0 when the platform does not expose it; monotonic per
/// process, so sizes run ascending) and one `phase_ms/<phase>` per
/// pipeline phase (median over instances of each instance's median).
pub fn measure_scaling_row(tasks: usize, config: &ScalingStudyConfig, exec: ExecPolicy) -> Row {
    let instances = scaling_instances(tasks, config.instances);
    let pa = prfpga_sched::PaScheduler::new(config.sched.clone());
    // Per instance: the median PA wall-clock and the median of each phase,
    // in ms.
    let results = parallel_map(&instances, exec, |_, inst| {
        let mut total = Vec::new();
        let mut phases = vec![Vec::new(); Phase::COUNT];
        for run in 0..SCALING_REPEATS {
            let t0 = Instant::now();
            let r = pa.schedule_detailed(inst).expect("validated instance");
            total.push(t0.elapsed().as_secs_f64() * 1e3);
            for (ms, &p) in phases.iter_mut().zip(&Phase::ALL) {
                ms.push(r.trace.time(p).as_secs_f64() * 1e3);
            }
            // PA is deterministic: the first schedule stands for every run.
            if run == 0 {
                validate_schedule_sweep(inst, &r.schedule).expect("PA schedule validates");
            }
        }
        let phases: Vec<f64> = phases.iter_mut().map(|ms| median(ms)).collect();
        (median(&mut total), phases)
    });

    let mut sched_ms: Vec<f64> = results.iter().map(|(ms, _)| *ms).collect();
    let total_secs: f64 = sched_ms.iter().sum::<f64>() / 1e3;

    // PA-R end-to-end (bounded iterations, reproducible) on instance 0;
    // `par_iterations: 0` skips the leg (CI's trimmed smoke run).
    let par_ms = if config.par_iterations == 0 {
        0.0
    } else {
        let t0 = Instant::now();
        let par = prfpga_sched::PaRScheduler::new(SchedulerConfig {
            time_budget: Duration::from_secs(3600),
            max_iterations: config.par_iterations,
            ..config.sched.clone()
        })
        .schedule_detailed(&instances[0])
        .expect("validated instance");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        validate_schedule_sweep(&instances[0], &par.schedule).expect("PA-R schedule validates");
        ms
    };

    let mut row = Row::new(
        format!("{tasks} tasks"),
        &[
            ("instances", instances.len() as f64),
            ("threads", exec.threads() as f64),
            ("par_iterations", config.par_iterations as f64),
            ("repeats", SCALING_REPEATS as f64),
        ],
        &[
            ("edges", instances[0].graph.edges.len() as f64),
            ("sched_ms_median", median(&mut sched_ms)),
            (
                "tasks_per_sec",
                (tasks * instances.len()) as f64 / total_secs.max(1e-9),
            ),
            ("par_ms", par_ms),
            ("peak_rss_kb", peak_rss_kb() as f64),
        ],
    );
    row.metrics.extend(Phase::ALL.iter().map(|&p| {
        let mut ms: Vec<f64> = results.iter().map(|(_, t)| t[p.index()]).collect();
        Metric {
            name: format!("phase_ms/{}", p.name()),
            value: median(&mut ms),
        }
    }));
    row
}

/// Measures one partition-quality point, row `"partition <tasks> tasks on
/// dual-zedboard"`: PA on `tasks` tasks targeting
/// [`Platform::dual_zedboard`] (partition phase, per-fabric floorplanning
/// and crossing latencies) vs PA on the same graph and implementation
/// pool targeting the platform's sum-capacity relaxation device, which
/// ignores partitioning and crossing latency entirely. Both schedules are
/// sweep-validated against their own instance. `overhead_pct` is
/// `(partitioned / relaxed - 1) * 100` (can go negative — both runs are
/// heuristic).
pub fn partition_quality_bench(tasks: usize) -> Row {
    let platform = Platform::dual_zedboard();
    let generator = TaskGraphGenerator::new(SCALING_SEED);
    let mf = generator.generate(
        &format!("part_{tasks}"),
        &GraphConfig::standard(tasks),
        Architecture::on_platform(2, platform.clone()),
    );
    // The relaxation reuses the multi-fabric instance's graph and pool so
    // both runs schedule identical work; only the target differs.
    let relaxed = ProblemInstance::new(
        format!("part_{tasks}_relaxed"),
        Architecture::new(2, platform.relaxation_device()),
        mf.graph.clone(),
        mf.impls.clone(),
    )
    .expect("relaxation only grows capacity");

    let run = |inst: &ProblemInstance| -> u64 {
        let s = prfpga_sched::PaScheduler::new(SchedulerConfig::default())
            .schedule(inst)
            .expect("validated instance");
        validate_schedule_sweep(inst, &s).expect("PA schedule validates");
        s.makespan()
    };
    let makespan_partitioned = run(&mf);
    let makespan_relaxed = run(&relaxed);
    Row::new(
        format!("partition {tasks} tasks on {}", platform.name),
        &[],
        &[
            ("makespan_partitioned", makespan_partitioned as f64),
            ("makespan_relaxed", makespan_relaxed as f64),
            (
                "overhead_pct",
                (makespan_partitioned as f64 / makespan_relaxed.max(1) as f64 - 1.0) * 100.0,
            ),
        ],
    )
}

/// Times DFS vs bitset-closure reachability over `queries` deterministic
/// pseudo-random probe pairs on one generated instance, verifying both
/// variants agree on every probe. Row `"reach <tasks> tasks"`: mean ns
/// per probe of each variant and their ratio, `speedup`.
pub fn reach_microbench(tasks: usize, queries: usize) -> Row {
    let inst = &scaling_instances(tasks, 1)[0];
    let dag = Dag::from_taskgraph(&inst.graph).expect("generated graphs are acyclic");
    let mut index = ReachIndex::new();
    index.sync(&dag);

    // Deterministic probe pairs (splitmix-style mix, no external RNG).
    let n = dag.len() as u64;
    let pairs: Vec<(u32, u32)> = (0..queries as u64)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ SCALING_SEED;
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            ((x % n) as u32, ((x >> 32) % n) as u32)
        })
        .collect();

    let t0 = Instant::now();
    let dfs_hits = pairs
        .iter()
        .filter(|&&(a, b)| reach::is_reachable(&dag, a, b))
        .count();
    let dfs_ns = t0.elapsed().as_secs_f64() * 1e9 / queries as f64;

    let t0 = Instant::now();
    let idx_hits = pairs.iter().filter(|&&(a, b)| index.query(a, b)).count();
    let index_ns = t0.elapsed().as_secs_f64() * 1e9 / queries as f64;

    assert_eq!(dfs_hits, idx_hits, "closure must agree with DFS");
    Row::new(
        format!("reach {tasks} tasks"),
        &[],
        &[
            ("queries", queries as f64),
            ("dfs_ns_per_query", dfs_ns),
            ("index_ns_per_query", index_ns),
            ("speedup", dfs_ns / index_ns.max(1e-9)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_smaller_than_full() {
        let s = Scale::Smoke.config();
        let f = Scale::Full.config();
        assert!(s.suite.graphs_per_group < f.suite.graphs_per_group);
        assert!(s.is5.node_budget < f.is5.node_budget);
        assert_eq!(
            s.suite.groups, f.suite.groups,
            "same group sizes, fewer graphs"
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn scaling_corpus_is_deterministic() {
        let a = scaling_instances(60, 2);
        let b = scaling_instances(60, 2);
        assert_eq!(a, b);
        assert_eq!(a[0].graph.len(), 60);
        assert_ne!(a[0].graph.edges, a[1].graph.edges, "distinct instances");
    }

    #[test]
    fn partition_bench_runs_on_small_graph() {
        let b = partition_quality_bench(30);
        assert_eq!(b.key, "partition 30 tasks on dual-zedboard");
        assert!(b.metric("makespan_partitioned").unwrap() > 0.0);
        assert!(b.metric("makespan_relaxed").unwrap() > 0.0);
        assert!(b.metric("overhead_pct").unwrap().is_finite());
    }

    #[test]
    fn reach_microbench_runs_on_small_graph() {
        let b = reach_microbench(120, 500);
        assert_eq!(b.key, "reach 120 tasks");
        assert!(b.metric("dfs_ns_per_query").unwrap() > 0.0);
        assert!(b.metric("index_ns_per_query").unwrap() > 0.0);
    }

    #[test]
    fn env_default_is_smoke() {
        // The variable is unlikely to be set in the test environment; if it
        // is, the assertion below still documents the mapping.
        if std::env::var("PRFPGA_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Smoke);
        }
    }
}
