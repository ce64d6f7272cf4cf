//! Experiment scale selection and the task-graph scaling study.
//!
//! The paper's protocol ran Gurobi-backed IS-k for minutes per instance on
//! a 2013 i7; our reproduction keeps the *protocol* and exposes two scales
//! so both CI (`smoke`) and a patient full run (`full`) are practical. The
//! qualitative shapes the paper reports hold at both scales.
//!
//! The second half of this module is the *task-graph axis* study behind
//! `BENCH_scaling.json` (the `scaling` binary): it streams generated
//! 1k–100k-task instances through the PA pipeline with the CSR/bitset fast
//! paths on, measures per-size throughput, phase-breakdown medians and
//! peak RSS, and compares against a committed baseline so cross-PR
//! performance regressions fail loudly instead of silently accumulating.

use std::time::{Duration, Instant};

use prfpga_baseline::IsKConfig;
use prfpga_dag::{reach, Dag, ReachIndex};
use prfpga_gen::{GraphConfig, SuiteConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, Platform, ProblemInstance};
use prfpga_sched::{Phase, SchedulerConfig};
use prfpga_sim::validate_schedule_sweep;
use serde::{Deserialize, Serialize};

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

/// Median per-phase wall-clock at one size, milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMs {
    /// Phase name (`impl_select`, `regions`, …).
    pub phase: String,
    /// Median wall-clock across the size's instances, milliseconds.
    pub ms: f64,
}

/// One size point of the scaling trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingEntry {
    /// Tasks per instance.
    pub tasks: usize,
    /// Instances measured at this size.
    pub instances: usize,
    /// Worker threads the instances were fanned out on (1 = serial; 0 in
    /// reports written before the field existed).
    #[serde(default)]
    pub threads: usize,
    /// PA-R iterations of the size's end-to-end run (0 = leg skipped).
    #[serde(default)]
    pub par_iterations: usize,
    /// Dependency edges of the first instance (corpus fingerprint).
    pub edges: usize,
    /// Median PA pipeline wall-clock per instance, milliseconds.
    pub sched_ms_median: f64,
    /// Scheduling throughput: total tasks / summed per-instance PA
    /// wall-clock. Summing per-instance times (not the fan-out's
    /// wall-clock) keeps the figure comparable across `--threads`.
    pub tasks_per_sec: f64,
    /// PA-R wall-clock for [`ScalingStudyConfig::par_iterations`]
    /// iterations on the first instance, milliseconds.
    pub par_ms: f64,
    /// Peak resident set (`VmHWM`) observed after this size, kB; 0 when
    /// the platform does not expose it. Monotonic per process — the study
    /// runs sizes ascending so each size's figure is attributable. It
    /// grows with `instances` run at once on `threads` and with the PA-R
    /// leg, so two entries compare only when those three match.
    pub peak_rss_kb: u64,
    /// Median per-phase breakdown of the PA runs.
    pub phase_ms_median: Vec<PhaseMs>,
}

/// DFS vs bitset-closure reachability microbenchmark at one size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachBench {
    /// Nodes in the probed DAG.
    pub tasks: usize,
    /// Random (from, to) probes timed per variant.
    pub queries: usize,
    /// Mean DFS cost per probe, nanoseconds.
    pub dfs_ns_per_query: f64,
    /// Mean closure-lookup cost per probe, nanoseconds.
    pub index_ns_per_query: f64,
    /// `dfs_ns_per_query / index_ns_per_query`.
    pub speedup: f64,
}

/// Partition quality at one size: PA's makespan on a real multi-fabric
/// platform vs the same graph on the platform's sum-capacity single-fabric
/// relaxation. The relaxation ignores partitioning and crossing latency
/// entirely, so it is the yardstick the partition heuristic is measured
/// against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionBench {
    /// Platform name (`dual-zedboard`).
    pub platform: String,
    /// Tasks in the probed instance.
    pub tasks: usize,
    /// PA makespan on the partitioned multi-fabric platform, ticks.
    pub makespan_partitioned: u64,
    /// PA makespan on the sum-capacity relaxation, ticks.
    pub makespan_relaxed: u64,
    /// `(partitioned / relaxed - 1) * 100`: the partition + crossing
    /// overhead in percent (can go negative — both runs are heuristic).
    pub overhead_pct: f64,
}

/// The persisted scaling trajectory (`BENCH_scaling.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingReport {
    /// Format tag for forward compatibility.
    pub schema: String,
    /// Per-size measurements, ascending task count.
    pub entries: Vec<ScalingEntry>,
    /// Reachability microbenchmarks (empty when skipped).
    pub reach: Vec<ReachBench>,
    /// Partition-quality probes (empty when skipped; absent in reports
    /// written before the multi-fabric axis existed).
    #[serde(default)]
    pub partition: Vec<PartitionBench>,
}

impl ScalingReport {
    /// Schema tag written by this version of the study.
    pub const SCHEMA: &'static str = "prfpga-scaling-v1";
}

/// Knobs of one scaling-study run.
#[derive(Debug, Clone)]
pub struct ScalingStudyConfig {
    /// Instances per size.
    pub instances: usize,
    /// PA-R iterations for the per-size end-to-end randomized run.
    pub par_iterations: usize,
    /// Scheduler configuration (CSR fast paths on by default).
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

fn median(values: &mut [f64]) -> f64 {
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

/// Measures one size point: PA over every instance of the corpus (fanned
/// out under `exec`), PA-R end-to-end on the first instance, every
/// schedule revalidated with the sweep-line validator (the quadratic
/// oracle is impractical at 50k+ tasks).
pub fn measure_scaling_entry(
    tasks: usize,
    config: &ScalingStudyConfig,
    exec: ExecPolicy,
) -> ScalingEntry {
    let instances = scaling_instances(tasks, config.instances);
    let results = parallel_map(&instances, exec, |_, inst| {
        let t0 = Instant::now();
        let r = prfpga_sched::PaScheduler::new(config.sched.clone())
            .schedule_detailed(inst)
            .expect("validated instance");
        let elapsed = t0.elapsed();
        validate_schedule_sweep(inst, &r.schedule).expect("PA schedule validates");
        (elapsed, r.trace)
    });

    let mut sched_ms: Vec<f64> = results.iter().map(|(e, _)| e.as_secs_f64() * 1e3).collect();
    let total_secs: f64 = results.iter().map(|(e, _)| e.as_secs_f64()).sum();
    let phase_ms_median = Phase::ALL
        .iter()
        .map(|&p| {
            let mut ms: Vec<f64> = results
                .iter()
                .map(|(_, t)| t.time(p).as_secs_f64() * 1e3)
                .collect();
            PhaseMs {
                phase: p.name().to_string(),
                ms: median(&mut ms),
            }
        })
        .collect();

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

    ScalingEntry {
        tasks,
        instances: instances.len(),
        threads: exec.threads(),
        par_iterations: config.par_iterations,
        edges: instances[0].graph.edges.len(),
        sched_ms_median: median(&mut sched_ms),
        tasks_per_sec: (tasks * instances.len()) as f64 / total_secs.max(1e-9),
        par_ms,
        peak_rss_kb: peak_rss_kb(),
        phase_ms_median,
    }
}

/// Measures one partition-quality point: PA on `tasks` tasks targeting
/// [`Platform::dual_zedboard`] (partition phase, per-fabric floorplanning
/// and crossing latencies) vs PA on the same graph and implementation
/// pool targeting the platform's sum-capacity relaxation device. Both
/// schedules are sweep-validated against their own instance.
pub fn partition_quality_bench(tasks: usize) -> PartitionBench {
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
    PartitionBench {
        platform: platform.name,
        tasks,
        makespan_partitioned,
        makespan_relaxed,
        overhead_pct: (makespan_partitioned as f64 / makespan_relaxed.max(1) as f64 - 1.0) * 100.0,
    }
}

/// Times DFS vs bitset-closure reachability over `queries` deterministic
/// pseudo-random probe pairs on one generated instance, verifying both
/// variants agree on every probe.
pub fn reach_microbench(tasks: usize, queries: usize) -> ReachBench {
    let inst = &scaling_instances(tasks, 1)[0];
    let dag = Dag::from_taskgraph(&inst.graph).expect("generated graphs are acyclic");
    let mut index = ReachIndex::new();
    index.sync(&dag, &dag.topo_order());

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
    ReachBench {
        tasks,
        queries,
        dfs_ns_per_query: dfs_ns,
        index_ns_per_query: index_ns,
        speedup: dfs_ns / index_ns.max(1e-9),
    }
}

/// Compares `current` against `baseline`: an error lists every size whose
/// throughput dropped more than `tolerance_pct` percent, or whose peak RSS
/// rose more than `tolerance_pct` percent (skipped when the baseline read
/// 0, i.e. the platform exposes no `VmHWM`). Peak RSS depends on how the
/// size was run, so a size measured with other instances, threads or PA-R
/// iterations than its baseline fails as not comparable. Sizes present
/// only on one side are ignored (the baseline pins CI sizes; deeper local
/// runs may carry more).
pub fn check_scaling_regression(
    baseline: &ScalingReport,
    current: &ScalingReport,
    tolerance_pct: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.tasks == base.tasks) else {
            continue;
        };
        let floor = base.tasks_per_sec * (1.0 - tolerance_pct / 100.0);
        if cur.tasks_per_sec < floor {
            failures.push(format!(
                "{} tasks: {:.0} tasks/s < {:.0} ({}% below baseline {:.0})",
                base.tasks, cur.tasks_per_sec, floor, tolerance_pct, base.tasks_per_sec
            ));
        }
        if base.peak_rss_kb == 0 {
            continue;
        }
        let setup = |e: &ScalingEntry| (e.instances, e.threads, e.par_iterations);
        if setup(cur) != setup(base) {
            failures.push(format!(
                "{} tasks: peak RSS not comparable, (instances, threads, PA-R iterations) \
                 are {:?} in the baseline and {:?} here (0 threads: not recorded)",
                base.tasks,
                setup(base),
                setup(cur)
            ));
            continue;
        }
        let ceiling = base.peak_rss_kb as f64 * (1.0 + tolerance_pct / 100.0);
        if cur.peak_rss_kb as f64 > ceiling {
            failures.push(format!(
                "{} tasks: peak RSS {} kB > {:.0} kB ({}% above baseline {} kB)",
                base.tasks, cur.peak_rss_kb, ceiling, tolerance_pct, base.peak_rss_kb
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
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

    /// A one-instance serial entry at `tasks` with throughput `tps` and
    /// peak RSS `rss_kb`.
    fn entry(tasks: usize, tps: f64, rss_kb: u64) -> ScalingEntry {
        ScalingEntry {
            tasks,
            instances: 1,
            threads: 1,
            par_iterations: 0,
            edges: 0,
            sched_ms_median: 0.0,
            tasks_per_sec: tps,
            par_ms: 0.0,
            peak_rss_kb: rss_kb,
            phase_ms_median: Vec::new(),
        }
    }

    fn report(entries: Vec<ScalingEntry>) -> ScalingReport {
        ScalingReport {
            schema: ScalingReport::SCHEMA.into(),
            entries,
            reach: Vec::new(),
            partition: Vec::new(),
        }
    }

    #[test]
    fn regression_check_flags_slowdowns_only() {
        let base = report(vec![entry(1000, 1000.0, 0), entry(10_000, 500.0, 0)]);
        // Within tolerance, faster, and baseline-only sizes all pass.
        let ok = report(vec![entry(1000, 810.0, 0), entry(10_000, 800.0, 0)]);
        assert!(check_scaling_regression(&base, &ok, 20.0).is_ok());
        // 21% below fails and names the size.
        let slow = report(vec![entry(1000, 790.0, 0), entry(10_000, 500.0, 0)]);
        let err = check_scaling_regression(&base, &slow, 20.0).unwrap_err();
        assert!(err.contains("1000 tasks"), "{err}");
        assert!(!err.contains("10000"), "{err}");
    }

    #[test]
    fn regression_check_flags_peak_rss_growth() {
        let base = report(vec![
            entry(1000, 1000.0, 10_000),
            entry(10_000, 1000.0, 50_000),
        ]);
        // Within tolerance, smaller, and an unreadable figure all pass.
        let ok = report(vec![entry(1000, 1000.0, 12_000), entry(10_000, 1000.0, 0)]);
        assert!(check_scaling_regression(&base, &ok, 20.0).is_ok());
        // 21% above fails and names the size.
        let fat = report(vec![
            entry(1000, 1000.0, 10_000),
            entry(10_000, 1000.0, 60_500),
        ]);
        let err = check_scaling_regression(&base, &fat, 20.0).unwrap_err();
        assert!(err.contains("10000 tasks: peak RSS 60500 kB"), "{err}");
        assert!(!err.contains("1000 tasks"), "{err}");
        // The same figure from three instances side by side on two threads
        // is not comparable ...
        let other = ScalingEntry {
            instances: 3,
            threads: 2,
            ..entry(1000, 1000.0, 10_000)
        };
        let err = check_scaling_regression(&base, &report(vec![other]), 20.0).unwrap_err();
        assert!(err.contains("1000 tasks: peak RSS not comparable"), "{err}");
        // ... unless the baseline has no figure: then only throughput counts.
        let no_rss = report(vec![entry(1000, 1000.0, 0)]);
        let other = ScalingEntry {
            par_iterations: 2,
            ..entry(1000, 1000.0, 10_000)
        };
        assert!(check_scaling_regression(&no_rss, &report(vec![other]), 20.0).is_ok());
    }

    #[test]
    fn scaling_report_round_trips_through_json() {
        let report = ScalingReport {
            schema: ScalingReport::SCHEMA.into(),
            entries: vec![ScalingEntry {
                tasks: 1000,
                instances: 3,
                threads: 2,
                par_iterations: 2,
                edges: 1500,
                sched_ms_median: 12.5,
                tasks_per_sec: 80_000.0,
                par_ms: 30.0,
                peak_rss_kb: 10_240,
                phase_ms_median: vec![PhaseMs {
                    phase: "regions".into(),
                    ms: 4.25,
                }],
            }],
            reach: vec![ReachBench {
                tasks: 1000,
                queries: 10_000,
                dfs_ns_per_query: 500.0,
                index_ns_per_query: 10.0,
                speedup: 50.0,
            }],
            partition: vec![PartitionBench {
                platform: "dual-zedboard".into(),
                tasks: 120,
                makespan_partitioned: 1100,
                makespan_relaxed: 1000,
                overhead_pct: 10.0,
            }],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScalingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // Reports written before the partition row existed still parse.
        let legacy = json.replace("\"partition\"", "\"_partition_gone\"");
        let back: ScalingReport = serde_json::from_str(&legacy).unwrap();
        assert!(back.partition.is_empty());
        // So do entries written before the run setup was recorded.
        let legacy = json.replace("\"threads\"", "\"_threads_gone\"");
        let back: ScalingReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.entries[0].threads, 0);
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
        assert_eq!(b.platform, "dual-zedboard");
        assert!(b.makespan_partitioned > 0 && b.makespan_relaxed > 0);
        assert!(b.overhead_pct.is_finite());
    }

    #[test]
    fn reach_microbench_runs_on_small_graph() {
        let b = reach_microbench(120, 500);
        assert_eq!(b.tasks, 120);
        assert!(b.dfs_ns_per_query > 0.0 && b.index_ns_per_query > 0.0);
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
