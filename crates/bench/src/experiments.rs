//! Shared experiment drivers and section renderers used by the
//! per-figure binaries and by `all_experiments`.

use std::collections::BTreeMap;
use std::time::Duration;

use prfpga_baseline::IsKConfig;
use prfpga_model::ProblemInstance;
use prfpga_sched::{PaRScheduler, SchedulerConfig};

use crate::report::{improvement_pct, markdown_table, mean, sample_std, secs, GroupSummary};
use crate::runners::{run_heft, run_isk, run_pa, run_par_timed, InstanceResult};
use crate::scale::ScaleConfig;
use prfpga_sched::exec::{parallel_map, ExecPolicy};

/// The algorithms the suite driver can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    /// Deterministic PA.
    Pa,
    /// PA-R, time-matched to IS-5 (implies running IS-5).
    ParTimed,
    /// IS-1.
    Is1,
    /// IS-5.
    Is5,
    /// HEFT-style list scheduler.
    Heft,
}

/// Results of one group: per algorithm, one [`InstanceResult`] per graph.
#[derive(Debug, Clone, Default)]
pub struct GroupResults {
    /// Task count of this group.
    pub tasks: usize,
    /// Per-algorithm results, aligned with the group's instances.
    pub per_algo: BTreeMap<Algo, Vec<InstanceResult>>,
}

/// Results over the whole suite, in group order.
#[derive(Debug, Clone, Default)]
pub struct SuiteResults {
    /// One entry per group.
    pub groups: Vec<GroupResults>,
}

/// Runs the requested algorithms over the configured suite with the
/// executor picked by `PRFPGA_THREADS` (see [`ExecPolicy::from_env`]).
pub fn run_suite(cfg: &ScaleConfig, algos: &[Algo]) -> SuiteResults {
    run_suite_exec(cfg, algos, ExecPolicy::from_env())
}

/// Runs the requested algorithms over the configured suite under an
/// explicit execution policy. PA-R is time-matched: each instance's PA-R
/// budget equals the measured IS-5 time on that instance (floored at
/// `par_min_budget`), the paper's fairness protocol.
///
/// The work item is *one instance running all requested algorithms* — the
/// time-matching protocol needs the IS-5 wall-clock of an instance before
/// its PA-R run, so the (instance, algo) pairs of one instance stay on one
/// worker. Results merge back in suite order, making every derived table
/// independent of the thread count (timings aside).
pub fn run_suite_exec(cfg: &ScaleConfig, algos: &[Algo], exec: ExecPolicy) -> SuiteResults {
    let suite = cfg
        .suite
        .generate(&prfpga_model::Architecture::zedboard_pr());

    let mut out = SuiteResults::default();
    for group in &suite {
        let tasks = group.first().map_or(0, |i| i.graph.len());
        let mut gr = GroupResults {
            tasks,
            per_algo: BTreeMap::new(),
        };
        let per_instance = parallel_map(group, exec, |_, inst| run_instance(cfg, algos, inst));
        for results in per_instance {
            for (algo, r) in results {
                gr.per_algo.entry(algo).or_default().push(r);
            }
        }
        out.groups.push(gr);
    }
    out
}

/// Runs every requested algorithm on one instance, in the fixed
/// measurement order (PA, IS-1, IS-5, time-matched PA-R, HEFT).
fn run_instance(
    cfg: &ScaleConfig,
    algos: &[Algo],
    inst: &ProblemInstance,
) -> Vec<(Algo, InstanceResult)> {
    let need_is5 = algos.contains(&Algo::Is5) || algos.contains(&Algo::ParTimed);
    let pa_cfg = SchedulerConfig::default();
    let is1_cfg = IsKConfig::is1();

    let mut results = Vec::new();
    if algos.contains(&Algo::Pa) {
        results.push((Algo::Pa, run_pa(inst, &pa_cfg)));
    }
    if algos.contains(&Algo::Is1) {
        results.push((Algo::Is1, run_isk(inst, &is1_cfg)));
    }
    let mut is5_elapsed = Duration::ZERO;
    if need_is5 {
        let r = run_isk(inst, &cfg.is5);
        is5_elapsed = r.elapsed;
        results.push((Algo::Is5, r));
    }
    if algos.contains(&Algo::ParTimed) {
        let budget = is5_elapsed.max(cfg.par_min_budget);
        results.push((Algo::ParTimed, run_par_timed(inst, &pa_cfg, budget)));
    }
    if algos.contains(&Algo::Heft) {
        results.push((Algo::Heft, run_heft(inst)));
    }
    results
}

/// Table I: algorithm execution times per group.
pub fn table1_section(results: &SuiteResults) -> String {
    let mut rows = Vec::new();
    for g in &results.groups {
        let pa = &g.per_algo[&Algo::Pa];
        let avg = |f: &dyn Fn(&InstanceResult) -> Duration, rs: &[InstanceResult]| {
            rs.iter().map(f).sum::<Duration>() / rs.len().max(1) as u32
        };
        let pa_sched = avg(&|r: &InstanceResult| r.scheduling_time, pa);
        let pa_fp = avg(&|r: &InstanceResult| r.floorplanning_time, pa);
        let pa_tot = avg(&|r: &InstanceResult| r.elapsed, pa);
        let is1 = avg(&|r: &InstanceResult| r.elapsed, &g.per_algo[&Algo::Is1]);
        let is5 = avg(&|r: &InstanceResult| r.elapsed, &g.per_algo[&Algo::Is5]);
        let par = avg(
            &|r: &InstanceResult| r.elapsed,
            &g.per_algo[&Algo::ParTimed],
        );
        rows.push(vec![
            g.tasks.to_string(),
            secs(pa_sched),
            secs(pa_fp),
            secs(pa_tot),
            secs(is1),
            secs(par.max(is5)),
        ]);
    }
    format!(
        "### Table I — algorithm execution time [s]\n\n{}",
        markdown_table(
            &[
                "# Tasks",
                "PA scheduling",
                "PA floorplanning",
                "PA total",
                "IS-1",
                "PA-R / IS-5",
            ],
            &rows,
        )
    )
}

/// Figure 2: average schedule makespan per group and algorithm.
pub fn fig2_section(results: &SuiteResults) -> String {
    let mut rows = Vec::new();
    for g in &results.groups {
        let avg_mk = |algo: Algo| {
            let rs = &g.per_algo[&algo];
            mean(&rs.iter().map(|r| r.makespan as f64).collect::<Vec<_>>())
        };
        rows.push(vec![
            g.tasks.to_string(),
            format!("{:.0}", avg_mk(Algo::Pa)),
            format!("{:.0}", avg_mk(Algo::ParTimed)),
            format!("{:.0}", avg_mk(Algo::Is1)),
            format!("{:.0}", avg_mk(Algo::Is5)),
        ]);
    }
    format!(
        "### Figure 2 — average schedule makespan [ticks]\n\n{}",
        markdown_table(&["# Tasks", "PA", "PA-R", "IS-1", "IS-5"], &rows)
    )
}

/// Per-group improvement of `ours` over `baseline` (mean ± std), the shape
/// of Figures 3–5.
pub fn improvement_summaries(
    results: &SuiteResults,
    ours: Algo,
    baseline: Algo,
) -> Vec<GroupSummary> {
    results
        .groups
        .iter()
        .map(|g| {
            let o = &g.per_algo[&ours];
            let b = &g.per_algo[&baseline];
            let vals: Vec<f64> = o
                .iter()
                .zip(b.iter())
                .map(|(or_, br)| improvement_pct(br.makespan, or_.makespan))
                .collect();
            GroupSummary::from_values(g.tasks, &vals)
        })
        .collect()
}

/// Renders a Figures-3/4/5-style improvement section.
pub fn improvement_section(title: &str, summaries: &[GroupSummary]) -> String {
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.tasks.to_string(),
                format!("{:.1}", s.mean),
                format!("{:.1}", s.std),
            ]
        })
        .collect();
    let overall = mean(&summaries.iter().map(|s| s.mean).collect::<Vec<_>>());
    let overall_std = sample_std(&summaries.iter().map(|s| s.mean).collect::<Vec<_>>());
    format!(
        "### {title}\n\n{}\noverall average improvement: {:.1}% (std over groups {:.1})\n",
        markdown_table(&["# Tasks", "mean improvement %", "std %"], &rows),
        overall,
        overall_std
    )
}

/// Figure 6 data: PA-R convergence traces on one representative instance
/// per requested size.
pub fn fig6_traces(
    cfg: &ScaleConfig,
) -> Vec<(usize, Vec<prfpga_sched::randomized::ConvergencePoint>)> {
    let arch = prfpga_model::Architecture::zedboard_pr();
    let suite = cfg.suite.generate(&arch);
    let mut out = Vec::new();
    for &size in &cfg.fig6_sizes {
        let Some(group) = suite
            .iter()
            .find(|g| g.first().is_some_and(|i| i.graph.len() == size))
        else {
            continue;
        };
        let inst: &ProblemInstance = &group[0];
        let par = PaRScheduler::new(SchedulerConfig {
            time_budget: cfg.fig6_budget,
            max_iterations: 0,
            ..Default::default()
        });
        let r = par.schedule_detailed(inst).expect("valid instance");
        out.push((size, r.trace));
    }
    out
}

/// Renders the Figure 6 section.
pub fn fig6_section(traces: &[(usize, Vec<prfpga_sched::randomized::ConvergencePoint>)]) -> String {
    let mut out = String::from("### Figure 6 — PA-R best makespan over time\n\n");
    for (size, trace) in traces {
        out.push_str(&format!("instance with {size} tasks:\n\n"));
        let rows: Vec<Vec<String>> = trace
            .iter()
            .map(|p| {
                vec![
                    p.iteration.to_string(),
                    format!("{:.3}", p.elapsed.as_secs_f64()),
                    p.makespan.to_string(),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &["iteration", "elapsed [s]", "best makespan"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use prfpga_gen::SuiteConfig;

    fn tiny_cfg() -> ScaleConfig {
        let mut cfg = Scale::Smoke.config();
        cfg.suite = SuiteConfig {
            groups: vec![8, 12],
            graphs_per_group: 2,
            seed: 1,
        };
        cfg.is5.node_budget = 500;
        cfg.par_min_budget = Duration::from_millis(5);
        cfg.fig6_budget = Duration::from_millis(30);
        cfg.fig6_sizes = vec![8];
        cfg
    }

    #[test]
    fn run_suite_collects_requested_algorithms() {
        let cfg = tiny_cfg();
        let r = run_suite(&cfg, &[Algo::Pa, Algo::Is1]);
        assert_eq!(r.groups.len(), 2);
        for g in &r.groups {
            assert_eq!(g.per_algo.len(), 2);
            assert_eq!(g.per_algo[&Algo::Pa].len(), 2);
        }
    }

    #[test]
    fn par_timed_pulls_in_is5() {
        let cfg = tiny_cfg();
        let r = run_suite(&cfg, &[Algo::ParTimed]);
        for g in &r.groups {
            assert!(g.per_algo.contains_key(&Algo::Is5));
            assert!(g.per_algo.contains_key(&Algo::ParTimed));
        }
    }

    #[test]
    fn sections_render() {
        let cfg = tiny_cfg();
        let r = run_suite(&cfg, &[Algo::Pa, Algo::ParTimed, Algo::Is1, Algo::Is5]);
        let t1 = table1_section(&r);
        assert!(t1.contains("Table I"));
        assert!(t1.contains("| 8 |"));
        let f2 = fig2_section(&r);
        assert!(f2.contains("| 12 |"));
        let imp = improvement_summaries(&r, Algo::Pa, Algo::Is1);
        assert_eq!(imp.len(), 2);
        let sec = improvement_section("Figure 3 — PA vs IS-1", &imp);
        assert!(sec.contains("overall average improvement"));
    }

    #[test]
    fn fig6_produces_traces() {
        let cfg = tiny_cfg();
        let traces = fig6_traces(&cfg);
        assert_eq!(traces.len(), 1);
        assert!(
            !traces[0].1.is_empty(),
            "at least the first feasible improvement"
        );
        let sec = fig6_section(&traces);
        assert!(sec.contains("8 tasks"));
    }
}
