//! Aggregation and Markdown-table formatting for the experiment binaries.

use prfpga_model::Time;
use prfpga_sched::{Phase, PhaseTrace};

use crate::experiments::{Algo, SuiteResults};

/// Mean of a slice of f64 (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two points).
pub fn sample_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Relative improvement of `ours` over `baseline` in percent
/// (`(baseline - ours) / baseline * 100`): positive means we are faster.
pub fn improvement_pct(baseline: Time, ours: Time) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (baseline as f64 - ours as f64) / baseline as f64 * 100.0
}

/// Per-group summary used by the figure binaries: mean and standard
/// deviation of the per-instance improvements.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Task count of the group.
    pub tasks: usize,
    /// Mean of the metric across the group's instances.
    pub mean: f64,
    /// Sample standard deviation across the group's instances.
    pub std: f64,
}

impl GroupSummary {
    /// Builds a summary from raw per-instance values.
    pub fn from_values(tasks: usize, values: &[f64]) -> GroupSummary {
        GroupSummary {
            tasks,
            mean: mean(values),
            std: sample_std(values),
        }
    }
}

/// Formats a Markdown table: `headers` then one row per entry.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Renders seconds with three decimals (Table I style).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// PA phase breakdown: per group, the mean wall-clock of every pipeline
/// phase (A–H) over the group's instances, plus the mean restart count.
/// Complements Table I, which only reports the scheduling/floorplanning
/// split.
pub fn phase_trace_section(results: &SuiteResults) -> String {
    let mut rows = Vec::new();
    for g in &results.groups {
        let traces: Vec<_> = g
            .per_algo
            .get(&Algo::Pa)
            .map(|rs| rs.iter().filter_map(|r| r.trace.as_ref()).collect())
            .unwrap_or_default();
        if traces.is_empty() {
            continue;
        }
        let mut row = vec![g.tasks.to_string()];
        for phase in Phase::ALL {
            let ms = mean(
                &traces
                    .iter()
                    .map(|t| t.time(phase).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            );
            row.push(format!("{ms:.3}"));
        }
        row.push(format!(
            "{:.1}",
            mean(&traces.iter().map(|t| t.attempts as f64).collect::<Vec<_>>())
        ));
        let counter_mean = |f: fn(&PhaseTrace) -> u64| {
            let vals: Vec<f64> = traces.iter().map(|t| f(t) as f64).collect();
            format!("{:.1}", mean(&vals))
        };
        row.push(counter_mean(|t| t.workspace_reuses));
        row.push(counter_mean(|t| t.fp_cache_misses));
        row.push(counter_mean(|t| t.fp_feasible));
        row.push(counter_mean(|t| t.fp_infeasible));
        row.push(counter_mean(|t| t.fp_root_infeasible));
        row.push(counter_mean(|t| t.fp_timeouts));
        row.push(counter_mean(|t| t.fp_nodes));
        rows.push(row);
    }
    if rows.is_empty() {
        return String::from("### PA phase breakdown\n\n(no PA runs in this suite)\n");
    }
    let mut headers = vec!["# Tasks"];
    for phase in Phase::ALL {
        headers.push(phase.name());
    }
    headers.extend([
        "attempts",
        "ws reuses",
        "floorplan queries",
        "fp feasible",
        "fp infeasible",
        "fp at root",
        "fp timeouts",
        "fp DFS nodes",
    ]);
    format!(
        "### PA phase breakdown — mean wall-clock per phase [ms]\n\n{}",
        markdown_table(&headers, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(sample_std(&[5.0]), 0.0);
        let s = sample_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.138).abs() < 0.01);
    }

    #[test]
    fn improvement_sign_convention() {
        assert!((improvement_pct(100, 80) - 20.0).abs() < 1e-9);
        assert!((improvement_pct(100, 120) + 20.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0, 50), 0.0);
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[3], "| 3 | 4 |");
    }

    #[test]
    fn group_summary() {
        let g = GroupSummary::from_values(30, &[10.0, 20.0]);
        assert_eq!(g.tasks, 30);
        assert_eq!(g.mean, 15.0);
        assert!(g.std > 0.0);
    }
}
