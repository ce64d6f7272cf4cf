//! The one persisted shape of the trajectory studies and the one
//! regression check CI runs against each committed file.
//!
//! `BENCH_scaling.json` (`scaling`), `BENCH_repair.json` (`repair`) and
//! `BENCH_server.json` (`loadgen`) are each a [`Trajectory`]: a list of
//! [`Row`]s, keyed by what they measure (`"10000 tasks"`, `"1000 tasks /
//! 8 events"`), each recording the run setup its figures depend on and
//! the figures themselves as named values. A study names the metrics it
//! gates as [`Gate`]s; [`check_regression`] compares a run against a
//! baseline on those and nothing else.

use serde::{Deserialize, Serialize};

use crate::report::markdown_table;

/// Schema tag of every trajectory file.
pub const SCHEMA: &str = "prfpga-trajectory-v1";

/// One named figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Figure name (`tasks_per_sec`, `phase_ms/<phase>`, …).
    pub name: String,
    /// Its value.
    pub value: f64,
}

/// One measured point of a study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// What the row measures; rows of two runs are compared when their
    /// keys match.
    pub key: String,
    /// The run settings the figures depend on; two rows compare only when
    /// these are equal. A categorical setting is recorded as
    /// `<setting>/<choice>` with value 1.
    pub setup: Vec<Metric>,
    /// The measured figures.
    pub metrics: Vec<Metric>,
}

impl Row {
    /// A row from `(name, value)` pairs.
    pub fn new(key: String, setup: &[(&str, f64)], metrics: &[(&str, f64)]) -> Row {
        let named = |pairs: &[(&str, f64)]| {
            pairs
                .iter()
                .map(|&(name, value)| Metric {
                    name: name.to_string(),
                    value,
                })
                .collect()
        };
        Row {
            key,
            setup: named(setup),
            metrics: named(metrics),
        }
    }

    /// The value of metric `name`, if the row has one.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A persisted study run (`BENCH_<study>.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Format tag, [`SCHEMA`].
    pub schema: String,
    /// Which study wrote it (`scaling`, `repair`, `server`).
    pub study: String,
    /// The measured points.
    pub rows: Vec<Row>,
}

impl Trajectory {
    /// A trajectory of `study` in the current schema.
    pub fn new(study: &str, rows: Vec<Row>) -> Trajectory {
        Trajectory {
            schema: SCHEMA.into(),
            study: study.into(),
            rows,
        }
    }
}

/// Which direction of a gated metric is better.
#[derive(Debug, Clone, Copy)]
pub enum Better {
    /// Throughput-like: a drop past the tolerance fails.
    Higher,
    /// Cost-like: a rise past the tolerance fails.
    Lower,
}

/// A metric a study defends against regression.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Metric name.
    pub metric: &'static str,
    /// Its better direction.
    pub better: Better,
}

fn show(setup: &[Metric]) -> String {
    let pairs: Vec<String> = setup
        .iter()
        .map(|m| format!("{}={}", m.name, m.value))
        .collect();
    format!("[{}]", pairs.join(", "))
}

/// Compares `current` against `baseline` on `gates`, returning the number
/// of rows compared. Rows are matched on key; a row on one side only is
/// ignored (the baseline pins CI's rows, a deeper local run may carry
/// more), but a run matching no gated baseline row fails, so a typo in a
/// size list cannot pass vacuously. Matched rows whose setup differs fail
/// as not comparable. A gated metric the baseline row lacks is not gated
/// on that row, and a baseline value of 0 means "not measured" and is
/// skipped. A [`Better::Higher`] metric fails below `base × (1 − tol)`, a
/// [`Better::Lower`] one above `base × (1 + tol)`. The error lists every
/// failure.
pub fn check_regression(
    baseline: &Trajectory,
    current: &Trajectory,
    gates: &[Gate],
    tolerance_pct: f64,
) -> Result<usize, String> {
    let tol = tolerance_pct / 100.0;
    let mut failures = Vec::new();
    let mut compared = 0;
    for base in &baseline.rows {
        let Some(cur) = current.rows.iter().find(|r| r.key == base.key) else {
            continue;
        };
        if cur.setup != base.setup {
            failures.push(format!(
                "{}: not comparable, setup is {} in the baseline and {} here",
                base.key,
                show(&base.setup),
                show(&cur.setup)
            ));
            continue;
        }
        let mut gated = false;
        for gate in gates {
            let Some(b) = base.metric(gate.metric).filter(|&b| b != 0.0) else {
                continue;
            };
            gated = true;
            let Some(c) = cur.metric(gate.metric) else {
                failures.push(format!("{}: {} missing", base.key, gate.metric));
                continue;
            };
            let (bound, ok, side) = match gate.better {
                Better::Higher => (b * (1.0 - tol), c >= b * (1.0 - tol), "below"),
                Better::Lower => (b * (1.0 + tol), c <= b * (1.0 + tol), "above"),
            };
            if !ok {
                failures.push(format!(
                    "{}: {} {c:.1} past {bound:.1} ({tolerance_pct}% {side} baseline {b:.1})",
                    base.key, gate.metric
                ));
            }
        }
        compared += usize::from(gated);
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    if compared == 0 {
        let keys = |t: &Trajectory| t.rows.iter().map(|r| r.key.clone()).collect::<Vec<_>>();
        return Err(format!(
            "no gated baseline row matches this run: baseline {:?}, run {:?}",
            keys(baseline),
            keys(current)
        ));
    }
    Ok(compared)
}

/// The value of `--name <value>` in `args`.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// A Markdown table of `rows`: the key, then each of `columns` (integral
/// values without decimals, `-` where a row lacks the metric).
pub fn rows_table(rows: &[Row], columns: &[&str]) -> String {
    let headers: Vec<&str> = std::iter::once("row")
        .chain(columns.iter().copied())
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            std::iter::once(r.key.clone())
                .chain(columns.iter().map(|&c| match r.metric(c) {
                    Some(v) if v.fract() == 0.0 => format!("{v:.0}"),
                    Some(v) => format!("{v:.1}"),
                    None => "-".into(),
                }))
                .collect()
        })
        .collect();
    markdown_table(&headers, &cells)
}

/// The shared tail of the study binaries: writes `trajectory` to `--out`
/// (default `BENCH_<study>.json`) and, given `--check <baseline>`, runs
/// [`check_regression`] against that file with `--tolerance-pct`
/// (default 20). A regression exits the process with status 1.
pub fn write_and_check(trajectory: &Trajectory, args: &[String], gates: &[Gate]) {
    let out = flag(args, "--out").unwrap_or_else(|| format!("BENCH_{}.json", trajectory.study));
    let json = serde_json::to_string_pretty(trajectory).expect("trajectory serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");

    let Some(path) = flag(args, "--check") else {
        return;
    };
    let tolerance: f64 = flag(args, "--tolerance-pct")
        .map(|v| v.parse().expect("--tolerance-pct takes a percentage"))
        .unwrap_or(20.0);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let baseline: Trajectory = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("baseline {path} is not a trajectory: {e:?}"));
    match check_regression(&baseline, trajectory, gates, tolerance) {
        Ok(rows) => eprintln!("{rows} row(s) within {tolerance}% of {path} on every gate"),
        Err(msg) => {
            eprintln!("{} CHECK FAILED vs {path}: {msg}", trajectory.study);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::{REPAIR_GATES, SCALING_GATES, SERVER_GATES};

    const SERIAL: &[(&str, f64)] = &[
        ("instances", 1.0),
        ("threads", 1.0),
        ("par_iterations", 0.0),
        ("repeats", 5.0),
    ];

    const THREE_ON_TWO: &[(&str, f64)] = &[
        ("instances", 3.0),
        ("threads", 2.0),
        ("par_iterations", 0.0),
    ];

    fn size_on(setup: &[(&str, f64)], tasks: usize, tps: f64, rss_kb: f64) -> Row {
        Row::new(
            format!("{tasks} tasks"),
            setup,
            &[("tasks_per_sec", tps), ("peak_rss_kb", rss_kb)],
        )
    }

    fn size(tasks: usize, tps: f64, rss_kb: f64) -> Row {
        size_on(SERIAL, tasks, tps, rss_kb)
    }

    fn one(key: &str, metric: &str, value: f64) -> Row {
        Row::new(key.into(), &[], &[(metric, value)])
    }

    /// Keys the error must name, and keys it must not.
    type Named = (&'static [&'static str], &'static [&'static str]);
    /// (case, gates, baseline rows, run rows, rows compared or the error).
    type Case = (
        &'static str,
        &'static [Gate],
        Vec<Row>,
        Vec<Row>,
        Result<usize, Named>,
    );

    #[test]
    fn regression_check_cases() {
        let cases: Vec<Case> = vec![
            (
                "throughput -19% and faster pass",
                SCALING_GATES,
                vec![size(1000, 1000.0, 0.0), size(10_000, 500.0, 0.0)],
                vec![size(1000, 810.0, 0.0), size(10_000, 800.0, 0.0)],
                Ok(2),
            ),
            (
                "throughput -21% fails",
                SCALING_GATES,
                vec![size(1000, 1000.0, 0.0), size(10_000, 500.0, 0.0)],
                vec![size(1000, 790.0, 0.0), size(10_000, 500.0, 0.0)],
                Err((&["1000 tasks: tasks_per_sec"], &["10000 tasks"])),
            ),
            (
                "RSS within the ceiling, smaller or unread passes",
                SCALING_GATES,
                vec![size(1000, 1000.0, 10_000.0), size(10_000, 1000.0, 50_000.0)],
                vec![size(1000, 1000.0, 12_000.0), size(10_000, 1000.0, 0.0)],
                Ok(2),
            ),
            (
                "RSS past the ceiling fails",
                SCALING_GATES,
                vec![size(1000, 1000.0, 10_000.0), size(10_000, 1000.0, 50_000.0)],
                vec![size(1000, 1000.0, 10_000.0), size(10_000, 1000.0, 60_500.0)],
                Err((&["10000 tasks: peak_rss_kb 60500.0"], &["1000 tasks:"])),
            ),
            (
                "a baseline RSS of 0 is not measured, so any RSS passes",
                SCALING_GATES,
                vec![size(1000, 1000.0, 0.0)],
                vec![size(1000, 1000.0, 1e9)],
                Ok(1),
            ),
            (
                "another setup is refused",
                SCALING_GATES,
                vec![size(1000, 1000.0, 10_000.0)],
                vec![size_on(THREE_ON_TWO, 1000, 1000.0, 10_000.0)],
                Err((&["1000 tasks: not comparable"], &[])),
            ),
            (
                "another setup is refused even without a baseline RSS",
                SCALING_GATES,
                vec![size(1000, 1000.0, 0.0)],
                vec![size_on(THREE_ON_TWO, 1000, 1000.0, 10_000.0)],
                Err((&["1000 tasks: not comparable"], &[])),
            ),
            (
                "a speedup drop fails",
                REPAIR_GATES,
                vec![
                    one("1000 tasks / 1 events", "speedup", 100.0),
                    one("10000 tasks / 64 events", "speedup", 40.0),
                ],
                vec![
                    one("1000 tasks / 1 events", "speedup", 79.0),
                    one("10000 tasks / 64 events", "speedup", 60.0),
                ],
                Err((&["1000 tasks / 1 events: speedup"], &["10000"])),
            ),
            (
                "a per-event repair cost rise fails",
                REPAIR_GATES,
                vec![
                    one("1000 tasks / 1 events", "repair_us_per_event", 300.0),
                    one("10000 tasks / 1 events", "repair_us_per_event", 2500.0),
                ],
                vec![
                    one("1000 tasks / 1 events", "repair_us_per_event", 361.0),
                    one("10000 tasks / 1 events", "repair_us_per_event", 2000.0),
                ],
                Err((&["1000 tasks / 1 events: repair_us_per_event"], &["10000"])),
            ),
            (
                "a req/s drop fails",
                SERVER_GATES,
                vec![one("load", "req_per_sec", 150.0)],
                vec![one("load", "req_per_sec", 110.0)],
                Err((&["load: req_per_sec 110.0"], &[])),
            ),
            (
                "a gated metric missing from the run fails",
                REPAIR_GATES,
                vec![one("1000 tasks / 1 events", "speedup", 100.0)],
                vec![one("1000 tasks / 1 events", "resolve_us", 100.0)],
                Err((&["1000 tasks / 1 events: speedup missing"], &[])),
            ),
            (
                "rows on one side only are ignored",
                SCALING_GATES,
                vec![size(1000, 1000.0, 0.0), size(50_000, 100.0, 0.0)],
                vec![size(1000, 1000.0, 0.0), size(2000, 1.0, 0.0)],
                Ok(1),
            ),
            (
                "a run matching no gated baseline row fails",
                SCALING_GATES,
                vec![
                    size(1000, 1000.0, 0.0),
                    one("reach 10000 tasks", "speedup", 9.0),
                ],
                vec![
                    size(2000, 1.0, 0.0),
                    one("reach 10000 tasks", "speedup", 1.0),
                ],
                Err((&["no gated baseline row matches"], &[])),
            ),
        ];
        for (case, gates, base, cur, want) in cases {
            let got = check_regression(
                &Trajectory::new("t", base),
                &Trajectory::new("t", cur),
                gates,
                20.0,
            );
            match (got, want) {
                (Ok(n), Ok(m)) => assert_eq!(n, m, "{case}"),
                (Err(err), Err((names, not))) => {
                    for name in names {
                        assert!(err.contains(name), "{case}: {err}");
                    }
                    for name in not {
                        assert!(!err.contains(name), "{case}: {err}");
                    }
                }
                (got, _) => panic!("{case}: {got:?}"),
            }
        }
    }

    /// (study, gates, rows CI's flags produce with their setup).
    type Study = (
        &'static str,
        &'static [Gate],
        Vec<(&'static str, &'static [(&'static str, f64)])>,
    );

    /// The committed baselines are in the writer's format, hold the rows
    /// CI's flags produce, pass their own gates and fail a copy with every
    /// gated metric moved 2× the wrong way, naming each of them.
    #[test]
    fn committed_trajectories_gate_what_ci_runs() {
        let in_proc: &[(&str, f64)] = &[
            ("transport/in-proc", 1.0),
            ("algo/portfolio", 1.0),
            ("tasks", 60.0),
            ("workers", 4.0),
            ("clients", 4.0),
        ];
        let studies: [Study; 3] = [
            (
                "scaling",
                SCALING_GATES,
                vec![
                    ("1000 tasks", SERIAL),
                    ("10000 tasks", SERIAL),
                    ("50000 tasks", SERIAL),
                ],
            ),
            (
                "repair",
                REPAIR_GATES,
                vec![
                    ("1000 tasks / 1 events", &[]),
                    ("1000 tasks / 8 events", &[]),
                    ("10000 tasks / 1 events", &[]),
                    ("10000 tasks / 8 events", &[]),
                ],
            ),
            (
                "server",
                SERVER_GATES,
                vec![("closed-loop traffic", in_proc)],
            ),
        ];
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (study, gates, ci_rows) in studies {
            let path = root.join(format!("BENCH_{study}.json"));
            let text = std::fs::read_to_string(&path).unwrap();
            let base: Trajectory = serde_json::from_str(&text).unwrap();
            assert_eq!(serde_json::to_string_pretty(&base).unwrap() + "\n", text);
            assert_eq!((base.schema.as_str(), base.study.as_str()), (SCHEMA, study));
            for (key, setup) in ci_rows {
                let row = base.rows.iter().find(|r| r.key == key);
                let want = Row::new(key.into(), setup, &[]).setup;
                assert_eq!(row.map(|r| &r.setup), Some(&want), "{study}: {key}");
            }

            let gated: Vec<&str> = base
                .rows
                .iter()
                .filter(|r| gates.iter().any(|g| r.metric(g.metric).is_some()))
                .map(|r| r.key.as_str())
                .collect();
            assert_eq!(check_regression(&base, &base, gates, 20.0), Ok(gated.len()));

            let mut worse = base.clone();
            for m in worse.rows.iter_mut().flat_map(|r| r.metrics.iter_mut()) {
                match gates.iter().find(|g| g.metric == m.name).map(|g| g.better) {
                    Some(Better::Higher) => m.value /= 2.0,
                    Some(Better::Lower) => m.value *= 2.0,
                    None => {}
                }
            }
            let err = check_regression(&base, &worse, gates, 20.0).unwrap_err();
            for row in base.rows.iter().filter(|r| gated.contains(&r.key.as_str())) {
                for gate in gates.iter().filter(|g| row.metric(g.metric).is_some()) {
                    let named = format!("{}: {} ", row.key, gate.metric);
                    assert!(err.contains(&named), "{study}: {err}");
                }
            }
        }
    }
}
