//! Spans recorded from the benchmark's own code around its calls into
//! each layer (crate), plus the phase rows the program already returns.
//!
//! Spans stay in memory during the run and are written as JSON lines
//! when it ends. A layer's self time is its spans' durations minus the
//! part their children cover. Coverage counts leaves only: a span with
//! children is covered only as far as its children are.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use prfpga_model::service::PhaseRow;
use prfpga_sched::PhaseTrace;

/// The layers self time is reported for, with their metric names, in
/// report order.
pub const LAYERS: [(&str, &str); 7] = [
    ("harness", "self.harness_pct"),
    ("model", "self.model_pct"),
    ("sched", "self.sched_pct"),
    ("floorplan", "self.floorplan_pct"),
    ("sim", "self.sim_pct"),
    ("server", "self.server_pct"),
    ("transport", "self.transport_pct"),
];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (request, instance or event) the span belongs to.
    pub op: u64,
    /// Index of this span in the run's span list.
    pub id: u32,
    /// The span that caused this one (`None` for an op's root span).
    pub parent: Option<u32>,
    /// What was timed.
    pub name: String,
    /// The layer (crate) the time is booked to.
    pub layer: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// In-memory span store for one traced phase.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Starts an empty trace whose clock origin is now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span of `dur` starting at `start`; returns its id.
    pub fn span(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &str,
        layer: &'static str,
        start: Instant,
        dur: Duration,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op,
            id,
            parent,
            name: name.to_string(),
            layer,
            start_us: start.saturating_duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        id
    }

    /// Records a span from `start` to `end`.
    pub fn between(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.span(
            op,
            parent,
            name,
            layer,
            start,
            end.saturating_duration_since(start),
        )
    }

    /// Opens a span at `start` whose end is not known yet (so children can
    /// name it as their parent); [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &str,
        layer: &'static str,
        start: Instant,
    ) -> u32 {
        self.span(op, parent, name, layer, start, Duration::ZERO)
    }

    /// Ends the span `id` opened with [`Tracer::open`] at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let s = &mut self.spans[id as usize];
        let start_us = s.start_us;
        s.dur_us = (end.saturating_duration_since(self.t0).as_secs_f64() * 1e6 - start_us).max(0.0);
    }

    /// Attaches phase rows as child durations of `parent`, laid end to end
    /// from `start` (the rows carry durations, not start times).
    pub fn phase_rows(&mut self, op: u64, parent: u32, start: Instant, rows: &[PhaseRow]) {
        let mut at = start;
        for row in rows {
            let dur = Duration::from_micros(row.micros);
            self.span(
                op,
                Some(parent),
                &row.phase,
                phase_layer(&row.phase),
                at,
                dur,
            );
            at += dur;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, microseconds: each span's duration minus the
    /// durations of its direct children.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.dur_us;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            *by_layer.entry(s.layer).or_insert(0.0) += (s.dur_us - c).max(0.0);
        }
        by_layer
    }

    /// Per-op coverage for the roots named `root`: `(covered, wall)` in
    /// microseconds, where `covered` sums the leaves under the root (the
    /// spans without children, phase rows included), capped at `wall`.
    /// A span with children counts only through them, so time inside a
    /// `solve` or `service` span that its phase rows leave out is
    /// uncovered. A root without children covers itself.
    pub fn coverage(&self, root: &str) -> Vec<(f64, f64)> {
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_children[p as usize] = true;
            }
        }
        let top = |mut id: u32| {
            while let Some(p) = self.spans[id as usize].parent {
                id = p;
            }
            id
        };
        let mut leaves_us: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| !has_children[s.id as usize]) {
            *leaves_us.entry(top(s.id)).or_insert(0.0) += s.dur_us;
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| {
                let c = leaves_us.get(&s.id).copied().unwrap_or(0.0);
                (c.min(s.dur_us), s.dur_us)
            })
            .collect()
    }

    /// The share of the `root` spans' summed wall-clock that their leaves
    /// cover, % (see [`Tracer::coverage`]); 0 without such roots.
    pub fn coverage_pct(&self, root: &str) -> f64 {
        let cover = self.coverage(root);
        let covered: f64 = cover.iter().map(|c| c.0).sum();
        let wall: f64 = cover.iter().map(|c| c.1).sum();
        crate::stats::pct(covered, wall)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":{:?},\"layer\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.op, s.id, parent, s.name, s.layer, s.start_us, s.dur_us
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The phase rows of a PA trace, in the shape the daemon puts on its
/// replies.
pub fn rows_of(trace: &PhaseTrace) -> Vec<PhaseRow> {
    trace
        .rows()
        .into_iter()
        .map(|(phase, time, runs)| PhaseRow {
            phase: phase.name().to_string(),
            micros: time.as_micros() as u64,
            runs,
        })
        .collect()
}

/// Metric key of a phase row: its name's letter mapped to the phase.
pub fn phase_key(name: &str) -> &'static str {
    match name.chars().next() {
        Some('A') => "impl_select",
        Some('B') => "critical_path",
        Some('P') => "partition",
        Some('C') => "regions",
        Some('D') => "sw_balance",
        Some('F') => "sw_map",
        Some('G') => "reconf",
        Some('H') => "floorplan",
        _ => "other",
    }
}

/// Scheduler phase keys (everything but phase H) with their per-op
/// mean-ms metric names.
pub const SCHED_PHASES: [(&str, &str); 7] = [
    ("impl_select", "sched.impl_select_ms"),
    ("critical_path", "sched.critical_path_ms"),
    ("partition", "sched.partition_ms"),
    ("regions", "sched.regions_ms"),
    ("sw_balance", "sched.sw_balance_ms"),
    ("sw_map", "sched.sw_map_ms"),
    ("reconf", "sched.reconf_ms"),
];

/// Phase H is the floorplanner crate; every other phase is the scheduler.
fn phase_layer(name: &str) -> &'static str {
    if phase_key(name) == "floorplan" {
        "floorplan"
    } else {
        "sched"
    }
}

/// Per-op phase totals accumulated over a run, in ms, keyed by
/// [`phase_key`].
#[derive(Debug, Default)]
pub struct PhaseTotals {
    /// Ops whose rows were added.
    pub ops: u64,
    /// Summed ms per phase key.
    pub ms: BTreeMap<&'static str, f64>,
    /// Summed runs per phase key.
    pub runs: BTreeMap<&'static str, f64>,
    /// Per-op phase-H ms.
    pub floorplan_ms: Vec<f64>,
}

impl PhaseTotals {
    /// Adds one op's rows.
    pub fn add(&mut self, rows: &[PhaseRow]) {
        self.ops += 1;
        let mut fp = 0.0;
        for row in rows {
            let key = phase_key(&row.phase);
            let ms = row.micros as f64 / 1e3;
            *self.ms.entry(key).or_insert(0.0) += ms;
            *self.runs.entry(key).or_insert(0.0) += f64::from(row.runs);
            if key == "floorplan" {
                fp += ms;
            }
        }
        self.floorplan_ms.push(fp);
    }

    /// Mean ms per op of one phase.
    pub fn mean_ms(&self, key: &str) -> f64 {
        self.ms.get(key).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Mean runs per op of one phase.
    pub fn mean_runs(&self, key: &str) -> f64 {
        self.runs.get(key).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(phase: &str, micros: u64) -> PhaseRow {
        PhaseRow {
            phase: phase.to_string(),
            micros,
            runs: 1,
        }
    }

    #[test]
    fn coverage_counts_phase_rows_not_the_span_they_sit_in() {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let root = tr.open(0, None, "op", "harness", t0);
        tr.between(0, Some(root), "parse", "model", t0, t0 + ms(10));
        let solve = tr.between(0, Some(root), "solve", "sched", t0 + ms(10), t0 + ms(100));
        // The rows account for 40 of the solve span's 90 ms.
        tr.phase_rows(0, solve, t0 + ms(10), &[row("A", 10_000), row("H", 30_000)]);
        tr.close(root, t0 + ms(100));
        let cover = tr.coverage("op");
        assert_eq!(cover.len(), 1);
        let (covered, wall) = cover[0];
        assert!((wall - 100_000.0).abs() < 1.0, "{wall}");
        assert!((covered - 50_000.0).abs() < 1.0, "{covered}");
        assert!((tr.coverage_pct("op") - 50.0).abs() < 1e-3);
    }

    #[test]
    fn a_childless_root_covers_itself_and_other_roots_are_ignored() {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        tr.between(0, None, "op", "harness", t0, t0 + Duration::from_millis(5));
        tr.between(
            1,
            None,
            "other",
            "harness",
            t0,
            t0 + Duration::from_millis(50),
        );
        assert_eq!(tr.coverage("op").len(), 1);
        assert!((tr.coverage_pct("op") - 100.0).abs() < 1e-9);
    }
}
