//! The `repair-stream` workload: standard-mix event traces replayed
//! through the delta-repair engine over one committed PA baseline.

use std::time::{Duration, Instant};

use prfpga_gen::{EventConfig, EventTraceGenerator, GraphConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, ProblemInstance, Schedule, ScheduleEvent};
use prfpga_sched::{PaScheduler, RepairConfig, RepairEngine, SchedulerConfig};
use prfpga_sim::validate_schedule_sweep;

use crate::bound::cpm_lower_bound;
use crate::rng::splitmix64;
use crate::stats::{mean, median};
use crate::{ms, Outcome, Tracer, Workload, DEFAULT_SEED};

/// More events per second than any run replays (the fastest seen is
/// about 14 000).
const MAX_EVENTS_PER_S: f64 = 50_000.0;

/// A repair workload after set-up: the committed baseline and the event
/// traces, each event serialized as one JSON line.
pub struct RepairStream {
    inst: ProblemInstance,
    baseline: Schedule,
    traces: Vec<Vec<String>>,
    config: RepairConfig,
    gen_ms: f64,
}

/// Counters a traced phase accumulates.
#[derive(Default)]
struct Acc {
    apply_us: Vec<f64>,
    frontier: Vec<f64>,
    moved: Vec<f64>,
    full_resolves: u64,
    parse_ms: Vec<f64>,
    validate_ms: Vec<f64>,
}

impl RepairStream {
    /// Generates the `tasks`-task instance (from a fixed generator seed),
    /// commits its PA baseline, synthesizes `traces` standard-mix traces
    /// of `events` events each from `seed`, and replays the first `warm`
    /// events of the first trace untimed.
    pub fn setup(seed: u64, tasks: usize, traces: usize, events: usize, warm: usize) -> Self {
        let t0 = Instant::now();
        let inst = TaskGraphGenerator::new(splitmix64(DEFAULT_SEED)).generate(
            &format!("repair_{tasks}"),
            &GraphConfig::standard(tasks),
            Architecture::zedboard_pr(),
        );
        let gen_ms = ms(t0.elapsed());
        let baseline = PaScheduler::new(SchedulerConfig::default())
            .schedule(&inst)
            .expect("generated instances schedule");
        validate_schedule_sweep(&inst, &baseline).expect("the committed baseline is valid");
        let t1 = Instant::now();
        let traces = (0..traces as u64)
            .map(|j| {
                EventTraceGenerator::new(splitmix64(seed ^ (j + 1)))
                    .generate(&inst, &baseline, &EventConfig::standard(events))
                    .events
                    .iter()
                    .map(|e| serde_json::to_string(e).expect("events serialize"))
                    .collect()
            })
            .collect();
        // The engine is pinned to the delta path (cascade off): this
        // workload times frontier retiming, not full re-solves.
        let config = RepairConfig {
            cascade_threshold_pct: 100,
            ..RepairConfig::default()
        };
        let stream = RepairStream {
            inst,
            baseline,
            traces,
            config,
            gen_ms: gen_ms + ms(t1.elapsed()),
        };
        let warm_up = stream.replay(
            0,
            warm,
            None,
            &mut Outcome::default(),
            None,
            &mut Acc::default(),
        );
        assert!(warm_up.is_empty(), "warm-up failed: {warm_up:?}");
        stream
    }

    /// Replays up to `limit` events of trace `j` on a fresh engine,
    /// stopping early once `end` passes, then validates the result and
    /// checks it against the CPM bound. Only the event loop is added to
    /// `out.elapsed_s`: building the engine and the checks are harness
    /// work, not repair throughput. Traced, the whole replay is one
    /// `trace` span, with the build, every event and the checks under it.
    /// Returns the correctness violations found.
    fn replay(
        &self,
        j: usize,
        limit: usize,
        end: Option<Instant>,
        out: &mut Outcome,
        mut tracer: Option<&mut Tracer>,
        acc: &mut Acc,
    ) -> Vec<String> {
        let trace = &self.traces[j % self.traces.len()];
        let t_build = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|tr| tr.open(j as u64, None, "trace", "harness", t_build));
        let mut engine = RepairEngine::new(
            self.inst.clone(),
            self.baseline.clone(),
            self.config.clone(),
        )
        .expect("PA baselines satisfy the engine's preconditions");
        let t_events = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.between(j as u64, root, "build", "sched", t_build, t_events);
        }
        let mut replayed = 0;
        for line in trace.iter().take(limit) {
            if end.is_some_and(|end| Instant::now() >= end) {
                break;
            }
            let op = out.attempted;
            out.attempted += 1;
            let t0 = Instant::now();
            let event: ScheduleEvent = match serde_json::from_str(line) {
                Ok(e) => e,
                Err(e) => return vec![format!("event {op} does not parse: {e}")],
            };
            let t1 = Instant::now();
            let applied = engine.apply(&event);
            let t2 = Instant::now();
            let Ok(outcome) = applied else {
                out.failed += 1;
                continue;
            };
            replayed += 1;
            out.latencies_ms.push(ms(t2 - t0));
            out.completed += 1;
            out.on_time += 1;
            if let Some(tr) = tracer.as_deref_mut() {
                let event = tr.between(op, root, "event", "harness", t0, t2);
                tr.between(op, Some(event), "parse", "model", t0, t1);
                tr.between(op, Some(event), "apply", "sched", t1, t2);
                acc.apply_us.push((t2 - t1).as_secs_f64() * 1e6);
                acc.frontier.push(outcome.frontier as f64);
                acc.moved.push(outcome.moved as f64);
                acc.full_resolves += u64::from(outcome.full_resolve);
                acc.parse_ms.push(ms(t1 - t0));
            }
        }

        let t_check = Instant::now();
        out.elapsed_s += (t_check - t_events).as_secs_f64();
        let verdict = validate_schedule_sweep(engine.instance(), engine.schedule());
        let t_checked = Instant::now();
        let (makespan, bound) = (
            engine.schedule().makespan(),
            cpm_lower_bound(engine.instance()),
        );
        let t_bound = Instant::now();
        if let Some(tr) = tracer {
            tr.between(j as u64, root, "validate", "sim", t_check, t_checked);
            tr.between(j as u64, root, "bound", "harness", t_checked, t_bound);
            tr.close(root.expect("opened when traced"), t_bound);
            acc.validate_ms.push(ms(t_checked - t_check));
        }
        if let Err(e) = verdict {
            return vec![format!("trace {j}: invalid repaired schedule: {e:?}")];
        }
        if makespan < bound {
            return vec![format!(
                "trace {j}: makespan {makespan} below the CPM bound {bound}"
            )];
        }
        // Only whole traces enter the quality figure, so where the window
        // happens to cut the last one does not move it.
        if replayed == trace.len() {
            out.ratios.push(makespan as f64 / bound as f64);
        }
        Vec::new()
    }
}

impl Workload for RepairStream {
    fn run(&mut self, window: Duration, traced: bool) -> Outcome {
        let mut out = Outcome {
            root: "trace",
            ..Outcome::default()
        };
        let mut tracer = traced.then(Tracer::new);
        let mut acc = Acc::default();
        // Room for every event a window can hold, reserved up front. Capacity
        // never written costs no resident memory, whereas growing the vector
        // mid-run would move `peak_rss_mb` with whether the event count
        // crossed a power of two.
        out.latencies_ms
            .reserve((window.as_secs_f64() * MAX_EVENTS_PER_S) as usize);
        let end = Instant::now() + window;
        let mut j = 0;
        while Instant::now() < end {
            let violations = self.replay(
                j,
                usize::MAX,
                Some(end),
                &mut out,
                tracer.as_mut(),
                &mut acc,
            );
            out.violations.extend(violations);
            j += 1;
        }
        if traced {
            let l = &mut out.layers;
            l.insert("repair.apply_us", median(&acc.apply_us));
            l.insert("repair.frontier", mean(&acc.frontier));
            l.insert("repair.moved", mean(&acc.moved));
            l.insert("repair.full_resolves", acc.full_resolves as f64);
            l.insert("model.parse_ms", median(&acc.parse_ms));
            l.insert("sim.validate_ms", median(&acc.validate_ms));
        }
        out.tracer = tracer;
        out
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }
}
