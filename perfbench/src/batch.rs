//! The `paper-batch` workload: the paper's standard suite goes JSON
//! bytes → `ProblemInstance` → PA → sweep validation → schedule JSON, one
//! instance at a time on one thread.

use std::hint::black_box;
use std::time::{Duration, Instant};

use prfpga_gen::SuiteConfig;
use prfpga_model::{Architecture, ProblemInstance, Time};
use prfpga_sched::{PaScheduler, Phase, SchedulerConfig};
use prfpga_sim::validate_schedule_sweep;

use crate::bound::cpm_lower_bound;
use crate::rng::{shuffle, splitmix64};
use crate::stats::{median, pct};
use crate::trace::{rows_of, PhaseTotals, Tracer, SCHED_PHASES};
use crate::{ms, Outcome, Workload};

/// Warm-up ops of a set-up: the first inputs of the unshuffled order.
const WARM_UP_OPS: usize = 2;

/// The paper's standard suite (`SuiteConfig::default()`: ten graphs in
/// each group of 10..100 tasks, on `Architecture::zedboard_pr`), one
/// `Vec` per group.
pub fn paper_suite() -> Vec<Vec<ProblemInstance>> {
    SuiteConfig::default().generate(&Architecture::zedboard_pr())
}

/// The op order of a batch run: round-robin across groups of `sizes`
/// (so any stretch of ops mixes every group), cut into consecutive blocks
/// of `block` ops, each shuffled from `seed`. Indices refer to the groups
/// concatenated in order.
pub fn batch_order(sizes: &[usize], block: usize, seed: u64) -> Vec<usize> {
    let offsets: Vec<usize> = sizes
        .iter()
        .scan(0, |at, &n| {
            *at += n;
            Some(*at - n)
        })
        .collect();
    let longest = sizes.iter().copied().max().unwrap_or(0);
    let mut order: Vec<usize> = (0..longest)
        .flat_map(|i| {
            sizes
                .iter()
                .zip(&offsets)
                .filter(move |(&n, _)| i < n)
                .map(move |(_, &at)| at + i)
        })
        .collect();
    let mut state = splitmix64(seed);
    for chunk in order.chunks_mut(block.max(1)) {
        shuffle(chunk, &mut state);
    }
    order
}

struct Input {
    bytes: String,
    bound: Time,
}

/// The workload after set-up: serialized inputs with their bounds, and
/// the order the timed phases visit them in.
pub struct Batch {
    inputs: Vec<Input>,
    order: Vec<usize>,
    block: usize,
    scheduler: PaScheduler,
    time_limit: Duration,
    gen_ms: f64,
}

/// Counters a traced phase accumulates.
#[derive(Default)]
struct Acc {
    phases: PhaseTotals,
    attempts: Vec<f64>,
    limit_ops: u64,
    fp_hits: u64,
    fp_lookups: u64,
    reservations: Vec<f64>,
    gap_queries: Vec<f64>,
    parse_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    validate_ms: Vec<f64>,
}

impl Batch {
    /// Generates and serializes the suite, computes each instance's bound
    /// on the instance parsed back from its bytes, then runs the first
    /// [`WARM_UP_OPS`] inputs of the unshuffled order untimed — the same warm-up
    /// whatever the seed. Timed phases visit the inputs in rounds of one
    /// instance per group ([`batch_order`]), shuffled from `seed`, and
    /// end between rounds.
    pub fn setup(seed: u64) -> Batch {
        let t0 = Instant::now();
        let groups = paper_suite();
        let block = groups.len();
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        let bytes: Vec<String> = groups
            .iter()
            .flatten()
            .map(ProblemInstance::to_json)
            .collect();
        let gen_ms = ms(t0.elapsed());
        let inputs = bytes
            .into_iter()
            .map(|bytes| {
                let inst = ProblemInstance::from_json(&bytes).expect("generated instances parse");
                Input {
                    bound: cpm_lower_bound(&inst),
                    bytes,
                }
            })
            .collect();
        let config = SchedulerConfig::default();
        let order = batch_order(&sizes, block, seed);
        let warm_up = batch_order(&sizes, 1, 0);
        let batch = Batch {
            inputs,
            order,
            block,
            time_limit: config.floorplan.time_limit,
            scheduler: PaScheduler::new(config),
            gen_ms,
        };
        let mut scratch = Outcome::default();
        for &k in &warm_up[..WARM_UP_OPS] {
            batch.op(k, &mut scratch, None, &mut Acc::default());
        }
        assert!(
            scratch.violations.is_empty() && scratch.failed == 0,
            "warm-up failed: {:?}",
            scratch.violations
        );
        batch
    }

    /// One op on input `k`.
    fn op(&self, k: usize, out: &mut Outcome, tracer: Option<&mut Tracer>, acc: &mut Acc) {
        let input = &self.inputs[k];
        out.attempted += 1;
        let t0 = Instant::now();
        let inst = match ProblemInstance::from_json(&input.bytes) {
            Ok(inst) => inst,
            Err(e) => return out.violation(format!("op {k}: input does not parse: {e}")),
        };
        let t1 = Instant::now();
        let result = self.scheduler.schedule_detailed(&inst);
        let t2 = Instant::now();
        let result = match result {
            Ok(r) => r,
            Err(_) => {
                out.failed += 1;
                return;
            }
        };
        let verdict = validate_schedule_sweep(&inst, &result.schedule);
        let t3 = Instant::now();
        let encoded = serde_json::to_string(&result.schedule).expect("schedules serialize");
        let t4 = Instant::now();
        black_box(encoded.len());

        if let Err(e) = verdict {
            return out.violation(format!("op {k} ({}): invalid schedule: {e:?}", inst.name));
        }
        let makespan = result.schedule.makespan();
        if makespan < input.bound {
            return out.violation(format!(
                "op {k} ({}): makespan {makespan} below the CPM bound {}",
                inst.name, input.bound
            ));
        }
        out.ratios.push(makespan as f64 / input.bound as f64);
        out.latencies_ms.push(ms(t4 - t0));
        out.completed += 1;
        out.on_time += 1;

        if let Some(tr) = tracer {
            let op = out.attempted;
            let root = tr.between(op, None, "op", "harness", t0, t4);
            tr.between(op, Some(root), "parse", "model", t0, t1);
            let solve = tr.between(op, Some(root), "solve", "sched", t1, t2);
            let rows = rows_of(&result.trace);
            tr.phase_rows(op, solve, t1, &rows);
            tr.between(op, Some(root), "validate", "sim", t2, t3);
            tr.between(op, Some(root), "encode", "model", t3, t4);

            let trace = &result.trace;
            acc.phases.add(&rows);
            acc.attempts.push(trace.attempts as f64);
            acc.limit_ops += u64::from(trace.time(Phase::Floorplan) >= self.time_limit);
            acc.fp_hits += trace.fp_cache_hits;
            acc.fp_lookups += trace.fp_cache_hits + trace.fp_cache_misses;
            acc.reservations.push(trace.timeline_reservations as f64);
            acc.gap_queries.push(trace.timeline_gap_queries as f64);
            acc.parse_ms.push(ms(t1 - t0));
            acc.validate_ms.push(ms(t3 - t2));
            acc.encode_ms.push(ms(t4 - t3));
        }
    }
}

impl Workload for Batch {
    fn run(&mut self, window: Duration, traced: bool) -> Outcome {
        let mut out = Outcome {
            root: "op",
            ..Outcome::default()
        };
        let mut tracer = traced.then(Tracer::new);
        let mut acc = Acc::default();
        let start = Instant::now();
        // Stop only between rounds, so every group is equally represented
        // whatever the seed.
        for (n, &k) in self.order.iter().cycle().enumerate() {
            if n % self.block == 0 && start.elapsed() >= window {
                break;
            }
            self.op(k, &mut out, tracer.as_mut(), &mut acc);
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        if traced {
            let mean = |xs: &[f64]| crate::stats::mean(xs);
            let l = &mut out.layers;
            l.insert("floorplan.ms", median(&acc.phases.floorplan_ms));
            l.insert("floorplan.runs", acc.phases.mean_runs("floorplan"));
            l.insert(
                "floorplan.limit_ops_pct",
                pct(acc.limit_ops as f64, acc.phases.ops as f64),
            );
            l.insert(
                "floorplan.cache_hit_pct",
                pct(acc.fp_hits as f64, acc.fp_lookups as f64),
            );
            for (key, metric) in SCHED_PHASES {
                l.insert(metric, acc.phases.mean_ms(key));
            }
            l.insert("sched.attempts", mean(&acc.attempts));
            l.insert("timeline.reservations", mean(&acc.reservations));
            l.insert("timeline.gap_queries", mean(&acc.gap_queries));
            l.insert("model.parse_ms", median(&acc.parse_ms));
            l.insert("model.encode_ms", median(&acc.encode_ms));
            l.insert("sim.validate_ms", median(&acc.validate_ms));
        }
        out.tracer = tracer;
        out
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }
}
