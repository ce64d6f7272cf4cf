//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Sets the workload up five times (the last set-up is kept), runs the
//! timed phase, checks every output, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A traced run splits its time
//! into an untraced and a traced phase over the same ops, so it can state
//! what tracing costs; its spans are written to `out/` next to this
//! crate. The exit code is 0 only when every check passed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::probe::reference_ms;
use perfbench::stats::{geomean, median, pct, tail};
use perfbench::trace::LAYERS;
use perfbench::{
    peak_rss_mb, setup, Outcome, Workload, COVERAGE_FLOOR_PCT, DEFAULT_SEED, END_TO_END, PER_LAYER,
    WORKLOADS,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Timed seconds when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace 0|1]\n\
         defaults: --seed {DEFAULT_SEED} --seconds {DEFAULT_SECONDS} --trace 0",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    let size = &perfbench::Size::FULL;

    let ref_before = reference_ms();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let t0 = Instant::now();
        workload = setup(&args.workload, args.seed, window.as_secs_f64(), size);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("the workload name was checked");

    // A traced run times the same ops twice, untraced then traced, so the
    // difference between the two is what tracing costs.
    let (untraced, traced) = if args.trace {
        let half = window / 2;
        (workload.run(half, false), Some(workload.run(half, true)))
    } else {
        (workload.run(window, false), None)
    };
    let gen_ms = workload.gen_ms();
    drop(workload);
    let ref_after = reference_ms();
    let main = traced.as_ref().unwrap_or(&untraced);

    let attempted = untraced.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed);
    let mut violations: Vec<String> = untraced
        .violations
        .iter()
        .chain(traced.iter().flat_map(|t| &t.violations))
        .cloned()
        .collect();
    // A traced run whose spans leave too much of the ops' wall-clock
    // unaccounted for fails like any other check.
    let coverage = traced
        .as_ref()
        .and_then(|t| t.tracer.as_ref().map(|tr| tr.coverage_pct(t.root)));
    if let Some(c) = coverage.filter(|&c| c < COVERAGE_FLOOR_PCT) {
        violations.push(format!(
            "spans cover {c:.2}% of the ops' wall-clock, below the {COVERAGE_FLOOR_PCT}% floor"
        ));
    }
    let correct = violations.is_empty() && main.completed > 0;

    let (p90, tail_pct) = tail(&main.latencies_ms);
    println!(
        "workload {} | seed {} | {} s timed | trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "set-up {:?} s (median of {SETUP_REPS}) | inputs generated in {gen_ms:.1} ms",
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    println!(
        "{} ops attempted, {} failed, {} ok | {} latency samples, tail figure at p{tail_pct:.1}",
        attempted,
        failed,
        main.completed,
        main.latencies_ms.len()
    );
    println!("reference probe {ref_before:.2} ms before, {ref_after:.2} ms after");
    for v in violations.iter().take(10) {
        eprintln!("check failed: {v}");
    }

    let metrics: Vec<(&str, &str, f64)> = if let Some(traced) = &traced {
        let layers = layer_metrics(
            &args, traced, &untraced, gen_ms, ref_before, ref_after, p90, tail_pct,
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            median(&setups),
            median(&main.latencies_ms),
            p90,
            main.completed as f64 / main.elapsed_s.max(f64::EPSILON),
            geomean(&main.ratios),
            pct(main.on_time as f64, main.attempted as f64),
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced run; writes its spans out.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    args: &Args,
    traced: &Outcome,
    untraced: &Outcome,
    gen_ms: f64,
    ref_before: f64,
    ref_after: f64,
    tail_ms: f64,
    tail_pct: f64,
) -> BTreeMap<&'static str, f64> {
    let mut l = traced.layers.clone();
    l.insert("gen.ms", gen_ms);
    l.insert("env.ref_ms", (ref_before + ref_after) / 2.0);
    l.insert("load.samples", traced.latencies_ms.len() as f64);
    l.insert("load.tail_pct", tail_pct);
    l.insert(
        "trace.overhead_ms",
        median(&traced.latencies_ms) - median(&untraced.latencies_ms),
    );
    let Some(tracer) = &traced.tracer else {
        return l;
    };
    l.insert("trace.spans", tracer.spans().len() as f64);

    let self_us = tracer.self_time_us();
    let total_us: f64 = self_us.values().sum();
    println!("self time per layer (traced phase, share of all spans):");
    for (layer, key) in LAYERS {
        let share = pct(self_us.get(layer).copied().unwrap_or(0.0), total_us);
        println!("  {layer:<10} {share:6.2}%");
        l.insert(key, share);
    }

    let cover = tracer.coverage(traced.root);
    let below = cover
        .iter()
        .filter(|(c, w)| pct(*c, *w) < COVERAGE_FLOOR_PCT)
        .count();
    let coverage = tracer.coverage_pct(traced.root);
    l.insert("trace.coverage_pct", coverage);
    println!(
        "coverage check {}: leaf spans cover {coverage:.2}% of {} `{}` spans' wall-clock (floor {COVERAGE_FLOOR_PCT}%); {below} single spans below the floor",
        if coverage >= COVERAGE_FLOOR_PCT { "passed" } else { "FAILED" },
        cover.len(),
        traced.root
    );
    println!(
        "tracing overhead {:+.4} ms on the p50 ({} traced vs {} untraced samples); tail {tail_ms:.3} ms",
        l["trace.overhead_ms"],
        traced.latencies_ms.len(),
        untraced.latencies_ms.len()
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    l
}
