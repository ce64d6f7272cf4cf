//! `prfpga` — command-line interface for the scheduling toolkit.
//!
//! ```text
//! prfpga generate --tasks 30 --seed 7 --out app.json [--topology layered]
//!                 [--platform alveo-u250|dual-zedboard|xc7z020|...]
//! prfpga schedule --input app.json [--algo pa|par|is1|is5|heft|portfolio]
//!                 [--gantt] [--out schedule.json] [--budget-ms 500]
//!                 [--deadline-ms 50] [--portfolio] [--trace]
//!                 [--threads N | --serial]
//! prfpga validate --input app.json --schedule schedule.json
//! prfpga replay --input app.json [--trace events.json | --events 20 --seed 7]
//!               [--cascade 50] [--save-trace events.json] [--out repaired.json]
//! prfpga devices
//! prfpga platforms
//! prfpga serve [--addr 127.0.0.1:7070] [--workers N] [--queue-bound N]
//!              [--prewarm-tasks N] [--log-every-s S] [--quiet]
//! ```
//!
//! Instances carry their target inside the JSON, so `schedule`, `validate`
//! and `replay` accept multi-fabric platform instances transparently.

use std::process::ExitCode;
use std::time::Duration;

use prfpga_gen::{EventConfig, EventTraceGenerator, GraphConfig, TaskGraphGenerator, Topology};
use prfpga_model::{
    Architecture, Device, EventTrace, Platform, ProblemInstance, Schedule, ScheduleEvent,
};
use prfpga_portfolio::{Member, Portfolio, PortfolioConfig};
use prfpga_sched::{
    CancelToken, PaRScheduler, PaScheduler, RepairConfig, RepairEngine, SchedWorkspace,
    SchedulerConfig,
};
use prfpga_server::{Server, ServerConfig, TcpTransport};
use prfpga_sim::{render_gantt, schedule_stats, validate_schedule_sweep};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  prfpga generate --tasks <n> [--seed <s>] [--topology layered|chain|forkjoin|seriesparallel]
                  [--cores <p>] [--platform alveo-u250|dual-zedboard|xc7z010|xc7z020|xc7z045]
                  [--device <name>]       (alias of --platform for 1-fabric targets)
                  [--recfreq <bits-per-tick>] [--comm <max-ticks>] --out <file.json>
  prfpga schedule --input <file.json> [--algo pa|par|is1|is5|heft|portfolio]
                  [--budget-ms <ms>] [--gantt] [--out <schedule.json>]
                  [--deadline-ms <ms>]    (hard wall-clock budget; PA/PA-R
                                           degrade to their best-so-far
                                           schedule, IS-k errors cleanly,
                                           portfolio always answers)
                  [--portfolio]           (shorthand for --algo portfolio)
                  [--first-feasible]      (portfolio: first clean finisher
                                           wins and cancels the rest)
                  [--trace]               (PA: per-phase timing table;
                                           portfolio: per-member race table)
                  [--threads <n>]         (PA-R workers; default: all cores,
                                           or the PRFPGA_THREADS variable)
                  [--serial]              (force single-threaded PA-R)
  prfpga validate --input <file.json> --schedule <schedule.json>
  prfpga replay   --input <file.json> [--trace <events.json>]
                  [--events <n>] [--seed <s>]   (synthesize a trace with the
                                                 standard perturbation mix
                                                 when --trace is omitted)
                  [--cascade <pct>]             (full re-solve threshold as a
                                                 percent of live tasks;
                                                 default 50)
                  [--save-trace <events.json>] [--out <schedule.json>]
  prfpga devices
  prfpga platforms
  prfpga serve    [--addr 127.0.0.1:7070] [--workers <n>] [--queue-bound <n>]
                  [--prewarm-tasks <n>] [--log-every-s <s>] [--quiet]
                  (scheduling daemon: newline-delimited JSON requests, see
                   DESIGN.md section 8.4; runs until killed)";

/// Pulls the value following `--flag`.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Worker count for PA-R, mirroring the bench executor's precedence:
/// `--serial` beats `--threads <n>` beats `PRFPGA_THREADS` (a count or
/// `serial`) beats all available cores.
fn thread_policy(args: &[String]) -> Result<usize, String> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    if has(args, "--serial") {
        return Ok(1);
    }
    if let Some(s) = flag(args, "--threads") {
        let n: usize = s.parse().map_err(|e| format!("--threads: {e}"))?;
        if n == 0 {
            return Err("--threads must be at least 1".into());
        }
        return Ok(n);
    }
    Ok(match std::env::var("PRFPGA_THREADS").ok().as_deref() {
        Some("serial") | Some("SERIAL") => 1,
        Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or(default),
        None => default,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(args),
        Some("schedule") => schedule(args),
        Some("validate") => validate(args),
        Some("replay") => replay(args),
        Some("devices") => {
            devices();
            Ok(())
        }
        Some("platforms") => {
            platforms();
            Ok(())
        }
        Some("serve") => serve(args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".into()),
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    let tasks: usize = flag(args, "--tasks")
        .ok_or("--tasks is required")?
        .parse()
        .map_err(|e| format!("--tasks: {e}"))?;
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(0x5EED);
    let out = flag(args, "--out").ok_or("--out is required")?;
    let topology = match flag(args, "--topology").as_deref() {
        None | Some("layered") => Topology::Layered,
        Some("chain") => Topology::Chain,
        Some("forkjoin") => Topology::ForkJoin,
        Some("seriesparallel") => Topology::SeriesParallel,
        Some(t) => return Err(format!("unknown topology `{t}`")),
    };
    // `--platform` and `--device` both resolve through the platform
    // catalog; `--device` is the 1-fabric alias the original CLI shipped
    // with.
    let name = match (flag(args, "--platform"), flag(args, "--device")) {
        (Some(p), _) => p,
        (None, Some(d)) => d,
        (None, None) => "xc7z020".to_string(),
    };
    let mut platform = Platform::by_name(&name)?;
    // Effective configuration throughput (bits per tick); defaults to the
    // 50 MB/s sustained figure of real PR runtimes, like the benchmark
    // suite. Pass --recfreq 3200 for raw datasheet ICAP bandwidth. Applies
    // to every fabric of a multi-fabric platform; omit it to keep the
    // catalog's per-fabric throughputs.
    if let Some(rf) = flag(args, "--recfreq")
        .map(|s| s.parse::<u64>().map_err(|e| format!("--recfreq: {e}")))
        .transpose()?
    {
        for f in &mut platform.fabrics {
            f.rec_freq = rf;
        }
    } else if platform.num_fabrics() == 1 {
        platform.fabrics[0].rec_freq = 400;
    }
    let cores: usize = flag(args, "--cores")
        .map(|s| s.parse().map_err(|e| format!("--cores: {e}")))
        .transpose()?
        .unwrap_or(2);
    let architecture = Architecture::on_platform(cores, platform);

    // Optional communication costs: --comm <max> samples each edge cost
    // uniformly from [max/10, max] ticks (0 = the paper's base model).
    let comm_max: u64 = flag(args, "--comm")
        .map(|s| s.parse().map_err(|e| format!("--comm: {e}")))
        .transpose()?
        .unwrap_or(0);
    let config = GraphConfig {
        topology,
        comm_cost_range: if comm_max == 0 {
            (0, 0)
        } else {
            (comm_max / 10, comm_max)
        },
        ..GraphConfig::standard(tasks)
    };
    let inst = TaskGraphGenerator::new(seed).generate(
        &format!("cli_t{tasks}_s{seed}"),
        &config,
        architecture,
    );
    inst.save(&out).map_err(|e| e.to_string())?;
    let p = &inst.architecture.platform;
    let target = match p.num_fabrics() {
        1 => p.name.clone(),
        n => format!(
            "{} ({n} fabrics, crossing {} ticks)",
            p.name, p.crossing_latency
        ),
    };
    println!(
        "wrote instance `{}` on {target}: {} tasks, {} edges, {} implementations -> {out}",
        inst.name,
        inst.graph.len(),
        inst.graph.edges.len(),
        inst.impls.len()
    );
    Ok(())
}

fn schedule(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--input").ok_or("--input is required")?;
    let inst = ProblemInstance::load(&input).map_err(|e| e.to_string())?;
    let algo = if has(args, "--portfolio") {
        "portfolio".to_string()
    } else {
        flag(args, "--algo").unwrap_or_else(|| "pa".into())
    };
    let budget_ms: u64 = flag(args, "--budget-ms")
        .map(|s| s.parse().map_err(|e| format!("--budget-ms: {e}")))
        .transpose()?
        .unwrap_or(1000);
    let deadline: Option<Duration> = flag(args, "--deadline-ms")
        .map(|s| s.parse().map_err(|e| format!("--deadline-ms: {e}")))
        .transpose()?
        .map(Duration::from_millis);

    let trace = has(args, "--trace");
    if trace && algo != "pa" && algo != "portfolio" {
        return Err("--trace requires --algo pa or portfolio".into());
    }
    let threads = thread_policy(args)?;
    // One cooperative token for the whole run; `--deadline-ms` arms it,
    // otherwise it never fires and behaviour is byte-identical to the
    // deadline-free paths.
    let cancel = match deadline {
        Some(d) => CancelToken::after(d),
        None => CancelToken::never(),
    };

    let cfg = SchedulerConfig {
        time_budget: Duration::from_millis(budget_ms),
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let mut phase_table: Option<String> = None;
    let (sched, degraded): (Schedule, bool) = match algo.as_str() {
        "par" => {
            let r = PaRScheduler::new(cfg)
                .schedule_with_cancel_in(&inst, threads, &cancel, &mut SchedWorkspace::new())
                .map_err(|e| e.to_string())?;
            (r.schedule, r.degraded)
        }
        "portfolio" => {
            let r = Portfolio::new(PortfolioConfig {
                deadline,
                first_feasible_wins: has(args, "--first-feasible"),
                sched: cfg,
                ..Default::default()
            })
            .run(&inst)
            .map_err(|e| e.to_string())?;
            if trace {
                phase_table = Some(r.render_report());
            }
            println!(
                "portfolio winner: {}{}",
                r.winner,
                if r.deadline_hit {
                    " (deadline hit)"
                } else {
                    ""
                }
            );
            (r.schedule, r.degraded)
        }
        other => {
            let member = match other {
                "pa" => Member::Pa,
                "is1" => Member::IsK(1),
                "is5" => Member::IsK(5),
                "heft" => Member::Heft,
                _ => return Err(format!("unknown algorithm `{other}`")),
            };
            let r = member
                .run(&inst, &cfg, &cancel, &mut SchedWorkspace::new())
                .map_err(|e| e.to_string())?;
            if trace {
                phase_table = Some(r.trace.render_table());
            }
            (r.schedule, r.degraded)
        }
    };
    let elapsed = t0.elapsed();
    if degraded {
        println!("note: deadline fired mid-search; returning the best schedule found so far");
    }

    // Sweep-line validator: same verdicts as the quadratic oracle (the
    // mutation corpus pins the equivalence), usable at 10k+ tasks.
    validate_schedule_sweep(&inst, &sched)
        .map_err(|e| format!("internal: invalid schedule: {e}"))?;
    let stats = schedule_stats(&inst, &sched);
    println!(
        "{algo}: makespan {} ticks in {:.3}s | {} regions, {} hw / {} sw tasks, {} reconfigurations ({} ticks on the controller)",
        stats.makespan,
        elapsed.as_secs_f64(),
        stats.num_regions,
        stats.hw_tasks,
        stats.sw_tasks,
        stats.num_reconfigurations,
        stats.reconf_busy,
    );
    if algo == "par" && threads > 1 {
        println!("(PA-R searched on {threads} threads)");
    }
    if let Some(table) = phase_table {
        println!();
        println!("{table}");
    }
    if has(args, "--gantt") {
        println!();
        println!("{}", render_gantt(&inst, &sched, 100));
    }
    if let Some(out) = flag(args, "--out") {
        let json = serde_json::to_string_pretty(&sched).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        println!("wrote schedule -> {out}");
    }
    Ok(())
}

fn validate(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--input").ok_or("--input is required")?;
    let schedule_path = flag(args, "--schedule").ok_or("--schedule is required")?;
    let inst = ProblemInstance::load(&input).map_err(|e| e.to_string())?;
    let json = std::fs::read_to_string(&schedule_path).map_err(|e| e.to_string())?;
    let sched: Schedule = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    match validate_schedule_sweep(&inst, &sched) {
        Ok(()) => {
            println!("schedule is VALID (makespan {} ticks)", sched.makespan());
            Ok(())
        }
        Err(e) => Err(format!("schedule is INVALID: {e}")),
    }
}

/// Replays a runtime event trace against a freshly-committed PA schedule,
/// repairing after each event and validating the final result.
fn replay(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--input").ok_or("--input is required")?;
    let inst = ProblemInstance::load(&input).map_err(|e| e.to_string())?;
    let baseline = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .map_err(|e| e.to_string())?;
    let before = baseline.makespan();

    let trace = match flag(args, "--trace") {
        Some(path) => EventTrace::load(&path).map_err(|e| e.to_string())?,
        None => {
            let events: usize = flag(args, "--events")
                .map(|s| s.parse().map_err(|e| format!("--events: {e}")))
                .transpose()?
                .unwrap_or(inst.graph.len() / 2);
            let seed: u64 = flag(args, "--seed")
                .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
                .transpose()?
                .unwrap_or(0x5EED);
            EventTraceGenerator::new(seed).generate(
                &inst,
                &baseline,
                &EventConfig::standard(events),
            )
        }
    };
    if let Some(path) = flag(args, "--save-trace") {
        trace.save(&path).map_err(|e| e.to_string())?;
        println!("wrote trace -> {path}");
    }

    let cascade: u32 = flag(args, "--cascade")
        .map(|s| s.parse().map_err(|e| format!("--cascade: {e}")))
        .transpose()?
        .unwrap_or(50);
    let mut engine = RepairEngine::new(
        inst,
        baseline,
        RepairConfig {
            cascade_threshold_pct: cascade,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;

    let t0 = std::time::Instant::now();
    for (i, ev) in trace.events.iter().enumerate() {
        let what = match ev {
            ScheduleEvent::Finish { task, actual } => format!("finish  t{} @ {actual}", task.0),
            ScheduleEvent::DurationRevised { task, duration } => {
                format!("revise  t{} -> {duration} ticks", task.0)
            }
            ScheduleEvent::Cancel { task } => format!("cancel  t{}", task.0),
            ScheduleEvent::Arrive { name, sw_time, .. } => {
                format!("arrive  `{name}` ({sw_time} ticks sw)")
            }
        };
        let out = engine
            .apply(ev)
            .map_err(|e| format!("event {i} ({what}): {e}"))?;
        println!(
            "[{i:4}] {what:32} | frontier {:4} moved {:4} recs {:2}{} | makespan {}",
            out.frontier,
            out.moved,
            out.recs_replaced,
            if out.full_resolve { " FULL" } else { "     " },
            out.makespan,
        );
    }
    let elapsed = t0.elapsed();

    validate_schedule_sweep(engine.instance(), engine.schedule())
        .map_err(|e| format!("internal: repaired schedule is invalid: {e}"))?;
    let s = engine.stats();
    println!(
        "replayed {} events in {:.3}ms: makespan {before} -> {} | {} frontier tasks, {} moved, {} reconfigurations re-placed, {} full re-solves, {} retired",
        s.events,
        elapsed.as_secs_f64() * 1000.0,
        engine.schedule().makespan(),
        s.frontier_tasks,
        s.moved_tasks,
        s.recs_replaced,
        s.full_resolves,
        s.retired_tasks,
    );
    if let Some(out) = flag(args, "--out") {
        let json = serde_json::to_string_pretty(engine.schedule()).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        println!("wrote repaired schedule -> {out}");
    }
    Ok(())
}

fn devices() {
    for d in [Device::xc7z010(), Device::xc7z020(), Device::xc7z045()] {
        let geom = d.geometry.as_ref().expect("catalog devices have geometry");
        println!(
            "{:9} capacity {} | {} columns x {} rows | ~{:.1} ms full-fabric reconfiguration",
            d.name,
            d.max_res,
            geom.columns.len(),
            geom.rows,
            d.reconf_time(&d.max_res) as f64 / 1000.0,
        );
    }
}

fn platforms() {
    for p in Platform::catalog() {
        println!(
            "{:14} {} fabrics, total {}, crossing latency {} ticks",
            p.name,
            p.num_fabrics(),
            p.total_resources(),
            p.crossing_latency,
        );
        for (f, d) in p.fabrics.iter().enumerate() {
            let grid = d
                .geometry
                .as_ref()
                .map(|g| format!("{} columns x {} rows", g.columns.len(), g.rows))
                .unwrap_or_else(|| "no geometry".to_string());
            println!(
                "  fabric {f}: {:12} capacity {} | {grid}",
                d.name, d.max_res
            );
        }
    }
    println!();
    println!("single-device targets (1-fabric platforms): see `prfpga devices`");
}

/// `prfpga serve`: the scheduling daemon on a TCP socket. Runs until the
/// process is killed; `stats` requests and the periodic log line expose
/// the service metrics.
fn serve(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".into());
    let mut config = ServerConfig::default();
    if let Some(v) = flag(args, "--workers") {
        config.workers = v
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or("--workers must be a positive count")?;
    }
    if let Some(v) = flag(args, "--queue-bound") {
        config.queue_bound = v
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or("--queue-bound must be a positive count")?;
    }
    if let Some(v) = flag(args, "--prewarm-tasks") {
        config.prewarm_tasks = v.parse().map_err(|e| format!("--prewarm-tasks: {e}"))?;
    }
    let log_every = flag(args, "--log-every-s")
        .map(|v| v.parse::<u64>().map_err(|e| format!("--log-every-s: {e}")))
        .transpose()?
        .unwrap_or(10);
    config.log_every = (!has(args, "--quiet")).then(|| Duration::from_secs(log_every));

    let transport = TcpTransport::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let handle = Server::start(transport, config.clone());
    eprintln!(
        "prfpga-server listening on {} ({} workers, queue bound {})",
        handle.endpoint(),
        config.workers,
        config.queue_bound
    );
    // The daemon runs until the process is killed; the handle keeps the
    // accept loop and worker pool alive.
    loop {
        std::thread::park();
    }
}
