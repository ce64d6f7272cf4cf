//! The `serve-mixed` workload: the daemon in-process on loopback TCP
//! with two workers, driven open-loop.
//!
//! One sender thread writes requests at seeded Poisson arrival times over
//! one connection; the calling thread reads and checks the replies. The
//! mix is mostly `portfolio` requests with a tight deadline plus some
//! `pa` and `repair` requests, every one carrying an inline paper-scale
//! instance. Each request is timed from when it was due, so a stall
//! counts against every request it delays.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prfpga_gen::{EventConfig, EventTraceGenerator};
use prfpga_model::service::{
    AlgoChoice, ErrorCode, InstanceSpec, ScheduleReply, ScheduleRequest, ServiceRequest,
    ServiceResponse,
};
use prfpga_model::{ProblemInstance, Time};
use prfpga_sched::{PaScheduler, RepairConfig, RepairEngine, SchedulerConfig};
use prfpga_server::{Server, ServerConfig, ServerHandle, TcpTransport};
use prfpga_sim::validate_schedule_sweep;

use crate::batch::{batch_order, paper_suite};
use crate::bound::cpm_lower_bound;
use crate::rng::{shuffle, splitmix64, unit};
use crate::stats::{median, pct, percentile};
use crate::trace::{PhaseTotals, Tracer, SCHED_PHASES};
use crate::{ms, Outcome, Workload};

/// Server worker threads: the machine's two cores.
const WORKERS: usize = 2;
/// Offered load, requests per second.
const RATE: f64 = 4.0;
/// Slack past the longest quiet spell the arrivals allow (the largest
/// gap between due times plus the largest deadline) before the reader
/// gives up on the replies still owed.
const REPLY_SLACK: Duration = Duration::from_secs(5);
/// Id of the ping that marks the end of a phase's traffic.
const END_MARK: u64 = u64::MAX;
/// Request kinds per block of ten: 70% portfolio, 20% PA, 10% repair.
const MIX: [Kind; 10] = [
    Kind::Portfolio,
    Kind::Portfolio,
    Kind::Portfolio,
    Kind::Portfolio,
    Kind::Portfolio,
    Kind::Portfolio,
    Kind::Portfolio,
    Kind::Pa,
    Kind::Pa,
    Kind::Repair,
];
/// Arrivals appended to a repair request.
const REPAIR_ARRIVALS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Portfolio = 0,
    Pa = 1,
    Repair = 2,
}

impl Kind {
    fn deadline_ms(self) -> u64 {
        match self {
            Kind::Portfolio => 100,
            Kind::Pa => 400,
            Kind::Repair => 500,
        }
    }
}

/// A request ready to send, with what its reply is checked against.
struct Prepared {
    req: ServiceRequest,
    kind: Kind,
    /// The instance the reply's schedule must validate against (for a
    /// repair request, the instance grown by its arrivals).
    check: usize,
}

/// A check target: instance plus its CPM bound.
struct Target {
    inst: ProblemInstance,
    bound: Time,
}

/// What the reader saw for one request.
enum Seen {
    Ok {
        reply: Box<ScheduleReply>,
        read: Instant,
        decoded: Instant,
        validated: Instant,
    },
    Err {
        code: ErrorCode,
        decoded: Instant,
    },
}

/// Send-side timestamps of one request.
#[derive(Clone, Copy)]
struct Sent {
    start: Instant,
    encoded: Instant,
    written: Instant,
}

/// The workload after set-up: a running server, one connection, and the
/// whole arrival schedule built.
pub struct ServeMixed {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    handle: ServerHandle,
    requests: Vec<Prepared>,
    targets: Vec<Target>,
    arrivals: Vec<f64>,
    gen_ms: f64,
}

impl ServeMixed {
    /// Builds [`RATE`] × `seconds` requests over the paper's standard suite
    /// with arrival times of a Poisson process conditioned on that count
    /// (sorted uniform points), all from `seed`; starts the server,
    /// connects, and sends a fixed warm-up block of one request of each
    /// kind.
    pub fn setup(seed: u64, seconds: f64) -> ServeMixed {
        let t0 = Instant::now();
        let suite = paper_suite();
        let pool: Vec<ProblemInstance> = suite.concat();
        let mut rng = splitmix64(seed);
        let mut arrivals: Vec<f64> = (0..(RATE * seconds).round() as usize)
            .map(|_| unit(&mut rng) * seconds)
            .collect();
        arrivals.sort_by(f64::total_cmp);

        let mut targets: Vec<Target> = pool
            .iter()
            .map(|inst| Target {
                bound: cpm_lower_bound(inst),
                inst: inst.clone(),
            })
            .collect();
        // Kinds come in shuffled blocks of ten, and each kind takes its
        // instances in turn from its own third of a size-mixed pass over
        // the pool, so the seed moves when each request comes but neither
        // the mix nor which instance each kind schedules. The block after
        // the traffic is the warm-up: the mix in order on the first ten
        // instances.
        let sizes: Vec<usize> = suite.iter().map(Vec::len).collect();
        let pass = batch_order(&sizes, 1, 0);
        let mut taken = [0, pass.len() / 3, 2 * pass.len() / 3];
        let total = arrivals.len() + MIX.len();
        let mut requests = Vec::with_capacity(total);
        let mut block = MIX;
        for i in 0..total {
            let warm_up = i >= arrivals.len();
            if i % MIX.len() == 0 && !warm_up {
                shuffle(&mut block, &mut rng);
            }
            let (kind, pick) = if warm_up {
                let j = i - arrivals.len();
                (MIX[j], j)
            } else {
                let kind = block[i % MIX.len()];
                let next = &mut taken[kind as usize];
                *next += 1;
                (kind, pass[(*next - 1) % pass.len()])
            };
            let mut events = Vec::new();
            let mut check = pick;
            if kind == Kind::Repair {
                let (grown, arrivals) = grow_by_arrivals(&pool[pick], splitmix64(seed ^ i as u64));
                events = arrivals;
                check = targets.len();
                targets.push(Target {
                    bound: cpm_lower_bound(&grown),
                    inst: grown,
                });
            }
            let algo = match kind {
                Kind::Portfolio => AlgoChoice::Portfolio,
                Kind::Pa => AlgoChoice::Pa,
                Kind::Repair => AlgoChoice::Repair,
            };
            requests.push(Prepared {
                req: ServiceRequest::Schedule(Box::new(ScheduleRequest {
                    id: i as u64,
                    algo,
                    instance: InstanceSpec::Inline(Box::new(pool[pick].clone())),
                    deadline_ms: Some(kind.deadline_ms()),
                    budget_ms: None,
                    events,
                })),
                kind,
                check,
            });
        }
        let gen_ms = ms(t0.elapsed());

        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = transport.local_addr().expect("bound address");
        let handle = Server::start(
            transport,
            ServerConfig {
                workers: WORKERS,
                log_every: None,
                ..ServerConfig::default()
            },
        );
        // A plain stream rather than the server crate's client, so that
        // reads and writes can time out instead of hanging on a lost reply.
        let writer = TcpStream::connect(addr).expect("connect to the server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        writer
            .set_write_timeout(Some(REPLY_SLACK))
            .expect("set a write timeout");
        let reader = writer.try_clone().expect("clone the client stream");
        reader
            .set_read_timeout(Some(REPLY_SLACK))
            .expect("set a read timeout");
        let mut serve = ServeMixed {
            reader: BufReader::new(reader),
            writer,
            handle,
            requests,
            targets,
            arrivals,
            gen_ms,
        };
        // Warm-up: the last block, sent one at a time.
        let first = serve.requests.len() - MIX.len();
        for i in first..serve.requests.len() {
            let line = wire_line(&serve.requests[i].req);
            serve
                .writer
                .write_all(line.as_bytes())
                .expect("send warm-up request");
            let mut reply = String::new();
            serve
                .reader
                .read_line(&mut reply)
                .expect("read warm-up reply");
            match serde_json::from_str::<ServiceResponse>(&reply) {
                Ok(ServiceResponse::Ok(r)) => {
                    let target = &serve.targets[serve.requests[i].check];
                    validate_schedule_sweep(&target.inst, &r.schedule)
                        .expect("warm-up schedule validates");
                }
                other => panic!("warm-up request {i} failed: {other:?}"),
            }
        }
        serve
    }
}

/// One request as a newline-terminated wire line.
fn wire_line(req: &ServiceRequest) -> String {
    let mut line = serde_json::to_string(req).expect("requests serialize");
    line.push('\n');
    line
}

/// `inst` grown by a trace of runtime arrivals, and that trace. The
/// arrivals are synthesized against a quick local baseline; an arrival
/// grows the instance the same way whatever schedule it lands on, so the
/// grown instance is what the daemon's repair validates against too.
fn grow_by_arrivals(
    inst: &ProblemInstance,
    seed: u64,
) -> (ProblemInstance, Vec<prfpga_model::ScheduleEvent>) {
    let mut config = SchedulerConfig::default();
    config.floorplan.time_limit = Duration::from_millis(20);
    let baseline = PaScheduler::new(config.clone())
        .schedule(inst)
        .expect("paper instances schedule");
    let events = EventTraceGenerator::new(seed)
        .generate(
            inst,
            &baseline,
            &EventConfig {
                events: REPAIR_ARRIVALS,
                jitter_pct: 0,
                cancel_pct: 0,
                revise_pct: 0,
                arrive_pct: 100,
            },
        )
        .events;
    let mut engine = RepairEngine::new(
        inst.clone(),
        baseline,
        RepairConfig {
            sched: config,
            ..RepairConfig::default()
        },
    )
    .expect("PA baselines satisfy the engine's preconditions");
    engine.apply_all(&events).expect("arrivals replay");
    (engine.instance().clone(), events)
}

impl Workload for ServeMixed {
    fn run(&mut self, window: Duration, traced: bool) -> Outcome {
        let n = self
            .arrivals
            .iter()
            .take_while(|&&a| a < window.as_secs_f64())
            .count();
        let before = self.handle.stats();
        let sent: Mutex<Vec<Option<Sent>>> = Mutex::new(vec![None; n]);
        let mut seen: Vec<Option<Seen>> = (0..n).map(|_| None).collect();
        let mut out = Outcome {
            root: "request",
            ..Outcome::default()
        };
        // The reader waits at most this long for any one line: the longest
        // quiet spell the arrivals allow, plus slack.
        let quiet = (0..n)
            .map(|i| self.arrivals[i] - if i == 0 { 0.0 } else { self.arrivals[i - 1] })
            .fold(0.0, f64::max);
        let longest_deadline = MIX.iter().map(|k| k.deadline_ms()).max().unwrap_or(0);
        let timeout =
            Duration::from_secs_f64(quiet) + Duration::from_millis(longest_deadline) + REPLY_SLACK;
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout))
            .expect("set a read timeout");
        let mut tracer = traced.then(Tracer::new);
        let start = Instant::now();
        let (requests, arrivals, writer) = (&self.requests, &self.arrivals, &mut self.writer);
        let reader = &mut self.reader;
        let targets = &self.targets;
        let mut last_read = start;

        std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                for i in 0..n {
                    let due = start + Duration::from_secs_f64(arrivals[i]);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let t0 = Instant::now();
                    let line = wire_line(&requests[i].req);
                    let t1 = Instant::now();
                    // A stalled server: stop sending, and the requests
                    // left unsent count as unanswered.
                    if writer.write_all(line.as_bytes()).is_err() {
                        return;
                    }
                    let t2 = Instant::now();
                    sent.lock().expect("no thread panics holding the lock")[i] = Some(Sent {
                        start: t0,
                        encoded: t1,
                        written: t2,
                    });
                }
                let end = wire_line(&ServiceRequest::Ping { id: END_MARK });
                let _ = writer.write_all(end.as_bytes());
            });

            // Every line but the end mark answers one request, so a stray
            // reply is a violation but never leaves the reader waiting. A
            // reply that never comes ends the phase at the read timeout.
            let (mut answered, mut ended) = (0, false);
            let mut line = String::new();
            while !ended || answered < n {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        out.violation("the server closed the connection mid-phase");
                        break;
                    }
                    Err(e) => {
                        out.violation(format!(
                            "no reply within {timeout:?} ({e}); {} of {n} requests unanswered",
                            n.saturating_sub(answered)
                        ));
                        break;
                    }
                    Ok(_) => {}
                }
                let read = Instant::now();
                last_read = read;
                let resp = serde_json::from_str::<ServiceResponse>(&line);
                let decoded = Instant::now();
                let (i, entry) = match resp {
                    Ok(ServiceResponse::Pong { id: END_MARK }) => {
                        ended = true;
                        continue;
                    }
                    Ok(ServiceResponse::Ok(reply)) if (reply.id as usize) < n => {
                        let i = reply.id as usize;
                        let target = &targets[requests[i].check];
                        if let Err(e) = validate_schedule_sweep(&target.inst, &reply.schedule) {
                            out.violation(format!("request {i}: invalid schedule: {e:?}"));
                        } else if reply.schedule.makespan() < target.bound {
                            out.violation(format!(
                                "request {i}: makespan {} below the CPM bound {}",
                                reply.schedule.makespan(),
                                target.bound
                            ));
                        }
                        let validated = Instant::now();
                        (
                            i,
                            Seen::Ok {
                                reply,
                                read,
                                decoded,
                                validated,
                            },
                        )
                    }
                    Ok(ServiceResponse::Err {
                        id: Some(id),
                        error,
                    }) if (id as usize) < n => (
                        id as usize,
                        Seen::Err {
                            code: error.code,
                            decoded,
                        },
                    ),
                    other => {
                        out.violation(format!("unexpected reply {other:?}"));
                        answered += 1;
                        continue;
                    }
                };
                if seen[i].replace(entry).is_some() {
                    out.violation(format!("request {i} answered twice"));
                }
                answered += 1;
            }
            sender.join().expect("the sender thread does not panic");
        });
        out.elapsed_s = (last_read - start).as_secs_f64();
        let after = self.handle.stats();
        let sent = sent
            .into_inner()
            .expect("no thread panics holding the lock");

        let mut acc = Acc {
            limit_ms: ms(ServerConfig::default().sched.floorplan.time_limit),
            ..Acc::default()
        };
        for (i, (s, seen)) in sent.iter().zip(&seen).enumerate() {
            out.attempted += 1;
            let p = &self.requests[i];
            let due = start + Duration::from_secs_f64(self.arrivals[i]);
            let (Some(s), Some(seen)) = (s, seen) else {
                out.violation(format!("request {i} was not sent or not answered"));
                continue;
            };
            acc.lag_ms.push(ms(s.start.saturating_duration_since(due)));
            acc.encode_ms.push(ms(s.encoded - s.start));
            match seen {
                Seen::Err { code, decoded } => {
                    out.failed += 1;
                    if matches!(code, ErrorCode::QueueFull | ErrorCode::DeadlineUnmeetable) {
                        acc.rejected += 1;
                    }
                    if let Some(tr) = tracer.as_mut() {
                        tr.between(i as u64, None, "request-failed", "harness", due, *decoded);
                    }
                }
                Seen::Ok {
                    reply,
                    read,
                    decoded,
                    validated,
                } => {
                    let latency = ms(validated.saturating_duration_since(due));
                    out.latencies_ms.push(latency);
                    out.completed += 1;
                    out.on_time += u64::from(latency <= p.kind.deadline_ms() as f64);
                    let target = &self.targets[p.check];
                    out.ratios
                        .push(reply.schedule.makespan() as f64 / target.bound as f64);
                    acc.record(p.kind, reply, s, *read, *decoded, *validated);
                    if let Some(tr) = tracer.as_mut() {
                        let op = i as u64;
                        let root = tr.between(op, None, "request", "harness", due, *validated);
                        tr.between(op, Some(root), "lag", "harness", due, s.start);
                        tr.between(op, Some(root), "encode", "model", s.start, s.encoded);
                        tr.between(op, Some(root), "write", "transport", s.encoded, s.written);
                        let service = Duration::from_micros(reply.service_us);
                        let service_start = read.checked_sub(service).unwrap_or(s.written);
                        let id =
                            tr.span(op, Some(root), "service", "server", service_start, service);
                        tr.phase_rows(op, id, service_start, &reply.phases);
                        tr.between(op, Some(root), "decode", "model", *read, *decoded);
                        tr.between(op, Some(root), "validate", "sim", *decoded, *validated);
                    }
                }
            }
        }

        if traced {
            acc.fill(&mut out.layers);
            let l = &mut out.layers;
            l.insert("server.queue_peak", after.queue_peak as f64);
            l.insert("server.rejected", acc.rejected as f64);
            let reuses = (after.workspace_reuses - before.workspace_reuses) as f64;
            let rebuilds = (after.workspace_rebuilds - before.workspace_rebuilds) as f64;
            l.insert("server.workspace_reuse_pct", pct(reuses, reuses + rebuilds));
        }
        out.tracer = tracer;
        out
    }

    fn gen_ms(&self) -> f64 {
        self.gen_ms
    }
}

/// Per-request figures a phase accumulates.
#[derive(Default)]
struct Acc {
    lag_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    validate_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    non_search_ms: Vec<f64>,
    phases: PhaseTotals,
    limit_ops: u64,
    wins: BTreeMap<String, u64>,
    portfolio: u64,
    degraded: u64,
    rejected: u64,
    /// The daemon's floorplanner `time_limit`, ms.
    limit_ms: f64,
}

impl Acc {
    fn record(
        &mut self,
        kind: Kind,
        reply: &ScheduleReply,
        s: &Sent,
        read: Instant,
        decoded: Instant,
        validated: Instant,
    ) {
        let service_ms = reply.service_us as f64 / 1e3;
        self.outside_ms.push(ms(read - s.start) - service_ms);
        self.decode_ms.push(ms(decoded - read));
        self.validate_ms.push(ms(validated - decoded));
        if kind == Kind::Portfolio {
            self.portfolio += 1;
            self.degraded += u64::from(reply.degraded);
            let member = reply.algo.trim_start_matches("portfolio/").to_lowercase();
            *self.wins.entry(member).or_insert(0) += 1;
        } else {
            let rows_ms: f64 = reply.phases.iter().map(|r| r.micros as f64 / 1e3).sum();
            self.non_search_ms.push(service_ms - rows_ms);
            self.phases.add(&reply.phases);
            let fp = self.phases.floorplan_ms.last().copied().unwrap_or(0.0);
            self.limit_ops += u64::from(fp >= self.limit_ms);
        }
    }

    fn fill(&self, l: &mut BTreeMap<&'static str, f64>) {
        l.insert("floorplan.ms", median(&self.phases.floorplan_ms));
        l.insert("floorplan.runs", self.phases.mean_runs("floorplan"));
        l.insert(
            "floorplan.limit_ops_pct",
            pct(self.limit_ops as f64, self.phases.ops as f64),
        );
        for (key, metric) in SCHED_PHASES {
            l.insert(metric, self.phases.mean_ms(key));
        }
        l.insert("sched.attempts", self.phases.mean_runs("impl_select"));
        l.insert("model.parse_ms", median(&self.decode_ms));
        l.insert("model.encode_ms", median(&self.encode_ms));
        l.insert("sim.validate_ms", median(&self.validate_ms));
        for (member, metric) in [
            ("pa", "portfolio.win_pct.pa"),
            ("pa-r", "portfolio.win_pct.pa-r"),
            ("is-1", "portfolio.win_pct.is-1"),
            ("heft", "portfolio.win_pct.heft"),
        ] {
            let wins = self.wins.get(member).copied().unwrap_or(0);
            l.insert(metric, pct(wins as f64, self.portfolio as f64));
        }
        l.insert(
            "portfolio.degraded_pct",
            pct(self.degraded as f64, self.portfolio as f64),
        );
        l.insert("server.outside_ms", median(&self.outside_ms));
        l.insert("server.non_search_ms", median(&self.non_search_ms));
        l.insert("load.lag_ms", percentile(&self.lag_ms, 90.0));
    }
}
