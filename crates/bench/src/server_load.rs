//! Server load study: seeded synthetic traffic against the scheduling
//! daemon (`BENCH_server.json`, the `loadgen` binary).
//!
//! A fleet of closed-loop clients replays a deterministic request blend
//! (rotating seeds, one algorithm, one deadline envelope) against an
//! in-process — or, with `--tcp`, a real socket — server, sweep-validates
//! every returned schedule client-side, and writes throughput, latency
//! percentiles and the deadline-hit rate to JSON. Like the scaling study,
//! a committed baseline plus `--check` turns cross-PR service-throughput
//! regressions into hard CI failures.

use std::time::Instant;

use prfpga_model::service::{
    AlgoChoice, InstanceSpec, ScheduleRequest, ServiceRequest, ServiceResponse,
};
use prfpga_model::ProblemInstance;
use prfpga_server::{in_proc, tcp_client, ClientConn, Server, ServerConfig, TcpTransport};
use prfpga_sim::validate_schedule_sweep;

use crate::trajectory::{Better, Gate, Row};

/// Traffic shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total schedule requests across all clients.
    pub requests: usize,
    /// Concurrent closed-loop clients (0 = one per worker).
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Tasks per generated instance.
    pub tasks: usize,
    /// Distinct generator seeds the traffic rotates through.
    pub seeds: u64,
    /// Algorithm every request asks for.
    pub algo: AlgoChoice,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-request inner search budget, milliseconds.
    pub budget_ms: Option<u64>,
    /// Drive a real TCP socket instead of the in-process transport.
    pub tcp: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            requests: 400,
            clients: 0,
            workers: ServerConfig::default().workers,
            tasks: 60,
            seeds: 8,
            algo: AlgoChoice::Portfolio,
            deadline_ms: Some(50),
            // Well under the deadline: the inner search budget must leave
            // room for queueing, validation, framing — and for core
            // contention, since every in-flight portfolio request races
            // several members at once.
            budget_ms: Some(10),
            tcp: false,
        }
    }
}

/// The load study's CI gate: served requests per second. An invalid
/// schedule and the deadline-hit-rate floor are absolute checks in
/// `loadgen`, not regressions against a baseline.
pub const SERVER_GATES: &[Gate] = &[Gate {
    metric: "req_per_sec",
    better: Better::Higher,
}];

/// Builds the wire line of request `id` for profile seed `seed`.
fn request_line(config: &LoadConfig, id: u64, seed: u64) -> String {
    let req = ServiceRequest::Schedule(Box::new(ScheduleRequest {
        id,
        algo: config.algo,
        instance: InstanceSpec::Generated {
            tasks: config.tasks,
            seed,
            platform: None,
            cores: 2,
        },
        deadline_ms: config.deadline_ms,
        budget_ms: config.budget_ms,
        events: Vec::new(),
    }));
    serde_json::to_string(&req).expect("requests serialize")
}

/// Per-client tallies, merged into the row.
#[derive(Default)]
struct ClientTally {
    ok: u64,
    errors: u64,
    invalid: u64,
    declared: u64,
    met: u64,
}

fn drive_client(
    config: &LoadConfig,
    client: &mut ClientConn,
    client_idx: usize,
    count: usize,
    corpus: &[ProblemInstance],
) -> ClientTally {
    let mut tally = ClientTally::default();
    for i in 0..count {
        let seed = (client_idx + i) as u64 % config.seeds;
        let id = client_idx as u64 * 1_000_000 + i as u64;
        let line = request_line(config, id, seed);
        client.send_line(&line).expect("send request");
        let resp = client
            .recv_line()
            .expect("read response")
            .expect("response before EOF");
        let resp: ServiceResponse =
            serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e:?}"));
        match resp {
            ServiceResponse::Ok(reply) => {
                tally.ok += 1;
                if validate_schedule_sweep(&corpus[seed as usize], &reply.schedule).is_err() {
                    tally.invalid += 1;
                }
                if config.deadline_ms.is_some() {
                    tally.declared += 1;
                    if reply.deadline_met {
                        tally.met += 1;
                    }
                }
            }
            _ => tally.errors += 1,
        }
    }
    tally
}

/// Runs one load study: starts a server, drives the traffic, stops the
/// server, and merges client- and server-side tallies into one row,
/// `"closed-loop traffic"`.
///
/// The setup is the transport (`transport/in-proc` or `transport/tcp`),
/// the algorithm (`algo/<name>`), `tasks` per instance, server `workers`
/// and concurrent `clients`. `requests` is a metric, not setup: it is run
/// length, and a shorter run compares against a longer baseline. The
/// other metrics count `ok` responses, typed `errors` (admission
/// rejections included) and `invalid_schedules` (responses failing the
/// client-side sweep validation); time the traffic phase (`duration_s`,
/// `req_per_sec` served); count declared and met deadlines and their
/// `deadline_hit_rate_pct` (100 when none); and copy the server's
/// median and 99th-percentile service time (`p50_us`, `p99_us`),
/// workspace reuses and rebuilds, and admission rejections.
pub fn run_server_load(config: &LoadConfig) -> Row {
    let clients = if config.clients == 0 {
        config.workers
    } else {
        config.clients
    };
    let server_config = ServerConfig {
        workers: config.workers,
        prewarm_tasks: config.tasks,
        log_every: None,
        ..ServerConfig::default()
    };

    // The named profiles the traffic rotates through, regenerated once
    // here so every response can be sweep-validated client-side.
    let corpus: Vec<ProblemInstance> = (0..config.seeds)
        .map(|seed| {
            prfpga_gen::service_instance(config.tasks, seed, None, 2).expect("profile generates")
        })
        .collect();

    // Start the server on the chosen transport and connect the fleet.
    let (handle, mut conns): (_, Vec<ClientConn>) = if config.tcp {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        let addr = transport.local_addr().expect("local addr");
        let handle = Server::start(transport, server_config);
        let conns = (0..clients)
            .map(|_| tcp_client(addr).expect("connect"))
            .collect();
        (handle, conns)
    } else {
        let (connector, transport) = in_proc();
        let handle = Server::start(transport, server_config);
        let conns = (0..clients)
            .map(|_| connector.connect().expect("connect"))
            .collect();
        (handle, conns)
    };

    // Closed-loop traffic: spread the request count over the fleet.
    let per_client = config.requests / clients;
    let remainder = config.requests % clients;
    let started = Instant::now();
    let mut tallies: Vec<ClientTally> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let corpus = &corpus;
                let count = per_client + usize::from(c < remainder);
                scope.spawn(move || drive_client(config, client, c, count, corpus))
            })
            .collect();
        for h in handles {
            tallies.push(h.join().expect("client thread"));
        }
    });
    let duration = started.elapsed();
    drop(conns);
    let stats = handle.stop();

    let sum = |f: fn(&ClientTally) -> u64| tallies.iter().map(f).sum::<u64>();
    let (ok, errors, invalid) = (sum(|t| t.ok), sum(|t| t.errors), sum(|t| t.invalid));
    let (declared, met) = (sum(|t| t.declared), sum(|t| t.met));
    let transport = if config.tcp { "tcp" } else { "in-proc" };
    Row::new(
        "closed-loop traffic".into(),
        &[
            (&format!("transport/{transport}"), 1.0),
            (&format!("algo/{}", config.algo), 1.0),
            ("tasks", config.tasks as f64),
            ("workers", config.workers as f64),
            ("clients", clients as f64),
        ],
        &[
            ("requests", config.requests as f64),
            ("ok", ok as f64),
            ("errors", errors as f64),
            ("invalid_schedules", invalid as f64),
            ("duration_s", duration.as_secs_f64()),
            (
                "req_per_sec",
                ok as f64 / duration.as_secs_f64().max(f64::EPSILON),
            ),
            ("deadline_declared", declared as f64),
            ("deadline_met", met as f64),
            (
                "deadline_hit_rate_pct",
                if declared == 0 {
                    100.0
                } else {
                    met as f64 * 100.0 / declared as f64
                },
            ),
            ("p50_us", stats.p50_us as f64),
            ("p99_us", stats.p99_us as f64),
            ("workspace_reuses", stats.workspace_reuses as f64),
            ("workspace_rebuilds", stats.workspace_rebuilds as f64),
            ("rejected_queue_full", stats.rejected_queue_full as f64),
            ("rejected_unmeetable", stats.rejected_unmeetable as f64),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LoadConfig {
        LoadConfig {
            requests: 12,
            clients: 2,
            workers: 2,
            tasks: 12,
            seeds: 3,
            algo: AlgoChoice::Pa,
            deadline_ms: Some(5_000),
            budget_ms: Some(20),
            tcp: false,
        }
    }

    #[test]
    fn tiny_load_run_answers_everything_validly() {
        let row = run_server_load(&tiny_config());
        assert_eq!(row.metric("ok"), Some(12.0));
        assert_eq!(row.metric("errors"), Some(0.0));
        assert_eq!(row.metric("invalid_schedules"), Some(0.0));
        assert_eq!(row.metric("deadline_declared"), Some(12.0));
        assert!(row.metric("req_per_sec").unwrap() > 0.0);
        let workspaces =
            row.metric("workspace_reuses").unwrap() + row.metric("workspace_rebuilds").unwrap();
        assert!(workspaces > 0.0);
    }

    #[test]
    fn tcp_load_run_matches_the_in_proc_path() {
        let row = run_server_load(&LoadConfig {
            requests: 6,
            tcp: true,
            ..tiny_config()
        });
        assert_eq!(row.setup[0].name, "transport/tcp");
        assert_eq!(row.metric("ok"), Some(6.0));
        assert_eq!(row.metric("invalid_schedules"), Some(0.0));
    }
}
