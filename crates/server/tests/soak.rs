//! Deterministic soak: seeded clients drive a mixed request blend through
//! an in-process server and every response is independently
//! sweep-validated client-side. Accounting invariants (queue bound,
//! deadline bookkeeping, workspace-reuse counters) are checked against
//! the server's own stats at the end.
//!
//! CI re-runs this binary under `PRFPGA_THREADS=2`; the config below
//! honors that seam via `ServerConfig::default`.

mod common;

use common::{expect_ok, fetch_stats, gen_request, quiet_config, repair_request, roundtrip, start};
use prfpga_gen::{EventConfig, EventTraceGenerator};
use prfpga_model::service::AlgoChoice;
use prfpga_sched::{PaScheduler, RepairConfig, RepairEngine};
use prfpga_server::ServerConfig;
use prfpga_sim::validate_schedule_sweep;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: u64 = 10;

/// The request blend, rotating per (client, index).
fn blend(c: usize, i: u64) -> (AlgoChoice, Option<u64>) {
    match (c as u64 + i) % 5 {
        0 => (AlgoChoice::Pa, None),
        1 => (AlgoChoice::Par, Some(40)),
        2 => (AlgoChoice::IsK(5), None),
        3 => (AlgoChoice::Portfolio, Some(40)),
        _ => (AlgoChoice::Repair, Some(40)),
    }
}

#[test]
fn mixed_traffic_soak_validates_every_response_and_the_accounting() {
    let config = ServerConfig {
        queue_bound: 16,
        prewarm_tasks: 24,
        ..ServerConfig::default()
    };
    let workers = config.workers.min(2);
    let config = ServerConfig { workers, ..config };
    let queue_bound = config.queue_bound as u64;
    let (connector, handle) = start(config);

    let mut control = connector.connect().expect("control connect");
    let before = fetch_stats(&mut control, 1);
    assert_eq!(
        before.workspace_reuses, 0,
        "prewarm runs stay out of the metrics"
    );
    assert_eq!(before.completed, 0);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| connector.connect().expect("client connect"))
        .collect();

    // (deadline declared & met, declared & missed, first/last pinned
    // schedule bytes from client 0).
    let mut tallies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut met = 0u64;
                    let mut missed = 0u64;
                    let mut pinned: Option<(String, String)> = None;
                    for i in 0..REQUESTS_PER_CLIENT {
                        let (algo, budget) = blend(c, i);
                        let tasks = 12 + 4 * ((c as u64 * 3 + i) % 4) as usize;
                        let seed = 0xA11CE + (c as u64 + 2 * i) % 8;
                        let deadline = (i % 3 == 0).then_some(10_000u64);
                        let id = c as u64 * 1000 + i;
                        let line = match algo {
                            AlgoChoice::Repair => repair_request(id, tasks, seed, budget, vec![]),
                            algo => gen_request(id, algo, tasks, seed, deadline, budget),
                        };
                        let reply = expect_ok(roundtrip(&mut client, &line));
                        assert_eq!(reply.id, id, "client {c}: response correlation");
                        assert_eq!(
                            reply.makespan,
                            reply.schedule.makespan(),
                            "client {c} req {i}: advertised makespan"
                        );

                        // Independent validation: regenerate the instance
                        // the named profile denotes and sweep the schedule.
                        let inst = prfpga_gen::service_instance(tasks, seed, None, 2)
                            .expect("profile regenerates");
                        validate_schedule_sweep(&inst, &reply.schedule).unwrap_or_else(|e| {
                            panic!("client {c} req {i} ({algo:?}): invalid schedule: {e:?}")
                        });

                        // Repair requests declared no deadline in this mix.
                        if deadline.is_some() && algo != AlgoChoice::Repair {
                            if reply.deadline_met {
                                met += 1;
                            } else {
                                missed += 1;
                            }
                        }

                        // Client 0 pins its first request and replays it at
                        // the end: the warm pool must answer byte-identically.
                        if c == 0 && i == 0 {
                            pinned = Some((line.clone(), schedule_bytes(&reply)));
                        }
                    }
                    if let Some((line, first)) = &pinned {
                        let replay = expect_ok(roundtrip(&mut client, line));
                        assert_eq!(
                            &schedule_bytes(&replay),
                            first,
                            "warm-pool replay diverged from the first answer"
                        );
                        // The replayed line declares the same deadline as
                        // the original; keep the tally in sync with the
                        // server's accounting.
                        if replay.deadline_met {
                            met += 1;
                        } else {
                            missed += 1;
                        }
                    }
                    (met, missed, pinned.is_some() as u64)
                })
            })
            .collect();
        for h in handles {
            tallies.push(h.join().expect("client thread"));
        }
    });

    let after = fetch_stats(&mut control, 2);
    drop(control);
    let stats = handle.stop();

    let replays: u64 = tallies.iter().map(|t| t.2).sum();
    let scheduled = CLIENTS as u64 * REQUESTS_PER_CLIENT + replays;
    assert_eq!(stats.admitted, scheduled, "all requests admitted");
    assert_eq!(stats.completed, scheduled, "all requests answered");
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.rejected_queue_full, 0);
    assert_eq!(stats.rejected_unmeetable, 0);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.queue_depth, 0, "queue drained");
    assert!(
        stats.queue_peak <= queue_bound,
        "queue depth {} beyond its bound {queue_bound}",
        stats.queue_peak
    );

    // Deadline bookkeeping must match the per-response flags the clients
    // saw (the metric is fed with exactly the `deadline_met` value).
    let met: u64 = tallies.iter().map(|t| t.0).sum();
    let missed: u64 = tallies.iter().map(|t| t.1).sum();
    assert_eq!(stats.deadline_met, met, "deadline-met accounting");
    assert_eq!(stats.deadline_missed, missed, "deadline-missed accounting");

    // The warm pool was exercised: reuse counters strictly increased
    // over the soak and never moved backwards.
    assert!(
        after.workspace_reuses > 0,
        "no workspace reuse during the soak"
    );
    assert!(
        stats.workspace_reuses + stats.workspace_rebuilds
            >= after.workspace_reuses + after.workspace_rebuilds,
        "reuse counters regressed"
    );
    assert!(
        stats.workspace_reuses + stats.workspace_rebuilds
            > before.workspace_reuses + before.workspace_rebuilds,
        "reuse counters never moved"
    );
}

fn schedule_bytes(reply: &prfpga_model::service::ScheduleReply) -> String {
    serde_json::to_string(&reply.schedule).expect("schedules serialize")
}

/// Service-level regression for the workspace staleness hazard: repair
/// requests for two different instances interleaved on ONE worker must
/// answer byte-identically to dedicated servers that each saw a single
/// instance — and to a local replay of the same repair, engine and all.
#[test]
fn interleaved_repairs_on_one_worker_match_dedicated_servers() {
    let base = ServerConfig {
        prewarm_tasks: 16,
        ..quiet_config(1)
    };

    let spec_a = (20usize, 11u64);
    let spec_b = (24usize, 12u64);
    let events_for = |(tasks, seed): (usize, u64), trace_seed: u64| {
        let inst = prfpga_gen::service_instance(tasks, seed, None, 2).expect("generate");
        let baseline = PaScheduler::new(base.sched.clone())
            .schedule(&inst)
            .expect("baseline");
        let events = EventTraceGenerator::new(trace_seed)
            .generate(&inst, &baseline, &EventConfig::on_time(5))
            .events;
        (inst, baseline, events)
    };
    let (inst_a, baseline_a, events_a) = events_for(spec_a, 77);
    let (inst_b, baseline_b, events_b) = events_for(spec_b, 78);

    // Interleave A and B repairs over one shared, warm worker.
    let (connector, handle) = start(base.clone());
    let mut client = connector.connect().expect("connect");
    let mut answers_a = Vec::new();
    let mut answers_b = Vec::new();
    for round in 0..3u64 {
        let ra = expect_ok(roundtrip(
            &mut client,
            &repair_request(round * 2, spec_a.0, spec_a.1, None, events_a.clone()),
        ));
        answers_a.push(schedule_bytes(&ra));
        let rb = expect_ok(roundtrip(
            &mut client,
            &repair_request(round * 2 + 1, spec_b.0, spec_b.1, None, events_b.clone()),
        ));
        answers_b.push(schedule_bytes(&rb));
    }
    drop(client);
    handle.stop();

    assert!(
        answers_a.iter().all(|a| a == &answers_a[0]),
        "instance A answers drifted across interleaved rounds"
    );
    assert!(
        answers_b.iter().all(|b| b == &answers_b[0]),
        "instance B answers drifted across interleaved rounds"
    );

    // Dedicated single-instance servers must agree with the shared one.
    for (spec, events, expected) in [
        (spec_a, &events_a, &answers_a[0]),
        (spec_b, &events_b, &answers_b[0]),
    ] {
        let (connector, handle) = start(base.clone());
        let mut client = connector.connect().expect("connect");
        let reply = expect_ok(roundtrip(
            &mut client,
            &repair_request(9, spec.0, spec.1, None, events.clone()),
        ));
        assert_eq!(
            &schedule_bytes(&reply),
            expected,
            "dedicated server disagrees with the interleaved worker"
        );
        drop(client);
        handle.stop();
    }

    // Differential replay: the same repair run locally, against the same
    // baseline and config, must reproduce the served schedule — and the
    // result must sweep-validate against the engine's revised instance.
    for (inst, baseline, events, expected) in [
        (inst_a, baseline_a, &events_a, &answers_a[0]),
        (inst_b, baseline_b, &events_b, &answers_b[0]),
    ] {
        let mut engine = RepairEngine::new(
            inst,
            baseline,
            RepairConfig {
                sched: base.sched.clone(),
                ..Default::default()
            },
        )
        .expect("engine");
        engine.apply_all(events).expect("repair applies");
        assert_eq!(
            &serde_json::to_string(engine.schedule()).unwrap(),
            expected,
            "local repair replay disagrees with the server"
        );
        validate_schedule_sweep(engine.instance(), engine.schedule())
            .expect("repaired schedule sweeps clean");
    }
}
