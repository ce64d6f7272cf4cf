//! The worker pool: N threads, each owning pre-warmed scheduler
//! workspaces, executing admitted jobs off the bounded queue.
//!
//! Per request the worker path allocates nothing beyond what the
//! schedulers themselves need on an instance switch: the PA / PA-R
//! workspace and the portfolio's per-member pool live in the worker for
//! its whole lifetime and are rewound between requests (their reuse /
//! rebuild counters feed [`ServerMetrics`]). Every schedule is
//! sweep-validated before it is written back; a validation failure is a
//! server bug and answered as [`ErrorCode::Internal`], never sent as a
//! schedule.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prfpga_model::service::{
    AlgoChoice, ErrorCode, PhaseRow, ScheduleReply, ScheduleRequest, ServiceResponse,
};
use prfpga_model::{CancelToken, ProblemInstance, Schedule};
use prfpga_portfolio::{Member, Portfolio, PortfolioConfig, PortfolioWorkspaces};
use prfpga_sched::{
    PhaseTrace, RepairConfig, RepairEngine, SchedError, SchedWorkspace, SchedulerConfig,
};
use prfpga_sim::validate_schedule_sweep;

use crate::metrics::ServerMetrics;
use crate::queue::JobQueue;

/// Shared handle to one client connection: the response writer plus the
/// liveness flag and per-connection cancel token the reader thread owns.
#[derive(Clone)]
pub(crate) struct ConnHandle {
    pub writer: Arc<Mutex<Box<dyn Write + Send>>>,
    pub alive: Arc<AtomicBool>,
    pub token: CancelToken,
}

impl ConnHandle {
    /// Serializes and writes one response line; marks the connection dead
    /// on a failed write. Returns whether the response was delivered.
    pub(crate) fn send(&self, resp: &ServiceResponse) -> bool {
        let mut line = serde_json::to_string(resp).expect("responses always serialize");
        line.push('\n');
        let mut writer = self.writer.lock().expect("writer lock");
        let sent = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .is_ok();
        if !sent {
            self.alive.store(false, Ordering::Release);
        }
        sent
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }
}

/// One admitted scheduling job.
pub(crate) struct Job {
    pub req: ScheduleRequest,
    pub inst: Arc<ProblemInstance>,
    /// Child of the connection token, carrying the request deadline.
    pub token: CancelToken,
    pub conn: ConnHandle,
    pub admitted_at: Instant,
    pub deadline: Option<Duration>,
}

/// Long-lived per-worker state.
struct WorkerState {
    ws: SchedWorkspace,
    pws: PortfolioWorkspaces,
    base: SchedulerConfig,
    seen_reuses: u64,
    seen_rebuilds: u64,
}

impl WorkerState {
    fn reuse_counters(&self) -> (u64, u64) {
        (
            self.ws.reuses() + self.pws.reuses(),
            self.ws.rebuilds() + self.pws.rebuilds(),
        )
    }

    /// Publishes the reuse/rebuild delta since the last flush.
    fn flush_reuse_delta(&mut self, metrics: &ServerMetrics) {
        let (reuses, rebuilds) = self.reuse_counters();
        metrics
            .ws_reuses
            .fetch_add(reuses - self.seen_reuses, Ordering::Relaxed);
        metrics
            .ws_rebuilds
            .fetch_add(rebuilds - self.seen_rebuilds, Ordering::Relaxed);
        self.seen_reuses = reuses;
        self.seen_rebuilds = rebuilds;
    }
}

/// Body of one worker thread: prewarm, then drain the queue until it
/// closes. `ready` is bumped once the prewarm run is done so the server
/// can report readiness.
pub(crate) fn worker_loop(
    queue: Arc<JobQueue<Job>>,
    metrics: Arc<ServerMetrics>,
    base: SchedulerConfig,
    prewarm: Option<Arc<ProblemInstance>>,
    ready: Arc<AtomicUsize>,
) {
    let mut state = WorkerState {
        ws: SchedWorkspace::new(),
        pws: PortfolioWorkspaces::new(),
        base,
        seen_reuses: 0,
        seen_rebuilds: 0,
    };

    if let Some(inst) = prewarm {
        // Touch both the plain and the portfolio workspaces so the first
        // real request finds warm buffers. Iteration-capped so prewarm is
        // bounded; counters are captured afterwards so prewarm runs never
        // show up in the service metrics.
        let cfg = SchedulerConfig {
            max_iterations: 2,
            time_budget: Duration::from_millis(200),
            ..state.base.clone()
        };
        let _ = Member::Pa.run(&inst, &cfg, &CancelToken::never(), &mut state.ws);
        let _ = Portfolio::new(PortfolioConfig {
            deadline: Some(Duration::from_millis(200)),
            sched: cfg,
            ..Default::default()
        })
        .run_with_cancel_in(&inst, &CancelToken::never(), &mut state.pws);
        let (reuses, rebuilds) = state.reuse_counters();
        state.seen_reuses = reuses;
        state.seen_rebuilds = rebuilds;
    }
    ready.fetch_add(1, Ordering::Release);

    while let Some(job) = queue.pop() {
        // The client vanished while the job sat queued: skip the work.
        if !job.conn.is_alive() {
            metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let resp = execute(&job, &mut state);
        state.flush_reuse_delta(&metrics);
        let delivered = job.conn.send(&resp);
        match (&resp, delivered) {
            (ServiceResponse::Ok(_), true) => {
                let service_us = job.admitted_at.elapsed().as_micros() as u64;
                let met = job.deadline.map(|d| job.admitted_at.elapsed() <= d);
                metrics.record_completion(service_us, met);
            }
            (_, false) => {
                metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            // A typed error that was delivered: already counted at its
            // origin (admission or here via the error path).
            _ => {}
        }
    }
}

/// Per-request scheduler configuration: the request's explicit search
/// budget wins; otherwise 60% of its deadline funds the inner search (the
/// rest covers queueing, validation and serialization); otherwise the
/// server's base budget stands.
fn request_config(base: &SchedulerConfig, req: &ScheduleRequest) -> SchedulerConfig {
    let mut cfg = base.clone();
    if let Some(ms) = req.budget_ms {
        cfg.time_budget = Duration::from_millis(ms);
    } else if let Some(ms) = req.deadline_ms {
        cfg.time_budget = Duration::from_millis(ms) * 3 / 5;
    }
    cfg
}

fn phase_rows(trace: &PhaseTrace) -> Vec<PhaseRow> {
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

/// The error code and message a failed run is answered with.
type RunError = (ErrorCode, String);

fn sched_error(err: SchedError) -> RunError {
    let code = match err {
        SchedError::InvalidInstance(_) => ErrorCode::InvalidInstance,
        _ => ErrorCode::SchedulingFailed,
    };
    (code, err.to_string())
}

/// What a successful scheduler run hands to the response builder: the
/// schedule, the revised instance to validate it against (`None` = the
/// request's own), the algo label, and the degraded / deadline-hit flags
/// plus the PA phase rows.
type RunOutcome = (
    Schedule,
    Option<ProblemInstance>,
    String,
    bool,
    bool,
    Vec<PhaseRow>,
);

/// Runs one job on this worker's warm state and builds the response.
fn execute(job: &Job, state: &mut WorkerState) -> ServiceResponse {
    let req = &job.req;
    let cfg = request_config(&state.base, req);
    let inst = &*job.inst;
    // PA, PA-R and IS-k run as the portfolio's members do, in this
    // worker's workspace; the reply is labelled with the request's tag.
    let mut run_member = |member: Member| -> Result<RunOutcome, RunError> {
        let r = member
            .run(inst, &cfg, &job.token, &mut state.ws)
            .map_err(sched_error)?;
        let hit = r.degraded || job.token.deadline_hits() > 0;
        let phases = phase_rows(&r.trace);
        Ok((
            r.schedule,
            None,
            req.algo.to_string(),
            r.degraded,
            hit,
            phases,
        ))
    };

    let run = match req.algo {
        AlgoChoice::Pa => run_member(Member::Pa),
        AlgoChoice::Par => run_member(Member::PaR),
        AlgoChoice::IsK(k) => run_member(Member::IsK(k)),
        // Commit a PA baseline, then replay the event list through the
        // delta-repair engine. Events mutate the instance (actual
        // durations, cancellations), so validation runs against the
        // engine's revised instance.
        AlgoChoice::Repair => {
            run_member(Member::Pa).and_then(|(baseline, _, algo, degraded, hit, phases)| {
                RepairEngine::new(
                    inst.clone(),
                    baseline,
                    RepairConfig {
                        sched: cfg.clone(),
                        ..Default::default()
                    },
                )
                .and_then(|mut engine| {
                    engine.apply_all(&req.events)?;
                    Ok((engine.schedule().clone(), engine.instance().clone()))
                })
                .map(|(schedule, revised)| (schedule, Some(revised), algo, degraded, hit, phases))
                .map_err(|e| (ErrorCode::SchedulingFailed, format!("repair failed: {e}")))
            })
        }
        AlgoChoice::Portfolio => Portfolio::new(PortfolioConfig {
            deadline: Some(cfg.time_budget),
            sched: cfg.clone(),
            ..Default::default()
        })
        .run_with_cancel_in(inst, &job.token, &mut state.pws)
        .map(|r| {
            (
                r.schedule,
                None,
                format!("portfolio/{}", r.winner),
                r.degraded,
                r.deadline_hit,
                Vec::new(),
            )
        })
        .map_err(sched_error),
    };

    let (schedule, revised, algo, degraded, deadline_hit, phases) = match run {
        Ok(parts) => parts,
        Err((code, msg)) => return ServiceResponse::error(Some(req.id), code, msg),
    };

    // The sweep validator stands between every scheduler result and the
    // wire: a schedule the server cannot prove valid is never sent.
    if let Err(e) = validate_schedule_sweep(revised.as_ref().unwrap_or(inst), &schedule) {
        return ServiceResponse::error(
            Some(req.id),
            ErrorCode::Internal,
            format!("schedule failed validation: {e:?}"),
        );
    }

    let elapsed = job.admitted_at.elapsed();
    ServiceResponse::Ok(Box::new(ScheduleReply {
        id: req.id,
        algo,
        makespan: schedule.makespan(),
        degraded,
        deadline_hit,
        deadline_met: job.deadline.is_none_or(|d| elapsed <= d),
        service_us: elapsed.as_micros() as u64,
        phases,
        schedule,
    }))
}
