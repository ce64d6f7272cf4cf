//! The daemon core: accept loop, per-connection reader threads with
//! admission control, the worker pool, and the lifecycle handle.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prfpga_model::service::{
    ErrorCode, InstanceSpec, ServiceRequest, ServiceResponse, ServiceStats,
};
use prfpga_model::{CancelToken, ProblemInstance};
use prfpga_sched::SchedulerConfig;

use crate::frame::{Frame, LineFramer};
use crate::metrics::ServerMetrics;
use crate::queue::JobQueue;
use crate::transport::{Connection, Transport};
use crate::worker::{worker_loop, ConnHandle, Job};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each owns its pre-warmed workspaces). Defaults to
    /// `PRFPGA_THREADS` when set, else 4 — the same knob the rest of the
    /// workspace uses for thread counts.
    pub workers: usize,
    /// Bound of the request queue; admission rejects past it.
    pub queue_bound: usize,
    /// Largest accepted request line in bytes.
    pub max_frame_bytes: usize,
    /// Base scheduler configuration (per-request deadlines and budgets
    /// override its `time_budget`).
    pub sched: SchedulerConfig,
    /// Task count of the per-worker prewarm run (0 disables prewarming).
    pub prewarm_tasks: usize,
    /// Period of the stats log line on stderr (`None` = quiet).
    pub log_every: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::env::var("PRFPGA_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(4);
        ServerConfig {
            workers,
            queue_bound: 64,
            max_frame_bytes: 4 << 20,
            sched: SchedulerConfig::default(),
            prewarm_tasks: 60,
            log_every: None,
        }
    }
}

/// The scheduling daemon. [`Server::start`] spawns the accept loop and
/// the worker pool and returns a handle; the server runs until the handle
/// is stopped or dropped.
pub struct Server;

/// Running-server handle; stopping (or dropping) shuts the server down.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue<Job>>,
    metrics: Arc<ServerMetrics>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    logger: Option<JoinHandle<()>>,
    endpoint: String,
}

impl Server {
    /// Starts the daemon on `transport`. Blocks until every worker has
    /// finished its prewarm run, so the first request meets warm
    /// workspaces.
    pub fn start<T: Transport + 'static>(transport: T, config: ServerConfig) -> ServerHandle {
        let endpoint = transport.endpoint();
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::new(config.queue_bound));
        let metrics = Arc::new(ServerMetrics::new());

        let prewarm: Option<Arc<ProblemInstance>> = (config.prewarm_tasks > 0)
            .then(|| {
                prfpga_gen::service_instance(config.prewarm_tasks, 0, None, 2)
                    .ok()
                    .map(Arc::new)
            })
            .flatten();

        let ready = Arc::new(AtomicUsize::new(0));
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let sched = config.sched.clone();
                let prewarm = prewarm.clone();
                let ready = Arc::clone(&ready);
                std::thread::spawn(move || worker_loop(queue, metrics, sched, prewarm, ready))
            })
            .collect();
        while ready.load(Ordering::Acquire) < workers.len() {
            std::thread::sleep(Duration::from_millis(1));
        }

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let config = config.clone();
            std::thread::spawn(move || accept_loop(transport, shutdown, queue, metrics, config))
        };

        let logger = config.log_every.map(|period| {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut last = Instant::now();
                while !shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(50));
                    if last.elapsed() >= period {
                        last = Instant::now();
                        let stats = metrics.snapshot(queue.depth(), queue.peak(), queue.bound());
                        eprintln!("[prfpga-server] {}", stats.log_line());
                    }
                }
            })
        });

        ServerHandle {
            shutdown,
            queue,
            metrics,
            accept: Some(accept),
            workers,
            logger,
            endpoint,
        }
    }
}

impl ServerHandle {
    /// Where the server listens (log label).
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// A live metrics snapshot (same payload as the `stats` request).
    pub fn stats(&self) -> ServiceStats {
        self.metrics
            .snapshot(self.queue.depth(), self.queue.peak(), self.queue.bound())
    }

    /// Stops the server: the accept loop exits, queued work drains, the
    /// workers join. Connection reader threads exit on their client's
    /// EOF and are not joined (a blocked read on a live client must not
    /// wedge shutdown).
    pub fn stop(mut self) -> ServiceStats {
        self.shut_down();
        self.stats()
    }

    fn shut_down(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.logger.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shut_down();
    }
}

fn accept_loop<T: Transport>(
    mut transport: T,
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue<Job>>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
) {
    while !shutdown.load(Ordering::Acquire) {
        match transport.accept(Duration::from_millis(50)) {
            Ok(Some(conn)) => {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let config = config.clone();
                // Reader threads exit on client EOF; they are detached so
                // a silent client cannot block shutdown (see
                // `ServerHandle::stop`).
                std::thread::spawn(move || connection_loop(conn, queue, metrics, config));
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
}

/// Reads one connection until EOF: framing, parsing, admission, enqueue.
/// On EOF or a read error the per-connection token is cancelled, which
/// reaches every in-flight job of this connection at its next
/// cancellation checkpoint.
fn connection_loop(
    conn: Connection,
    queue: Arc<JobQueue<Job>>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
) {
    let Connection { mut reader, writer } = conn;
    let handle = ConnHandle {
        writer: Arc::new(Mutex::new(writer)),
        alive: Arc::new(AtomicBool::new(true)),
        token: CancelToken::never(),
    };

    let mut framer = LineFramer::new(config.max_frame_bytes);
    let mut frames = Vec::new();
    let mut chunk = [0u8; 8 * 1024];
    'conn: loop {
        let n = match reader.read(&mut chunk) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        framer.push(&chunk[..n], &mut frames);
        for frame in frames.drain(..) {
            let delivered = match frame {
                Frame::Line(line) => handle_line(&line, &handle, &queue, &metrics, &config),
                Frame::Oversized => {
                    metrics.malformed.fetch_add(1, Ordering::Relaxed);
                    handle.send(&ServiceResponse::error(
                        None,
                        ErrorCode::Oversized,
                        format!("frame exceeds {} bytes", config.max_frame_bytes),
                    ))
                }
                Frame::Binary => {
                    metrics.malformed.fetch_add(1, Ordering::Relaxed);
                    handle.send(&ServiceResponse::error(
                        None,
                        ErrorCode::Malformed,
                        "request line is not valid UTF-8",
                    ))
                }
            };
            if !delivered {
                break 'conn;
            }
        }
    }
    // Client gone: cancel everything in flight for this connection.
    handle.alive.store(false, Ordering::Release);
    handle.token.cancel();
}

/// Handles one request line; returns whether the connection is still
/// writable (an enqueued schedule request counts as writable — its
/// response comes later, from a worker).
fn handle_line(
    line: &str,
    conn: &ConnHandle,
    queue: &Arc<JobQueue<Job>>,
    metrics: &Arc<ServerMetrics>,
    config: &ServerConfig,
) -> bool {
    let req = match serde_json::from_str::<ServiceRequest>(line) {
        Ok(req) => req,
        Err(e) => {
            metrics.malformed.fetch_add(1, Ordering::Relaxed);
            return conn.send(&ServiceResponse::error(
                None,
                ErrorCode::Malformed,
                e.to_string(),
            ));
        }
    };
    metrics.received.fetch_add(1, Ordering::Relaxed);

    match req {
        ServiceRequest::Ping { id } => conn.send(&ServiceResponse::Pong { id }),
        ServiceRequest::Stats { id } => {
            let stats = metrics.snapshot(queue.depth(), queue.peak(), queue.bound());
            conn.send(&ServiceResponse::Stats { id, stats })
        }
        ServiceRequest::Schedule(req) => {
            let id = req.id;
            // Resolve the instance on the connection thread, keeping the
            // worker path allocation-free for the warm (generated) case.
            let inst = match &req.instance {
                InstanceSpec::Inline(inst) => {
                    if let Err(e) = inst.validate() {
                        return conn.send(&ServiceResponse::error(
                            Some(id),
                            ErrorCode::InvalidInstance,
                            e.to_string(),
                        ));
                    }
                    Arc::new((**inst).clone())
                }
                InstanceSpec::Generated {
                    tasks,
                    seed,
                    platform,
                    cores,
                } => match prfpga_gen::service_instance(*tasks, *seed, platform.as_deref(), *cores)
                {
                    Ok(inst) => Arc::new(inst),
                    Err(e) => {
                        return conn.send(&ServiceResponse::error(
                            Some(id),
                            ErrorCode::InvalidInstance,
                            e,
                        ));
                    }
                },
            };

            // Admission control, cheapest test first. Deadline feasibility
            // uses the EWMA service time: with `depth` jobs ahead on
            // `workers` workers, the expected wait alone already exceeds
            // the declared deadline → reject now instead of burning a
            // worker on a schedule nobody can use.
            let deadline = req.deadline_ms.map(Duration::from_millis);
            if let (Some(d), ewma_us) = (deadline, metrics.ewma_us()) {
                if ewma_us > 0 {
                    let wait_us = (queue.depth() as u64) * ewma_us / (config.workers.max(1) as u64);
                    if Duration::from_micros(wait_us) > d {
                        metrics.rejected_unmeetable.fetch_add(1, Ordering::Relaxed);
                        return conn.send(&ServiceResponse::error(
                            Some(id),
                            ErrorCode::DeadlineUnmeetable,
                            format!(
                                "estimated queue wait {wait_us} us exceeds deadline {} ms",
                                d.as_millis()
                            ),
                        ));
                    }
                }
            }

            let token = match deadline {
                Some(d) => conn.token.with_budget(d),
                None => conn.token.child(),
            };
            let job = Job {
                req: *req,
                inst,
                token,
                conn: conn.clone(),
                admitted_at: Instant::now(),
                deadline,
            };
            match queue.try_push(job) {
                Ok(()) => {
                    metrics.admitted.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(_job) => {
                    metrics.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                    conn.send(&ServiceResponse::error(
                        Some(id),
                        ErrorCode::QueueFull,
                        format!("request queue is at its bound of {}", queue.bound()),
                    ))
                }
            }
        }
    }
}
