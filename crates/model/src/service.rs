//! Service protocol — the request/response vocabulary of the scheduling
//! daemon (`prfpga-server`).
//!
//! The daemon speaks newline-delimited JSON: one request object per line
//! in, one response object per line out. The types live here (not in the
//! server crate) so the load generator, the CLI and the test harnesses
//! can speak the protocol without depending on server internals — the
//! same layering as [`crate::event`].
//!
//! Requests are *strict*: unknown fields, unknown `op`/`algo` tags, wrong
//! types and out-of-range values are all typed [`ServiceError`]s, never
//! panics — the protocol-robustness corpus in `crates/server/tests`
//! pins this. Enum serialization is hand-written in the workspace's shim
//! convention (the vendored serde derive does not cover struct variants);
//! plain field structs derive.
//!
//! ```text
//! {"op":"schedule","id":1,"algo":"portfolio","deadline_ms":50,
//!  "instance":{"gen":{"tasks":60,"seed":7}}}
//! {"op":"schedule","id":2,"algo":"pa","instance":{"inline":{...}}}
//! {"op":"repair","id":3,"instance":{"gen":{"tasks":40,"seed":9}},
//!  "events":[{"Finish":{"task":3,"actual":120}}]}
//! {"op":"stats","id":4}
//! {"op":"ping","id":5}
//! ```

use std::fmt;

use serde::de::{Deserializer, Error, Kind, Object};
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

use crate::event::ScheduleEvent;
use crate::instance::ProblemInstance;
use crate::schedule::Schedule;
use crate::time::Time;

/// Largest generated-profile task count a request may ask for: a service
/// accepting arbitrary sizes from the wire is one request away from an
/// out-of-memory kill.
pub const MAX_GENERATED_TASKS: usize = 100_000;

/// Rejects keys outside `allowed` — the strictness every request object
/// is parsed under.
fn check_fields(map: &Object<'_>, allowed: &[&str], ty: &str) -> Result<(), Error> {
    match map.keys().find(|key| !allowed.contains(key)) {
        Some(key) => Err(Error::new(format!("unknown field `{key}` in `{ty}`"))),
        None => Ok(()),
    }
}

/// The value of a required key: the outer error is its absence, the
/// inner one a bad value (left for the caller to give a breadcrumb).
fn required<T: Deserialize>(
    map: &Object<'_>,
    name: &str,
    ty: &str,
) -> Result<Result<T, Error>, Error> {
    map.get(name).ok_or_else(|| Error::missing_field(name, ty))
}

fn u64_field(map: &Object<'_>, name: &str, ty: &str) -> Result<u64, Error> {
    required(map, name, ty)?.map_err(|e| e.contextualize(&format!("{ty}.{name}")))
}

fn opt_u64_field(map: &Object<'_>, name: &str, ty: &str) -> Result<Option<u64>, Error> {
    map.get(name)
        .unwrap_or(Ok(None))
        .map_err(|e| e.contextualize(&format!("{ty}.{name}")))
}

/// Reads a string-tagged enum through `parse`.
fn read_tag<T>(
    de: &mut Deserializer<'_>,
    ty: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, Error> {
    match de.peek()? {
        Kind::String => {
            let tag = de.string()?;
            parse(&tag).ok_or_else(|| Error::unknown_variant(&tag, ty))
        }
        other => Err(Error::expected("string", ty, other)),
    }
}

/// Which scheduler a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// The deterministic PA pipeline.
    Pa,
    /// The randomized PA-R search.
    Par,
    /// The IS-k window branch-and-bound with the given window size.
    IsK(usize),
    /// The PA / PA-R / IS-1 portfolio race (always answers, any deadline).
    Portfolio,
    /// Commit a PA baseline, then apply the request's event list through
    /// the delta-repair engine and return the repaired schedule.
    Repair,
}

impl AlgoChoice {
    /// Parses the wire tag: `pa`, `par`, `portfolio`, `repair`, or
    /// `is-<k>` with `k` in 1..=16.
    pub fn parse(tag: &str) -> Option<AlgoChoice> {
        match tag {
            "pa" => Some(AlgoChoice::Pa),
            "par" => Some(AlgoChoice::Par),
            "portfolio" => Some(AlgoChoice::Portfolio),
            "repair" => Some(AlgoChoice::Repair),
            _ => {
                let k: usize = tag.strip_prefix("is-")?.parse().ok()?;
                (1..=16).contains(&k).then_some(AlgoChoice::IsK(k))
            }
        }
    }
}

impl fmt::Display for AlgoChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoChoice::Pa => write!(f, "pa"),
            AlgoChoice::Par => write!(f, "par"),
            AlgoChoice::IsK(k) => write!(f, "is-{k}"),
            AlgoChoice::Portfolio => write!(f, "portfolio"),
            AlgoChoice::Repair => write!(f, "repair"),
        }
    }
}

impl Serialize for AlgoChoice {
    fn serialize(&self, s: &mut Serializer) {
        s.str(&self.to_string())
    }
}

impl Deserialize for AlgoChoice {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_tag(de, "AlgoChoice", AlgoChoice::parse)
    }
}

/// The problem a schedule request runs on: shipped inline, or named as a
/// deterministic generator profile the server synthesizes itself (far
/// cheaper on the wire for load generation).
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceSpec {
    /// A full [`ProblemInstance`] shipped in the request body.
    Inline(Box<ProblemInstance>),
    /// A named generated profile: the server runs the seeded generator,
    /// so the same `(tasks, seed, platform)` always denotes the
    /// byte-identical instance.
    Generated {
        /// Task count (1..=[`MAX_GENERATED_TASKS`]).
        tasks: usize,
        /// Generator seed.
        seed: u64,
        /// Platform catalog name (`None` = the default ZedBoard target).
        platform: Option<String>,
        /// Processor cores of the generated architecture.
        cores: usize,
    },
}

impl Serialize for InstanceSpec {
    fn serialize(&self, s: &mut Serializer) {
        let mut o = s.object();
        match self {
            InstanceSpec::Inline(inst) => o.field("inline", &**inst),
            InstanceSpec::Generated {
                tasks,
                seed,
                platform,
                cores,
            } => {
                let mut inner = o.key("gen").object();
                inner.field("tasks", tasks);
                inner.field("seed", seed);
                if let Some(p) = platform {
                    inner.field("platform", p);
                }
                inner.field("cores", cores);
                inner.end();
            }
        }
        o.end();
    }
}

impl Deserialize for InstanceSpec {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let map = de.object("InstanceSpec")?;
        check_fields(&map, &["inline", "gen"], "InstanceSpec")?;
        match (map.value("inline"), map.value("gen")) {
            (Some(mut inst), None) => Ok(InstanceSpec::Inline(Box::new(
                ProblemInstance::deserialize(&mut inst).map_err(|e| e.contextualize("inline"))?,
            ))),
            (None, Some(mut profile)) => {
                let inner = profile.object("InstanceSpec.gen")?;
                check_fields(&inner, &["tasks", "seed", "platform", "cores"], "gen")?;
                let tasks = u64_field(&inner, "tasks", "gen")? as usize;
                if tasks == 0 || tasks > MAX_GENERATED_TASKS {
                    return Err(Error::new(format!(
                        "gen.tasks must be 1..={MAX_GENERATED_TASKS}, got {tasks}"
                    )));
                }
                let platform = inner
                    .get::<Option<String>>("platform")
                    .unwrap_or(Ok(None))
                    .map_err(|e| e.contextualize("gen.platform"))?;
                let cores = opt_u64_field(&inner, "cores", "gen")?.unwrap_or(2) as usize;
                if cores == 0 || cores > 64 {
                    return Err(Error::new("gen.cores must be 1..=64"));
                }
                Ok(InstanceSpec::Generated {
                    tasks,
                    seed: u64_field(&inner, "seed", "gen")?,
                    platform,
                    cores,
                })
            }
            _ => Err(Error::new(
                "instance must carry exactly one of `inline` or `gen`",
            )),
        }
    }
}

/// One scheduling job: instance, algorithm, and latency envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Client-chosen correlation id, echoed on the response (responses
    /// may be reordered by the worker pool when a connection pipelines).
    pub id: u64,
    /// Which scheduler runs.
    pub algo: AlgoChoice,
    /// The problem to schedule.
    pub instance: InstanceSpec,
    /// Wall-clock deadline for the whole request; admission rejects it
    /// outright when the queue estimate already exceeds this. Must be
    /// positive when present.
    pub deadline_ms: Option<u64>,
    /// Inner search budget (PA-R time budget / portfolio member budget).
    /// Defaults to 60% of the deadline, or 1000 ms without one.
    pub budget_ms: Option<u64>,
    /// Events to replay through the repair engine ([`AlgoChoice::Repair`]
    /// only; rejected on other algorithms).
    pub events: Vec<ScheduleEvent>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Run a scheduler (ops `schedule` and `repair`).
    Schedule(Box<ScheduleRequest>),
    /// Return a [`ServiceStats`] snapshot.
    Stats {
        /// Correlation id echoed on the response.
        id: u64,
    },
    /// Liveness probe; answered with `pong` without touching the queue.
    Ping {
        /// Correlation id echoed on the response.
        id: u64,
    },
}

impl ServiceRequest {
    /// The request's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            ServiceRequest::Schedule(r) => r.id,
            ServiceRequest::Stats { id } | ServiceRequest::Ping { id } => *id,
        }
    }
}

impl Serialize for ServiceRequest {
    fn serialize(&self, s: &mut Serializer) {
        let mut o = s.object();
        match self {
            ServiceRequest::Schedule(r) => {
                let op = if r.algo == AlgoChoice::Repair {
                    "repair"
                } else {
                    "schedule"
                };
                o.field("op", op);
                o.field("id", &r.id);
                o.field("algo", &r.algo);
                o.field("instance", &r.instance);
                if let Some(d) = r.deadline_ms {
                    o.field("deadline_ms", &d);
                }
                if let Some(b) = r.budget_ms {
                    o.field("budget_ms", &b);
                }
                if !r.events.is_empty() {
                    o.field("events", &r.events);
                }
            }
            ServiceRequest::Stats { id } => {
                o.field("op", "stats");
                o.field("id", id);
            }
            ServiceRequest::Ping { id } => {
                o.field("op", "ping");
                o.field("id", id);
            }
        }
        o.end();
    }
}

impl Deserialize for ServiceRequest {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let map = de.object("ServiceRequest")?;
        let op: String =
            required(&map, "op", "ServiceRequest")?.map_err(|e| e.contextualize("op"))?;
        match op.as_str() {
            "schedule" | "repair" => {
                check_fields(
                    &map,
                    &[
                        "op",
                        "id",
                        "algo",
                        "instance",
                        "deadline_ms",
                        "budget_ms",
                        "events",
                    ],
                    "ServiceRequest",
                )?;
                // `repair` needs no explicit algo; `schedule` defaults to
                // the always-answering portfolio.
                let algo = map
                    .get("algo")
                    .unwrap_or(Ok(None))?
                    .unwrap_or(if op == "repair" {
                        AlgoChoice::Repair
                    } else {
                        AlgoChoice::Portfolio
                    });
                if (op == "repair") != (algo == AlgoChoice::Repair) {
                    return Err(Error::new(format!(
                        "op `{op}` does not match algo `{algo}`"
                    )));
                }
                let deadline_ms = opt_u64_field(&map, "deadline_ms", "ServiceRequest")?;
                if deadline_ms == Some(0) {
                    return Err(Error::new("deadline_ms must be positive"));
                }
                let budget_ms = opt_u64_field(&map, "budget_ms", "ServiceRequest")?;
                if budget_ms == Some(0) {
                    return Err(Error::new("budget_ms must be positive"));
                }
                let events: Vec<ScheduleEvent> = map
                    .get::<Option<_>>("events")
                    .unwrap_or(Ok(None))
                    .map_err(|e| e.contextualize("events"))?
                    .unwrap_or_default();
                if !events.is_empty() && algo != AlgoChoice::Repair {
                    return Err(Error::new("events are only valid on `repair` requests"));
                }
                Ok(ServiceRequest::Schedule(Box::new(ScheduleRequest {
                    id: u64_field(&map, "id", "ServiceRequest")?,
                    algo,
                    instance: required(&map, "instance", "ServiceRequest")?
                        .map_err(|e| e.contextualize("instance"))?,
                    deadline_ms,
                    budget_ms,
                    events,
                })))
            }
            "stats" => {
                check_fields(&map, &["op", "id"], "ServiceRequest")?;
                Ok(ServiceRequest::Stats {
                    id: u64_field(&map, "id", "ServiceRequest")?,
                })
            }
            "ping" => {
                check_fields(&map, &["op", "id"], "ServiceRequest")?;
                Ok(ServiceRequest::Ping {
                    id: u64_field(&map, "id", "ServiceRequest")?,
                })
            }
            other => Err(Error::unknown_variant(other, "ServiceRequest")),
        }
    }
}

/// Machine-readable failure class of a rejected or failed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a well-formed request (bad JSON, wrong types,
    /// unknown/missing fields, out-of-range values).
    Malformed,
    /// The frame exceeded the server's size bound before a newline.
    Oversized,
    /// Admission control: the bounded request queue is full.
    QueueFull,
    /// Admission control: the declared deadline is already unmeetable
    /// given the current queue estimate.
    DeadlineUnmeetable,
    /// The instance failed validation (or an unknown platform was named).
    InvalidInstance,
    /// The scheduler itself failed (e.g. a cyclic task graph).
    SchedulingFailed,
    /// A bug: the server produced a schedule its own validator rejects,
    /// or an internal channel broke.
    Internal,
}

impl ErrorCode {
    /// The wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::DeadlineUnmeetable => "deadline_unmeetable",
            ErrorCode::InvalidInstance => "invalid_instance",
            ErrorCode::SchedulingFailed => "scheduling_failed",
            ErrorCode::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorCode::as_str`].
    pub fn parse(tag: &str) -> Option<ErrorCode> {
        [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::QueueFull,
            ErrorCode::DeadlineUnmeetable,
            ErrorCode::InvalidInstance,
            ErrorCode::SchedulingFailed,
            ErrorCode::Internal,
        ]
        .into_iter()
        .find(|c| c.as_str() == tag)
    }
}

impl Serialize for ErrorCode {
    fn serialize(&self, s: &mut Serializer) {
        s.str(self.as_str())
    }
}

impl Deserialize for ErrorCode {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        read_tag(de, "ErrorCode", ErrorCode::parse)
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceError {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Wall-clock and run-count of one pipeline phase, for the per-request
/// trace carried on schedule replies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRow {
    /// Phase name (the [`crate`]-external mirror of the scheduler's
    /// `Phase::name`).
    pub phase: String,
    /// Wall-clock spent in the phase, microseconds.
    pub micros: u64,
    /// Times the phase ran (restarts included).
    pub runs: u32,
}

/// A successful scheduling response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReply {
    /// Echo of the request id.
    pub id: u64,
    /// The algorithm that produced the schedule (the portfolio reports
    /// its winning member, e.g. `portfolio/pa`).
    pub algo: String,
    /// Makespan of the returned schedule.
    pub makespan: Time,
    /// The search was cut short and this is an anytime result.
    pub degraded: bool,
    /// The request's cancellation token observed its fired deadline.
    pub deadline_hit: bool,
    /// The response left the server within the declared deadline (always
    /// true when the request declared none). Counted into the server's
    /// deadline-hit-rate metric with exactly this value.
    pub deadline_met: bool,
    /// Admission-to-response service time, microseconds (queue wait
    /// included, connection read excluded).
    pub service_us: u64,
    /// Per-phase trace of the winning run.
    pub phases: Vec<PhaseRow>,
    /// The sweep-validated schedule.
    pub schedule: Schedule,
}

/// Metrics snapshot answered to a `stats` request and printed by the
/// periodic log line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Well-formed requests read off connections.
    pub received: u64,
    /// Lines rejected before admission (bad JSON / types / fields).
    pub malformed: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Admission rejections: queue full.
    pub rejected_queue_full: u64,
    /// Admission rejections: declared deadline already unmeetable.
    pub rejected_unmeetable: u64,
    /// Requests fully served (response written).
    pub completed: u64,
    /// Requests abandoned because the client disconnected (work was
    /// cancelled or the finished response had nowhere to go).
    pub cancelled: u64,
    /// Completed requests served within their declared deadline.
    pub deadline_met: u64,
    /// Completed requests that overran their declared deadline.
    pub deadline_missed: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub queue_peak: u64,
    /// The queue bound admission enforces.
    pub queue_bound: u64,
    /// Median service time over the retained latency window, microseconds.
    pub p50_us: u64,
    /// 99th-percentile service time, microseconds.
    pub p99_us: u64,
    /// Worker-pool workspace rewinds (pipeline runs that reused warm
    /// buffers) summed over workers.
    pub workspace_reuses: u64,
    /// Worker-pool workspace rebuilds (instance switches) summed over
    /// workers.
    pub workspace_rebuilds: u64,
}

impl ServiceStats {
    /// Fraction of deadline-carrying completions that met their deadline,
    /// in percent (100 when none carried a deadline).
    pub fn deadline_hit_rate_pct(&self) -> f64 {
        let carried = self.deadline_met + self.deadline_missed;
        if carried == 0 {
            100.0
        } else {
            self.deadline_met as f64 * 100.0 / carried as f64
        }
    }

    /// The one-line summary the server logs periodically.
    pub fn log_line(&self) -> String {
        format!(
            "served {} (p50 {:.1} ms, p99 {:.1} ms) | deadline hit {:.1}% | \
             queue {}/{} (peak {}) | rejected {} full / {} unmeetable | \
             {} malformed, {} cancelled | workspace {} reuses / {} rebuilds",
            self.completed,
            self.p50_us as f64 / 1e3,
            self.p99_us as f64 / 1e3,
            self.deadline_hit_rate_pct(),
            self.queue_depth,
            self.queue_bound,
            self.queue_peak,
            self.rejected_queue_full,
            self.rejected_unmeetable,
            self.malformed,
            self.cancelled,
            self.workspace_reuses,
            self.workspace_rebuilds,
        )
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// A schedule (op `schedule` / `repair` succeeded).
    Ok(Box<ScheduleReply>),
    /// A metrics snapshot (op `stats`).
    Stats {
        /// Echo of the request id.
        id: u64,
        /// The snapshot.
        stats: ServiceStats,
    },
    /// Liveness answer (op `ping`).
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// A typed failure; `id` is absent when the line never parsed far
    /// enough to recover one.
    Err {
        /// Echo of the request id, when known.
        id: Option<u64>,
        /// What went wrong.
        error: ServiceError,
    },
}

impl ServiceResponse {
    /// Convenience constructor for a typed error.
    pub fn error(id: Option<u64>, code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceResponse::Err {
            id,
            error: ServiceError {
                code,
                message: message.into(),
            },
        }
    }

    /// The echoed request id, when the response carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            ServiceResponse::Ok(r) => Some(r.id),
            ServiceResponse::Stats { id, .. } | ServiceResponse::Pong { id } => Some(*id),
            ServiceResponse::Err { id, .. } => *id,
        }
    }
}

impl Serialize for ServiceResponse {
    fn serialize(&self, s: &mut Serializer) {
        let mut o = s.object();
        match self {
            ServiceResponse::Ok(reply) => o.field("ok", &**reply),
            ServiceResponse::Stats { id, stats } => {
                let mut inner = o.key("stats").object();
                inner.field("id", id);
                inner.field("stats", stats);
                inner.end();
            }
            ServiceResponse::Pong { id } => {
                let mut inner = o.key("pong").object();
                inner.field("id", id);
                inner.end();
            }
            ServiceResponse::Err { id, error } => {
                let mut inner = o.key("err").object();
                if let Some(id) = id {
                    inner.field("id", id);
                }
                inner.field("error", error);
                inner.end();
            }
        }
        o.end();
    }
}

impl Deserialize for ServiceResponse {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let map = de.object("ServiceResponse")?;
        let Some((tag, mut payload)) = map.first().filter(|_| map.len() == 1) else {
            return Err(Error::new(
                "expected a single-variant `ServiceResponse` tag",
            ));
        };
        match tag {
            "ok" => Ok(ServiceResponse::Ok(Box::new(ScheduleReply::deserialize(
                &mut payload,
            )?))),
            "stats" => {
                let inner = payload.object("ServiceResponse.stats")?;
                Ok(ServiceResponse::Stats {
                    id: u64_field(&inner, "id", "stats")?,
                    stats: required(&inner, "stats", "stats")??,
                })
            }
            "pong" => {
                let inner = payload.object("ServiceResponse.pong")?;
                Ok(ServiceResponse::Pong {
                    id: u64_field(&inner, "id", "pong")?,
                })
            }
            "err" => {
                let inner = payload.object("ServiceResponse.err")?;
                Ok(ServiceResponse::Err {
                    id: opt_u64_field(&inner, "id", "err")?,
                    error: required(&inner, "error", "err")??,
                })
            }
            other => Err(Error::unknown_variant(other, "ServiceResponse")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskgraph::TaskId;

    fn parse_req(json: &str) -> Result<ServiceRequest, serde_json::Error> {
        serde_json::from_str(json)
    }

    #[test]
    fn schedule_request_round_trips() {
        let req = ServiceRequest::Schedule(Box::new(ScheduleRequest {
            id: 7,
            algo: AlgoChoice::Portfolio,
            instance: InstanceSpec::Generated {
                tasks: 60,
                seed: 9,
                platform: None,
                cores: 2,
            },
            deadline_ms: Some(50),
            budget_ms: None,
            events: Vec::new(),
        }));
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(parse_req(&json).unwrap(), req);
    }

    #[test]
    fn repair_request_round_trips_with_events() {
        let req = ServiceRequest::Schedule(Box::new(ScheduleRequest {
            id: 3,
            algo: AlgoChoice::Repair,
            instance: InstanceSpec::Generated {
                tasks: 20,
                seed: 1,
                platform: Some("xc7z020".into()),
                cores: 2,
            },
            deadline_ms: None,
            budget_ms: None,
            events: vec![ScheduleEvent::Cancel { task: TaskId(4) }],
        }));
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"op\":\"repair\""), "{json}");
        assert_eq!(parse_req(&json).unwrap(), req);
    }

    #[test]
    fn stats_and_ping_round_trip() {
        for req in [
            ServiceRequest::Stats { id: 1 },
            ServiceRequest::Ping { id: 2 },
        ] {
            let json = serde_json::to_string(&req).unwrap();
            assert_eq!(parse_req(&json).unwrap(), req);
        }
    }

    #[test]
    fn strict_parsing_rejects_bad_requests() {
        let cases = [
            (r#"{"id":1}"#, "missing field `op`"),
            (r#"{"op":"frobnicate","id":1}"#, "unknown variant"),
            (
                r#"{"op":"schedule","id":1,"algo":"pa","instance":{"gen":{"tasks":5,"seed":1}},"bogus":3}"#,
                "unknown field `bogus`",
            ),
            (
                r#"{"op":"schedule","id":1,"algo":"pa","instance":{"gen":{"tasks":0,"seed":1}}}"#,
                "gen.tasks",
            ),
            (
                r#"{"op":"schedule","id":1,"algo":"pa","instance":{"gen":{"tasks":5,"seed":1}},"deadline_ms":0}"#,
                "deadline_ms must be positive",
            ),
            (
                r#"{"op":"schedule","id":1,"algo":"pa","instance":{"gen":{"tasks":5,"seed":1}},"deadline_ms":-4}"#,
                "deadline_ms",
            ),
            (
                r#"{"op":"schedule","id":1,"algo":"nope","instance":{"gen":{"tasks":5,"seed":1}}}"#,
                "unknown variant `nope`",
            ),
            (
                r#"{"op":"schedule","id":1,"algo":"pa","instance":{}}"#,
                "exactly one of",
            ),
            (
                r#"{"op":"schedule","id":1,"algo":"pa","instance":{"gen":{"tasks":5,"seed":1}},"events":[{"Cancel":{"task":1}}]}"#,
                "only valid on `repair`",
            ),
            (
                r#"{"op":"repair","id":1,"algo":"pa","instance":{"gen":{"tasks":5,"seed":1}}}"#,
                "does not match algo",
            ),
            (r#"{"op":"stats"}"#, "missing field `id`"),
            (r#"{"op":"stats","id":"seven"}"#, "id"),
        ];
        for (json, needle) in cases {
            let err = parse_req(json).expect_err(json).to_string();
            assert!(err.contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn algo_tags() {
        for (tag, algo) in [
            ("pa", AlgoChoice::Pa),
            ("par", AlgoChoice::Par),
            ("is-1", AlgoChoice::IsK(1)),
            ("is-5", AlgoChoice::IsK(5)),
            ("portfolio", AlgoChoice::Portfolio),
            ("repair", AlgoChoice::Repair),
        ] {
            assert_eq!(AlgoChoice::parse(tag), Some(algo));
            assert_eq!(algo.to_string(), tag);
        }
        for bad in ["", "IS-1", "is-0", "is-17", "is-", "heft2"] {
            assert_eq!(AlgoChoice::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            ServiceResponse::Pong { id: 9 },
            ServiceResponse::Stats {
                id: 4,
                stats: ServiceStats {
                    received: 10,
                    completed: 8,
                    deadline_met: 7,
                    deadline_missed: 1,
                    ..Default::default()
                },
            },
            ServiceResponse::error(Some(2), ErrorCode::QueueFull, "queue is full"),
            ServiceResponse::error(None, ErrorCode::Malformed, "bad json"),
            ServiceResponse::Ok(Box::new(ScheduleReply {
                id: 1,
                algo: "portfolio/pa".into(),
                makespan: 1234,
                degraded: false,
                deadline_hit: false,
                deadline_met: true,
                service_us: 777,
                phases: vec![PhaseRow {
                    phase: "regions".into(),
                    micros: 42,
                    runs: 1,
                }],
                schedule: Schedule::default(),
            })),
        ];
        for resp in cases {
            let json = serde_json::to_string(&resp).unwrap();
            let back: ServiceResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn stats_hit_rate_and_log_line() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.deadline_hit_rate_pct(), 100.0);
        stats.deadline_met = 19;
        stats.deadline_missed = 1;
        assert_eq!(stats.deadline_hit_rate_pct(), 95.0);
        let line = stats.log_line();
        assert!(line.contains("deadline hit 95.0%"), "{line}");
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::QueueFull,
            ErrorCode::DeadlineUnmeetable,
            ErrorCode::InvalidInstance,
            ErrorCode::SchedulingFailed,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }
}
