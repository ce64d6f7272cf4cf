//! Runtime schedule events — the vocabulary of online rescheduling.
//!
//! The paper schedules a fixed task graph once, offline. A deployed
//! PR-FPGA system then watches that schedule meet reality: tasks finish
//! earlier or later than planned, get cancelled, have their estimates
//! revised, or arrive after the fact. [`ScheduleEvent`] is the shared
//! description of those perturbations; `prfpga-gen` synthesizes seeded
//! [`EventTrace`]s from a baseline schedule and `prfpga-sched`'s repair
//! engine consumes them one by one.
//!
//! The type lives here (not in the scheduler crate) so the generator, the
//! CLI's `replay` subcommand and the benches can all speak it without
//! depending on scheduler internals.

use std::fs;
use std::path::Path;

use serde::de::{Deserializer, Error, Kind, Object};
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::taskgraph::TaskId;
use crate::time::Time;

/// One runtime perturbation of a committed schedule, in the order the
/// system observes them.
///
/// Serialized with the workspace's externally-tagged convention —
/// `{"Finish": {"task": 3, "actual": 120}}` — via hand-written impls (the
/// vendored serde derive does not cover struct variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// Task `task` completed at tick `actual` (its committed start stands;
    /// the actual execution took `actual - start` ticks, which may be
    /// shorter or longer than planned).
    Finish {
        /// The finishing task.
        task: TaskId,
        /// Observed completion tick.
        actual: Time,
    },
    /// The execution-time estimate of a not-yet-started task changed
    /// (profiling feedback, input-dependent workload).
    DurationRevised {
        /// The revised task.
        task: TaskId,
        /// New execution time in ticks for the chosen implementation.
        duration: Time,
    },
    /// A not-yet-started task was cancelled: it consumes no further time,
    /// but its dependents still wait for its (now trivial) completion.
    Cancel {
        /// The cancelled task.
        task: TaskId,
    },
    /// A new task arrived at runtime with one software implementation and
    /// data dependencies on already-known tasks.
    Arrive {
        /// Debug/report label for the new task.
        name: String,
        /// Software execution time of the new task in ticks.
        sw_time: Time,
        /// Tasks whose output the new task consumes.
        deps: Vec<TaskId>,
    },
}

impl Serialize for ScheduleEvent {
    fn serialize(&self, s: &mut Serializer) {
        let mut o = s.object();
        match self {
            ScheduleEvent::Finish { task, actual } => {
                let mut inner = o.key("Finish").object();
                inner.field("task", task);
                inner.field("actual", actual);
                inner.end();
            }
            ScheduleEvent::DurationRevised { task, duration } => {
                let mut inner = o.key("DurationRevised").object();
                inner.field("task", task);
                inner.field("duration", duration);
                inner.end();
            }
            ScheduleEvent::Cancel { task } => {
                let mut inner = o.key("Cancel").object();
                inner.field("task", task);
                inner.end();
            }
            ScheduleEvent::Arrive {
                name,
                sw_time,
                deps,
            } => {
                let mut inner = o.key("Arrive").object();
                inner.field("name", name);
                inner.field("sw_time", sw_time);
                inner.field("deps", deps);
                inner.end();
            }
        }
        o.end();
    }
}

impl Deserialize for ScheduleEvent {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let map = de.object("ScheduleEvent")?;
        let Some((tag, mut payload)) = map.first().filter(|_| map.len() == 1) else {
            return Err(Error::new("expected a single-variant `ScheduleEvent` tag"));
        };
        // Only a known tag gets its payload checked.
        let payload = match payload.peek()? {
            Kind::Object => payload.object("ScheduleEvent"),
            other => Err(Error::expected("object payload", "ScheduleEvent", other)),
        };
        fn field<T: Deserialize>(
            payload: &Result<Object<'_>, Error>,
            name: &str,
        ) -> Result<T, Error> {
            let inner = payload.as_ref().map_err(Clone::clone)?;
            inner
                .get(name)
                .unwrap_or_else(|| Err(Error::missing_field(name, "ScheduleEvent")))
        }
        match tag {
            "Finish" => Ok(ScheduleEvent::Finish {
                task: field(&payload, "task")?,
                actual: field(&payload, "actual")?,
            }),
            "DurationRevised" => Ok(ScheduleEvent::DurationRevised {
                task: field(&payload, "task")?,
                duration: field(&payload, "duration")?,
            }),
            "Cancel" => Ok(ScheduleEvent::Cancel {
                task: field(&payload, "task")?,
            }),
            "Arrive" => Ok(ScheduleEvent::Arrive {
                name: field(&payload, "name")?,
                sw_time: field(&payload, "sw_time")?,
                deps: field(&payload, "deps")?,
            }),
            other => Err(Error::unknown_variant(other, "ScheduleEvent")),
        }
    }
}

impl ScheduleEvent {
    /// The existing task this event perturbs (`None` for arrivals, which
    /// create their task).
    pub fn task(&self) -> Option<TaskId> {
        match *self {
            ScheduleEvent::Finish { task, .. }
            | ScheduleEvent::DurationRevised { task, .. }
            | ScheduleEvent::Cancel { task } => Some(task),
            ScheduleEvent::Arrive { .. } => None,
        }
    }
}

/// An ordered stream of [`ScheduleEvent`]s against one named instance —
/// the on-disk artifact the CLI's `replay` subcommand consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTrace {
    /// Name of the instance the trace was generated against.
    pub instance: String,
    /// Events in observation order.
    pub events: Vec<ScheduleEvent>,
}

impl EventTrace {
    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        serde_json::from_str(json).map_err(|e| ModelError::Parse(e.to_string()))
    }

    /// Writes the trace as JSON to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Loads a trace from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let json = fs::read_to_string(path)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_through_json() {
        let trace = EventTrace {
            instance: "demo".into(),
            events: vec![
                ScheduleEvent::Finish {
                    task: TaskId(3),
                    actual: 120,
                },
                ScheduleEvent::DurationRevised {
                    task: TaskId(5),
                    duration: 40,
                },
                ScheduleEvent::Cancel { task: TaskId(7) },
                ScheduleEvent::Arrive {
                    name: "late".into(),
                    sw_time: 90,
                    deps: vec![TaskId(1), TaskId(2)],
                },
            ],
        };
        let back = EventTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn event_task_accessor() {
        assert_eq!(
            ScheduleEvent::Cancel { task: TaskId(9) }.task(),
            Some(TaskId(9))
        );
        assert_eq!(
            ScheduleEvent::Arrive {
                name: "x".into(),
                sw_time: 1,
                deps: vec![],
            }
            .task(),
            None
        );
    }
}
