//! Seeded runtime event-trace synthesis.
//!
//! The repair engine (`prfpga-sched`) consumes [`ScheduleEvent`] streams;
//! this module manufactures them from a committed baseline schedule the
//! same way the instance generator manufactures task graphs: `ChaCha8Rng`
//! from a fixed seed, so a trace is a pure function of
//! `(seed, instance, schedule, config)`.
//!
//! The walk mirrors how a deployed system would observe its schedule:
//! tasks *finish* in committed-start order (so a task's predecessors are
//! always retired before it completes), with actual completion jittered
//! around the plan; *cancellations* and *duration revisions* strike only
//! tasks the walk has not yet finished; *arrivals* introduce fresh
//! software tasks depending on already-known work.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use prfpga_model::{EventTrace, ProblemInstance, Schedule, ScheduleEvent, TaskId, Time};

/// Mix and magnitude of the synthesized perturbations.
///
/// The three `*_pct` category weights are percentages of the event budget;
/// whatever they leave (at least `100 - cancel - revise - arrive`) becomes
/// on-schedule task finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventConfig {
    /// Number of events to synthesize (the trace may come up short only if
    /// the walk runs out of live tasks to perturb).
    pub events: usize,
    /// Finish-time jitter: actual execution time is drawn uniformly from
    /// `duration * (100 ± jitter_pct) / 100`. `0` replays the plan exactly.
    pub jitter_pct: u32,
    /// Percentage of events that cancel a not-yet-finished task.
    pub cancel_pct: u32,
    /// Percentage of events that revise a not-yet-finished task's estimate
    /// (re-drawn with the same jitter law, but at least `1` tick).
    pub revise_pct: u32,
    /// Percentage of events that are runtime arrivals of new software
    /// tasks.
    pub arrive_pct: u32,
}

impl EventConfig {
    /// A trace of nothing but exactly-on-schedule finishes: replaying it
    /// must leave the committed schedule byte-identical.
    pub fn on_time(events: usize) -> Self {
        EventConfig {
            events,
            jitter_pct: 0,
            cancel_pct: 0,
            revise_pct: 0,
            arrive_pct: 0,
        }
    }

    /// The default perturbation mix used by the benches and the CLI's
    /// synthesized replays: 70% finishes with ±30% jitter, 10% each of
    /// cancels, revisions and arrivals.
    pub fn standard(events: usize) -> Self {
        EventConfig {
            events,
            jitter_pct: 30,
            cancel_pct: 10,
            revise_pct: 10,
            arrive_pct: 10,
        }
    }
}

/// Deterministic event-trace generator.
///
/// ```
/// use prfpga_gen::{EventConfig, EventTraceGenerator, GraphConfig, TaskGraphGenerator};
/// use prfpga_model::Architecture;
///
/// let inst = TaskGraphGenerator::new(7).generate(
///     "demo",
///     &GraphConfig::standard(20),
///     Architecture::zedboard_pr(),
/// );
/// // Any committed schedule works; here every task runs back-to-back in
/// // software on core 0 purely for the doctest.
/// # let schedule = {
/// #     use prfpga_model::{Placement, Schedule, TaskAssignment};
/// #     let mut assignments = vec![None; inst.graph.len()];
/// #     let mut t = 0;
/// #     // Generated DAGs arc low id -> high id, so id order is topological.
/// #     for id in inst.graph.task_ids() {
/// #         let impl_id = inst.graph.task(id).impls[0];
/// #         let d = inst.impls.get(impl_id).time;
/// #         t += d;
/// #         assignments[id.index()] = Some(TaskAssignment {
/// #             impl_id,
/// #             placement: Placement::Core(0),
/// #             start: t - d,
/// #             end: t,
/// #         });
/// #     }
/// #     Schedule {
/// #         regions: vec![],
/// #         assignments: assignments.into_iter().map(Option::unwrap).collect(),
/// #         reconfigurations: vec![],
/// #     }
/// # };
/// let traces = EventTraceGenerator::new(42);
/// let t1 = traces.generate(&inst, &schedule, &EventConfig::standard(12));
/// let t2 = traces.generate(&inst, &schedule, &EventConfig::standard(12));
/// assert_eq!(t1, t2, "same seed, same trace");
/// assert_eq!(t1.events.len(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct EventTraceGenerator {
    seed: u64,
}

impl EventTraceGenerator {
    /// Creates a generator with a fixed seed.
    pub fn new(seed: u64) -> Self {
        EventTraceGenerator { seed }
    }

    /// Synthesizes an event trace against `schedule` for `inst`.
    ///
    /// Invariants the produced trace honours (so any conforming replayer
    /// can apply it without bookkeeping):
    ///
    /// * no task is targeted twice by `Finish`/`Cancel`, and never after
    ///   either of those;
    /// * finishes occur in committed-start order, so by the time a task
    ///   finishes, its predecessors already have;
    /// * revisions only touch tasks the trace has not finished;
    /// * arrival dependencies reference tasks already known at that point
    ///   (committed tasks or earlier arrivals).
    pub fn generate(
        &self,
        inst: &ProblemInstance,
        schedule: &Schedule,
        config: &EventConfig,
    ) -> EventTrace {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        // Committed-start order, ties by id; the pairs are distinct, so
        // an unstable sort gives the one order.
        let mut by_start: Vec<(Time, u32)> = schedule
            .assignments
            .iter()
            .zip(0..)
            .map(|(a, t)| (a.start, t))
            .collect();
        by_start.sort_unstable();
        let task = |i: usize| TaskId(by_start[i].1);

        let n = by_start.len();
        // The live tasks are `by_start[next_finish..end]`: finishes take
        // them from the front, cancellations from the back.
        let (mut next_finish, mut end) = (0usize, n);
        let mut known = n as u32; // committed tasks + arrivals so far
        let mut events = Vec::with_capacity(config.events);

        let jitter = |rng: &mut ChaCha8Rng, dur: Time, pct: u32| -> Time {
            if pct == 0 || dur == 0 {
                return dur;
            }
            let lo = dur * u64::from(100 - pct.min(100)) / 100;
            let hi = dur * u64::from(100 + pct) / 100;
            rng.random_range(lo..=hi)
        };

        let mean_dur = {
            let total: Time = schedule
                .assignments
                .iter()
                .map(|a| a.end - a.start)
                .sum::<Time>();
            (total / n.max(1) as Time).max(1)
        };

        while events.len() < config.events {
            let roll = rng.random_range(0u32..100);
            let live = next_finish < end;

            if roll < config.cancel_pct {
                if live {
                    // Cancel from the tail of the walk: the task is least
                    // likely to gate work the trace still wants to finish.
                    end -= 1;
                    events.push(ScheduleEvent::Cancel { task: task(end) });
                    continue;
                }
            } else if roll < config.cancel_pct + config.revise_pct {
                if live {
                    let t = task(next_finish + (end - next_finish) / 2);
                    let dur = schedule.assignment(t).duration();
                    events.push(ScheduleEvent::DurationRevised {
                        task: t,
                        duration: jitter(&mut rng, dur, config.jitter_pct).max(1),
                    });
                    continue;
                }
            } else if roll < config.cancel_pct + config.revise_pct + config.arrive_pct {
                let n_deps = rng.random_range(1..=3u32).min(known);
                let mut deps = Vec::with_capacity(n_deps as usize);
                while deps.len() < n_deps as usize {
                    let d = TaskId(rng.random_range(0..known));
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
                events.push(ScheduleEvent::Arrive {
                    name: format!("arrival-{}", known - n as u32),
                    sw_time: rng.random_range(mean_dur..=2 * mean_dur),
                    deps,
                });
                known += 1;
                continue;
            }

            // Default (and fallback when a category found no target):
            // finish the next live task of the walk.
            if !live {
                break; // every committed task finished or cancelled
            }
            let t = task(next_finish);
            next_finish += 1;
            let a = schedule.assignment(t);
            let actual = a.start + jitter(&mut rng, a.duration(), config.jitter_pct);
            events.push(ScheduleEvent::Finish { task: t, actual });
        }

        EventTrace {
            instance: inst.name.clone(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphConfig, TaskGraphGenerator};
    use prfpga_model::{Architecture, Placement, TaskAssignment};

    fn fixture() -> (ProblemInstance, Schedule) {
        let inst = TaskGraphGenerator::new(3).generate(
            "events",
            &GraphConfig::standard(30),
            Architecture::zedboard_pr(),
        );
        // Sequential software schedule in topological order: valid and
        // cheap to build without pulling the scheduler crate in.
        let mut assignments = vec![None; inst.graph.len()];
        let mut t = 0;
        // Generated DAGs arc low id -> high id, so id order is topological.
        for id in inst.graph.task_ids() {
            let impl_id = inst.graph.task(id).impls[0];
            let d = inst.impls.get(impl_id).time;
            t += d;
            assignments[id.index()] = Some(TaskAssignment {
                impl_id,
                placement: Placement::Core(0),
                start: t - d,
                end: t,
            });
        }
        let schedule = Schedule {
            regions: vec![],
            assignments: assignments.into_iter().map(Option::unwrap).collect(),
            reconfigurations: vec![],
        };
        (inst, schedule)
    }

    #[test]
    fn same_seed_same_trace() {
        let (inst, schedule) = fixture();
        let g = EventTraceGenerator::new(11);
        let a = g.generate(&inst, &schedule, &EventConfig::standard(40));
        let b = g.generate(&inst, &schedule, &EventConfig::standard(40));
        assert_eq!(a, b);
        assert_ne!(
            a,
            EventTraceGenerator::new(12).generate(&inst, &schedule, &EventConfig::standard(40))
        );
    }

    #[test]
    fn on_time_trace_finishes_in_start_order_at_committed_ends() {
        let (inst, schedule) = fixture();
        let trace =
            EventTraceGenerator::new(5).generate(&inst, &schedule, &EventConfig::on_time(30));
        assert_eq!(trace.events.len(), 30);
        let mut last_start = 0;
        for ev in &trace.events {
            let ScheduleEvent::Finish { task, actual } = ev else {
                panic!("on-time traces contain only finishes, got {ev:?}");
            };
            let a = schedule.assignment(*task);
            assert_eq!(*actual, a.end, "on-time finish replays the plan");
            assert!(a.start >= last_start, "finishes walk in start order");
            last_start = a.start;
        }
    }

    #[test]
    fn perturbations_never_touch_finished_tasks() {
        let (inst, schedule) = fixture();
        let trace =
            EventTraceGenerator::new(9).generate(&inst, &schedule, &EventConfig::standard(60));
        let n = schedule.assignments.len() as u32;
        let mut done = vec![false; n as usize];
        let mut known = n;
        for ev in &trace.events {
            match ev {
                ScheduleEvent::Finish { task, .. } | ScheduleEvent::Cancel { task } => {
                    assert!(!done[task.index()], "{task:?} targeted after completion");
                    done[task.index()] = true;
                }
                ScheduleEvent::DurationRevised { task, duration } => {
                    assert!(!done[task.index()], "{task:?} revised after completion");
                    assert!(*duration >= 1);
                }
                ScheduleEvent::Arrive { deps, .. } => {
                    assert!(!deps.is_empty());
                    for d in deps {
                        assert!(d.0 < known, "arrival depends on unknown {d:?}");
                    }
                    known += 1;
                }
            }
        }
    }

    /// Output pin: one FNV-1a digest over the serialized traces of 8 seeds
    /// × 4 event mixes × 3 lengths on the fixture, and on a copy whose tasks
    /// start in tied triples; the longest traces run the walk out of tasks.
    /// A change to how the generator picks its targets that claims
    /// identical traces must leave the constant alone.
    #[test]
    fn traces_match_pinned_digest() {
        let (inst, schedule) = fixture();
        let mut tied = schedule.clone();
        for i in 0..tied.assignments.len() {
            let start = schedule.assignments[i - i % 3].start;
            let a = &mut tied.assignments[i];
            (a.start, a.end) = (start, start + a.duration());
        }
        let heavy = |events| EventConfig {
            events,
            jitter_pct: 50,
            cancel_pct: 35,
            revise_pct: 35,
            arrive_pct: 10,
        };
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for seed in 0..8 {
            let g = EventTraceGenerator::new(seed);
            for events in [10, 40, 200] {
                let configs = [
                    EventConfig::on_time(events),
                    EventConfig::standard(events),
                    heavy(events),
                    EventConfig {
                        cancel_pct: 100,
                        ..EventConfig::standard(events)
                    },
                ];
                for (config, schedule) in configs.iter().flat_map(|c| [(c, &schedule), (c, &tied)])
                {
                    for &b in g.generate(&inst, schedule, config).to_json().as_bytes() {
                        hash ^= u64::from(b);
                        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
        }
        assert_eq!(
            hash, 6_810_860_233_148_105_204,
            "event traces are no longer byte-identical"
        );
    }

    #[test]
    fn trace_survives_json_round_trip() {
        let (inst, schedule) = fixture();
        let trace =
            EventTraceGenerator::new(2).generate(&inst, &schedule, &EventConfig::standard(25));
        let back = EventTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(trace, back);
    }
}
