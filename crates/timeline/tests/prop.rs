//! Property-based differential tests: the timeline kernel against a naive
//! Vec-scan reference model.
//!
//! The reference model keeps every committed window in an unsorted `Vec`
//! and answers conflict and gap queries by linear scan; rollback snapshots
//! are whole-model clones. The kernel must agree with it verdict-for-
//! verdict (which reservations are accepted) and value-for-value
//! (`free_from`, `earliest_fit`) across random interleavings of reserve,
//! gap-query, mark and rollback operations.

use proptest::prelude::*;

use prfpga_timeline::{pack_lanes, LaneId, LaneKind, Time, TimeWindow, Timeline};

/// Naive single-lane model: unsorted windows, linear scans everywhere.
#[derive(Clone, Default)]
struct NaiveLane {
    windows: Vec<TimeWindow>,
    free_from: Time,
}

impl NaiveLane {
    /// Accepts `w` unless it shares a tick with a committed window. Empty
    /// windows store nothing but still advance the availability clock.
    fn reserve(&mut self, w: TimeWindow) -> bool {
        if self.windows.iter().any(|x| x.intersects(&w)) {
            return false;
        }
        if !w.is_empty() {
            self.windows.push(w);
        }
        self.free_from = self.free_from.max(w.max);
        true
    }

    /// Earliest start >= `release` for `duration`, by trying every start
    /// that is either the release itself or the end of some window.
    fn earliest_fit(&self, release: Time, duration: Time) -> Time {
        let mut starts: Vec<Time> = self
            .windows
            .iter()
            .map(|w| w.max)
            .filter(|&e| e > release)
            .collect();
        starts.push(release);
        starts.sort_unstable();
        for s in starts {
            let probe = TimeWindow::from_start(s, duration);
            // Zero-length probes may sit on a window boundary (including
            // its start) but not strictly inside it — the contract the
            // kernel inherits from the legacy linear scans it replaced.
            let blocked = self
                .windows
                .iter()
                .any(|w| w.intersects(&probe) || (duration == 0 && w.min < s && s < w.max));
            if !blocked {
                return s;
            }
        }
        unreachable!("a start past every window always fits")
    }
}

#[derive(Debug, Clone)]
enum Op {
    Reserve {
        lane: usize,
        start: Time,
        dur: Time,
    },
    GapQuery {
        lane: usize,
        release: Time,
        dur: Time,
    },
    Mark,
    Rollback,
}

fn ops() -> impl Strategy<Value = (usize, Vec<Op>)> {
    let op = (0u8..8, 0usize..4, 0u64..120, 0u64..25).prop_map(|(tag, lane, a, b)| match tag {
        0..=3 => Op::Reserve {
            lane,
            start: a,
            dur: b,
        },
        4 | 5 => Op::GapQuery {
            lane,
            release: a,
            dur: b,
        },
        6 => Op::Mark,
        _ => Op::Rollback,
    });
    (1usize..5, proptest::collection::vec(op, 1..60))
}

proptest! {
    /// Random reserve / gap-query / mark / rollback interleavings agree
    /// with the naive model on every observable.
    #[test]
    fn kernel_agrees_with_naive_model((lanes, script) in ops()) {
        let mut tl = Timeline::with_lanes(0, 0, lanes);
        let mut naive: Vec<NaiveLane> = vec![NaiveLane::default(); lanes];
        // Stack of (kernel mark, naive snapshot) pairs.
        let mut marks = Vec::new();

        for (step, op) in script.into_iter().enumerate() {
            match op {
                Op::Reserve { lane, start, dur } => {
                    let lane = lane % lanes;
                    let w = TimeWindow::from_start(start, dur);
                    let kernel_ok = tl.reserve(LaneId::controller(lane), w).is_ok();
                    let naive_ok = naive[lane].reserve(w);
                    prop_assert_eq!(kernel_ok, naive_ok, "step {}: accept verdict", step);
                }
                Op::GapQuery { lane, release, dur } => {
                    let lane = lane % lanes;
                    prop_assert_eq!(
                        tl.earliest_fit(LaneId::controller(lane), release, dur),
                        naive[lane].earliest_fit(release, dur),
                        "step {}: earliest_fit({}, {})", step, release, dur
                    );
                }
                Op::Mark => marks.push((tl.mark(), naive.clone())),
                Op::Rollback => {
                    if let Some((mark, snapshot)) = marks.pop() {
                        tl.rollback(mark);
                        naive = snapshot;
                    }
                }
            }
            // Full-state agreement after every operation.
            for (c, model) in naive.iter().enumerate() {
                let lane = tl.lane(LaneId::controller(c));
                prop_assert_eq!(
                    lane.free_from(),
                    model.free_from,
                    "step {}: free_from of lane {}", step, c
                );
                let mut expect = model.windows.clone();
                expect.sort_unstable_by_key(|w| w.min);
                prop_assert_eq!(lane.windows(), expect.as_slice(), "step {}: lane {}", step, c);
            }
        }
    }

    /// `earliest_fit` really is the earliest: the reported start fits, and
    /// no start in `[release, reported)` does.
    #[test]
    fn earliest_fit_is_minimal(
        windows in proptest::collection::vec((0u64..100, 1u64..20), 0..12),
        release in 0u64..110,
        dur in 1u64..25,
    ) {
        let mut tl = Timeline::with_lanes(0, 0, 1);
        for (start, d) in windows {
            let _ = tl.reserve(LaneId::controller(0), TimeWindow::from_start(start, d));
        }
        let lane = LaneId::controller(0);
        let fit = tl.earliest_fit(lane, release, dur);
        prop_assert!(fit >= release);
        prop_assert!(tl.lane(lane).is_free(TimeWindow::from_start(fit, dur)));
        for s in release..fit {
            prop_assert!(
                !tl.lane(lane).is_free(TimeWindow::from_start(s, dur)),
                "start {} < {} also fits", s, fit
            );
        }
    }

    /// `pack_lanes` produces a feasible packing (no two intervals assigned
    /// to the same lane intersect) that matches the greedy argmin rule.
    #[test]
    fn pack_lanes_is_feasible_and_greedy(
        intervals in proptest::collection::vec((0u64..80, 1u64..20), 0..20),
        k in 1usize..4,
    ) {
        let intervals: Vec<TimeWindow> = intervals
            .into_iter()
            .map(|(s, d)| TimeWindow::from_start(s, d))
            .collect();
        let packed = pack_lanes(&intervals, k);
        prop_assert_eq!(packed.len(), intervals.len());
        prop_assert!(packed.iter().all(|&c| c < k));

        // Greedy reference: visit by (start, index), argmin (free, lane).
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_by_key(|&i| (intervals[i].min, i));
        let mut free = vec![0u64; k];
        for i in order {
            let lane = (0..k).min_by_key(|&c| (free[c], c)).unwrap();
            prop_assert_eq!(packed[i], lane, "interval {} diverges from greedy", i);
            free[lane] = free[lane].max(intervals[i].max);
        }
    }

    /// Mark/rollback composes with lane creation: lanes added after the
    /// mark vanish, lanes present before keep exactly their pre-mark state.
    #[test]
    fn rollback_closes_lanes_opened_after_mark(
        pre in proptest::collection::vec((0u64..50, 1u64..10), 0..6),
        post in proptest::collection::vec((0u64..50, 1u64..10), 0..6),
        extra_lanes in 0usize..3,
    ) {
        let mut tl = Timeline::with_lanes(0, 1, 0);
        for (s, d) in pre {
            let _ = tl.reserve(LaneId::region(0), TimeWindow::from_start(s, d));
        }
        let before: Vec<TimeWindow> = tl.lane(LaneId::region(0)).windows().to_vec();
        let mark = tl.mark();

        for _ in 0..extra_lanes {
            let id = tl.add_lane(LaneKind::Region);
            let _ = tl.reserve(id, TimeWindow::from_start(0, 5));
        }
        for (s, d) in post {
            let _ = tl.reserve(LaneId::region(0), TimeWindow::from_start(s, d));
        }

        tl.rollback(mark);
        prop_assert_eq!(tl.lanes(LaneKind::Region), 1);
        prop_assert_eq!(tl.lane(LaneId::region(0)).windows(), before.as_slice());
    }
}
