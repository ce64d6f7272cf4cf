//! # prfpga-timeline
//!
//! Typed lane-reservation kernel shared by every component that enforces
//! time-exclusivity on a resource: the PA pipeline (controller
//! arbitration in phase G), the baseline schedulers'
//! [`PartialSchedule`] bookkeeping, the simulator's ASAP executor and the
//! sweep-line validator.
//!
//! A [`Lane`] models one serially-reusable resource — a processor core, a
//! reconfigurable region or a reconfiguration controller (the
//! [`LaneKind`] taxonomy) — as a sorted list of pairwise-disjoint
//! half-open [`TimeWindow`]s. The kernel offers:
//!
//! * [`Lane::reserve`] — binary-search insertion that either commits a
//!   window or reports the clashing neighbour;
//! * [`Lane::earliest_fit`] — first gap of a given duration at or after a
//!   release tick (prefetch-into-gap queries);
//! * [`Lane::free_from`] — the tick after the last reservation, the O(1)
//!   "when does this resource drain" query;
//! * [`Timeline::mark`] / [`Timeline::rollback`] — journal-based undo of
//!   any suffix of reservations (including lanes opened since the mark),
//!   which is what lets branch-and-bound search explore moves without
//!   cloning its state.
//!
//! The structures deliberately hold no task identities — only windows.
//! Consumers keep their own "who occupies this slot" tables; the kernel
//! guarantees the slots never collide.
//!
//! [`PartialSchedule`]: https://docs.rs/prfpga-baseline

#![warn(missing_docs)]

use std::fmt;

pub use prfpga_model::{Time, TimeWindow};

/// What a [`Lane`] serializes. The taxonomy follows the paper's three
/// exclusive resources (§III): processor cores, reconfigurable regions and
/// reconfiguration controllers (eq. 1–2 serialize the latter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneKind {
    /// A processor core executing software tasks.
    Core,
    /// A reconfigurable region hosting hardware tasks (and the
    /// reconfigurations that re-target it).
    Region,
    /// A reconfiguration controller (ICAP) streaming bitstreams.
    Controller,
}

/// Identity of a lane inside a [`Timeline`]: kind plus index within the
/// kind (core 0, region 2, controller 0, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId {
    /// The resource class.
    pub kind: LaneKind,
    /// Index within the class.
    pub index: usize,
}

impl LaneId {
    /// Lane of processor core `index`.
    #[inline]
    pub fn core(index: usize) -> Self {
        LaneId {
            kind: LaneKind::Core,
            index,
        }
    }

    /// Lane of reconfigurable region `index`.
    #[inline]
    pub fn region(index: usize) -> Self {
        LaneId {
            kind: LaneKind::Region,
            index,
        }
    }

    /// Lane of reconfiguration controller `index`.
    #[inline]
    pub fn controller(index: usize) -> Self {
        LaneId {
            kind: LaneKind::Controller,
            index,
        }
    }
}

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LaneKind::Core => write!(f, "core {}", self.index),
            LaneKind::Region => write!(f, "region {}", self.index),
            LaneKind::Controller => write!(f, "controller {}", self.index),
        }
    }
}

/// A rejected reservation: `attempted` intersects `existing` on `lane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// Lane the reservation targeted.
    pub lane: LaneId,
    /// The window that could not be committed.
    pub attempted: TimeWindow,
    /// The already-committed window it clashes with.
    pub existing: TimeWindow,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reservation [{}, {}) on {} clashes with [{}, {})",
            self.attempted.min, self.attempted.max, self.lane, self.existing.min, self.existing.max
        )
    }
}

/// One serially-reusable resource: pairwise-disjoint, non-empty half-open
/// windows sorted by start (and therefore, being disjoint, also by end).
///
/// Empty windows (`min == max`) occupy no tick: reserving one is accepted
/// as a no-op and nothing is stored, so the sortedness-by-end invariant —
/// which [`Lane::earliest_fit`]'s binary search leans on — always holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lane {
    windows: Vec<TimeWindow>,
    free_from: Time,
}

impl Lane {
    /// An empty lane, free from tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every reservation, keeping the allocation.
    pub fn clear(&mut self) {
        self.windows.clear();
        self.free_from = 0;
    }

    /// Tick from which the lane is permanently free: the latest end of any
    /// reservation (0 for an empty lane). Zero-length reservations advance
    /// this clock without occupying a tick — the lane behaves like the
    /// availability clocks it replaces in the schedulers.
    #[inline]
    pub fn free_from(&self) -> Time {
        self.free_from
    }

    /// The committed windows, sorted by start.
    #[inline]
    pub fn windows(&self) -> &[TimeWindow] {
        &self.windows
    }

    /// Number of committed (non-empty) windows.
    #[inline]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when nothing is reserved.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Position at which `w` would be inserted (first window starting at
    /// or after `w.min`).
    #[inline]
    fn insertion_point(&self, w: TimeWindow) -> usize {
        self.windows.partition_point(|x| x.min < w.min)
    }

    /// The committed window intersecting `w`, if any.
    pub fn conflict_with(&self, w: TimeWindow) -> Option<TimeWindow> {
        if w.is_empty() {
            return None;
        }
        let pos = self.insertion_point(w);
        if let Some(&prev) = pos.checked_sub(1).and_then(|i| self.windows.get(i)) {
            // prev.min < w.min, so they intersect iff prev runs past w.min.
            if prev.max > w.min {
                return Some(prev);
            }
        }
        if let Some(&next) = self.windows.get(pos) {
            // next.min >= w.min, so they intersect iff w runs past next.min.
            if next.min < w.max {
                return Some(next);
            }
        }
        None
    }

    /// True when `w` can be committed without clashing.
    #[inline]
    pub fn is_free(&self, w: TimeWindow) -> bool {
        self.conflict_with(w).is_none()
    }

    /// Commits `w`, or reports the clashing window. Returns the insertion
    /// position (`None` for an empty `w`, which stores no window but still
    /// advances [`Lane::free_from`] past `w.max`).
    pub fn reserve(&mut self, w: TimeWindow) -> Result<Option<usize>, TimeWindow> {
        if w.is_empty() {
            self.free_from = self.free_from.max(w.max);
            return Ok(None);
        }
        if let Some(existing) = self.conflict_with(w) {
            return Err(existing);
        }
        let pos = self.insertion_point(w);
        self.windows.insert(pos, w);
        self.free_from = self.free_from.max(w.max);
        Ok(Some(pos))
    }

    /// Earliest start `s >= release` such that `[s, s + duration)` fits in
    /// a gap between the committed windows. A binary search skips every
    /// window ending at or before `release`; the candidate start then
    /// slides over the (few) windows that intersect the probed range.
    ///
    /// Zero-duration probes inherit the legacy linear-scan contract: they
    /// may land on a window boundary (including its start tick) but a
    /// release strictly inside a window slides to that window's end.
    pub fn earliest_fit(&self, release: Time, duration: Time) -> Time {
        let mut candidate = release;
        // Disjoint windows sorted by start are also sorted by end, so all
        // windows before this index end at or before `release` and cannot
        // displace the candidate.
        let start = self.windows.partition_point(|x| x.max <= release);
        for w in &self.windows[start..] {
            if candidate + duration <= w.min {
                break;
            }
            candidate = candidate.max(w.max);
        }
        candidate
    }

    /// Rollback helper: removes the window at `pos` (as returned by
    /// [`Lane::reserve`]; `None` for a zero-length reservation) and
    /// restores the pre-reservation `free_from`.
    fn unreserve(&mut self, pos: Option<usize>, prev_free: Time) {
        if let Some(pos) = pos {
            self.windows.remove(pos);
        }
        self.free_from = prev_free;
    }
}

/// Per-[`Timeline`] usage counters, surfaced by the schedulers' tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineStats {
    /// Windows committed (empty-window no-ops excluded).
    pub reservations: u64,
    /// [`Timeline::earliest_fit`] / controller first-fit gap queries.
    pub gap_queries: u64,
}

/// A journal entry: enough to undo one successful reservation.
#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    lane: LaneId,
    /// `None` for an empty-window no-op reservation.
    pos: Option<usize>,
    prev_free: Time,
}

/// Snapshot of a [`Timeline`]'s shape, taken by [`Timeline::mark`] and
/// consumed by [`Timeline::rollback`].
#[derive(Debug, Clone, Copy)]
pub struct TimelineMark {
    journal_len: usize,
    cores: usize,
    regions: usize,
    controllers: usize,
}

/// A set of lanes grouped by [`LaneKind`], with a reservation journal for
/// snapshot/rollback.
///
/// All mutation goes through the timeline (not the lanes directly) so the
/// journal always covers the full history; [`Timeline::rollback`] undoes
/// reservations in LIFO order and drops lanes opened since the mark,
/// recycling their buffers through an internal pool. Long-lived callers
/// (the scheduler workspace of `prfpga-sched`) keep one `Timeline` across
/// runs and [`Timeline::reset`] it per run, which is allocation-free in
/// the steady state.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    cores: Vec<Lane>,
    regions: Vec<Lane>,
    controllers: Vec<Lane>,
    journal: Vec<JournalEntry>,
    /// Cleared lanes recycled from rollbacks/resets.
    spare: Vec<Lane>,
    reservations: u64,
    gap_queries: std::cell::Cell<u64>,
}

impl Timeline {
    /// An empty timeline with no lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Timeline with a fixed lane population.
    pub fn with_lanes(cores: usize, regions: usize, controllers: usize) -> Self {
        let mut t = Self::new();
        t.reset(cores, regions, controllers);
        t
    }

    /// Clears every reservation, the journal and the counters, and
    /// repopulates the lane groups to the requested sizes, recycling lane
    /// buffers instead of reallocating them.
    pub fn reset(&mut self, cores: usize, regions: usize, controllers: usize) {
        let spare = &mut self.spare;
        for (group, want) in [
            (&mut self.cores, cores),
            (&mut self.regions, regions),
            (&mut self.controllers, controllers),
        ] {
            while group.len() > want {
                let mut lane = group.pop().expect("len checked");
                lane.clear();
                spare.push(lane);
            }
            for lane in group.iter_mut() {
                lane.clear();
            }
            while group.len() < want {
                group.push(spare.pop().unwrap_or_default());
            }
        }
        self.journal.clear();
        self.reservations = 0;
        self.gap_queries.set(0);
    }

    /// Opens a new lane of `kind`, returning its id.
    pub fn add_lane(&mut self, kind: LaneKind) -> LaneId {
        let lane = self.spare.pop().unwrap_or_default();
        debug_assert!(lane.is_empty());
        let group = self.group_mut(kind);
        group.push(lane);
        LaneId {
            kind,
            index: group.len() - 1,
        }
    }

    #[inline]
    fn group(&self, kind: LaneKind) -> &Vec<Lane> {
        match kind {
            LaneKind::Core => &self.cores,
            LaneKind::Region => &self.regions,
            LaneKind::Controller => &self.controllers,
        }
    }

    #[inline]
    fn group_mut(&mut self, kind: LaneKind) -> &mut Vec<Lane> {
        match kind {
            LaneKind::Core => &mut self.cores,
            LaneKind::Region => &mut self.regions,
            LaneKind::Controller => &mut self.controllers,
        }
    }

    /// The lane addressed by `id`. Panics on an out-of-range index.
    #[inline]
    pub fn lane(&self, id: LaneId) -> &Lane {
        &self.group(id.kind)[id.index]
    }

    /// Number of lanes of `kind`.
    #[inline]
    pub fn lanes(&self, kind: LaneKind) -> usize {
        self.group(kind).len()
    }

    /// Tick from which lane `id` is permanently free.
    #[inline]
    pub fn free_from(&self, id: LaneId) -> Time {
        self.lane(id).free_from()
    }

    /// Commits `w` on lane `id`, journaling the move for rollback.
    pub fn reserve(&mut self, id: LaneId, w: TimeWindow) -> Result<(), Conflict> {
        let prev_free = self.lane(id).free_from();
        match self.group_mut(id.kind)[id.index].reserve(w) {
            Ok(pos) => {
                if pos.is_some() {
                    self.reservations += 1;
                }
                self.journal.push(JournalEntry {
                    lane: id,
                    pos,
                    prev_free,
                });
                Ok(())
            }
            Err(existing) => Err(Conflict {
                lane: id,
                attempted: w,
                existing,
            }),
        }
    }

    /// Earliest gap of `duration` on lane `id` at or after `release`
    /// (counted as a gap query).
    pub fn earliest_fit(&self, id: LaneId, release: Time, duration: Time) -> Time {
        self.gap_queries.set(self.gap_queries.get() + 1);
        self.lane(id).earliest_fit(release, duration)
    }

    /// The controller lane that drains first among the `count` controller
    /// lanes starting at `start` — the lane group owned by one fabric of a
    /// multi-fabric platform (fabric `f` of a platform with `k` controllers
    /// per fabric owns lanes `[f*k, f*k+k)`): `(index, free_from)` with an
    /// absolute lane index, ties broken towards the lowest index. This is
    /// clock-style arbitration — unlike [`Timeline::controller_first_fit`]
    /// it never backfills a gap, which is the contract of the PA pipeline's
    /// phase G event pass. Panics when the range holds no lane.
    pub fn controller_next_free_in(&self, start: usize, count: usize) -> (usize, Time) {
        self.gap_queries.set(self.gap_queries.get() + 1);
        self.controllers[start..start + count]
            .iter()
            .enumerate()
            .map(|(c, lane)| (start + c, lane.free_from()))
            .min_by_key(|&(c, free)| (free, c))
            .expect("at least one controller lane in range")
    }

    /// First gap of `duration` across all controller lanes at or after
    /// `release`: the controller offering the earliest slot, ties broken
    /// towards the lowest index. Panics when no controller lane exists.
    pub fn controller_first_fit(&self, release: Time, duration: Time) -> (usize, Time) {
        self.gap_queries.set(self.gap_queries.get() + 1);
        self.controllers
            .iter()
            .enumerate()
            .map(|(c, lane)| (c, lane.earliest_fit(release, duration)))
            .min_by_key(|&(c, t)| (t, c))
            .expect("at least one controller lane")
    }

    /// Usage counters accumulated since the last [`Timeline::reset`].
    pub fn stats(&self) -> TimelineStats {
        TimelineStats {
            reservations: self.reservations,
            gap_queries: self.gap_queries.get(),
        }
    }

    /// Snapshot of the current shape; see [`Timeline::rollback`].
    pub fn mark(&self) -> TimelineMark {
        TimelineMark {
            journal_len: self.journal.len(),
            cores: self.cores.len(),
            regions: self.regions.len(),
            controllers: self.controllers.len(),
        }
    }

    /// Undoes every reservation made since `mark` (LIFO) and closes lanes
    /// opened since, returning the timeline byte-for-byte to its marked
    /// reservation state. Counters are not rewound — they keep counting
    /// work actually performed.
    pub fn rollback(&mut self, mark: TimelineMark) {
        while self.journal.len() > mark.journal_len {
            let entry = self.journal.pop().expect("len checked");
            self.group_mut(entry.lane.kind)[entry.lane.index].unreserve(entry.pos, entry.prev_free);
        }
        let spare = &mut self.spare;
        for (group, want) in [
            (&mut self.cores, mark.cores),
            (&mut self.regions, mark.regions),
            (&mut self.controllers, mark.controllers),
        ] {
            while group.len() > want {
                let mut lane = group.pop().expect("len checked");
                debug_assert!(
                    lane.is_empty(),
                    "reservations on a lane opened after the mark must \
                     already be journal-rolled-back"
                );
                lane.clear();
                spare.push(lane);
            }
        }
    }
}

/// Greedily packs intervals onto `k` lanes: intervals are visited in order
/// of start tick (ties towards the lower input index) and each goes to the
/// lane that frees up first (ties towards the lower lane index), whose
/// clock then advances to the interval's end.
///
/// This is the shared controller-assignment rule: the ASAP executor uses
/// it to derive which of `k` reconfiguration controllers carried each
/// reconfiguration (the `Schedule` artifact records no controller ids),
/// and the Gantt/SVG renderers use the same rule so the drawn lanes match
/// the executor's serialization constraints. Returns the lane index per
/// input interval.
pub fn pack_lanes(intervals: &[TimeWindow], k: usize) -> Vec<usize> {
    let k = k.max(1);
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (intervals[i].min, i));
    let mut free: Vec<Time> = vec![0; k];
    let mut assignment = vec![0usize; intervals.len()];
    for i in order {
        let lane = (0..k).min_by_key(|&c| (free[c], c)).expect("k >= 1");
        assignment[i] = lane;
        free[lane] = free[lane].max(intervals[i].max);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(min: Time, max: Time) -> TimeWindow {
        TimeWindow::new(min, max)
    }

    #[test]
    fn reserve_keeps_windows_sorted_and_disjoint() {
        let mut lane = Lane::new();
        assert_eq!(lane.reserve(w(10, 20)), Ok(Some(0)));
        assert_eq!(lane.reserve(w(30, 40)), Ok(Some(1)));
        assert_eq!(lane.reserve(w(20, 30)), Ok(Some(1)), "touching is fine");
        assert_eq!(lane.windows(), &[w(10, 20), w(20, 30), w(30, 40)]);
        assert_eq!(lane.free_from(), 40);
        assert_eq!(lane.reserve(w(0, 5)), Ok(Some(0)));
        assert_eq!(lane.free_from(), 40);
    }

    #[test]
    fn reserve_reports_the_clashing_window() {
        let mut lane = Lane::new();
        lane.reserve(w(10, 20)).unwrap();
        lane.reserve(w(30, 40)).unwrap();
        assert_eq!(lane.reserve(w(15, 25)), Err(w(10, 20)));
        assert_eq!(lane.reserve(w(5, 11)), Err(w(10, 20)));
        assert_eq!(lane.reserve(w(25, 31)), Err(w(30, 40)));
        assert_eq!(lane.reserve(w(0, 100)), Err(w(10, 20)), "first clash");
        assert_eq!(lane.len(), 2, "failed reservations change nothing");
    }

    #[test]
    fn empty_windows_store_nothing_but_advance_the_clock() {
        let mut lane = Lane::new();
        lane.reserve(w(10, 20)).unwrap();
        assert_eq!(lane.reserve(w(15, 15)), Ok(None));
        assert_eq!(lane.len(), 1);
        assert!(lane.is_free(w(15, 15)));
        assert_eq!(lane.free_from(), 20);
        // A zero-length reservation past the drain bumps the clock, the
        // way the legacy `icap_free[ctrl] = s + 0` clocks behaved.
        assert_eq!(lane.reserve(w(30, 30)), Ok(None));
        assert_eq!(lane.free_from(), 30);
        assert_eq!(lane.len(), 1);
    }

    #[test]
    fn rollback_restores_clock_bumps_from_empty_reservations() {
        let mut tl = Timeline::with_lanes(0, 0, 1);
        let c = LaneId::controller(0);
        tl.reserve(c, w(0, 10)).unwrap();
        let mark = tl.mark();
        tl.reserve(c, w(25, 25)).unwrap();
        assert_eq!(tl.free_from(c), 25);
        tl.rollback(mark);
        assert_eq!(tl.free_from(c), 10);
    }

    #[test]
    fn controller_next_free_in_is_clock_arbitration_within_the_group() {
        // Two fabrics x two controllers: fabric 0 owns lanes 0-1, fabric 1
        // owns lanes 2-3.
        let mut tl = Timeline::with_lanes(0, 0, 4);
        tl.reserve(LaneId::controller(0), w(0, 10)).unwrap();
        tl.reserve(LaneId::controller(0), w(20, 30)).unwrap();
        // The gap on controller 0 is invisible to clock arbitration.
        assert_eq!(tl.controller_next_free_in(0, 2), (1, 0));
        tl.reserve(LaneId::controller(1), w(0, 40)).unwrap();
        assert_eq!(tl.controller_next_free_in(0, 2), (0, 30));
        // Fabric 1 never sees fabric 0's lanes.
        tl.reserve(LaneId::controller(2), w(0, 5)).unwrap();
        assert_eq!(tl.controller_next_free_in(2, 2), (3, 0));
    }

    #[test]
    fn earliest_fit_matches_linear_gap_scan() {
        let mut lane = Lane::new();
        lane.reserve(w(10, 20)).unwrap();
        lane.reserve(w(25, 30)).unwrap();
        // The cases pinned by the old PartialSchedule::icap_first_fit test.
        assert_eq!(lane.earliest_fit(0, 5), 0);
        assert_eq!(lane.earliest_fit(0, 12), 30);
        assert_eq!(lane.earliest_fit(12, 5), 20);
        assert_eq!(lane.earliest_fit(12, 6), 30);
        assert_eq!(lane.earliest_fit(40, 100), 40);
        // Zero-duration queries still slide past an in-progress window
        // (matches the legacy linear scan: the candidate is bumped to the
        // end of any window it lands inside before the fit test can pass).
        assert_eq!(lane.earliest_fit(12, 0), 20);
        assert_eq!(lane.earliest_fit(21, 0), 21);
    }

    #[test]
    fn timeline_reserve_and_rollback_roundtrip() {
        let mut tl = Timeline::with_lanes(1, 0, 1);
        tl.reserve(LaneId::core(0), w(0, 10)).unwrap();
        let mark = tl.mark();
        tl.reserve(LaneId::core(0), w(10, 20)).unwrap();
        let r = tl.add_lane(LaneKind::Region);
        tl.reserve(r, w(5, 9)).unwrap();
        tl.reserve(LaneId::controller(0), w(3, 4)).unwrap();
        assert_eq!(tl.free_from(LaneId::core(0)), 20);
        assert_eq!(tl.lanes(LaneKind::Region), 1);

        tl.rollback(mark);
        assert_eq!(tl.lane(LaneId::core(0)).windows(), &[w(0, 10)]);
        assert_eq!(tl.free_from(LaneId::core(0)), 10);
        assert_eq!(tl.lanes(LaneKind::Region), 0);
        assert!(tl.lane(LaneId::controller(0)).is_empty());
        // Rolled-back space is reusable.
        tl.reserve(LaneId::core(0), w(10, 15)).unwrap();
        assert_eq!(tl.free_from(LaneId::core(0)), 15);
    }

    #[test]
    fn rollback_restores_mid_lane_insertions() {
        let mut tl = Timeline::with_lanes(0, 0, 1);
        let c = LaneId::controller(0);
        tl.reserve(c, w(10, 20)).unwrap();
        tl.reserve(c, w(30, 40)).unwrap();
        let mark = tl.mark();
        // A prefetch into the gap inserts in the middle of the lane.
        tl.reserve(c, w(20, 25)).unwrap();
        assert_eq!(tl.lane(c).windows(), &[w(10, 20), w(20, 25), w(30, 40)]);
        tl.rollback(mark);
        assert_eq!(tl.lane(c).windows(), &[w(10, 20), w(30, 40)]);
        assert_eq!(tl.free_from(c), 40);
    }

    #[test]
    fn controller_first_fit_prefers_earliest_then_lowest() {
        let mut tl = Timeline::with_lanes(0, 0, 2);
        tl.reserve(LaneId::controller(0), w(0, 50)).unwrap();
        tl.reserve(LaneId::controller(1), w(0, 10)).unwrap();
        assert_eq!(tl.controller_first_fit(0, 5), (1, 10));
        let mut tl = Timeline::with_lanes(0, 0, 2);
        tl.reserve(LaneId::controller(1), w(0, 10)).unwrap();
        assert_eq!(tl.controller_first_fit(0, 5), (0, 0));
    }

    #[test]
    fn reset_clears_lanes_and_counters() {
        let mut tl = Timeline::with_lanes(2, 1, 1);
        tl.reserve(LaneId::core(1), w(0, 5)).unwrap();
        tl.earliest_fit(LaneId::core(1), 0, 1);
        assert_eq!(tl.stats().reservations, 1);
        assert_eq!(tl.stats().gap_queries, 1);
        tl.reset(1, 0, 1);
        assert_eq!(tl.lanes(LaneKind::Core), 1);
        assert_eq!(tl.lanes(LaneKind::Region), 0);
        assert!(tl.lane(LaneId::core(0)).is_empty());
        assert_eq!(tl.stats(), TimelineStats::default());
    }

    #[test]
    fn pack_lanes_matches_greedy_argmin() {
        // Three intervals, two lanes: [0,10) -> lane 0, [0,5) -> lane 1,
        // [5,8) -> lane 1 (frees first).
        let packed = pack_lanes(&[w(0, 10), w(0, 5), w(5, 8)], 2);
        assert_eq!(packed, vec![0, 1, 1]);
        // Single lane: everything on lane 0.
        assert_eq!(pack_lanes(&[w(0, 10), w(20, 30)], 1), vec![0, 0]);
        // Input order is preserved in the output indexing.
        let packed = pack_lanes(&[w(20, 30), w(0, 10)], 2);
        assert_eq!(packed, vec![1, 0]);
        assert_eq!(pack_lanes(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn conflict_display_names_the_lane() {
        let c = Conflict {
            lane: LaneId::controller(2),
            attempted: w(1, 5),
            existing: w(0, 3),
        };
        assert_eq!(
            c.to_string(),
            "reservation [1, 5) on controller 2 clashes with [0, 3)"
        );
    }
}
