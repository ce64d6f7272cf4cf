//! Incremental partial-schedule state shared by the baseline schedulers.
//!
//! Tracks, for a growing prefix of scheduled tasks: per-core availability,
//! per-region availability and currently-loaded module, the busy intervals
//! of the reconfiguration controllers (supporting prefetch into gaps),
//! committed fabric resources and the partial makespan. All exclusivity
//! state lives in one [`Timeline`] (core / region / controller lanes), so
//! every reservation is conflict-checked by construction and the whole
//! prefix supports O(1)-amortized rollback: options for the next task are
//! enumerated by [`PartialSchedule::enumerate_options`], applied with
//! [`PartialSchedule::apply`] and reverted with [`PartialSchedule::undo`],
//! which is what lets branch-and-bound search walk the tree in place
//! instead of cloning the state per branch. The same LIFO undo discipline
//! is what makes cooperative cancellation safe: a descent aborted by a
//! fired [`CancelToken`](prfpga_model::CancelToken) unwinds its applied
//! moves on the way out, leaving the state exactly as it was before the
//! window — rewound and reusable.

use prfpga_model::{
    Device, ImplId, Placement, ProblemInstance, Reconfiguration, Region, RegionId, ResourceVec,
    Schedule, TaskAssignment, TaskId, Time, TimeWindow,
};
use prfpga_timeline::{LaneId, LaneKind, Timeline, TimelineMark};

/// One region in the partial schedule. Availability (the tick from which
/// the region is free) lives in the region's timeline lane; see
/// [`PartialSchedule::region_free_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionState {
    /// Resource budget, fixed when the region is opened.
    pub res: ResourceVec,
    /// Module currently configured (the implementation of the last task
    /// hosted or prefetched).
    pub loaded: ImplId,
    /// Number of hosted tasks.
    pub task_count: usize,
}

/// One scheduling option for a task: implementation, placement, and the
/// times that placement induces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOption {
    /// Chosen implementation.
    pub impl_id: ImplId,
    /// `Some(s)` reuses region `s`; `None` with a hardware implementation
    /// opens a new region; irrelevant for software.
    pub region: Option<usize>,
    /// Core for software options.
    pub core: Option<usize>,
    /// Induced reconfiguration `(controller, window)` if one is needed.
    pub reconf: Option<(usize, TimeWindow)>,
    /// Task start tick.
    pub start: Time,
    /// Task end tick.
    pub end: Time,
}

/// Undo token returned by [`PartialSchedule::apply`]: everything needed to
/// revert the move with [`PartialSchedule::undo`]. Tokens must be undone
/// in LIFO order (the timeline journal is a stack).
#[derive(Debug, Clone, Copy)]
pub struct AppliedMove {
    task: TaskId,
    mark: TimelineMark,
    prev_makespan: Time,
    /// The move opened a new region (popped on undo).
    opened_region: bool,
    /// The move pushed a reconfiguration (popped on undo).
    pushed_reconf: bool,
    /// Reused region: `(index, previous loaded module, previous task count)`.
    prev_region: Option<(usize, ImplId, usize)>,
}

/// A partial schedule over a prefix of the task list.
#[derive(Debug, Clone)]
pub struct PartialSchedule<'a> {
    inst: &'a ProblemInstance,
    /// The fabric every region opens on (fabric 0): its capacity bounds
    /// the regions and its throughput times their reconfigurations.
    device: &'a Device,
    /// Per-task decision (`None` = not yet scheduled).
    pub decisions: Vec<Option<TaskAssignment>>,
    /// Regions opened so far.
    pub regions: Vec<RegionState>,
    /// Reconfigurations committed so far.
    pub reconfigurations: Vec<Reconfiguration>,
    /// Reservation lanes: one per core, per open region, per controller.
    pub timeline: Timeline,
    /// Fabric resources committed to regions.
    pub used_res: ResourceVec,
    /// Current partial makespan.
    pub makespan: Time,
}

impl<'a> PartialSchedule<'a> {
    /// Empty partial schedule whose regions open on `device`, fabric 0
    /// of `inst`'s platform or a capacity-shrunk copy of it.
    pub fn new(inst: &'a ProblemInstance, device: &'a Device) -> Self {
        PartialSchedule {
            inst,
            device,
            decisions: vec![None; inst.graph.len()],
            regions: Vec::new(),
            reconfigurations: Vec::new(),
            timeline: Timeline::with_lanes(
                inst.architecture.num_processors,
                0,
                inst.architecture.num_reconfig_controllers.max(1),
            ),
            used_res: ResourceVec::ZERO,
            makespan: 0,
        }
    }

    /// Tick from which core `p` is free.
    #[inline]
    pub fn core_free_from(&self, p: usize) -> Time {
        self.timeline.free_from(LaneId::core(p))
    }

    /// Tick from which region `s` is free (end of its last task).
    #[inline]
    pub fn region_free_from(&self, s: usize) -> Time {
        self.timeline.free_from(LaneId::region(s))
    }

    /// Earliest tick at which `t` may start: all predecessors scheduled
    /// and finished. Panics if a predecessor is unscheduled (the callers
    /// process tasks in topological order). Ignores communication costs;
    /// use [`PartialSchedule::ready_time_for`] when they matter.
    pub fn ready_time(&self, t: TaskId) -> Time {
        self.ready_time_for(t, None)
    }

    /// Earliest start of `t` if it were placed at `placement`
    /// (`None` = a fresh region, co-located with nothing): predecessors'
    /// end times plus the edge communication cost for non-co-located
    /// producers (zero-cost edges are unaffected).
    pub fn ready_time_for(&self, t: TaskId, placement: Option<Placement>) -> Time {
        self.inst
            .graph
            .edges_with_costs()
            .filter(|&(_, to, _)| to == t)
            .map(|(from, _, cost)| {
                let d = self.decisions[from.index()]
                    .as_ref()
                    .expect("predecessors scheduled first (topological order)");
                let comm = match placement {
                    Some(p) if cost > 0 && d.placement.colocated(p) => 0,
                    _ => cost,
                };
                d.end + comm
            })
            .max()
            .unwrap_or(0)
    }

    /// First gap of length `dur` across all controllers starting at or
    /// after `earliest`; returns `(controller, start)` for the controller
    /// offering the earliest slot (ties: lowest index).
    pub fn icap_first_fit(&self, earliest: Time, dur: Time) -> (usize, Time) {
        self.timeline.controller_first_fit(earliest, dur)
    }

    /// Enumerates every legal option for task `t` (capacity limited by the
    /// device's `max_res`), given its ready time.
    pub fn enumerate_options(&self, t: TaskId, module_reuse: bool) -> Vec<TaskOption> {
        let device = self.device;
        let mut out = Vec::new();

        for &impl_id in &self.inst.graph.task(t).impls {
            let imp = self.inst.impls.get(impl_id);
            if imp.is_software() {
                // Distinct core availabilities only (cores are homogeneous,
                // identical free times are symmetric)... unless
                // communication costs make the *identity* of the core
                // matter; then every core is a distinct option.
                let has_comm = self
                    .inst
                    .graph
                    .edges_with_costs()
                    .any(|(_, to, c)| to == t && c > 0);
                let mut seen = Vec::new();
                for p in 0..self.inst.architecture.num_processors {
                    let free = self.core_free_from(p);
                    if !has_comm && seen.contains(&free) {
                        continue;
                    }
                    seen.push(free);
                    let ready = self.ready_time_for(t, Some(Placement::Core(p)));
                    let start = ready.max(free);
                    out.push(TaskOption {
                        impl_id,
                        region: None,
                        core: Some(p),
                        reconf: None,
                        start,
                        end: start + imp.time,
                    });
                }
                continue;
            }
            let res = imp.resources();
            // Reuse an existing region.
            for (s, region) in self.regions.iter().enumerate() {
                if !res.fits_in(&region.res) {
                    continue;
                }
                let free_from = self.region_free_from(s);
                let ready = self.ready_time_for(t, Some(Placement::Region(RegionId(s as u32))));
                if module_reuse && region.loaded == impl_id {
                    // Same module already configured: no reconfiguration.
                    let start = ready.max(free_from);
                    out.push(TaskOption {
                        impl_id,
                        region: Some(s),
                        core: None,
                        reconf: None,
                        start,
                        end: start + imp.time,
                    });
                } else {
                    // Prefetchable reconfiguration: may start as soon as the
                    // region drains, in the first controller gap.
                    let dur = device.reconf_time(&region.res);
                    let (ctrl, rs) = self.icap_first_fit(free_from, dur);
                    let rw = TimeWindow::from_start(rs, dur);
                    let start = ready.max(rw.max);
                    out.push(TaskOption {
                        impl_id,
                        region: Some(s),
                        core: None,
                        reconf: Some((ctrl, rw)),
                        start,
                        end: start + imp.time,
                    });
                }
            }
            // Open a new region (first configuration rides the initial
            // bitstream: no reconfiguration task; co-located with nothing).
            if (self.used_res + res).fits_in(&device.max_res) {
                let ready = self.ready_time_for(t, None);
                out.push(TaskOption {
                    impl_id,
                    region: None,
                    core: None,
                    reconf: None,
                    start: ready,
                    end: ready + imp.time,
                });
            }
        }
        out
    }

    /// Applies an option for task `t`, returning the token that
    /// [`PartialSchedule::undo`] needs to revert it.
    pub fn apply(&mut self, t: TaskId, opt: &TaskOption) -> AppliedMove {
        let mark = self.timeline.mark();
        let prev_makespan = self.makespan;
        let mut opened_region = false;
        let mut pushed_reconf = false;
        let mut prev_region = None;

        let imp = self.inst.impls.get(opt.impl_id);
        let placement = if imp.is_software() {
            let p = opt.core.expect("software option carries a core");
            self.timeline
                .reserve(LaneId::core(p), TimeWindow::new(opt.start, opt.end))
                .expect("enumerated software option fits its core");
            Placement::Core(p)
        } else {
            let s = match opt.region {
                Some(s) => {
                    let region = &self.regions[s];
                    prev_region = Some((s, region.loaded, region.task_count));
                    s
                }
                None => {
                    let res = imp.resources();
                    self.used_res += res;
                    self.regions.push(RegionState {
                        res,
                        loaded: opt.impl_id,
                        task_count: 0,
                    });
                    let lane = self.timeline.add_lane(LaneKind::Region);
                    debug_assert_eq!(lane.index, self.regions.len() - 1);
                    opened_region = true;
                    self.regions.len() - 1
                }
            };
            let lane = LaneId::region(s);
            if let Some((ctrl, rw)) = opt.reconf {
                self.timeline
                    .reserve(LaneId::controller(ctrl), rw)
                    .expect("first-fit reconfiguration slot is free");
                self.timeline
                    .reserve(lane, rw)
                    .expect("region drained before its reconfiguration");
                self.reconfigurations.push(Reconfiguration {
                    region: RegionId(s as u32),
                    loads_impl: opt.impl_id,
                    outgoing_task: t,
                    start: rw.min,
                    end: rw.max,
                });
                pushed_reconf = true;
            }
            self.timeline
                .reserve(lane, TimeWindow::new(opt.start, opt.end))
                .expect("enumerated hardware option fits its region");
            let region = &mut self.regions[s];
            region.loaded = opt.impl_id;
            region.task_count += 1;
            Placement::Region(RegionId(s as u32))
        };
        self.decisions[t.index()] = Some(TaskAssignment {
            impl_id: opt.impl_id,
            placement,
            start: opt.start,
            end: opt.end,
        });
        self.makespan = self.makespan.max(opt.end);
        AppliedMove {
            task: t,
            mark,
            prev_makespan,
            opened_region,
            pushed_reconf,
            prev_region,
        }
    }

    /// Reverts the most recent not-yet-undone [`PartialSchedule::apply`].
    /// Tokens are a stack: undoing out of LIFO order corrupts the state.
    pub fn undo(&mut self, mv: AppliedMove) {
        self.timeline.rollback(mv.mark);
        if mv.pushed_reconf {
            self.reconfigurations.pop();
        }
        if mv.opened_region {
            let region = self.regions.pop().expect("opened region present");
            self.used_res -= region.res;
        } else if let Some((s, loaded, task_count)) = mv.prev_region {
            let region = &mut self.regions[s];
            region.loaded = loaded;
            region.task_count = task_count;
        }
        self.decisions[mv.task.index()] = None;
        self.makespan = mv.prev_makespan;
    }

    /// Converts a complete partial schedule into the final artifact.
    /// Panics if any task is unscheduled.
    pub fn into_schedule(self) -> Schedule {
        Schedule {
            regions: self
                .regions
                .into_iter()
                .map(|r| Region {
                    res: r.res,
                    fabric: 0,
                })
                .collect(),
            assignments: self
                .decisions
                .into_iter()
                .map(|d| d.expect("all tasks scheduled"))
                .collect(),
            reconfigurations: self.reconfigurations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::{Architecture, Device, ImplPool, Implementation, TaskGraph};

    fn instance() -> ProblemInstance {
        let mut pool = ImplPool::new();
        let mut g = TaskGraph::new();
        let sa = pool.add(Implementation::software("sa", 100));
        let ha = pool.add(Implementation::hardware(
            "ha",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let a = g.add_task("a", vec![sa, ha]);
        let sb = pool.add(Implementation::software("sb", 90));
        let hb = pool.add(Implementation::hardware("hb", 8, ResourceVec::new(4, 0, 0)));
        let b = g.add_task("b", vec![sb, hb]);
        g.add_edge(a, b);
        ProblemInstance::new(
            "p",
            Architecture::new(2, Device::tiny_test(ResourceVec::new(8, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap()
    }

    #[test]
    fn enumerates_sw_hw_and_new_region_options() {
        let inst = instance();
        let ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        let opts = ps.enumerate_options(TaskId(0), true);
        // 1 SW option (cores symmetric at t=0) + 1 new-region option.
        assert_eq!(opts.len(), 2);
        assert!(opts.iter().any(|o| o.core.is_some() && o.end == 100));
        assert!(opts
            .iter()
            .any(|o| o.core.is_none() && o.region.is_none() && o.end == 10));
    }

    #[test]
    fn region_reuse_with_and_without_module_reuse() {
        let inst = instance();
        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        // Schedule task a in hardware (new region, 5 CLB).
        let opt = ps
            .enumerate_options(TaskId(0), true)
            .into_iter()
            .find(|o| o.core.is_none())
            .unwrap();
        ps.apply(TaskId(0), &opt);
        assert_eq!(ps.regions.len(), 1);
        assert_eq!(ps.used_res, ResourceVec::new(5, 0, 0));
        assert_eq!(ps.region_free_from(0), 10);

        // Task b options: SW, reuse region (4 <= 5, different impl =>
        // reconfiguration of 5 ticks), or a new region (4 CLB fits in the
        // remaining 3? no: 5+4=9 > 8 -> no new region).
        let opts = ps.enumerate_options(TaskId(1), true);
        assert!(opts
            .iter()
            .all(|o| !(o.core.is_none() && o.region.is_none())));
        let reuse = opts.iter().find(|o| o.region == Some(0)).unwrap();
        let (ctrl, rw) = reuse
            .reconf
            .expect("different module needs reconfiguration");
        assert_eq!(
            (ctrl, rw),
            (0, TimeWindow::new(10, 15)),
            "prefetch right after region drains"
        );
        assert_eq!(reuse.start, 15);
        assert_eq!(reuse.end, 23);
    }

    #[test]
    fn module_reuse_skips_reconfiguration() {
        // Two independent tasks sharing one implementation.
        let mut pool = ImplPool::new();
        let sw = pool.add(Implementation::software("sw", 100));
        let hw = pool.add(Implementation::hardware(
            "hw",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let mut g = TaskGraph::new();
        g.add_task("a", vec![sw, hw]);
        g.add_task("b", vec![sw, hw]);
        let inst = ProblemInstance::new(
            "mr",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(5, 0, 0), 1)),
            g,
            pool,
        )
        .unwrap();
        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        let opt = ps
            .enumerate_options(TaskId(0), true)
            .into_iter()
            .find(|o| o.core.is_none())
            .unwrap();
        ps.apply(TaskId(0), &opt);
        let opts = ps.enumerate_options(TaskId(1), true);
        let reuse = opts.iter().find(|o| o.region == Some(0)).unwrap();
        assert!(reuse.reconf.is_none(), "same module: no reconfiguration");
        assert_eq!(reuse.start, 10);
        // Without module reuse the same placement pays a reconfiguration.
        let opts_nr = ps.enumerate_options(TaskId(1), false);
        let reuse_nr = opts_nr.iter().find(|o| o.region == Some(0)).unwrap();
        assert!(reuse_nr.reconf.is_some());
    }

    #[test]
    fn icap_first_fit_respects_gaps() {
        let inst = instance();
        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        let icap = LaneId::controller(0);
        ps.timeline.reserve(icap, TimeWindow::new(10, 20)).unwrap();
        ps.timeline.reserve(icap, TimeWindow::new(25, 30)).unwrap();
        assert_eq!(ps.icap_first_fit(0, 5), (0, 0));
        assert_eq!(ps.icap_first_fit(0, 12), (0, 30));
        assert_eq!(ps.icap_first_fit(12, 5), (0, 20));
        assert_eq!(ps.icap_first_fit(12, 6), (0, 30));
        assert_eq!(ps.icap_first_fit(40, 100), (0, 40));
    }

    #[test]
    fn second_controller_offers_earlier_slots() {
        let inst = instance();
        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        ps.timeline.reset(0, 0, 2);
        ps.timeline
            .reserve(LaneId::controller(0), TimeWindow::new(0, 50))
            .unwrap();
        ps.timeline
            .reserve(LaneId::controller(1), TimeWindow::new(0, 10))
            .unwrap();
        assert_eq!(ps.icap_first_fit(0, 5), (1, 10));
        // Controller 0 wins once it is the earlier one.
        ps.timeline.reset(0, 0, 2);
        ps.timeline
            .reserve(LaneId::controller(1), TimeWindow::new(0, 10))
            .unwrap();
        assert_eq!(ps.icap_first_fit(0, 5), (0, 0));
    }

    #[test]
    fn undo_reverts_apply_exactly() {
        let inst = instance();
        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        let hw = ps
            .enumerate_options(TaskId(0), true)
            .into_iter()
            .find(|o| o.core.is_none())
            .unwrap();
        let before_opts = ps.enumerate_options(TaskId(0), true);

        // Apply the hardware option (opens a region), then a dependent
        // task with a reconfiguration, then undo both in LIFO order.
        let mv_a = ps.apply(TaskId(0), &hw);
        let reuse = ps
            .enumerate_options(TaskId(1), true)
            .into_iter()
            .find(|o| o.region == Some(0))
            .unwrap();
        let mv_b = ps.apply(TaskId(1), &reuse);
        assert_eq!(ps.reconfigurations.len(), 1);
        assert_eq!(ps.makespan, reuse.end);

        ps.undo(mv_b);
        assert_eq!(ps.reconfigurations.len(), 0);
        assert_eq!(ps.regions.len(), 1);
        assert_eq!(ps.regions[0].loaded, hw.impl_id);
        assert_eq!(ps.regions[0].task_count, 1);
        assert_eq!(ps.region_free_from(0), hw.end);
        assert_eq!(ps.makespan, hw.end);
        assert!(ps.decisions[1].is_none());

        ps.undo(mv_a);
        assert_eq!(ps.regions.len(), 0);
        assert_eq!(ps.used_res, ResourceVec::ZERO);
        assert_eq!(ps.makespan, 0);
        assert!(ps.decisions[0].is_none());
        // The reverted state enumerates exactly the original options.
        assert_eq!(ps.enumerate_options(TaskId(0), true), before_opts);
    }

    #[test]
    fn cancelled_descent_unwinds_to_pristine_state() {
        // Mimics a branch-and-bound descent aborted by a fired CancelToken:
        // the whole stack of applied moves is unwound in LIFO order, after
        // which the partial schedule must behave exactly like a fresh one.
        let inst = instance();
        let greedy = |ps: &mut PartialSchedule<'_>| -> Schedule {
            for t in inst.graph.task_ids() {
                let best = ps
                    .enumerate_options(t, true)
                    .into_iter()
                    .min_by_key(|o| (o.end, o.start))
                    .unwrap();
                ps.apply(t, &best);
            }
            ps.clone().into_schedule()
        };

        let mut fresh = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        let expected = greedy(&mut fresh);

        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        let mut stack = Vec::new();
        for t in inst.graph.task_ids() {
            let opt = ps
                .enumerate_options(t, true)
                .into_iter()
                .max_by_key(|o| (o.end, o.start))
                .unwrap();
            stack.push(ps.apply(t, &opt));
        }
        while let Some(mv) = stack.pop() {
            ps.undo(mv);
        }
        assert_eq!(ps.makespan, 0);
        assert_eq!(ps.used_res, ResourceVec::ZERO);
        assert_eq!(
            greedy(&mut ps),
            expected,
            "rewound state replays byte-identically"
        );
    }

    #[test]
    fn into_schedule_roundtrip() {
        let inst = instance();
        let mut ps = PartialSchedule::new(&inst, inst.architecture.fabric(0));
        for t in inst.graph.task_ids() {
            let opts = ps.enumerate_options(t, true);
            let best = opts.iter().min_by_key(|o| o.end).copied().unwrap();
            ps.apply(t, &best);
        }
        let sched = ps.into_schedule();
        assert_eq!(sched.assignments.len(), 2);
        prfpga_sim::validate_schedule(&inst, &sched).expect("valid");
    }
}
