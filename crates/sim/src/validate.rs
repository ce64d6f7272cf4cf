//! From-first-principles schedule validation.
//!
//! Two checkers with identical verdicts:
//!
//! * [`validate_schedule`] — the reference oracle. Its exclusivity scans
//!   re-filter the whole assignment list per core and per region and test
//!   reconfigurations against every task of their region, exactly as the
//!   problem statement reads.
//! * [`validate_schedule_sweep`] — a sweep-line variant that buckets
//!   assignments into lanes in one pass and answers the
//!   reconfiguration-vs-execution queries against a
//!   [`prfpga_timeline::Lane`] in `O(log n)` each, for an overall
//!   `O(n log n)` instead of the oracle's `O(lanes · n + recs · tasks)`.
//!
//! The shape, capacity, precedence and bookkeeping phases are shared; the
//! exclusivity logic is deliberately written twice so the two checkers can
//! serve as differential oracles for each other (see the
//! `validator_mutations` integration test).

use prfpga_model::{
    ImplKind, Placement, ProblemInstance, RegionId, Schedule, TaskId, Time, TimeWindow,
};
use prfpga_timeline::Lane;

use crate::error::ValidationError;

/// Checks every constraint of the problem statement (§III) against a
/// schedule. Returns the first violation found, scanning in a deterministic
/// order, or `Ok(())` for a valid schedule.
///
/// The checks are intentionally written directly against the problem
/// definition rather than reusing any scheduler bookkeeping:
///
/// 1. exactly one assignment per task, implementation drawn from the task's
///    set, hardware in regions / software on in-range cores, slot length
///    equal to the implementation time;
/// 2. every region at least as large as every implementation it hosts;
///    the region demand on each fabric within that fabric's capacity;
/// 3. all data dependencies respected;
/// 4. no overlap of tasks on a core, of tasks (or reconfigurations) in a
///    region, or of reconfigurations on the single controller;
/// 5. between consecutive tasks of a region with *different*
///    implementations there is a reconfiguration loading the later task's
///    bitstream (module reuse: equal implementations need none), completed
///    before the later task starts; reconfiguration durations follow
///    eq. 1–2.
pub fn validate_schedule(
    instance: &ProblemInstance,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    check_shapes(instance, schedule)?;
    check_capacity(instance, schedule)?;
    check_precedence(instance, schedule)?;

    // --- Core exclusivity ---------------------------------------------------
    for p in 0..instance.architecture.num_processors {
        let tasks = schedule.tasks_on_core(p);
        for pair in tasks.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if overlaps(
                schedule.assignment(a).start,
                schedule.assignment(a).end,
                schedule.assignment(b).start,
                schedule.assignment(b).end,
            ) {
                return Err(ValidationError::CoreOverlap { a, b, core: p });
            }
        }
    }

    // --- Region exclusivity & reconfiguration bookkeeping -------------------
    for (ri, region) in schedule.regions.iter().enumerate() {
        let rid = RegionId(ri as u32);
        let tasks = schedule.tasks_in_region(rid);

        // Tasks must not overlap each other.
        for pair in tasks.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if overlaps(
                schedule.assignment(a).start,
                schedule.assignment(a).end,
                schedule.assignment(b).start,
                schedule.assignment(b).end,
            ) {
                return Err(ValidationError::RegionOverlap { a, b, region: rid });
            }
        }

        // Reconfigurations targeting this region must not overlap its tasks.
        for r in schedule.reconfigurations.iter().filter(|r| r.region == rid) {
            for &t in &tasks {
                let a = schedule.assignment(t);
                if overlaps(r.start, r.end, a.start, a.end) {
                    return Err(ValidationError::ReconfigurationDuringExecution { region: rid });
                }
            }
            // Duration follows eq. 1-2 for the hosting fabric's controller.
            if r.duration()
                != instance
                    .architecture
                    .fabric(region.fabric as usize)
                    .reconf_time(&region.res)
            {
                return Err(ValidationError::ReconfigurationDurationMismatch { region: rid });
            }
        }

        // Consecutive tasks with different implementations need an
        // intervening reconfiguration that loads the later bitstream.
        for pair in tasks.windows(2) {
            let (t_in, t_out) = (pair[0], pair[1]);
            let in_a = schedule.assignment(t_in);
            let out_a = schedule.assignment(t_out);
            if in_a.impl_id == out_a.impl_id {
                continue; // module reuse: no reconfiguration required
            }
            let found = schedule.reconfigurations.iter().any(|r| {
                r.region == rid
                    && r.outgoing_task == t_out
                    && r.loads_impl == out_a.impl_id
                    && r.start >= in_a.end
                    && r.end <= out_a.start
            });
            if !found {
                return Err(ValidationError::MissingReconfiguration {
                    task: t_out,
                    region: rid,
                });
            }
        }
    }

    check_dangling(schedule)?;
    check_contention(instance, schedule)
}

/// Sweep-line variant of [`validate_schedule`]: same constraints, same
/// verdicts (including which violation is reported first), different
/// algorithm.
///
/// Assignments are bucketed into per-core / per-region lanes in a single
/// pass and each lane is sorted once, so exclusivity falls out of
/// adjacent-pair scans; each region's committed occupancy is then loaded
/// into a [`Lane`] from the timeline kernel and every reconfiguration
/// queries it with one binary search instead of scanning every task of the
/// region.
pub fn validate_schedule_sweep(
    instance: &ProblemInstance,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    check_shapes(instance, schedule)?;
    check_capacity(instance, schedule)?;
    check_precedence(instance, schedule)?;

    // One bucketing pass over the assignments; the shape checks above
    // already proved every placement index in range.
    let mut core_lanes: Vec<Vec<TaskId>> = vec![Vec::new(); instance.architecture.num_processors];
    let mut region_lanes: Vec<Vec<TaskId>> = vec![Vec::new(); schedule.regions.len()];
    for (i, a) in schedule.assignments.iter().enumerate() {
        match a.placement {
            Placement::Core(p) => core_lanes[p].push(TaskId(i as u32)),
            Placement::Region(r) => region_lanes[r.index()].push(TaskId(i as u32)),
        }
    }
    // Push order is ascending task id, so a stable sort by start yields
    // (start, id) — the exact order the oracle's per-lane refilters see.
    for lane in core_lanes.iter_mut().chain(region_lanes.iter_mut()) {
        lane.sort_by_key(|t| schedule.assignment(*t).start);
    }
    // Reconfigurations bucketed by target region, schedule order preserved;
    // out-of-range regions fall through to the dangling check.
    let mut region_recs: Vec<Vec<usize>> = vec![Vec::new(); schedule.regions.len()];
    for (ri, r) in schedule.reconfigurations.iter().enumerate() {
        if let Some(bucket) = region_recs.get_mut(r.region.index()) {
            bucket.push(ri);
        }
    }

    for (p, lane) in core_lanes.iter().enumerate() {
        for pair in lane.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if overlaps(
                schedule.assignment(a).start,
                schedule.assignment(a).end,
                schedule.assignment(b).start,
                schedule.assignment(b).end,
            ) {
                return Err(ValidationError::CoreOverlap { a, b, core: p });
            }
        }
    }

    for (s, region) in schedule.regions.iter().enumerate() {
        let rid = RegionId(s as u32);
        let tasks = &region_lanes[s];

        for pair in tasks.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if overlaps(
                schedule.assignment(a).start,
                schedule.assignment(a).end,
                schedule.assignment(b).start,
                schedule.assignment(b).end,
            ) {
                return Err(ValidationError::RegionOverlap { a, b, region: rid });
            }
        }

        // The region's committed occupancy as a timeline lane — every
        // reserve lands because the adjacent-pair scan above proved the
        // slots disjoint. Zero-length slots store no window, but a
        // zero-length task strictly inside a reconfiguration still clashes
        // under `overlaps`, so their ticks are kept aside (sorted, since
        // the tasks already are).
        let mut occupancy = Lane::new();
        let mut instants: Vec<Time> = Vec::new();
        for &t in tasks {
            let a = schedule.assignment(t);
            let w = TimeWindow::new(a.start, a.end);
            if w.is_empty() {
                instants.push(a.start);
            }
            occupancy
                .reserve(w)
                .expect("region slots are pairwise disjoint");
        }
        for &ri in &region_recs[s] {
            let r = &schedule.reconfigurations[ri];
            let w = TimeWindow::new(r.start, r.end);
            // `overlaps` flags a zero-length record strictly inside a
            // non-empty one (in either direction), while the kernel's
            // set-intersection queries treat empties as free — each
            // degenerate direction gets its own binary search.
            let blocked = if w.is_empty() {
                let ws = occupancy.windows();
                ws.partition_point(|t| t.min < r.start)
                    .checked_sub(1)
                    .is_some_and(|i| ws[i].max > r.start)
            } else {
                let hits_instant = {
                    let i = instants.partition_point(|&x| x <= r.start);
                    instants.get(i).is_some_and(|&x| x < r.end)
                };
                !occupancy.is_free(w) || hits_instant
            };
            if blocked {
                return Err(ValidationError::ReconfigurationDuringExecution { region: rid });
            }
            if r.duration()
                != instance
                    .architecture
                    .fabric(region.fabric as usize)
                    .reconf_time(&region.res)
            {
                return Err(ValidationError::ReconfigurationDurationMismatch { region: rid });
            }
        }

        for pair in tasks.windows(2) {
            let (t_in, t_out) = (pair[0], pair[1]);
            let in_a = schedule.assignment(t_in);
            let out_a = schedule.assignment(t_out);
            if in_a.impl_id == out_a.impl_id {
                continue; // module reuse: no reconfiguration required
            }
            let found = region_recs[s].iter().any(|&ri| {
                let r = &schedule.reconfigurations[ri];
                r.outgoing_task == t_out
                    && r.loads_impl == out_a.impl_id
                    && r.start >= in_a.end
                    && r.end <= out_a.start
            });
            if !found {
                return Err(ValidationError::MissingReconfiguration {
                    task: t_out,
                    region: rid,
                });
            }
        }
    }

    check_dangling(schedule)?;
    check_contention(instance, schedule)
}

/// Per-task shape checks (point 1 of the constraint list): assignment
/// count, implementation membership, placement kind and range, region fit,
/// slot length.
fn check_shapes(instance: &ProblemInstance, schedule: &Schedule) -> Result<(), ValidationError> {
    let n = instance.graph.len();
    if schedule.assignments.len() != n {
        return Err(ValidationError::AssignmentCountMismatch {
            expected: n,
            actual: schedule.assignments.len(),
        });
    }
    for (i, a) in schedule.assignments.iter().enumerate() {
        let t = TaskId(i as u32);
        let node = instance.graph.task(t);
        if !node.impls.contains(&a.impl_id) {
            return Err(ValidationError::ImplNotAvailable { task: t });
        }
        let imp = instance.impls.get(a.impl_id);
        match (&imp.kind, &a.placement) {
            (ImplKind::Hardware(res), Placement::Region(r)) => {
                let Some(region) = schedule.regions.get(r.index()) else {
                    return Err(ValidationError::RegionOutOfRange { task: t });
                };
                if !res.fits_in(&region.res) {
                    return Err(ValidationError::RegionTooSmall {
                        task: t,
                        region: *r,
                    });
                }
            }
            (ImplKind::Software, Placement::Core(p)) => {
                if *p >= instance.architecture.num_processors {
                    return Err(ValidationError::CoreOutOfRange { task: t, core: *p });
                }
            }
            _ => return Err(ValidationError::PlacementKindMismatch { task: t }),
        }
        if a.end.saturating_sub(a.start) != imp.time {
            return Err(ValidationError::DurationMismatch { task: t });
        }
    }
    Ok(())
}

/// Device capacity, per fabric: every region names a real fabric and the
/// regions hosted on each fabric together fit it. On a single fabric this
/// is the whole-device check, reported for fabric 0.
fn check_capacity(instance: &ProblemInstance, schedule: &Schedule) -> Result<(), ValidationError> {
    let arch = &instance.architecture;
    let nf = arch.num_fabrics();
    for (ri, region) in schedule.regions.iter().enumerate() {
        if region.fabric as usize >= nf {
            return Err(ValidationError::FabricOutOfRange {
                region: RegionId(ri as u32),
            });
        }
    }
    for f in 0..nf {
        if !schedule
            .region_resources_on(f as u32)
            .fits_in(&arch.fabric(f).max_res)
        {
            return Err(ValidationError::FabricOverCapacity { fabric: f as u32 });
        }
    }
    Ok(())
}

/// Precedence: every consumer starts no earlier than its producer's end
/// plus the edge's [`edge_lag`].
fn check_precedence(
    instance: &ProblemInstance,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    for (i, &(from, to)) in instance.graph.edges.iter().enumerate() {
        if schedule.assignment(to).start
            < schedule.assignment(from).end + edge_lag(instance, schedule, i)
        {
            return Err(ValidationError::PrecedenceViolated { from, to });
        }
    }
    Ok(())
}

/// Minimum gap between the end of edge `i`'s producer and the start of its
/// consumer: the edge's communication cost when the two are not
/// co-located, plus the platform's inter-fabric crossing latency when both
/// run in regions on different fabrics (a single fabric never crosses).
/// Shared by the validators and the ASAP replay, so they charge the same.
pub(crate) fn edge_lag(instance: &ProblemInstance, schedule: &Schedule, i: usize) -> Time {
    let (from, to) = instance.graph.edges[i];
    let pa = schedule.assignment(from);
    let sa = schedule.assignment(to);
    let mut lag = if pa.placement.colocated(sa.placement) {
        0
    } else {
        instance.graph.edge_cost(i)
    };
    if let (Placement::Region(ra), Placement::Region(rb)) = (pa.placement, sa.placement) {
        let fabric = |r: RegionId| schedule.regions.get(r.index()).map_or(0, |rg| rg.fabric);
        if fabric(ra) != fabric(rb) {
            lag += instance.architecture.crossing_latency();
        }
    }
    lag
}

/// Reconfiguration consistency: every reconfiguration names a real task,
/// placed in the named region with the loaded implementation, and finishes
/// before that task starts.
fn check_dangling(schedule: &Schedule) -> Result<(), ValidationError> {
    for r in &schedule.reconfigurations {
        let Some(a) = schedule.assignments.get(r.outgoing_task.index()) else {
            return Err(ValidationError::DanglingReconfiguration {
                task: r.outgoing_task,
            });
        };
        let consistent = a.placement == Placement::Region(r.region)
            && a.impl_id == r.loads_impl
            && r.end <= a.start;
        if !consistent {
            return Err(ValidationError::DanglingReconfiguration {
                task: r.outgoing_task,
            });
        }
    }
    Ok(())
}

/// Controllers: at most k reconfigurations concurrently *per fabric*
/// (k = 1 in the paper's model: reconfigurations fully serialize). Each
/// fabric owns its own controller group, so the sweep runs once per
/// fabric over the reconfigurations of that fabric's regions; with one
/// fabric this is the original single global sweep. Runs after
/// [`check_dangling`], so every reconfiguration's region index is valid.
fn check_contention(
    instance: &ProblemInstance,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    let k = instance.architecture.num_reconfig_controllers.max(1);
    for f in 0..instance.architecture.num_fabrics() as u32 {
        let mut events: Vec<(Time, i64)> = Vec::with_capacity(schedule.reconfigurations.len() * 2);
        for r in &schedule.reconfigurations {
            if schedule.regions[r.region.index()].fabric == f && r.duration() > 0 {
                events.push((r.start, 1));
                events.push((r.end, -1));
            }
        }
        // Ends sort before starts at equal ticks (half-open intervals).
        events.sort_unstable_by_key(|&(t, delta)| (t, delta));
        let mut active = 0i64;
        for (_, delta) in events {
            active += delta;
            if active > k as i64 {
                return Err(ValidationError::ReconfiguratorContention);
            }
        }
    }
    Ok(())
}

#[inline]
fn overlaps(s1: Time, e1: Time, s2: Time, e2: Time) -> bool {
    s1 < e2 && s2 < e1
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::{
        Architecture, Device, ImplId, ImplPool, Implementation, Reconfiguration, Region,
        ResourceVec, TaskAssignment, TaskGraph,
    };

    /// Two-task chain: a (hw, 10 ticks, 5 CLB) -> b (hw, 12 ticks, 5 CLB),
    /// same region, different impls; device reconf time for the region is
    /// 5/1 = 5 ticks at rec_freq 1... use rec_freq 1 for easy numbers.
    fn fixture() -> (ProblemInstance, Schedule) {
        let mut impls = ImplPool::new();
        let a_sw = impls.add(Implementation::software("a_sw", 100));
        let a_hw = impls.add(Implementation::hardware(
            "a_hw",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let b_sw = impls.add(Implementation::software("b_sw", 100));
        let b_hw = impls.add(Implementation::hardware(
            "b_hw",
            12,
            ResourceVec::new(4, 0, 0),
        ));
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![a_sw, a_hw]);
        let b = g.add_task("b", vec![b_sw, b_hw]);
        g.add_edge(a, b);
        let inst = ProblemInstance::new(
            "fix",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(20, 4, 4), 1)),
            g,
            impls,
        )
        .unwrap();

        let schedule = Schedule {
            regions: vec![Region {
                res: ResourceVec::new(5, 0, 0),
                fabric: 0,
            }],
            assignments: vec![
                TaskAssignment {
                    impl_id: a_hw,
                    placement: Placement::Region(RegionId(0)),
                    start: 0,
                    end: 10,
                },
                TaskAssignment {
                    impl_id: b_hw,
                    placement: Placement::Region(RegionId(0)),
                    start: 15,
                    end: 27,
                },
            ],
            reconfigurations: vec![Reconfiguration {
                region: RegionId(0),
                loads_impl: b_hw,
                outgoing_task: b,
                start: 10,
                end: 15, // region has 5 CLB * 1 bit / 1 bit-per-tick = 5 ticks
            }],
        };
        (inst, schedule)
    }

    /// Both checkers, asserting they agree before returning the verdict.
    fn validate_both(inst: &ProblemInstance, s: &Schedule) -> Result<(), ValidationError> {
        let oracle = validate_schedule(inst, s);
        let sweep = validate_schedule_sweep(inst, s);
        assert_eq!(oracle, sweep, "oracle and sweep checker disagree");
        oracle
    }

    #[test]
    fn valid_schedule_passes() {
        let (inst, s) = fixture();
        assert_eq!(validate_both(&inst, &s), Ok(()));
    }

    #[test]
    fn detects_precedence_violation() {
        let (inst, mut s) = fixture();
        s.assignments[1].start = 5;
        s.assignments[1].end = 17;
        let err = validate_both(&inst, &s).unwrap_err();
        // Start-before-producer-ends now also clashes with the region or
        // reconfiguration; precedence is checked first among ordering rules
        // only after shape checks, so accept any of the overlap flavors.
        assert!(matches!(
            err,
            ValidationError::PrecedenceViolated { .. } | ValidationError::RegionOverlap { .. }
        ));
    }

    #[test]
    fn detects_missing_reconfiguration() {
        let (inst, mut s) = fixture();
        s.reconfigurations.clear();
        assert_eq!(
            validate_both(&inst, &s),
            Err(ValidationError::MissingReconfiguration {
                task: TaskId(1),
                region: RegionId(0)
            })
        );
    }

    #[test]
    fn module_reuse_needs_no_reconfiguration() {
        let (inst, mut s) = fixture();
        // Make task b use task a's implementation (shared module).
        let a_hw = s.assignments[0].impl_id;
        // b's impl set does not contain a_hw, so also patch the instance.
        let mut inst2 = inst.clone();
        inst2.graph.tasks[1].impls.push(a_hw);
        s.assignments[1].impl_id = a_hw;
        s.assignments[1].start = 10;
        s.assignments[1].end = 20;
        s.reconfigurations.clear();
        assert_eq!(validate_both(&inst2, &s), Ok(()));
    }

    #[test]
    fn detects_duration_mismatch() {
        let (inst, mut s) = fixture();
        s.assignments[0].end = 9;
        assert_eq!(
            validate_both(&inst, &s),
            Err(ValidationError::DurationMismatch { task: TaskId(0) })
        );
    }

    #[test]
    fn detects_region_too_small() {
        let (inst, mut s) = fixture();
        s.regions[0].res = ResourceVec::new(4, 0, 0); // a_hw needs 5
        let err = validate_both(&inst, &s).unwrap_err();
        assert!(matches!(err, ValidationError::RegionTooSmall { .. }));
    }

    #[test]
    fn detects_device_over_capacity() {
        let (inst, mut s) = fixture();
        s.regions.push(Region {
            res: ResourceVec::new(19, 0, 0),
            fabric: 0,
        });
        assert_eq!(
            validate_both(&inst, &s),
            Err(ValidationError::FabricOverCapacity { fabric: 0 })
        );
    }

    #[test]
    fn detects_reconf_duration_mismatch() {
        let (inst, mut s) = fixture();
        s.reconfigurations[0].end = 14;
        // Shift task b so precedence/ordering still hold.
        let err = validate_both(&inst, &s).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::ReconfigurationDurationMismatch { .. }
        ));
    }

    #[test]
    fn detects_reconfigurator_contention() {
        let (inst, mut s) = fixture();
        // A second, overlapping reconfiguration of a second region.
        s.regions.push(Region {
            res: ResourceVec::new(5, 0, 0),
            fabric: 0,
        });
        s.reconfigurations.push(Reconfiguration {
            region: RegionId(1),
            loads_impl: s.assignments[1].impl_id,
            outgoing_task: TaskId(1),
            start: 12,
            end: 17,
        });
        let err = validate_both(&inst, &s).unwrap_err();
        // The extra reconfiguration is dangling (task 1 lives in region 0),
        // which is also a legitimate rejection; accept either.
        assert!(matches!(
            err,
            ValidationError::ReconfiguratorContention
                | ValidationError::DanglingReconfiguration { .. }
        ));
    }

    #[test]
    fn detects_placement_kind_mismatch() {
        let (inst, mut s) = fixture();
        s.assignments[0].placement = Placement::Core(0); // hw impl on a core
        assert_eq!(
            validate_both(&inst, &s),
            Err(ValidationError::PlacementKindMismatch { task: TaskId(0) })
        );
    }

    #[test]
    fn detects_core_overlap() {
        let mut impls = ImplPool::new();
        let a_sw = impls.add(Implementation::software("a_sw", 10));
        let b_sw = impls.add(Implementation::software("b_sw", 10));
        let mut g = TaskGraph::new();
        g.add_task("a", vec![a_sw]);
        g.add_task("b", vec![b_sw]);
        let inst = ProblemInstance::new(
            "cores",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 0, 0), 1)),
            g,
            impls,
        )
        .unwrap();
        let s = Schedule {
            regions: vec![],
            assignments: vec![
                TaskAssignment {
                    impl_id: a_sw,
                    placement: Placement::Core(0),
                    start: 0,
                    end: 10,
                },
                TaskAssignment {
                    impl_id: b_sw,
                    placement: Placement::Core(0),
                    start: 5,
                    end: 15,
                },
            ],
            reconfigurations: vec![],
        };
        let err = validate_both(&inst, &s).unwrap_err();
        assert!(matches!(err, ValidationError::CoreOverlap { core: 0, .. }));
    }

    #[test]
    fn detects_impl_not_available() {
        let (inst, mut s) = fixture();
        s.assignments[0].impl_id = ImplId(3); // b_hw, not in a's set
        assert_eq!(
            validate_both(&inst, &s),
            Err(ValidationError::ImplNotAvailable { task: TaskId(0) })
        );
    }

    #[test]
    fn detects_assignment_count_mismatch() {
        let (inst, mut s) = fixture();
        s.assignments.pop();
        assert!(matches!(
            validate_both(&inst, &s),
            Err(ValidationError::AssignmentCountMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }
}
