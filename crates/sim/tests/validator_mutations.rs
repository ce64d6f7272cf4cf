//! Mutation tests for the schedule validator.
//!
//! A hand-built, known-valid schedule is corrupted one field at a time;
//! every mutant must be rejected with the *matching* `ValidationError`
//! variant. This pins down the validator's sensitivity: a checker that
//! silently accepts any of these mutants would also wave through the
//! corresponding scheduler bug.
//!
//! Every mutant is fed to both the pairwise oracle (`validate_schedule`)
//! and the sweep-line checker (`validate_schedule_sweep`), which must
//! agree exactly; a systematic field-sweep corpus widens that agreement
//! check far beyond the hand-picked mutants.

use prfpga_model::{
    Architecture, Device, ImplPool, Implementation, Placement, Platform, ProblemInstance,
    Reconfiguration, Region, RegionId, ResourceVec, Schedule, TaskAssignment, TaskGraph, TaskId,
};
use prfpga_sim::{validate_schedule, validate_schedule_sweep, ValidationError};

/// Runs both checkers and asserts exact agreement — same acceptance, same
/// first error — before returning the shared verdict.
fn validate(inst: &ProblemInstance, s: &Schedule) -> Result<(), ValidationError> {
    let oracle = validate_schedule(inst, s);
    let sweep = validate_schedule_sweep(inst, s);
    assert_eq!(
        oracle, sweep,
        "pairwise oracle and sweep checker disagree on a mutant"
    );
    oracle
}

const A: TaskId = TaskId(0); // hw, region 0, [0, 10)
const B: TaskId = TaskId(1); // hw, region 0, [15, 27), needs a reconfiguration
const C: TaskId = TaskId(2); // sw, core 0, [12, 20), depends on A
const D: TaskId = TaskId(3); // sw, core 0, [20, 28), independent
const E: TaskId = TaskId(4); // hw, region 1, [30, 40), optional initial reconf

/// Five tasks across two regions and one core on a 20-CLB device with a
/// single reconfiguration controller (`rec_freq` 1, so a 5-CLB region
/// takes exactly 5 ticks to reconfigure).
///
/// The two reconfigurations occupy the controller at [10, 15) (region 0,
/// loading B's bitstream) and [20, 25) (region 1, pre-loading E's) —
/// back-to-back but never concurrent.
fn fixture() -> (ProblemInstance, Schedule) {
    let mut impls = ImplPool::new();
    let a_hw = impls.add(Implementation::hardware(
        "a_hw",
        10,
        ResourceVec::new(5, 0, 0),
    ));
    let a_sw = impls.add(Implementation::software("a_sw", 100));
    let b_hw = impls.add(Implementation::hardware(
        "b_hw",
        12,
        ResourceVec::new(4, 0, 0),
    ));
    let b_sw = impls.add(Implementation::software("b_sw", 100));
    let c_sw = impls.add(Implementation::software("c_sw", 8));
    let d_sw = impls.add(Implementation::software("d_sw", 8));
    let e_hw = impls.add(Implementation::hardware(
        "e_hw",
        10,
        ResourceVec::new(5, 0, 0),
    ));
    let e_sw = impls.add(Implementation::software("e_sw", 100));

    let mut g = TaskGraph::new();
    let a = g.add_task("a", vec![a_hw, a_sw]);
    let b = g.add_task("b", vec![b_hw, b_sw]);
    let c = g.add_task("c", vec![c_sw]);
    let _d = g.add_task("d", vec![d_sw]);
    let _e = g.add_task("e", vec![e_hw, e_sw]);
    g.add_edge(a, b);
    g.add_edge(a, c);

    let inst = ProblemInstance::new(
        "mutation_fixture",
        Architecture::new(1, Device::tiny_test(ResourceVec::new(20, 4, 4), 1)),
        g,
        impls,
    )
    .unwrap();

    let schedule = Schedule {
        regions: vec![
            Region {
                res: ResourceVec::new(5, 0, 0),
                fabric: 0,
            },
            Region {
                res: ResourceVec::new(5, 0, 0),
                fabric: 0,
            },
        ],
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
            TaskAssignment {
                impl_id: c_sw,
                placement: Placement::Core(0),
                start: 12,
                end: 20,
            },
            TaskAssignment {
                impl_id: d_sw,
                placement: Placement::Core(0),
                start: 20,
                end: 28,
            },
            TaskAssignment {
                impl_id: e_hw,
                placement: Placement::Region(RegionId(1)),
                start: 30,
                end: 40,
            },
        ],
        reconfigurations: vec![
            Reconfiguration {
                region: RegionId(0),
                loads_impl: b_hw,
                outgoing_task: B,
                start: 10,
                end: 15,
            },
            Reconfiguration {
                region: RegionId(1),
                loads_impl: e_hw,
                outgoing_task: E,
                start: 20,
                end: 25,
            },
        ],
    };
    (inst, schedule)
}

#[test]
fn baseline_fixture_is_valid() {
    let (inst, s) = fixture();
    assert_eq!(validate(&inst, &s), Ok(()));
}

/// Mutation: C starts before its producer A finishes. C sits on a core
/// while A sits in a region, so precedence is the *only* constraint the
/// shift can break — the rejection variant is exact, not a coincidence
/// of check ordering.
#[test]
fn start_before_dependency_is_precedence_violated() {
    let (inst, mut s) = fixture();
    s.assignments[C.index()].start = 5;
    s.assignments[C.index()].end = 13; // keep the 8-tick duration intact
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::PrecedenceViolated { from: A, to: C })
    );
}

/// Mutation: region 0 shrinks below A's 5-CLB implementation.
#[test]
fn region_below_implementation_is_region_too_small() {
    let (inst, mut s) = fixture();
    s.regions[0].res = ResourceVec::new(4, 0, 0);
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::RegionTooSmall {
            task: A,
            region: RegionId(0)
        })
    );
}

/// Mutation: the reconfiguration between A and B (different bitstreams in
/// one region) is dropped.
#[test]
fn dropped_reconfiguration_is_missing_reconfiguration() {
    let (inst, mut s) = fixture();
    s.reconfigurations.retain(|r| r.region != RegionId(0));
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::MissingReconfiguration {
            task: B,
            region: RegionId(0)
        })
    );
}

/// Mutation: D slides under C on core 0. D has no dependencies, so core
/// exclusivity is the only constraint violated.
#[test]
fn two_tasks_on_one_core_is_core_overlap() {
    let (inst, mut s) = fixture();
    s.assignments[D.index()].start = 16;
    s.assignments[D.index()].end = 24;
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::CoreOverlap {
            a: C,
            b: D,
            core: 0
        })
    );
}

/// Mutation: region 1's reconfiguration slides onto the controller while
/// region 0's is still running. Both stay individually well-formed
/// (correct duration, finish before their task starts), so the single
/// controller is the only constraint violated.
#[test]
fn overlapping_reconfigurations_are_reconfigurator_contention() {
    let (inst, mut s) = fixture();
    s.reconfigurations[1].start = 12;
    s.reconfigurations[1].end = 17;
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::ReconfiguratorContention)
    );
}

// --- Multi-fabric mutation seeds --------------------------------------------
//
// The fixture re-hosted on a two-fabric platform. The violations below are
// invisible to a single-device checker: the summed capacity still fits, the
// controller overlap is legal when the fabrics differ, and the precedence
// slack is exactly eaten by the crossing latency.

/// Same tasks, windows and reconfigurations as [`fixture`], but the target
/// is a platform of two identical 20-CLB fabrics (crossing latency 7),
/// with region 0 on fabric 0 and region 1 on fabric 1. The fabrics match
/// the original device, so every duration is unchanged and the baseline
/// stays valid.
fn multi_fabric_fixture() -> (ProblemInstance, Schedule) {
    let (base, mut s) = fixture();
    let platform = Platform {
        name: "dual-tiny".to_string(),
        fabrics: vec![
            Device::tiny_test(ResourceVec::new(20, 4, 4), 1),
            Device::tiny_test(ResourceVec::new(20, 4, 4), 1),
        ],
        crossing_latency: 7,
    };
    let inst = ProblemInstance::new(
        "multi_fabric_fixture",
        Architecture::on_platform(1, platform),
        base.graph.clone(),
        base.impls.clone(),
    )
    .unwrap();
    s.regions[1].fabric = 1;
    (inst, s)
}

#[test]
fn multi_fabric_baseline_is_valid() {
    let (inst, s) = multi_fabric_fixture();
    assert_eq!(validate(&inst, &s), Ok(()));
}

/// Seed: an extra idle region pushes fabric 0 past its 20-CLB capacity
/// while the *summed* capacity (the single-device relaxation) still fits —
/// only a per-fabric capacity check rejects this.
#[test]
fn over_capacity_fabric_is_fabric_over_capacity() {
    let (inst, mut s) = multi_fabric_fixture();
    s.regions.push(Region {
        res: ResourceVec::new(16, 0, 0),
        fabric: 0,
    });
    // Fabric 0 now hosts 5 + 16 = 21 > 20 CLB; 26 total <= 40 summed.
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::FabricOverCapacity { fabric: 0 })
    );
}

/// Seed: the two reconfigurations overlap in time. On different fabrics
/// that is legal — each fabric owns its own controller group — but
/// re-hosting region 1 on fabric 0 turns the same overlap into contention
/// on one controller.
#[test]
fn controller_overlap_contends_on_one_fabric_not_across_two() {
    let (inst, mut s) = multi_fabric_fixture();
    s.reconfigurations[1].start = 12;
    s.reconfigurations[1].end = 17;
    assert_eq!(validate(&inst, &s), Ok(()));
    s.regions[1].fabric = 0;
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::ReconfiguratorContention)
    );
}

/// Seed: task A migrates to region 1 (fabric 1) without re-timing. Its
/// edge to B now crosses fabrics, so B must start no earlier than
/// `end(A) + 7`; the 5-tick gap no longer suffices. Zeroing the platform's
/// crossing latency makes the identical schedule valid again, pinning the
/// crossing charge as the only violation.
#[test]
fn missing_crossing_latency_is_precedence_violated() {
    let (inst, mut s) = multi_fabric_fixture();
    s.assignments[A.index()].placement = Placement::Region(RegionId(1));
    assert_eq!(
        validate(&inst, &s),
        Err(ValidationError::PrecedenceViolated { from: A, to: B })
    );
    let mut free = inst.clone();
    free.architecture.platform.crossing_latency = 0;
    assert_eq!(validate(&free, &s), Ok(()));
}

// --- Systematic sweep-vs-oracle agreement corpus ---------------------------
//
// Single-field mutations applied mechanically to every slot, window and
// reconfiguration record of the fixture. None of the expectations below are
// about *which* error appears — only that the pairwise oracle and the
// sweep-line checker return the exact same `Result` on every mutant.

fn mutated(base: &Schedule, f: impl FnOnce(&mut Schedule)) -> Schedule {
    let mut m = base.clone();
    f(&mut m);
    m
}

/// All single-field mutants of a schedule. Windows are kept non-inverted
/// (`end >= start`): `duration()` on an inverted record is out of contract
/// for both checkers alike.
fn field_sweep_corpus(base: &Schedule) -> Vec<Schedule> {
    let deltas: [i64; 8] = [-12, -5, -3, -1, 1, 3, 5, 12];
    let mut out = Vec::new();
    for i in 0..base.assignments.len() {
        for &d in &deltas {
            // Slide the whole slot.
            out.push(mutated(base, |m| {
                let a = &mut m.assignments[i];
                let span = a.end - a.start;
                a.start = a.start.saturating_add_signed(d);
                a.end = a.start + span;
            }));
            // Resize by moving only the end.
            out.push(mutated(base, |m| {
                let a = &mut m.assignments[i];
                a.end = a.end.saturating_add_signed(d).max(a.start);
            }));
        }
        // Re-place on the other kind of lane.
        out.push(mutated(base, |m| {
            m.assignments[i].placement = match m.assignments[i].placement {
                Placement::Core(_) => Placement::Region(RegionId(0)),
                Placement::Region(_) => Placement::Core(0),
            };
        }));
        // Point into the other region / an out-of-range one.
        out.push(mutated(base, |m| {
            m.assignments[i].placement = Placement::Region(RegionId(1));
        }));
        out.push(mutated(base, |m| {
            m.assignments[i].placement = Placement::Region(RegionId(7));
        }));
    }
    for ri in 0..base.reconfigurations.len() {
        for &d in &deltas {
            out.push(mutated(base, |m| {
                let r = &mut m.reconfigurations[ri];
                let span = r.end - r.start;
                r.start = r.start.saturating_add_signed(d);
                r.end = r.start + span;
            }));
            out.push(mutated(base, |m| {
                let r = &mut m.reconfigurations[ri];
                r.end = r.end.saturating_add_signed(d).max(r.start);
            }));
        }
        // Retarget, drop and duplicate.
        out.push(mutated(base, |m| {
            let r = &mut m.reconfigurations[ri];
            r.region = RegionId((r.region.0 + 1) % 2);
        }));
        out.push(mutated(base, |m| {
            m.reconfigurations[ri].region = RegionId(9);
        }));
        out.push(mutated(base, |m| {
            m.reconfigurations[ri].outgoing_task = A;
        }));
        out.push(mutated(base, |m| {
            m.reconfigurations.remove(ri);
        }));
        out.push(mutated(base, |m| {
            let dup = m.reconfigurations[ri];
            m.reconfigurations.push(dup);
        }));
    }
    for s in 0..base.regions.len() {
        for clb in [0, 3, 4, 6, 19, 30] {
            out.push(mutated(base, |m| {
                m.regions[s].res = ResourceVec::new(clb, 0, 0);
            }));
        }
    }
    out.push(mutated(base, |m| {
        m.assignments.pop();
    }));
    out.push(mutated(base, |m| {
        m.regions.pop();
    }));
    out
}

/// Every single-field mutant gets the same verdict — accept or the same
/// first error — from both checkers.
#[test]
fn sweep_agrees_with_oracle_on_field_sweep_corpus() {
    let (inst, base) = fixture();
    let corpus = field_sweep_corpus(&base);
    assert!(corpus.len() > 100, "corpus unexpectedly small");
    for (i, mutant) in corpus.iter().enumerate() {
        let oracle = validate_schedule(&inst, mutant);
        let sweep = validate_schedule_sweep(&inst, mutant);
        assert_eq!(oracle, sweep, "checkers disagree on mutant #{i}");
    }
}

// --- Degraded-schedule seeds -----------------------------------------------
//
// The anytime schedulers and the portfolio driver return cut-short results
// with shapes the search never produces when it runs to completion: PA's
// all-software fallback has *zero* regions and no reconfigurations, and a
// cancelled mid-search result can leave a lone hardware prefix with the
// rest serialized onto cores. Both checkers must handle these shapes — and
// every single-field corruption of them — identically.

/// PA's anytime fallback shape: no regions, no reconfigurations, every
/// task serialized onto core 0 in precedence order.
fn degraded_all_software_fixture() -> (ProblemInstance, Schedule) {
    let (inst, _) = fixture();
    let sw = |name: &str| {
        inst.impls
            .iter()
            .find(|(_, im)| im.name == name)
            .map(|(i, _)| i)
            .unwrap()
    };
    let slot = |name: &str, start: u64, end: u64| TaskAssignment {
        impl_id: sw(name),
        placement: Placement::Core(0),
        start,
        end,
    };
    let schedule = Schedule {
        regions: vec![],
        assignments: vec![
            slot("a_sw", 0, 100),
            slot("b_sw", 100, 200),
            slot("c_sw", 200, 208),
            slot("d_sw", 208, 216),
            slot("e_sw", 216, 316),
        ],
        reconfigurations: vec![],
    };
    (inst, schedule)
}

/// A cancelled mid-search shape: the first task kept on its hardware
/// implementation (initially-loaded region, so no reconfiguration record),
/// everything after the cut serialized in software.
fn degraded_prefix_hw_fixture() -> (ProblemInstance, Schedule) {
    let (inst, base) = fixture();
    let sw = |name: &str| {
        inst.impls
            .iter()
            .find(|(_, im)| im.name == name)
            .map(|(i, _)| i)
            .unwrap()
    };
    let slot = |name: &str, start: u64, end: u64| TaskAssignment {
        impl_id: sw(name),
        placement: Placement::Core(0),
        start,
        end,
    };
    let schedule = Schedule {
        regions: vec![base.regions[0].clone()],
        assignments: vec![
            base.assignments[A.index()], // hw, region 0, [0, 10)
            slot("b_sw", 10, 110),
            slot("c_sw", 110, 118),
            slot("d_sw", 118, 126),
            slot("e_sw", 126, 226),
        ],
        reconfigurations: vec![],
    };
    (inst, schedule)
}

#[test]
fn degraded_seed_fixtures_are_valid() {
    let (inst, s) = degraded_all_software_fixture();
    assert_eq!(validate(&inst, &s), Ok(()));
    let (inst, s) = degraded_prefix_hw_fixture();
    assert_eq!(validate(&inst, &s), Ok(()));
}

/// The full single-field corpus over both degraded seeds: the checkers
/// agree on every mutant, including region references into an empty or
/// shortened region table.
#[test]
fn sweep_agrees_with_oracle_on_degraded_seeds() {
    for (name, (inst, base)) in [
        ("all_software", degraded_all_software_fixture()),
        ("prefix_hw", degraded_prefix_hw_fixture()),
    ] {
        let corpus = field_sweep_corpus(&base);
        assert!(corpus.len() > 50, "{name}: corpus unexpectedly small");
        for (i, mutant) in corpus.iter().enumerate() {
            let oracle = validate_schedule(&inst, mutant);
            let sweep = validate_schedule_sweep(&inst, mutant);
            assert_eq!(oracle, sweep, "checkers disagree on {name} mutant #{i}");
        }
    }
}

/// Second-order corpus: every *pair* of single-field mutations, composed
/// (~2·10⁴ double mutants). Quadratic in the corpus size, so release
/// builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "quadratic double-mutation corpus; run in the release tier"
)]
fn sweep_agrees_with_oracle_on_double_mutants() {
    let (inst, base) = fixture();
    let corpus = field_sweep_corpus(&base);
    for (i, first) in corpus.iter().enumerate() {
        for (j, second) in field_sweep_corpus(first).into_iter().enumerate() {
            let oracle = validate_schedule(&inst, &second);
            let sweep = validate_schedule_sweep(&inst, &second);
            assert_eq!(oracle, sweep, "checkers disagree on mutant #{i}.{j}");
        }
    }
}
