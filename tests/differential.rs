//! Differential oracles: every scheduler is checked against an
//! *independently computed* bound rather than against golden outputs.
//!
//! * Lower bound: no valid schedule can beat the CPM critical path of the
//!   task graph with every task at its fastest implementation and
//!   unlimited resources (`crates/dag`). Resources, reconfiguration and
//!   communication only ever add time.
//! * Cross-algorithm: the randomized PA-R explores a superset of the
//!   deterministic PA's orderings and keeps the best feasible candidate,
//!   so with a fixed iteration budget its aggregate makespan must not
//!   lose to PA's beyond noise (1.02x, the repo's established tolerance).

use prfpga::baseline::IsKConfig;
use prfpga::dag::{CpmAnalysis, Dag};
use prfpga::gen::SuiteConfig;
use prfpga::model::Time;
use prfpga::prelude::*;
use prfpga::sched::PaRResult;

fn groups() -> Vec<Vec<ProblemInstance>> {
    SuiteConfig {
        groups: vec![20, 40],
        graphs_per_group: 2,
        seed: 0xD1FF_2016,
    }
    .generate(&Architecture::zedboard_pr())
}

/// Ideal unlimited-resource makespan: CPM over the precedence graph with
/// each task at its fastest implementation (hardware or software).
fn cpm_lower_bound(inst: &ProblemInstance) -> Time {
    let dag = Dag::from_taskgraph(&inst.graph).expect("generated graphs are acyclic");
    let durations: Vec<Time> = inst
        .graph
        .task_ids()
        .map(|t| {
            inst.graph
                .task(t)
                .impls
                .iter()
                .map(|&i| inst.impls.get(i).time)
                .min()
                .expect("every task has at least one implementation")
        })
        .collect();
    CpmAnalysis::run(&dag, &durations).makespan
}

/// Every algorithm's validated makespan respects the CPM lower bound on
/// every instance of the suite.
#[test]
fn all_schedulers_respect_cpm_lower_bound() {
    let pa = PaScheduler::new(SchedulerConfig::default());
    let par = PaRScheduler::new(SchedulerConfig {
        max_iterations: 4,
        time_budget: std::time::Duration::from_secs(120),
        ..Default::default()
    });
    let is1 = IsKScheduler::new(IsKConfig::is1());
    let is5 = IsKScheduler::new(IsKConfig::is5());
    let heft = HeftScheduler::new();

    for group in groups() {
        for inst in &group {
            let bound = cpm_lower_bound(inst);
            assert!(bound > 0, "{}: degenerate lower bound", inst.name);
            let runs: [(&str, Schedule); 5] = [
                ("PA", pa.schedule(inst).unwrap()),
                ("PA-R", par.schedule(inst).unwrap()),
                ("IS-1", is1.schedule(inst).unwrap()),
                ("IS-5", is5.schedule(inst).unwrap()),
                ("HEFT", heft.schedule(inst).unwrap()),
            ];
            for (name, s) in runs {
                validate_schedule(inst, &s).expect("valid schedule");
                // The sweep-line checker must agree with the pairwise
                // oracle on every real scheduler output, not only on the
                // synthetic mutation corpus.
                assert_eq!(
                    validate_schedule_sweep(inst, &s),
                    Ok(()),
                    "{name} on {}: sweep checker disagrees with the oracle",
                    inst.name
                );
                assert!(
                    s.makespan() >= bound,
                    "{name} on {}: makespan {} beats the CPM lower bound {}",
                    inst.name,
                    s.makespan(),
                    bound
                );
            }
        }
    }
}

/// The cooperative-cancellation plumbing is inert without a deadline:
/// scheduling through a never-firing [`CancelToken`] must be byte-identical
/// to the plain entry points — schedules, restart/iteration counts and
/// convergence traces — and a single-member portfolio must reproduce the
/// standalone scheduler exactly. (Wall-clock durations in the traces are
/// excluded; they are the only legitimately nondeterministic fields.)
#[test]
fn cancellation_plumbing_is_inert_without_a_deadline() {
    use prfpga::portfolio::{Member, Portfolio, PortfolioConfig};

    let pa = PaScheduler::new(SchedulerConfig::default());
    let par_cfg = SchedulerConfig {
        max_iterations: 4,
        time_budget: std::time::Duration::from_secs(120),
        ..Default::default()
    };
    let par = PaRScheduler::new(par_cfg.clone());

    for group in groups() {
        for inst in &group {
            let plain = pa.schedule_detailed(inst).unwrap();
            let never = pa
                .schedule_with_cancel_in(inst, &CancelToken::never(), &mut SchedWorkspace::new())
                .unwrap();
            assert_eq!(
                plain.schedule, never.schedule,
                "PA schedule on {}",
                inst.name
            );
            assert_eq!(
                plain.attempts, never.attempts,
                "PA attempts on {}",
                inst.name
            );
            assert!(!never.degraded, "PA degraded on {}", inst.name);
            // Poll *counts* are compared only under a pinned floorplanner
            // config (see crates/sched/tests/cancellation_sweep.rs): with
            // the default 250 ms solver time limit the number of search
            // nodes — and hence stride polls — is wall-clock-dependent.
            assert!(never.trace.cancel_polls > 0, "PA polled on {}", inst.name);
            assert_eq!(never.trace.deadline_hits, 0, "PA hits on {}", inst.name);

            let plain = par.schedule_detailed(inst).unwrap();
            let never = par
                .schedule_with_cancel_in(inst, 1, &CancelToken::never(), &mut SchedWorkspace::new())
                .unwrap();
            assert_eq!(
                plain.schedule, never.schedule,
                "PA-R schedule on {}",
                inst.name
            );
            assert_eq!(
                plain.iterations, never.iterations,
                "PA-R iterations on {}",
                inst.name
            );
            assert!(!never.degraded, "PA-R degraded on {}", inst.name);
            assert_eq!(never.deadline_hits, 0, "PA-R hits on {}", inst.name);
            let points = |r: &PaRResult| -> Vec<(usize, Time)> {
                r.trace.iter().map(|p| (p.iteration, p.makespan)).collect()
            };
            assert_eq!(
                points(&plain),
                points(&never),
                "PA-R convergence on {}",
                inst.name
            );

            // A deadline-free single-member portfolio is just that member.
            let r = Portfolio::new(PortfolioConfig {
                members: vec![Member::PaR],
                sched: par_cfg.clone(),
                ..Default::default()
            })
            .run(inst)
            .unwrap();
            assert_eq!(
                r.schedule, plain.schedule,
                "portfolio PA-R on {}",
                inst.name
            );
            assert!(
                !r.degraded && !r.deadline_hit,
                "portfolio flags on {}",
                inst.name
            );
        }
    }
}

/// PA-R vs PA over the same suite, aggregate with the repo's 1.02x noise
/// tolerance. The floorplan time limit is generous, so the node budget
/// alone decides every verdict and the comparison is the same in any build
/// profile.
#[test]
fn par_aggregate_does_not_lose_to_pa() {
    let cfg = SchedulerConfig {
        floorplan: generous_floorplan_limit(),
        ..Default::default()
    };
    let pa = PaScheduler::new(cfg.clone());
    let par = PaRScheduler::new(SchedulerConfig {
        max_iterations: 12,
        time_budget: std::time::Duration::from_secs(120),
        ..cfg
    });
    let mut pa_total = 0u64;
    let mut par_total = 0u64;
    for group in groups() {
        for inst in &group {
            let s_pa = pa.schedule(inst).unwrap();
            let s_par = par.schedule(inst).unwrap();
            validate_schedule(inst, &s_pa).expect("valid PA schedule");
            validate_schedule(inst, &s_par).expect("valid PA-R schedule");
            pa_total += s_pa.makespan();
            par_total += s_par.makespan();
        }
    }
    assert!(
        par_total as f64 <= pa_total as f64 * 1.02,
        "PA-R aggregate ({par_total}) should not lose to PA ({pa_total}) beyond noise"
    );
}

/// Multi-fabric end-to-end: a 120-task instance targeted at the Alveo
/// U250 catalog platform (4 SLR fabrics) schedules with PA, passes both
/// validators, actually spreads regions across fabrics, pays the
/// crossing latency on at least one inter-fabric data edge, and renders
/// fabric-grouped Gantt/SVG output.
#[test]
fn alveo_u250_schedules_end_to_end() {
    use prfpga::gen::GraphConfig;
    use prfpga::sim::{render_gantt, render_svg};

    let arch = Architecture::on_platform(2, Platform::alveo_u250());
    let crossing = arch.crossing_latency();
    assert!(crossing > 0, "catalog platform has a crossing cost");
    let inst = TaskGraphGenerator::new(0xA1_0250).generate(
        "alveo_u250_smoke",
        &GraphConfig::standard(120),
        arch,
    );

    let s = PaScheduler::new(SchedulerConfig::default())
        .schedule(&inst)
        .unwrap();
    validate_schedule(&inst, &s).expect("valid multi-fabric schedule");
    assert_eq!(validate_schedule_sweep(&inst, &s), Ok(()));
    assert!(
        s.fabric_span() > 1,
        "120 tasks on 4 SLRs should use more than one fabric (span {})",
        s.fabric_span()
    );

    // At least one data edge must cross fabrics, and its consumer must
    // start no earlier than producer end + crossing latency.
    let mut crossings = 0usize;
    for (from, to, cost) in inst.graph.edges_with_costs() {
        let a = &s.assignments[from.index()];
        let b = &s.assignments[to.index()];
        let (Placement::Region(ra), Placement::Region(rb)) = (a.placement, b.placement) else {
            continue;
        };
        if s.regions[ra.index()].fabric != s.regions[rb.index()].fabric {
            crossings += 1;
            assert!(
                b.start >= a.end + cost + crossing,
                "edge {from:?}->{to:?} crosses fabrics but starts {} < {} + {cost} + {crossing}",
                b.start,
                a.end
            );
        }
    }
    assert!(crossings > 0, "no data edge crosses fabrics");

    let gantt = render_gantt(&inst, &s, 100);
    assert!(gantt.contains("fabric 0:") && gantt.contains("fabric 1:"));
    let svg = render_svg(&inst, &s);
    assert!(svg.contains("f0 reg") && svg.contains("f1 "));
}

/// IS-k is a single-device algorithm: on a multi-fabric platform it must
/// still return a schedule both validators accept, and so must the
/// default portfolio, whose members include IS-1. Both catalog platforms
/// are covered: four SLRs of one device and two separate boards.
#[test]
fn isk_and_portfolio_are_valid_on_multi_fabric_platforms() {
    use prfpga::gen::GraphConfig;

    for platform in [Platform::alveo_u250(), Platform::dual_zedboard()] {
        let name = platform.name.clone();
        let inst = TaskGraphGenerator::new(11).generate(
            &format!("multi_fabric_{name}"),
            &GraphConfig::standard(60),
            Architecture::on_platform(2, platform),
        );
        let is1 = IsKScheduler::new(IsKConfig::is1()).schedule(&inst).unwrap();
        assert_eq!(
            validate_schedule_sweep(&inst, &is1),
            Ok(()),
            "IS-1 on {name}"
        );
        validate_schedule(&inst, &is1).expect("IS-1 schedule passes the pairwise oracle");

        let r = Portfolio::new(PortfolioConfig::default())
            .run(&inst)
            .unwrap();
        assert_eq!(
            validate_schedule_sweep(&inst, &r.schedule),
            Ok(()),
            "portfolio winner {} on {name}",
            r.winner
        );
    }
}

/// FNV-1a (64-bit) folded over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Wire-format pin: one FNV-1a digest over the pretty JSON of the whole
/// paper suite (`SuiteConfig::default()` on `zedboard_pr`), one over PA's
/// compact schedule JSON for it. Both were taken when the JSON layer
/// still went through an intermediate value tree, so a change to how
/// either direction is encoded fails here.
#[test]
fn wire_format_matches_pinned_digests() {
    let suite = SuiteConfig::default().generate(&Architecture::zedboard_pr());
    let pa = PaScheduler::new(SchedulerConfig {
        floorplan: generous_floorplan_limit(),
        ..Default::default()
    });
    let (mut instances, mut schedules) = (0xCBF2_9CE4_8422_2325u64, 0xCBF2_9CE4_8422_2325u64);
    for inst in suite.iter().flatten() {
        instances = fnv1a(instances, inst.to_json().as_bytes());
        let schedule = pa.schedule(inst).unwrap();
        let json = serde_json::to_string(&schedule).expect("schedules serialize");
        schedules = fnv1a(schedules, json.as_bytes());
    }
    assert_eq!(
        (instances, schedules),
        (16_803_829_529_160_568_190, 10_652_309_308_245_135_985),
        "instance or schedule JSON is no longer byte-identical"
    );
}

/// Census pin: one FNV-1a digest over PA's floorplan query census on every
/// paper-suite instance — attempts, regions of the returned schedule, and
/// the cache and verdict counters of its queries (hits, misses, feasible,
/// infeasible, root-infeasible, timeouts, DFS nodes). Work that PA saves
/// without changing what it asks the floorplanner, or what it is told,
/// leaves this constant alone. Phase run counts and timeline counters are
/// left out: they measure that work.
#[test]
fn pa_floorplan_census_is_pinned() {
    let suite = SuiteConfig::default().generate(&Architecture::zedboard_pr());
    let pa = PaScheduler::new(SchedulerConfig {
        floorplan: generous_floorplan_limit(),
        ..Default::default()
    });
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for inst in suite.iter().flatten() {
        let t = pa.schedule_detailed(inst).unwrap().trace;
        for field in [
            t.attempts as u64,
            t.regions as u64,
            t.fp_cache_hits,
            t.fp_cache_misses,
            t.fp_feasible,
            t.fp_infeasible,
            t.fp_root_infeasible,
            t.fp_timeouts,
            t.fp_nodes,
        ] {
            hash = fnv1a(hash, &field.to_le_bytes());
        }
    }
    assert_eq!(
        hash, 5_682_257_126_524_403_033,
        "PA's floorplan query census changed"
    );
}

/// Trace pin: one FNV-1a digest over every counter of PA's `PhaseTrace`
/// (phase run counts included, wall-clock left out) on every paper-suite
/// instance and on the 60-task Alveo U250 instance, where the fabric
/// partition runs. The rendered `--trace` table with its times zeroed is
/// folded in too, so a change to how the trace is recorded or printed,
/// rather than to what PA does, fails here.
#[test]
fn pa_phase_trace_is_pinned() {
    use prfpga::gen::GraphConfig;

    let mut instances = SuiteConfig::default().generate(&Architecture::zedboard_pr());
    instances.push(vec![TaskGraphGenerator::new(11).generate(
        "digest_alveo_u250",
        &GraphConfig::standard(60),
        Architecture::on_platform(2, Platform::alveo_u250()),
    )]);
    let pa = PaScheduler::new(SchedulerConfig {
        floorplan: generous_floorplan_limit(),
        ..Default::default()
    });
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for inst in instances.iter().flatten() {
        let mut t = pa.schedule_detailed(inst).unwrap().trace;
        for runs in t.phase_runs {
            hash = fnv1a(hash, &runs.to_le_bytes());
        }
        for field in [
            t.attempts as u64,
            t.regions as u64,
            t.hw_tasks as u64,
            t.sw_tasks as u64,
            t.balance_moves as u64,
            t.reconfigurations as u64,
            t.workspace_reuses,
            t.fp_cache_hits,
            t.fp_cache_misses,
            t.fp_feasible,
            t.fp_infeasible,
            t.fp_root_infeasible,
            t.fp_timeouts,
            t.fp_nodes,
            t.timeline_reservations,
            t.timeline_gap_queries,
            t.cancel_polls,
            t.deadline_hits,
        ] {
            hash = fnv1a(hash, &field.to_le_bytes());
        }
        t.phase_time = Default::default();
        hash = fnv1a(hash, t.render_table().as_bytes());
    }
    assert_eq!(hash, 12_071_185_545_410_951_169, "PA's phase trace changed");
}

/// Floorplanner limits under which the node budget alone stops a search:
/// the wall-clock backstop is far beyond any search's length, even in a
/// debug build.
fn generous_floorplan_limit() -> prfpga::floorplan::FloorplannerConfig {
    prfpga::floorplan::FloorplannerConfig {
        time_limit: std::time::Duration::from_secs(600),
        ..Default::default()
    }
}

/// Output pin: one FNV-1a digest over the serialized schedules of PA,
/// PA-R (fixed iteration count, budget never binding) and IS-1 on every
/// suite instance, plus PA and PA-R on a 60-task Alveo U250 instance.
/// Floorplan searches are bounded by the solver's node budget, and the
/// wall-clock limit is set far beyond it, so every verdict, and with it
/// the digest, is the same on any host and in any build profile. Any
/// change that alters a single schedule byte changes the digest; a
/// refactor that claims identical output must leave the constant alone.
///
/// IS-k on the multi-fabric instance has its own pin,
/// `isk_matches_pinned_digest_on_multi_fabric`.
#[test]
fn schedules_match_pinned_digest() {
    use prfpga::gen::GraphConfig;

    let limit = generous_floorplan_limit();
    let pa_cfg = SchedulerConfig {
        floorplan: limit.clone(),
        ..Default::default()
    };
    let pa = PaScheduler::new(pa_cfg.clone());
    let par = PaRScheduler::new(SchedulerConfig {
        max_iterations: 6,
        time_budget: std::time::Duration::from_secs(600),
        ..pa_cfg
    });
    let is1 = IsKScheduler::new(IsKConfig {
        floorplan: limit,
        ..IsKConfig::is1()
    });
    let json = |s: &Schedule| serde_json::to_string(s).expect("schedules serialize");

    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for inst in groups().iter().flatten() {
        hash = fnv1a(hash, json(&pa.schedule(inst).unwrap()).as_bytes());
        hash = fnv1a(hash, json(&par.schedule(inst).unwrap()).as_bytes());
        hash = fnv1a(hash, json(&is1.schedule(inst).unwrap()).as_bytes());
    }
    let alveo = TaskGraphGenerator::new(11).generate(
        "digest_alveo_u250",
        &GraphConfig::standard(60),
        Architecture::on_platform(2, Platform::alveo_u250()),
    );
    hash = fnv1a(hash, json(&pa.schedule(&alveo).unwrap()).as_bytes());
    hash = fnv1a(hash, json(&par.schedule(&alveo).unwrap()).as_bytes());

    assert_eq!(
        hash, 13_707_504_820_648_058_911,
        "schedule digest changed: some scheduler output is no longer byte-identical"
    );
}

/// Output pin for IS-k on a multi-fabric target: one FNV-1a digest over
/// the serialized IS-1 and IS-5 schedules of the 60-task Alveo U250
/// instance of `schedules_match_pinned_digest`. IS-k keeps to fabric 0
/// and shrinks its capacity after a floorplan failure (both runs here
/// take a second attempt), so this pins the fabric-0 target and the
/// capacity ratchet together.
#[test]
fn isk_matches_pinned_digest_on_multi_fabric() {
    use prfpga::gen::GraphConfig;

    let limit = generous_floorplan_limit();
    let alveo = TaskGraphGenerator::new(11).generate(
        "digest_alveo_u250",
        &GraphConfig::standard(60),
        Architecture::on_platform(2, Platform::alveo_u250()),
    );
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for base in [IsKConfig::is1(), IsKConfig::is5()] {
        let isk = IsKScheduler::new(IsKConfig {
            floorplan: limit.clone(),
            ..base
        });
        let s = isk.schedule(&alveo).unwrap();
        assert_eq!(validate_schedule_sweep(&alveo, &s), Ok(()));
        hash = fnv1a(hash, serde_json::to_string(&s).unwrap().as_bytes());
    }
    assert_eq!(
        hash, 5_033_278_154_294_038_476,
        "IS-k digest changed on the multi-fabric instance"
    );
}

/// Zero-duration pin: one FNV-1a digest over PA's schedules of generated
/// 40-task instances on the ZedBoard, the four-SLR Alveo U250 and the dual
/// ZedBoard, with every implementation of a seeded third of the tasks set
/// to 0 ticks. Zero durations make equal start times common, and with
/// them the tie-breaking of every phase that orders tasks by start, so a
/// change to how such ties are broken fails here. Every schedule passes
/// the sweep validator.
#[test]
fn zero_duration_schedules_match_pinned_digest() {
    use prfpga::gen::GraphConfig;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let pa = PaScheduler::new(SchedulerConfig {
        floorplan: generous_floorplan_limit(),
        ..Default::default()
    });
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for arch in [
        Architecture::zedboard(),
        Architecture::on_platform(2, Platform::alveo_u250()),
        Architecture::on_platform(2, Platform::dual_zedboard()),
    ] {
        for seed in 0..6u64 {
            let mut inst = TaskGraphGenerator::new(seed).generate(
                &format!("zero_{seed}"),
                &GraphConfig::standard(40),
                arch.clone(),
            );
            let mut tasks: Vec<TaskId> = inst.graph.task_ids().collect();
            tasks.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
            for &t in &tasks[..tasks.len() / 3] {
                for i in inst.graph.task(t).impls.clone() {
                    inst.impls.get_mut(i).time = 0;
                }
            }
            let s = pa.schedule(&inst).unwrap();
            assert_eq!(validate_schedule_sweep(&inst, &s), Ok(()), "{}", inst.name);
            hash = fnv1a(hash, serde_json::to_string(&s).unwrap().as_bytes());
        }
    }
    assert_eq!(
        hash, 8_240_620_072_488_634_653,
        "PA's schedules of zero-duration instances changed"
    );
}
