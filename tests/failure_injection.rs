//! Failure-injection and edge-case integration tests: degenerate graphs,
//! starved architectures, zero durations, oversized implementations.

use prfpga::model::Device;
use prfpga::prelude::*;

fn pa() -> PaScheduler {
    PaScheduler::new(SchedulerConfig::default())
}

fn tiny_arch(clb: u64) -> Architecture {
    Architecture::new(1, Device::tiny_test(ResourceVec::new(clb, 10, 10), 1))
}

#[test]
fn single_task_instance() {
    let mut impls = ImplPool::new();
    let sw = impls.add(Implementation::software("sw", 42));
    let mut g = TaskGraph::new();
    g.add_task("only", vec![sw]);
    let inst = ProblemInstance::new("single", tiny_arch(10), g, impls).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    assert_eq!(s.makespan(), 42);
    assert!(s.regions.is_empty());
}

#[test]
fn empty_instance() {
    let inst =
        ProblemInstance::new("empty", tiny_arch(10), TaskGraph::new(), ImplPool::new()).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    assert_eq!(s.makespan(), 0);
}

#[test]
fn software_only_application_on_one_core() {
    let mut impls = ImplPool::new();
    let mut g = TaskGraph::new();
    for i in 0..20u64 {
        let sw = impls.add(Implementation::software(format!("s{i}"), 10 + i));
        g.add_task(format!("t{i}"), vec![sw]);
    }
    let inst = ProblemInstance::new("swonly", tiny_arch(10), g, impls).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    // Everything serializes on the single core.
    let total: Time = (0..20u64).map(|i| 10 + i).sum();
    assert_eq!(s.makespan(), total);
}

#[test]
fn wide_fanout_exceeding_fabric() {
    // 60 parallel hardware-capable tasks on a fabric that fits ~3 regions:
    // most fall back to software; the schedule must stay valid.
    let mut impls = ImplPool::new();
    let mut g = TaskGraph::new();
    let src_sw = impls.add(Implementation::software("src", 5));
    let src = g.add_task("src", vec![src_sw]);
    for i in 0..60u64 {
        let sw = impls.add(Implementation::software(format!("s{i}"), 500));
        let hw = impls.add(Implementation::hardware(
            format!("h{i}"),
            50,
            ResourceVec::new(3, 1, 1),
        ));
        let t = g.add_task(format!("t{i}"), vec![sw, hw]);
        g.add_edge(src, t);
    }
    let inst = ProblemInstance::new("fanout", tiny_arch(10), g, impls).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    assert!(s
        .total_region_resources()
        .fits_in(&inst.architecture.device.max_res));
    assert!(s.hardware_task_count() < 61);
}

#[test]
fn long_chain_with_region_reuse() {
    // A 50-deep chain of hardware tasks with capacity for one region:
    // the region is reused along the chain with reconfigurations, or tasks
    // fall back to software — either way, valid and finite.
    let mut impls = ImplPool::new();
    let mut g = TaskGraph::new();
    let mut prev: Option<TaskId> = None;
    for i in 0..50u64 {
        let sw = impls.add(Implementation::software(format!("s{i}"), 400));
        let hw = impls.add(Implementation::hardware(
            format!("h{i}"),
            40,
            ResourceVec::new(10, 2, 2),
        ));
        let t = g.add_task(format!("t{i}"), vec![sw, hw]);
        if let Some(p) = prev {
            g.add_edge(p, t);
        }
        prev = Some(t);
    }
    let inst = ProblemInstance::new("chain", tiny_arch(10), g, impls).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
}

#[test]
fn zero_duration_tasks() {
    let mut impls = ImplPool::new();
    let mut g = TaskGraph::new();
    let a_sw = impls.add(Implementation::software("a", 0));
    let b_sw = impls.add(Implementation::software("b", 10));
    let a = g.add_task("a", vec![a_sw]);
    let b = g.add_task("b", vec![b_sw]);
    g.add_edge(a, b);
    let inst = ProblemInstance::new("zero", tiny_arch(10), g, impls).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    assert_eq!(s.makespan(), 10);
}

#[test]
fn hw_impl_exactly_filling_the_device() {
    let mut impls = ImplPool::new();
    let sw = impls.add(Implementation::software("sw", 1000));
    let hw = impls.add(Implementation::hardware(
        "huge",
        10,
        ResourceVec::new(10, 10, 10),
    ));
    let mut g = TaskGraph::new();
    g.add_task("t", vec![sw, hw]);
    let inst = ProblemInstance::new("fill", tiny_arch(10), g, impls).unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    assert_eq!(s.makespan(), 10, "the exactly-fitting accelerator is used");
}

#[test]
fn disconnected_components() {
    let mut impls = ImplPool::new();
    let mut g = TaskGraph::new();
    for c in 0..3 {
        let mut prev: Option<TaskId> = None;
        for i in 0..4u64 {
            let sw = impls.add(Implementation::software(format!("c{c}s{i}"), 20));
            let t = g.add_task(format!("c{c}t{i}"), vec![sw]);
            if let Some(p) = prev {
                g.add_edge(p, t);
            }
            prev = Some(t);
        }
    }
    let inst = ProblemInstance::new(
        "disconnected",
        Architecture::new(3, Device::tiny_test(ResourceVec::new(1, 0, 0), 1)),
        g,
        impls,
    )
    .unwrap();
    let s = pa().schedule(&inst).unwrap();
    validate_schedule(&inst, &s).unwrap();
    // Three cores, three independent chains of 80 ticks each.
    assert_eq!(s.makespan(), 80);
}

#[test]
fn cyclic_graph_is_rejected() {
    let mut impls = ImplPool::new();
    let a_sw = impls.add(Implementation::software("a", 1));
    let b_sw = impls.add(Implementation::software("b", 1));
    let mut g = TaskGraph::new();
    let a = g.add_task("a", vec![a_sw]);
    let b = g.add_task("b", vec![b_sw]);
    g.add_edge(a, b);
    g.add_edge(b, a);
    let inst = ProblemInstance {
        name: "cycle".into(),
        architecture: tiny_arch(10),
        graph: g,
        impls,
    };
    assert!(pa().schedule(&inst).is_err());
    assert!(IsKScheduler::with_k(1).schedule(&inst).is_err());
    assert!(HeftScheduler::new().schedule(&inst).is_err());
}

#[test]
fn baselines_survive_the_edge_cases_too() {
    // Reuse the wide fan-out instance for IS-1 and HEFT.
    let mut impls = ImplPool::new();
    let mut g = TaskGraph::new();
    let src_sw = impls.add(Implementation::software("src", 5));
    let src = g.add_task("src", vec![src_sw]);
    for i in 0..30u64 {
        let sw = impls.add(Implementation::software(format!("s{i}"), 500));
        let hw = impls.add(Implementation::hardware(
            format!("h{i}"),
            50,
            ResourceVec::new(3, 1, 1),
        ));
        let t = g.add_task(format!("t{i}"), vec![sw, hw]);
        g.add_edge(src, t);
    }
    let inst = ProblemInstance::new("fanout2", tiny_arch(10), g, impls).unwrap();
    for s in [
        IsKScheduler::with_k(1).schedule(&inst).unwrap(),
        IsKScheduler::with_k(4).schedule(&inst).unwrap(),
        HeftScheduler::new().schedule(&inst).unwrap(),
    ] {
        validate_schedule(&inst, &s).unwrap();
    }
}

/// The two ways an architecture can contradict its own platform are typed
/// errors for every scheduler: a platform with no fabrics (kept to
/// software-only tasks, so nothing else is wrong with it), and a `device`
/// that is not the platform's relaxation — inflated, or replaced by one
/// fabric.
#[test]
fn inconsistent_platforms_are_rejected_by_every_scheduler() {
    use prfpga::gen::GraphConfig;
    use prfpga::model::ModelError;
    use prfpga::sched::SchedError;

    let inst = TaskGraphGenerator::new(4).generate(
        "dual",
        &GraphConfig::standard(60),
        Architecture::on_platform(2, Platform::dual_zedboard()),
    );
    let mut no_fabrics = inst.clone();
    no_fabrics.architecture.platform.fabrics.clear();
    for t in &mut no_fabrics.graph.tasks {
        t.impls.retain(|&i| inst.impls.get(i).is_software());
    }
    let mut inflated = inst.clone();
    inflated.architecture.device.max_res = inst.architecture.device.max_res.scale_frac_floor(3, 2);
    let mut first_fabric = inst.clone();
    first_fabric.architecture.device = inst.architecture.fabric(0).clone();

    let par = PaRScheduler::new(SchedulerConfig {
        max_iterations: 2,
        ..Default::default()
    });
    for (bad, expected) in [
        (&no_fabrics, "no fabrics"),
        (&inflated, "relaxation"),
        (&first_fabric, "relaxation"),
    ] {
        let err = bad.validate().unwrap_err();
        assert!(matches!(
            err,
            ModelError::NoFabrics | ModelError::DeviceNotRelaxation
        ));
        let errors = [
            pa().schedule(bad).map(|_| ()).unwrap_err(),
            par.schedule(bad).map(|_| ()).unwrap_err(),
            IsKScheduler::with_k(1)
                .schedule(bad)
                .map(|_| ())
                .unwrap_err(),
            HeftScheduler::new().schedule(bad).map(|_| ()).unwrap_err(),
            Portfolio::new(PortfolioConfig::default())
                .run(bad)
                .map(|_| ())
                .unwrap_err(),
        ];
        for e in errors {
            assert!(
                matches!(&e, SchedError::InvalidInstance(m) if m.contains(expected)),
                "{e}"
            );
        }
    }
}
