//! Criterion microbenchmarks of the PA pipeline's building blocks:
//! CPM window computation, implementation selection, and the
//! floorplanner feasibility query.

use criterion::{criterion_group, criterion_main, Criterion};
use prfpga_dag::{CpmAnalysis, Dag};
use prfpga_floorplan::{Floorplanner, FloorplannerConfig, QueryStats};
use prfpga_gen::{GraphConfig, TaskGraphGenerator};
use prfpga_model::{Architecture, CancelToken, ResourceVec, Time};
use prfpga_sched::metrics::MetricWeights;
use prfpga_sched::phases::impl_select::{max_t, select_implementations};
use prfpga_sched::CostPolicy;

fn phases(c: &mut Criterion) {
    let inst = TaskGraphGenerator::new(0xFACE).generate(
        "phases50",
        &GraphConfig::standard(50),
        Architecture::zedboard(),
    );
    let dag = Dag::from_taskgraph(&inst.graph).unwrap();
    let durations: Vec<Time> = inst
        .graph
        .task_ids()
        .map(|t| inst.impls.get(inst.fastest_sw_impl(t)).time)
        .collect();
    c.bench_function("cpm_50_tasks", |b| {
        b.iter(|| CpmAnalysis::run(std::hint::black_box(&dag), std::hint::black_box(&durations)))
    });

    let weights = MetricWeights::new(&inst.architecture.device.max_res, max_t(&inst));
    c.bench_function("impl_select_50_tasks", |b| {
        b.iter(|| {
            select_implementations(
                std::hint::black_box(&inst),
                std::hint::black_box(&weights),
                CostPolicy::Full,
            )
        })
    });

    let device = Architecture::zedboard().device;
    let demands = vec![
        ResourceVec::new(600, 10, 20),
        ResourceVec::new(400, 4, 10),
        ResourceVec::new(900, 16, 0),
        ResourceVec::new(200, 0, 40),
        ResourceVec::new(350, 8, 8),
    ];
    let planner = Floorplanner::new(FloorplannerConfig::default());
    c.bench_function("floorplan_5_regions_xc7z020", |b| {
        b.iter(|| {
            planner.check_device(
                std::hint::black_box(&device),
                std::hint::black_box(&demands),
                &CancelToken::never(),
                &mut QueryStats::default(),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = phases
}
criterion_main!(benches);
