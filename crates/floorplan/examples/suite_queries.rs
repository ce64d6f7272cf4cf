//! Runs every floorplanning query of the paper suite's verdict fixture
//! (`tests/data/paper_suite_queries.txt`) on the xc7z020 and prints, per
//! query, the recorded and the current verdict, the placement attempts the
//! search made and its wall-clock time. The summary gives the count,
//! attempts and time of the whole fixture and of each class of query:
//! refuted at the root by the coverage bound, placed by a greedy pass,
//! decided by the exact search, and stopped by the node budget. The first
//! two pay only for setup, the last two mostly for search.
//!
//! ```text
//! cargo run --release -p prfpga-floorplan --example suite_queries
//! ```
//!
//! The time limit is 600 s, so only the node budget stops a search and
//! everything but the times is the same on any host and build profile.

use std::time::{Duration, Instant};

use prfpga_floorplan::{
    FloorplanOutcome, Floorplanner, FloorplannerConfig, QueryStats, NODE_BUDGET,
};
use prfpga_model::{CancelToken, Device, ResourceVec};

const QUERIES: &str = include_str!("../tests/data/paper_suite_queries.txt");

/// Query classes, by what settled the query.
const CLASSES: [&str; 4] = [
    "root-infeasible",
    "greedy-feasible",
    "dfs-decided",
    "capped",
];

fn main() {
    let device = Device::xc7z020();
    let planner = Floorplanner::new(FloorplannerConfig {
        time_limit: Duration::from_secs(600),
        ..Default::default()
    });
    println!("query  recorded    now         attempts        ms");
    // Count, attempts and ms per class, in `CLASSES` order.
    let mut classes = [(0u32, 0u64, 0.0f64); CLASSES.len()];
    let lines = QUERIES
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    for (q, line) in lines.enumerate() {
        let mut fields = line.split_whitespace();
        let recorded = fields.next().expect("verdict");
        let demands: Vec<ResourceVec> = fields
            .map(|triple| {
                let v: Vec<u64> = triple
                    .split(',')
                    .map(|x| x.parse().expect("demand"))
                    .collect();
                ResourceVec::new(v[0], v[1], v[2])
            })
            .collect();
        let mut stats = QueryStats::default();
        let start = Instant::now();
        let outcome = planner.check_device(&device, &demands, &CancelToken::never(), &mut stats);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let attempts = stats.nodes;
        let class = if stats.root_infeasible == 1 {
            0
        } else if attempts == 0 {
            1
        } else if attempts < NODE_BUDGET {
            2
        } else {
            3
        };
        let now = match outcome {
            FloorplanOutcome::Feasible(_) => "feasible",
            FloorplanOutcome::Infeasible => "infeasible",
            FloorplanOutcome::Timeout => "timeout",
        };
        println!("{q:>5}  {recorded:<10}  {now:<10}  {attempts:>8}  {ms:>8.2}");
        let c = &mut classes[class];
        c.0 += 1;
        c.1 += attempts;
        c.2 += ms;
    }
    println!("class            queries    attempts        ms");
    let total = classes
        .iter()
        .fold((0, 0, 0.0), |t, c| (t.0 + c.0, t.1 + c.1, t.2 + c.2));
    for (name, (count, attempts, ms)) in CLASSES.into_iter().zip(classes).chain([("all", total)]) {
        println!("{name:<15}  {count:>7}  {attempts:>10}  {ms:>8.1}");
    }
}
