//! Runs every floorplanning query of the paper suite's verdict fixture
//! (`tests/data/paper_suite_queries.txt`) on the xc7z020 and prints, per
//! query, the recorded and the current verdict, the placement attempts the
//! search made and its wall-clock time. The summary gives the totals for
//! the whole fixture and for the queries the node budget stops.
//!
//! ```text
//! cargo run --release -p prfpga-floorplan --example suite_queries
//! ```
//!
//! The time limit is 600 s, so only the node budget stops a search and
//! everything but the times is the same on any host and build profile.

use std::time::{Duration, Instant};

use prfpga_floorplan::{
    FeasibilityCache, FloorplanOutcome, Floorplanner, FloorplannerConfig, NODE_BUDGET,
};
use prfpga_model::{CancelToken, Device, ResourceVec};

const QUERIES: &str = include_str!("../tests/data/paper_suite_queries.txt");

fn main() {
    let device = Device::xc7z020();
    let planner = Floorplanner::new(FloorplannerConfig {
        time_limit: Duration::from_secs(600),
        ..Default::default()
    });
    println!("query  recorded    now         attempts        ms");
    let (mut total_ms, mut capped, mut capped_ms) = (0.0, 0, 0.0);
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
        // A fresh cache per query: every query is one cold solve.
        let cache = FeasibilityCache::new(planner.clone(), 1);
        let start = Instant::now();
        let outcome = cache.check_device(&device, &demands, &CancelToken::never());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let attempts = cache.stats().nodes;
        let now = match outcome {
            FloorplanOutcome::Feasible(_) => "feasible",
            FloorplanOutcome::Infeasible => "infeasible",
            FloorplanOutcome::Timeout => "timeout",
        };
        println!("{q:>5}  {recorded:<10}  {now:<10}  {attempts:>8}  {ms:>8.2}");
        total_ms += ms;
        if attempts == NODE_BUDGET {
            capped += 1;
            capped_ms += ms;
        }
    }
    println!("all queries: {total_ms:.1} ms");
    println!("capped at {NODE_BUDGET} attempts: {capped} queries, {capped_ms:.1} ms");
}
