//! Verdict regression over the paper suite's floorplanning queries.
//!
//! `data/paper_suite_queries.txt` holds every query PA asks over the
//! standard suite, with the verdict the exhaustive search alone returned
//! at a 250 ms wall-clock limit. The coverage bound and the search must
//! keep every decided verdict, and the bound must settle most of the
//! former timeouts without reading the clock. The search itself is bounded
//! by [`NODE_BUDGET`], not by the clock: every decided verdict stays well
//! inside it, and the former timeouts the bound leaves open use it up
//! under a limit long enough that the clock never stops them. The
//! witnesses of the Feasible verdicts are pinned by one digest, and the
//! placement attempts of every query by another.

use std::time::Duration;

use prfpga_floorplan::{
    CacheStats, FeasibilityCache, FloorplanOutcome, Floorplanner, FloorplannerConfig, NODE_BUDGET,
};
use prfpga_model::{CancelToken, Device, ResourceVec};

const QUERIES: &str = include_str!("data/paper_suite_queries.txt");

/// Former timeouts the coverage bound must turn into `Infeasible` with a
/// zero time limit.
const MIN_TIMEOUTS_SETTLED: usize = 52;

/// Former timeouts the coverage bound leaves open; the node budget stops
/// each of them.
const TIMEOUTS_AT_BUDGET: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recorded {
    Feasible,
    Infeasible,
    Timeout,
}

fn queries() -> Vec<(Recorded, Vec<ResourceVec>)> {
    QUERIES
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let verdict = match fields.next().expect("verdict") {
                "feasible" => Recorded::Feasible,
                "infeasible" => Recorded::Infeasible,
                "timeout" => Recorded::Timeout,
                other => panic!("unknown verdict {other:?}"),
            };
            let demands = fields
                .map(|triple| {
                    let v: Vec<u64> = triple
                        .split(',')
                        .map(|x| x.parse().expect("demand"))
                        .collect();
                    ResourceVec::new(v[0], v[1], v[2])
                })
                .collect();
            (verdict, demands)
        })
        .collect()
}

fn planner(time_limit: Duration) -> Floorplanner {
    Floorplanner::new(FloorplannerConfig {
        time_limit,
        ..Default::default()
    })
}

#[test]
fn fixture_covers_the_whole_suite() {
    let q = queries();
    let count = |v| q.iter().filter(|(r, _)| *r == v).count();
    assert_eq!(q.len(), 203);
    assert_eq!(count(Recorded::Feasible), 100);
    assert_eq!(count(Recorded::Infeasible), 43);
    assert_eq!(count(Recorded::Timeout), 60);
}

/// Every decided verdict is kept: Feasible stays Feasible with a sound
/// witness, Infeasible stays Infeasible. The generous limit only absorbs
/// slow (debug) builds; a verdict is never allowed to become a timeout.
#[test]
fn decided_verdicts_are_kept() {
    let device = Device::xc7z020();
    let geom = device.geometry.as_ref().expect("xc7z020 has a geometry");
    let planner = planner(Duration::from_secs(120));
    for (q, (recorded, demands)) in queries().iter().enumerate() {
        if *recorded == Recorded::Timeout {
            continue;
        }
        let got = planner.solve(geom, demands, &CancelToken::never());
        match (recorded, &got) {
            (Recorded::Feasible, FloorplanOutcome::Feasible(rects)) => {
                assert_eq!(rects.len(), demands.len(), "query {q}");
                for (i, r) in rects.iter().enumerate() {
                    assert!(
                        demands[i].fits_in(&r.resources(geom)),
                        "query {q}: {r:?} does not cover {:?}",
                        demands[i]
                    );
                    assert!(r.col_end as usize <= geom.columns.len() && r.row_end <= geom.rows);
                    for r2 in &rects[i + 1..] {
                        assert!(!r.overlaps(r2), "query {q}: {r:?} overlaps {r2:?}");
                    }
                }
            }
            (Recorded::Infeasible, FloorplanOutcome::Infeasible) => {}
            _ => panic!("query {q}: recorded {recorded:?}, now {got:?}"),
        }
    }
}

/// The coverage bound settles former timeouts before any clock check: with
/// a zero time limit they still come back `Infeasible`, so this does not
/// depend on machine speed. A zero limit stops everything past the root,
/// so no recorded Feasible may come back `Infeasible` here either.
#[test]
fn coverage_bound_settles_former_timeouts() {
    let device = Device::xc7z020();
    let geom = device.geometry.as_ref().expect("xc7z020 has a geometry");
    let planner = planner(Duration::ZERO);
    let mut settled = 0;
    for (recorded, demands) in queries() {
        let got = planner.solve(geom, &demands, &CancelToken::never());
        if recorded == Recorded::Feasible {
            assert_ne!(got, FloorplanOutcome::Infeasible, "{demands:?}");
        }
        if recorded == Recorded::Timeout && got == FloorplanOutcome::Infeasible {
            settled += 1;
        }
    }
    assert!(
        settled >= MIN_TIMEOUTS_SETTLED,
        "only {settled} of 60 former timeouts settled at the root"
    );
}

/// One cold solve of `demands` on the xc7z020 through a fresh cache, with
/// the cache's counters for it.
fn counted_solve(
    planner: &Floorplanner,
    demands: &[ResourceVec],
) -> (FloorplanOutcome, CacheStats) {
    let cache = FeasibilityCache::new(planner.clone(), 1);
    let outcome = cache.check_device(&Device::xc7z020(), demands, &CancelToken::never());
    (outcome, cache.stats())
}

/// Every decided verdict is reached within a quarter of the node budget,
/// so the budget cuts off no search that would decide.
#[test]
fn decided_verdicts_stay_within_a_quarter_of_the_node_budget() {
    let planner = planner(Duration::from_secs(120));
    for (q, (recorded, demands)) in queries().iter().enumerate() {
        if *recorded == Recorded::Timeout {
            continue;
        }
        let (got, stats) = counted_solve(&planner, demands);
        let decided = match recorded {
            Recorded::Feasible => got.is_feasible(),
            _ => got == FloorplanOutcome::Infeasible,
        };
        assert!(decided, "query {q}: recorded {recorded:?}, now {got:?}");
        assert!(
            stats.nodes <= NODE_BUDGET / 4,
            "query {q}: decided after {} DFS nodes",
            stats.nodes
        );
    }
}

/// The former timeouts the coverage bound leaves open give up at the node
/// budget: under a 120 s time limit they come back `Timeout` after exactly
/// `NODE_BUDGET` nodes, so the budget, not the clock, stopped them.
#[test]
fn node_budget_stops_the_remaining_timeouts() {
    let planner = planner(Duration::from_secs(120));
    let mut at_budget = 0;
    for (q, (recorded, demands)) in queries().iter().enumerate() {
        if *recorded != Recorded::Timeout {
            continue;
        }
        let (got, stats) = counted_solve(&planner, demands);
        if stats.root_infeasible == 1 {
            continue;
        }
        assert_eq!(got, FloorplanOutcome::Timeout, "query {q}");
        assert_eq!(stats.nodes, NODE_BUDGET, "query {q}");
        at_budget += 1;
    }
    assert_eq!(at_budget, TIMEOUTS_AT_BUDGET);
}

/// FNV-1a (64-bit) folded over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of every witness the recorded Feasible queries get, in fixture
/// order: each rectangle's four coordinates as little-endian `u32`s.
const WITNESS_DIGEST: u64 = 7078378608827858083;

/// The witnesses, not only the verdicts, are pinned: a search that finds a
/// different first placement changes the schedules built on it.
#[test]
fn feasible_witnesses_are_pinned() {
    let device = Device::xc7z020();
    let geom = device.geometry.as_ref().expect("xc7z020 has a geometry");
    let planner = planner(Duration::from_secs(120));
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut witnesses = 0;
    for (q, (recorded, demands)) in queries().iter().enumerate() {
        if *recorded != Recorded::Feasible {
            continue;
        }
        let FloorplanOutcome::Feasible(rects) = planner.solve(geom, demands, &CancelToken::never())
        else {
            panic!("query {q}: recorded Feasible");
        };
        for r in rects {
            for v in [r.col_start, r.col_end, r.row_start, r.row_end] {
                hash = fnv1a(hash, &v.to_le_bytes());
            }
        }
        witnesses += 1;
    }
    assert_eq!(witnesses, 100);
    assert_eq!(hash, WITNESS_DIGEST, "witness digest {hash}");
}

/// Digest of every fixture query's placement attempts, in fixture order:
/// each count as a little-endian `u64`.
const ATTEMPT_DIGEST: u64 = 13043909402906435004;

/// The search's trajectory, not only its verdicts and witnesses, is
/// pinned: a change to how domains are stored or narrowed must make the
/// same attempts, so every query reports the same count.
#[test]
fn attempt_counts_are_pinned() {
    let planner = planner(Duration::from_secs(600));
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (_, demands) in queries() {
        let (_, stats) = counted_solve(&planner, &demands);
        hash = fnv1a(hash, &stats.nodes.to_le_bytes());
    }
    assert_eq!(hash, ATTEMPT_DIGEST, "attempt digest {hash}");
}
