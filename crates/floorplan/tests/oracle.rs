//! Exactness of the planner's verdict against a brute-force oracle.
//!
//! On grids small enough to enumerate, the oracle tries every tuple of
//! rectangles — any size, any position, not only the planner's minimal
//! candidates — with each rectangle covering its region's demand, and
//! reports whether a pairwise-disjoint tuple exists. The planner must agree
//! on every instance: a `Feasible` the oracle cannot confirm would be an
//! unsound witness, an `Infeasible` it refutes would be an unsound bound.

use std::time::Duration;

use proptest::prelude::*;

use prfpga_floorplan::{FloorplanOutcome, Floorplanner, FloorplannerConfig};
use prfpga_model::{CancelToken, FabricColumn, FabricGeometry, ResourceVec};

/// A rectangle as `(col_start, col_end, row_start, row_end)`, half-open.
type Cells = (u32, u32, u32, u32);

/// Every rectangle on `geom` whose resources cover `demand`, summed column
/// by column from the column kinds.
fn covering_rects(geom: &FabricGeometry, demand: &ResourceVec) -> Vec<Cells> {
    let cols = geom.columns.len() as u32;
    let mut out = Vec::new();
    for cs in 0..cols {
        for ce in cs + 1..=cols {
            for rs in 0..geom.rows {
                for re in rs + 1..=geom.rows {
                    let mut have = ResourceVec::ZERO;
                    for col in &geom.columns[cs as usize..ce as usize] {
                        have[col.kind()] += col.units_per_row() * u64::from(re - rs);
                    }
                    if demand.fits_in(&have) {
                        out.push((cs, ce, rs, re));
                    }
                }
            }
        }
    }
    out
}

/// Places region `k..` on a grid where `taken[row][col]` marks used cells.
fn place(options: &[Vec<Cells>], k: usize, taken: &mut [Vec<bool>]) -> bool {
    let Some(mine) = options.get(k) else {
        return true;
    };
    for &(cs, ce, rs, re) in mine {
        let cells = || (rs..re).flat_map(move |r| (cs..ce).map(move |c| (r as usize, c as usize)));
        if cells().any(|(r, c)| taken[r][c]) {
            continue;
        }
        cells().for_each(|(r, c)| taken[r][c] = true);
        if place(options, k + 1, taken) {
            return true;
        }
        cells().for_each(|(r, c)| taken[r][c] = false);
    }
    false
}

/// True when some pairwise-disjoint rectangle tuple covers every demand.
fn oracle(geom: &FabricGeometry, demands: &[ResourceVec]) -> bool {
    let options: Vec<Vec<Cells>> = demands.iter().map(|d| covering_rects(geom, d)).collect();
    let mut taken = vec![vec![false; geom.columns.len()]; geom.rows as usize];
    place(&options, 0, &mut taken)
}

/// Strategy: a fabric of at most 8 columns by 4 rows.
fn tiny_geometry() -> impl Strategy<Value = FabricGeometry> {
    (proptest::collection::vec(0u8..3, 1..9), 1u32..5).prop_map(|(cols, rows)| FabricGeometry {
        columns: cols
            .into_iter()
            .map(|c| match c {
                0 => FabricColumn::Clb,
                1 => FabricColumn::Bram,
                _ => FabricColumn::Dsp,
            })
            .collect(),
        rows,
    })
}

/// Strategy: one to four regions, each demanding a few column segments of
/// a random subset of kinds, so both verdicts are common on the grids
/// above.
fn tiny_demands() -> impl Strategy<Value = Vec<ResourceVec>> {
    proptest::collection::vec(
        (1u8..8, 1u64..110, 1u64..15, 1u64..25).prop_map(|(kinds, c, b, d)| {
            let keep = |bit: u8, v: u64| if kinds & bit != 0 { v } else { 0 };
            ResourceVec::new(keep(1, c), keep(2, b), keep(4, d))
        }),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn verdict_matches_brute_force(geom in tiny_geometry(), demands in tiny_demands()) {
        let planner = Floorplanner::new(FloorplannerConfig {
            time_limit: Duration::from_secs(30),
            ..Default::default()
        });
        let got = planner.solve(&geom, &demands, &CancelToken::never());
        prop_assert!(got != FloorplanOutcome::Timeout, "tiny grids never time out");
        prop_assert_eq!(got.is_feasible(), oracle(&geom, &demands),
            "planner says {:?}", got);
    }
}

#[test]
fn oracle_sanity() {
    let one_clb = FabricGeometry {
        columns: vec![FabricColumn::Clb],
        rows: 2,
    };
    let d = ResourceVec::new(50, 0, 0);
    assert!(oracle(&one_clb, &[d, d]));
    assert!(!oracle(&one_clb, &[d, d, d]));
    assert!(!oracle(&one_clb, &[ResourceVec::new(0, 1, 0)]));
    assert!(oracle(&one_clb, &[]));
}
