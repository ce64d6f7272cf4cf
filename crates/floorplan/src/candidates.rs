//! Feasible-placement enumeration.
//!
//! For one region demand, enumerate the *minimal feasible rectangles*: for
//! every row span `[row_start, row_end)` and every starting column, the
//! shortest column run whose resources cover the demand. Any feasible
//! placement contains one of these minimal rectangles, so searching over
//! minimal rectangles only is complete for the feasibility question — the
//! key idea behind the "feasible placements detection" of the paper's
//! ref. \[3\].

use std::ops::Range;

use prfpga_model::{FabricGeometry, ResourceVec, NUM_RESOURCE_KINDS};

use crate::occupancy::Columns;
use crate::rect::Rect;

/// Enumerates the minimal feasible rectangles for `demand` on `geometry`,
/// sorted by ascending area then position (deterministic).
///
/// # Panics
///
/// On a fabric of more than [`FabricGeometry::MAX_DIM`] columns or rows,
/// which `ProblemInstance::validate` rejects.
pub fn minimal_rects(geometry: &FabricGeometry, demand: &ResourceVec) -> Vec<Rect> {
    let mut out = Vec::new();
    for_each_minimal_run(
        &Columns::new(geometry),
        demand,
        |col_start, col_end, height, row_starts| {
            out.extend(row_starts.map(|row| Rect::new(col_start, col_end, row, row + height)));
        },
    );
    out.sort_unstable_by_key(|r| (r.area(), r.col_start, r.row_start, r.col_end, r.row_end));
    out
}

/// The minimal feasible rectangles in enumeration order, grouped by column
/// run: `emit(col_start, col_end, height, row_starts)` stands for the
/// rectangles of columns `[col_start, col_end)` and `height` rows starting
/// at each row in `row_starts`.
///
/// Every row holds the same columns, so the minimal column run for a start
/// column depends only on the height. At height `h` a run must hold
/// `⌈demand / (units per row · h)⌉` columns of each kind, so it ends one
/// past the furthest of the kinds' last needed columns: an O(1) lookup in
/// the per-kind column positions of `columns` for each start column.
pub(crate) fn for_each_minimal_run(
    columns: &Columns,
    demand: &ResourceVec,
    mut emit: impl FnMut(u32, u32, u32, Range<u32>),
) {
    let (cols, rows) = (columns.len(), columns.rows);
    if cols == 0 || rows == 0 {
        return;
    }
    if demand.is_zero() {
        // A zero-demand region still occupies one cell.
        emit(0, 1, 1, 0..1);
        return;
    }

    for height in 1..=rows {
        // Columns of each kind a run needs; a kind the fabric lacks can
        // never be met.
        let need: [usize; NUM_RESOURCE_KINDS] = std::array::from_fn(|k| {
            let units = columns.units[k];
            match demand.0[k] {
                0 => 0,
                _ if units == 0 => 1,
                d => usize::try_from(d.div_ceil(units * u64::from(height))).unwrap_or(usize::MAX),
            }
        });
        'start: for a in 0..cols {
            // Columns of each kind left of the start column.
            let seen = columns.before(a);
            let mut b = 0;
            for k in 0..NUM_RESOURCE_KINDS {
                if need[k] > 0 {
                    match columns.at[k].get((seen[k] as usize).saturating_add(need[k] - 1)) {
                        Some(&c) => b = b.max(c + 1),
                        // No later start column can succeed at this height.
                        None => break 'start,
                    }
                }
            }
            emit(a, b, height, 0..rows - height + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::FabricColumn;

    fn geom() -> FabricGeometry {
        // C C B C C D repeated twice, 2 rows.
        FabricGeometry::from_pattern(
            &[
                FabricColumn::Clb,
                FabricColumn::Clb,
                FabricColumn::Bram,
                FabricColumn::Clb,
                FabricColumn::Clb,
                FabricColumn::Dsp,
            ],
            2,
            2,
        )
    }

    #[test]
    fn every_candidate_covers_demand() {
        let g = geom();
        let demand = ResourceVec::new(120, 10, 0);
        let rects = minimal_rects(&g, &demand);
        assert!(!rects.is_empty());
        for r in &rects {
            assert!(
                demand.fits_in(&r.resources(&g)),
                "rect {r:?} must cover demand"
            );
        }
    }

    #[test]
    fn candidates_are_width_minimal() {
        let g = geom();
        let demand = ResourceVec::new(120, 10, 0);
        for r in minimal_rects(&g, &demand) {
            // Dropping the last column must break coverage.
            if r.width() > 1 {
                let narrower = Rect::new(r.col_start, r.col_end - 1, r.row_start, r.row_end);
                assert!(
                    !demand.fits_in(&narrower.resources(&g)),
                    "rect {r:?} is not minimal"
                );
            }
        }
    }

    #[test]
    fn impossible_demand_yields_nothing() {
        let g = geom();
        // More BRAM than the whole fabric offers (4 columns x 10 x 2 rows = 80).
        let demand = ResourceVec::new(0, 1000, 0);
        assert!(minimal_rects(&g, &demand).is_empty());
    }

    #[test]
    fn zero_demand_gets_unit_cell() {
        let g = geom();
        let rects = minimal_rects(&g, &ResourceVec::ZERO);
        assert_eq!(rects, vec![Rect::new(0, 1, 0, 1)]);
    }

    #[test]
    fn single_kind_demand_prefers_single_column() {
        let g = geom();
        // 50 CLBs fit in one CLB column x 1 row.
        let rects = minimal_rects(&g, &ResourceVec::new(50, 0, 0));
        let best = rects.first().unwrap();
        assert_eq!(best.area(), 1);
        assert_eq!(g.columns[best.col_start as usize], FabricColumn::Clb);
    }

    #[test]
    fn taller_spans_allow_narrower_rects() {
        let g = geom();
        // 100 CLBs: 1 column x 2 rows, or 2 columns x 1 row.
        let rects = minimal_rects(&g, &ResourceVec::new(100, 0, 0));
        assert!(rects.iter().any(|r| r.width() == 1 && r.height() == 2));
        assert!(rects.iter().any(|r| r.width() == 2 && r.height() == 1));
    }

    #[test]
    fn empty_geometry() {
        let g = FabricGeometry {
            columns: vec![],
            rows: 0,
        };
        assert!(minimal_rects(&g, &ResourceVec::new(1, 0, 0)).is_empty());
    }
}
