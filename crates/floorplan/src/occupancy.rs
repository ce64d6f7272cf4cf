//! Column-segment accounting, the candidate order and bitset occupancy
//! for the floorplanner.
//!
//! A *column segment* is one column by one clock-region row: the unit a
//! reconfigurable region is built from. Disjoint rectangles cover disjoint
//! segments, so for every resource kind the segments the regions cover
//! can never exceed the segments the fabric has. [`Columns`] counts a
//! rectangle's segments per kind in O(1) and holds the per-kind column
//! positions the candidate enumeration reads; [`order_key`] packs a candidate's
//! preference rank into one integer; [`Occupancy`] tracks which cells the
//! greedy passes have taken as a `rows × ⌈cols/64⌉` word grid.

use prfpga_model::{FabricGeometry, ResourceKind, NUM_RESOURCE_KINDS};

use crate::rect::Rect;

/// Coverage dimensions: column segments of each resource kind (CLB, BRAM,
/// DSP), then all cells regardless of kind.
pub(crate) const DIMS: usize = NUM_RESOURCE_KINDS + 1;

/// Segments covered per dimension (see [`DIMS`]).
pub(crate) type Cover = [u64; DIMS];

/// Per-kind prefix sums and positions over the fabric's columns, built
/// once per solve.
#[derive(Debug)]
pub(crate) struct Columns {
    /// `prefix[c][k]`: columns of kind `k` among the first `c` columns.
    prefix: Vec<[u32; NUM_RESOURCE_KINDS]>,
    /// `at[k]`: the positions of kind `k`'s columns, ascending.
    pub(crate) at: [Vec<u32>; NUM_RESOURCE_KINDS],
    /// `units[k]`: resources of kind `k` one column holds per row (0 when
    /// the fabric has no such column).
    pub(crate) units: [u64; NUM_RESOURCE_KINDS],
    pub(crate) rows: u32,
}

impl Columns {
    /// Panics on a fabric of more than [`FabricGeometry::MAX_DIM`] columns
    /// or rows (which `ProblemInstance::validate` rejects): the packed
    /// [`order_key`] holds each coordinate in 16 bits.
    pub(crate) fn new(geometry: &FabricGeometry) -> Self {
        let max = FabricGeometry::MAX_DIM;
        assert!(
            geometry.columns.len() <= max as usize && geometry.rows <= max,
            "fabric grids are limited to {max} columns and rows"
        );
        let mut prefix = Vec::with_capacity(geometry.columns.len() + 1);
        let mut at: [Vec<u32>; NUM_RESOURCE_KINDS] = Default::default();
        let mut units = [0u64; NUM_RESOURCE_KINDS];
        let mut run = [0u32; NUM_RESOURCE_KINDS];
        prefix.push(run);
        for (c, col) in geometry.columns.iter().enumerate() {
            let k = col.kind().index();
            run[k] += 1;
            prefix.push(run);
            at[k].push(c as u32);
            units[k] = col.units_per_row();
        }
        Columns {
            prefix,
            at,
            units,
            rows: geometry.rows,
        }
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> u32 {
        self.prefix.len() as u32 - 1
    }

    /// Columns of each kind among the first `c` columns.
    pub(crate) fn before(&self, c: u32) -> &[u32; NUM_RESOURCE_KINDS] {
        &self.prefix[c as usize]
    }

    /// Segments columns `[col_start, col_end)` cover over `height` rows,
    /// per dimension.
    pub(crate) fn span(&self, col_start: u32, col_end: u32, height: u32) -> Cover {
        let (a, b) = (
            &self.prefix[col_start as usize],
            &self.prefix[col_end as usize],
        );
        let mut out = [0; DIMS];
        for k in 0..NUM_RESOURCE_KINDS {
            out[k] = u64::from(b[k] - a[k]) * u64::from(height);
        }
        out[NUM_RESOURCE_KINDS] = u64::from(col_end - col_start) * u64::from(height);
        out
    }

    /// Segments `r` covers per dimension.
    pub(crate) fn cover(&self, r: &Rect) -> Cover {
        self.span(r.col_start, r.col_end, r.height())
    }

    /// Segments the whole fabric has per dimension.
    pub(crate) fn capacity(&self) -> Cover {
        self.span(0, self.len(), self.rows)
    }
}

/// Bitset occupancy of the fabric grid: bit `c % 64` of word
/// `row · words + c / 64` is set while cell (column `c`, `row`) is taken.
#[derive(Debug)]
pub(crate) struct Occupancy {
    words: usize,
    grid: Vec<u64>,
}

impl Occupancy {
    pub(crate) fn new(geometry: &FabricGeometry) -> Self {
        let words = geometry.columns.len().div_ceil(64);
        Occupancy {
            words,
            grid: vec![0; words * geometry.rows as usize],
        }
    }

    /// True when no cell of `r` is taken.
    #[inline]
    pub(crate) fn fits(&self, r: &Rect) -> bool {
        grid_words(self.words, r).all(|(w, mask)| self.grid[w] & mask == 0)
    }

    /// Flips every cell of `r`: takes a free rectangle, frees a taken one.
    #[inline]
    pub(crate) fn toggle(&mut self, r: &Rect) {
        for (w, mask) in grid_words(self.words, r) {
            self.grid[w] ^= mask;
        }
    }

    /// Frees every cell.
    pub(crate) fn clear(&mut self) {
        self.grid.fill(0);
    }
}

/// The grid words `r` touches, with its bits in each: one per row and
/// 64-column block, on a grid `words` words wide.
fn grid_words(words: usize, r: &Rect) -> impl Iterator<Item = (usize, u64)> {
    let (first, last) = (r.col_start as usize / 64, (r.col_end as usize - 1) / 64);
    let (col_start, col_end) = (r.col_start as usize, r.col_end as usize);
    (r.row_start as usize..r.row_end as usize).flat_map(move |row| {
        (first..=last).map(move |w| {
            let lo = col_start.max(w * 64) - w * 64;
            let hi = col_end.min(w * 64 + 64) - w * 64;
            (row * words + w, (u64::MAX >> (64 - (hi - lo))) << lo)
        })
    })
}

/// The candidate order as one integer: special (BRAM and DSP) segments
/// covered (read from `cover`, the rectangle's [`Columns::cover`]), then
/// area, then `col_start`, `row_start`, `col_end`, `row_end`, in
/// 32 + 32 + 4 x 16 bits. It holds the whole rectangle, so the order is
/// total and [`rect_of_key`] inverts it.
pub(crate) fn order_key(cover: &Cover, r: &Rect) -> u128 {
    let special = cover[ResourceKind::Bram.index()] + cover[ResourceKind::Dsp.index()];
    (u128::from(special) << 96)
        | (u128::from(r.area()) << 64)
        | (u128::from(r.col_start) << 48)
        | (u128::from(r.row_start) << 32)
        | (u128::from(r.col_end) << 16)
        | u128::from(r.row_end)
}

/// The rectangle an [`order_key`] encodes.
pub(crate) fn rect_of_key(key: u128) -> Rect {
    let field = |shift: u32| (key >> shift) as u32 & 0xffff;
    Rect::new(field(48), field(16), field(32), field(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::FabricColumn;

    #[test]
    fn cover_counts_segments_per_kind() {
        let geom = FabricGeometry::from_pattern(
            &[FabricColumn::Clb, FabricColumn::Bram, FabricColumn::Dsp],
            2,
            4,
        );
        let cols = Columns::new(&geom);
        assert_eq!(cols.cover(&Rect::new(0, 3, 1, 3)), [2, 2, 2, 6]);
        assert_eq!(cols.cover(&Rect::new(2, 4, 0, 1)), [1, 0, 1, 2]);
        assert_eq!(cols.capacity(), [8, 8, 8, 24]);
    }

    #[test]
    fn occupancy_matches_pairwise_overlap() {
        let geom = FabricGeometry::from_pattern(&[FabricColumn::Clb], 150, 3);
        let rects = [
            Rect::new(0, 1, 0, 1),
            Rect::new(60, 70, 1, 3),
            Rect::new(63, 64, 0, 3),
            Rect::new(64, 65, 2, 3),
            Rect::new(10, 140, 0, 1),
            Rect::new(140, 150, 0, 3),
        ];
        for a in &rects {
            let mut occ = Occupancy::new(&geom);
            occ.toggle(a);
            for b in &rects {
                assert_eq!(occ.fits(b), !a.overlaps(b), "{a:?} vs {b:?}");
            }
            occ.toggle(a);
            assert!(occ.grid.iter().all(|&w| w == 0), "toggle twice frees");
        }
    }
}
