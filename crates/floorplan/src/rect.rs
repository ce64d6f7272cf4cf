//! Rectangles on the fabric grid.

use serde::{Deserialize, Serialize};

use prfpga_model::{FabricGeometry, ResourceVec};

/// A rectangle of fabric: columns `[col_start, col_end)` by clock-region
/// rows `[row_start, row_end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// First column (inclusive).
    pub col_start: u32,
    /// One past the last column.
    pub col_end: u32,
    /// First clock-region row (inclusive).
    pub row_start: u32,
    /// One past the last row.
    pub row_end: u32,
}

impl Rect {
    /// Builds a rectangle; panics in debug builds on inverted bounds.
    pub fn new(col_start: u32, col_end: u32, row_start: u32, row_end: u32) -> Self {
        debug_assert!(
            col_start < col_end && row_start < row_end,
            "degenerate rect"
        );
        Rect {
            col_start,
            col_end,
            row_start,
            row_end,
        }
    }

    /// Number of grid cells covered.
    #[inline]
    pub fn area(&self) -> u64 {
        (self.col_end - self.col_start) as u64 * (self.row_end - self.row_start) as u64
    }

    /// Width in columns.
    #[inline]
    pub fn width(&self) -> u32 {
        self.col_end - self.col_start
    }

    /// Height in rows.
    #[inline]
    pub fn height(&self) -> u32 {
        self.row_end - self.row_start
    }

    /// True when the two rectangles share at least one grid cell.
    #[inline]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.col_start < other.col_end
            && other.col_start < self.col_end
            && self.row_start < other.row_end
            && other.row_start < self.row_end
    }

    /// Resources provided by this rectangle on `geometry`.
    pub fn resources(&self, geometry: &FabricGeometry) -> ResourceVec {
        geometry.rect_resources(
            self.col_start as usize,
            self.col_end as usize,
            self.height(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::FabricColumn;

    #[test]
    fn geometry_queries() {
        let geom = FabricGeometry::from_pattern(
            &[FabricColumn::Clb, FabricColumn::Bram, FabricColumn::Dsp],
            2,
            4,
        );
        let r = Rect::new(0, 3, 1, 3);
        assert_eq!(r.area(), 6);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 2);
        assert_eq!(r.resources(&geom), ResourceVec::new(100, 20, 40));
    }

    #[test]
    fn overlap_semantics() {
        let a = Rect::new(0, 2, 0, 2);
        let b = Rect::new(2, 4, 0, 2); // touching columns
        let c = Rect::new(1, 3, 1, 3); // genuine overlap
        let d = Rect::new(0, 2, 2, 4); // touching rows
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(!a.overlaps(&d));
        assert!(a.overlaps(&a));
    }
}
